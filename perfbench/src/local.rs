//! `edit-local`: one `AnalysisService` with an on-disk cache holds
//! lablgtk-2.2.0; one caller submits seeded cumulative one-function
//! edits, each followed by an unchanged resubmission. The clock spans
//! corpus build, `AnalysisService::analyze` and `render`.
//!
//! Every [`SESSION_ROUNDS`] rounds the loop starts a new cache session: a
//! fresh service over a fresh directory, filled by one cold analysis of
//! the current text (untimed). Within one long-lived store the edit
//! latency grows and swings between 200 and 600 ms on a disk-backed
//! cache as the store's index, rewritten on every request, grows with
//! every edit's several hundred new entries; bounding the session keeps the edit
//! metrics about the edit, not about how many edits preceded it.

use crate::edits::{build_corpus, Editor, Lib};
use crate::oracle::{rows_of_report, score_rows};
use crate::replay::{interner_seed, replay};
use crate::samples::{Op, Samples};
use crate::stats::{median, RssSampler};
use crate::trace::Tracer;
use crate::{timed, Ctx, Outcome, SETUPS};
use ffisafe_bench::figure9;
use ffisafe_bench::spec::paper_benchmarks;
use ffisafe_cache::{CacheBackend, CacheStore};
use ffisafe_core::pipeline::cache::analyzer_cache_version;
use ffisafe_core::{AnalysisReport, AnalysisRequest, AnalysisService};
use ffisafe_support::rng::Rng64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Warm reports kept for the cache-transparency check.
const TRANSPARENCY_SAMPLES: usize = 6;
/// Rounds (an edit and its unchanged resubmission) per cache session:
/// with ~620 new entries per edit, a session's store ends near 6k entries.
const SESSION_ROUNDS: usize = 8;

/// One timed submission: corpus build, analyze, render.
struct Submitted {
    request: AnalysisRequest,
    report: AnalysisReport,
    latency: f64,
    service_s: f64,
}

fn submit(tr: &Tracer, req: u64, service: &AnalysisService, lib: &Lib) -> Option<Submitted> {
    let (ml, c) = lib.texts();
    catch_unwind(AssertUnwindSafe(|| {
        let t0 = Instant::now();
        let corpus = tr.in_span("core.corpus.build", req, || build_corpus(ml, c));
        let request = AnalysisRequest::new(corpus);
        let s0 = Instant::now();
        let report = tr.in_span("core.service.analyze", req, || service.analyze(&request)).ok()?;
        std::hint::black_box(tr.in_span("core.report.render", req, || report.render()));
        let service_s = s0.elapsed().as_secs_f64();
        Some(Submitted { request, report, latency: t0.elapsed().as_secs_f64(), service_s })
    }))
    .ok()
    .flatten()
}

/// A service over a fresh cache directory, filled by one cold analysis
/// of `lib`'s current text.
fn fresh_service(ctx: &Ctx, name: &str, lib: &Lib) -> (AnalysisService, AnalysisReport) {
    let dir = ctx.fresh_dir(name);
    let service = AnalysisService::with_cache_dir(&dir).expect("cache dir opens");
    let (ml, c) = lib.texts();
    let report =
        service.analyze(&AnalysisRequest::new(build_corpus(ml, c))).expect("cold fill analyzes");
    let _ = report.render();
    (service, report)
}

/// One cache session: a filled service and, in a traced phase, a replay
/// store filled with the same text, so that both see exactly the same
/// submissions.
struct CacheSession {
    service: AnalysisService,
    replay: Option<Arc<dyn CacheBackend>>,
}

fn open_session(ctx: &Ctx, n: usize, lib: &Lib, traced: bool) -> CacheSession {
    let (service, _) = fresh_service(ctx, &format!("session-{n}"), lib);
    let replay_store = traced.then(|| {
        let store: Arc<dyn CacheBackend> = Arc::new(
            CacheStore::open(&ctx.fresh_dir(&format!("replay-{n}")), &analyzer_cache_version())
                .expect("replay store opens"),
        );
        let (ml, c) = lib.texts();
        replay(&Tracer::new(false), 0, &build_corpus(ml, c), &store, &interner_seed());
        store
    });
    CacheSession { service, replay: replay_store }
}

/// What carries over between the phases of one run: the edited text,
/// the edit sequence and the session count.
struct Loop<'a> {
    ctx: &'a Ctx,
    lib: Lib,
    editor: Editor,
    picker: Rng64,
    rss: RssSampler,
    sessions: usize,
    last_stats: Option<ffisafe_cache::CacheStats>,
}

impl Loop<'_> {
    /// Runs edit/unchanged rounds for one phase. With tracing on, every
    /// submission is also replayed stage by stage and its diagnostics
    /// must equal the service's.
    fn phase(&mut self, tr: &Tracer) -> Samples {
        let seed = interner_seed();
        let mut ph = Samples::default();
        let start = Instant::now();
        let mut req = 0u64;
        while start.elapsed() < self.ctx.phase() {
            let session = open_session(self.ctx, self.sessions, &self.lib, tr.is_on());
            self.sessions += 1;
            for _ in 0..SESSION_ROUNDS {
                if start.elapsed() >= self.ctx.phase() {
                    break;
                }
                ph.changed.push(self.editor.next(&mut self.lib) as f64);
                for unchanged in [false, true] {
                    req += 1;
                    self.submit_checked(tr, req, unchanged, &session, &seed, &mut ph);
                }
            }
            self.last_stats = session.service.cache_stats();
        }
        ph
    }

    fn submit_checked(
        &mut self,
        tr: &Tracer,
        req: u64,
        unchanged: bool,
        session: &CacheSession,
        seed: &ffisafe_support::Interner,
        ph: &mut Samples,
    ) {
        ph.attempted += 1;
        self.rss.reset();
        let Some(s) = tr.in_span("op", req, || submit(tr, req, &session.service, &self.lib)) else {
            ph.failed += 1;
            return;
        };
        let stats = &s.report.stats;
        ph.record(Op {
            unchanged,
            latency: s.latency,
            c_loc: stats.c_loc,
            report_hit: stats.cache_report_hit,
            workers: stats.workers_executed,
            fn_hits: stats.cache_fn_hits,
            fn_misses: stats.cache_fn_misses,
            rss_mb: Some(self.rss.peak_mb()),
            service_s: Some(s.service_s),
        });
        let rows = rows_of_report(&s.report);
        ph.tally.record(&self.lib.spec, &self.lib.bench, &rows);
        if let Some(store) = &session.replay {
            if replay(tr, req, s.request.corpus(), store, seed) != rows {
                ph.tally.mismatch(format!("stage replay differs from analyze at request {req}"));
            }
        }
        ph.maybe_keep(TRANSPARENCY_SAMPLES, &mut self.picker, &self.lib, || {
            s.report.render_stable()
        });
    }
}

pub fn run(ctx: &Ctx) -> (Outcome, Tracer) {
    let spec = paper_benchmarks().into_iter().find(|s| s.name == "lablgtk-2.2.0").expect("lablgtk");
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut state = None;
    let generated = Lib::new(spec);
    for i in 0..SETUPS {
        let ((lib, (_, report)), secs) = timed(|| {
            let lib = generated.clone();
            let filled = fresh_service(ctx, &format!("setup-{i}"), &lib);
            (lib, filled)
        });
        setups.push(secs);
        state = Some((lib, report));
    }
    let (lib, cold) = state.expect("at least one setup");
    out.set("setup_s", median(&setups).unwrap_or(0.0), setups.len());

    // The row scorer must agree with figure9::score on the cold report.
    let rows = rows_of_report(&cold);
    let mine = score_rows(&lib.bench, &rows);
    let theirs = figure9::score(&lib.spec, &lib.bench, &cold);
    if (mine.errors, mine.warnings, mine.false_pos, mine.imprecision)
        != (theirs.errors, theirs.warnings, theirs.false_pos, theirs.imprecision)
    {
        out.tally.mismatch(format!("row scorer {mine:?} disagrees with figure9::score {theirs:?}"));
    }
    out.tally.record(&lib.spec, &lib.bench, &rows);
    out.inputs.push(format!(
        "{}: c_lines={} ml_lines={} bytes={} c_functions={}",
        lib.name(),
        cold.stats.c_loc,
        cold.stats.ml_loc,
        lib.ml_source().len() + lib.c_source().len(),
        cold.stats.c_functions
    ));

    let mut run = Loop {
        ctx,
        lib,
        editor: Editor::new(ctx.seed),
        picker: Rng64::seed_from_u64(ctx.seed ^ 0x7EA5),
        rss: RssSampler::start(),
        sessions: 0,
        last_stats: None,
    };
    let mut plain = run.phase(&Tracer::new(false));
    let tr = Tracer::new(ctx.trace);
    if ctx.trace {
        let traced = run.phase(&tr);
        if let Some(cs) = run.last_stats {
            out.set("cache.store.bytes", cs.live_bytes as f64, 1);
            out.set("cache.store.entries", cs.entries as f64, 1);
        }
        out.set_span_layers(&tr, traced.ops());
        out.set_unattributed(traced.ops());
        traced.set_layers(&mut out, &plain);
        plain.merge_checks(traced);
    }
    plain.set_end_to_end(&mut out);
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    plain.check_transparency();
    out.tally.merge(plain.tally);
    (out, tr)
}
