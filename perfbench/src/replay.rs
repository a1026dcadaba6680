//! The outside-in stage replay: `AnalysisService::analyze`'s stages called
//! one by one through the core crate's public pipeline functions, in the
//! engine's current order (parse, tier-2 probe, frontends, link, base
//! digest, infer, discharge, tier-2 put), each wrapped in a span.
//!
//! The traced runs check that the replay's diagnostics equal the
//! service's on every submission, which keeps the per-layer breakdown
//! tied to the real engine.

use crate::oracle::rows_of;
use crate::trace::Tracer;
use ffisafe_cache::{CacheBackend, Tier};
use ffisafe_core::pipeline::{cache, discharge, frontend_c, frontend_ml, frontend_rust, infer};
use ffisafe_core::pipeline::{CachedReport, PipelineCache};
use ffisafe_core::{registry, AnalysisOptions, Corpus, SourceKind};
use ffisafe_shard::DiagRow;
use ffisafe_support::{DiagnosticBag, Interner, Session, SourceMap};
use ffisafe_types::TypeTable;
use std::sync::Arc;

/// The interner every service session starts from.
pub fn interner_seed() -> Interner {
    let mut seed = Interner::new();
    for name in registry::runtime_names() {
        seed.intern(name);
    }
    seed
}

/// Replays one analysis of `corpus` against `store` under request id
/// `req`; returns its diagnostics as rows.
pub fn replay(
    tr: &Tracer,
    req: u64,
    corpus: &Corpus,
    store: &Arc<dyn CacheBackend>,
    seed: &Interner,
) -> Vec<DiagRow> {
    let _whole = tr.span("core.replay", req);
    let mut session = Session::with_options(AnalysisOptions::default());
    *session.interner_mut() = seed.clone();
    let mut ml_files = Vec::new();
    let mut c_units = Vec::new();
    let (mut ml_loc, mut c_loc) = (0, 0);
    for f in corpus.files() {
        let loc = f.src().lines().count();
        match f.kind() {
            SourceKind::Ml => {
                ml_loc += loc;
                ml_files.push(tr.in_span("core.parse.ml", req, || {
                    frontend_ml::parse(&mut session, f.name(), f.src())
                }));
            }
            SourceKind::C => {
                c_loc += loc;
                c_units.push(tr.in_span("core.parse.c", req, || {
                    frontend_c::parse(&mut session, f.name(), f.src())
                }));
            }
            SourceKind::Rust => panic!("benchmark corpora hold no Rust sources"),
        }
    }

    let mut pc = PipelineCache::from_shared(store.clone());
    let key = cache::report_key(corpus.fingerprint(), session.options());
    let hit = tr.in_span("cache.tier2.probe", req, || {
        let hit = pc.get(Tier::Report, key).and_then(|b| cache::decode_report(&b));
        if hit.is_some() {
            pc.flush();
        }
        hit
    });
    if let Some(cached) = hit {
        return rows_of(&cached.diagnostics, session.source_map());
    }

    let mut table = TypeTable::new();
    let ml = tr.in_span("core.frontend_ml.run", req, || {
        frontend_ml::run(&mut session, &ml_files, &mut table)
    });
    let c = tr.in_span("core.frontend_c.run", req, || frontend_c::run(&mut session, &c_units));
    frontend_rust::run(&mut session, &[], &c.program, Some(&pc));
    let mut base =
        tr.in_span("core.infer.link", req, || infer::link(&mut session, table, &ml, &c.program));
    pc.base_digest = tr.in_span("core.cache.base_digest", req, || {
        cache::base_state_digest(session.options(), &base, &ml.phase1)
    });
    let inferred = tr.in_span("core.infer.run", req, || {
        infer::run(&session, &base, &c.program, &ml.phase1, Some(&pc))
    });
    tr.in_span("core.discharge.run", req, || {
        discharge::run(&mut session, &mut base, &inferred, &ml.phase1)
    });
    let mut diags = session.take_diagnostics();
    diags.dedup();

    tr.in_span("cache.tier2.put", req, || {
        let entry = CachedReport {
            rendered: render_stable(&diags, session.source_map(), c_loc, ml_loc),
            errors: diags.count_errors(),
            warnings: diags.count_warnings(),
            imprecision: diags.count_imprecision(),
            diagnostics: diags.clone(),
        };
        pc.put(Tier::Report, key, &cache::encode_report(&entry));
        pc.flush();
    });
    rows_of(&diags, session.source_map())
}

/// The stable text report, in the layout of
/// `AnalysisReport::render_stable` for an OCaml/C corpus.
fn render_stable(diags: &DiagnosticBag, map: &SourceMap, c_loc: usize, ml_loc: usize) -> String {
    let mut out = String::new();
    for d in diags.iter() {
        let loc = map.resolve(d.span());
        out.push_str(&format!("{loc}: {} [{}]: {}\n", d.severity(), d.code(), d.message()));
        for (nspan, note) in d.notes() {
            out.push_str(&format!("  {}: note: {note}\n", map.resolve(*nspan)));
        }
    }
    out.push_str(&format!(
        "{} error(s), {} warning(s), {} imprecision report(s) — {} lines C, {} lines OCaml\n",
        diags.count_errors(),
        diags.count_warnings(),
        diags.count_imprecision(),
        c_loc,
        ml_loc,
    ));
    out
}
