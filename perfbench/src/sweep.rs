//! `fig9-sweep-cold`: the 11 synthesized Figure 9 libraries plus
//! `scale-12k`, written as one tree (one directory per library). Each pass
//! sweeps the tree in-process with `ffisafe_shard::sweep` over a fresh
//! cache directory (timed for `c_kloc_per_s`), then, twice, applies one
//! seeded one-function edit to lablgtk-2.2.0 and re-sweeps (`edit_*`),
//! then re-sweeps the unchanged tree (`unchanged_*`). Edits always go to
//! lablgtk, the largest Figure 9 library, so an edit re-sweep's latency
//! does not depend on which library a seed happens to pick.
//!
//! The traced run times the cold sweep's plan, map and reduce through
//! their public functions and replays every library's analysis stage by
//! stage against a fresh store; the replay's diagnostics must equal the
//! sweep's rows.

use crate::edits::{Editor, Lib};
use crate::oracle::Tally;
use crate::replay::{interner_seed, replay};
use crate::stats::{median, RssSampler};
use crate::trace::Tracer;
use crate::{p50_p90_ms, timed, Ctx, Outcome};
use ffisafe_bench::runner::scaling_spec;
use ffisafe_bench::spec::paper_benchmarks;
use ffisafe_cache::{CacheBackend, CacheStore};
use ffisafe_core::pipeline::cache::analyzer_cache_version;
use ffisafe_core::AnalysisOptions;
use ffisafe_shard::{executor, planner, MapConfig, MapMode, Schedule, SweepConfig, SweepReport};
use ffisafe_shard::{sweep, LibraryReport};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Tree set-ups per run; `setup_s` is their median. A set-up generates
/// the libraries and writes the tree: the sweep has no set-up of its own,
/// and writing 1.7 MB alone takes 2-15 ms depending on the page cache.
const SETUPS: usize = 3;
/// Edit and unchanged re-sweeps after each cold sweep.
const EDITS_PER_PASS: usize = 2;
/// The library every edit goes to.
const EDITED: &str = "lablgtk-2.2.0";

fn dir_name(lib: &Lib) -> String {
    if lib.spec.name == "scale" {
        "scale-12k".to_string()
    } else {
        lib.spec.name.to_string()
    }
}

fn write_lib(root: &Path, lib: &Lib) {
    let dir = root.join(dir_name(lib));
    std::fs::create_dir_all(&dir).expect("tree is writable");
    std::fs::write(dir.join("lib.ml"), lib.ml_source()).expect("tree is writable");
    std::fs::write(dir.join("glue.c"), lib.c_source()).expect("tree is writable");
}

/// Scores every library of a sweep report; returns whether the sweep
/// itself succeeded for all of them.
fn score(report: &SweepReport, libs: &[Lib], tally: &mut Tally) -> bool {
    for lr in &report.libraries {
        match libs.iter().find(|l| dir_name(l) == lr.library) {
            Some(lib) => tally.record(&lib.spec, &lib.bench, &lr.rows),
            None => tally.mismatch(format!("sweep reported unknown library {}", lr.library)),
        }
    }
    report.failures.is_empty() && report.libraries.len() == libs.len()
}

fn config(cache: PathBuf) -> SweepConfig {
    SweepConfig { cache_dir: Some(cache), ..SweepConfig::default() }
}

#[derive(Default)]
struct Passes {
    cold: Vec<f64>,
    kloc_per_s: Vec<f64>,
    edit: Vec<f64>,
    unchanged: Vec<f64>,
    rss_mb: Vec<f64>,
    c_functions: usize,
    attempted: u64,
    failed: u64,
}

impl Passes {
    fn timed_sweep(
        &mut self,
        root: &Path,
        cache: PathBuf,
        libs: &[Lib],
        tally: &mut Tally,
    ) -> Option<(f64, usize)> {
        self.attempted += 1;
        let (out, secs) = timed(|| sweep(root, &config(cache)));
        match out {
            Ok(out) if score(&out.report, libs, tally) => {
                self.c_functions = out.stats.functions;
                Some((secs, out.stats.c_loc))
            }
            _ => {
                self.failed += 1;
                None
            }
        }
    }
}

/// Untraced passes for one phase: a cold sweep, then edit and unchanged
/// re-sweeps over its cache.
fn passes(
    ctx: &Ctx,
    root: &Path,
    libs: &mut [Lib],
    editor: &mut Editor,
    tally: &mut Tally,
    with_edits: bool,
) -> Passes {
    let rss = RssSampler::start();
    let mut p = Passes::default();
    let start = Instant::now();
    let mut n = 0;
    while start.elapsed() < ctx.phase() {
        let cache = ctx.fresh_dir(&format!("sweep-cache-{n}"));
        n += 1;
        rss.reset();
        if let Some((secs, c_loc)) = p.timed_sweep(root, cache.clone(), libs, tally) {
            p.rss_mb.push(rss.peak_mb());
            p.cold.push(secs);
            p.kloc_per_s.push(c_loc as f64 / 1e3 / secs);
        }
        for _ in 0..if with_edits { EDITS_PER_PASS } else { 0 } {
            let lib = libs.iter_mut().find(|l| l.spec.name == EDITED).expect("lablgtk is swept");
            editor.next(lib);
            write_lib(root, lib);
            if let Some((secs, _)) = p.timed_sweep(root, cache.clone(), libs, tally) {
                p.edit.push(secs);
            }
            if let Some((secs, _)) = p.timed_sweep(root, cache.clone(), libs, tally) {
                p.unchanged.push(secs);
            }
        }
    }
    p
}

/// What one traced cold pass measured besides its spans.
struct TracedPass {
    secs: f64,
    /// Per-library analysis seconds / (sweep workers x map wall).
    balance: f64,
    workers_executed: usize,
}

/// One traced cold pass: plan, map and reduce through their public
/// functions, then a stage replay of every library against a fresh store.
fn traced_pass(
    ctx: &Ctx,
    tr: &Tracer,
    req: u64,
    root: &Path,
    libs: &[Lib],
    out: &mut Outcome,
) -> Option<TracedPass> {
    let cache = ctx.fresh_dir(&format!("traced-cache-{req}"));
    let t0 = Instant::now();
    let op = tr.span("op", req);
    let plan = tr
        .in_span("shard.plan", req, || planner::plan_with(root, 0, Schedule::Name, &HashMap::new()))
        .ok()?;
    let _ = std::fs::write(cache.join("sweep-manifest.json"), plan.manifest_json());
    let map_config = MapConfig {
        mode: MapMode::InProcess,
        jobs: 0,
        cache_dir: Some(cache.clone()),
        cache_url: None,
        options: AnalysisOptions::default(),
        retries: SweepConfig::default().retries,
    };
    let (mapped, map_s) =
        timed(|| tr.in_span("shard.map", req, || executor::execute(&plan, &map_config)));
    let mapped = mapped.ok()?;
    let workers = ffisafe_core::available_cores().clamp(1, plan.libraries.len().max(1));
    let mut libraries = Vec::new();
    let mut failures = plan.failures.clone();
    for result in mapped.results {
        match result {
            Ok(report) => libraries.push(report),
            Err(failure) => failures.push(failure),
        }
    }
    let work: f64 = libraries.iter().map(|l: &LibraryReport| l.exec.seconds).sum();
    let report = tr.in_span("shard.reduce", req, || {
        SweepReport::reduce(libraries, failures, mapped.cache_store)
    });
    drop(op);
    let secs = t0.elapsed().as_secs_f64();

    let pass = TracedPass {
        secs,
        balance: work / (workers as f64 * map_s),
        workers_executed: mapped.stats.workers_executed,
    };
    if let Some(cs) = &report.cache_store {
        out.set("cache.store.bytes", cs.live_bytes as f64, 1);
        out.set("cache.store.entries", cs.entries as f64, 1);
    }
    if !score(&report, libs, &mut out.tally) {
        return None;
    }

    let store: Arc<dyn CacheBackend> = Arc::new(
        CacheStore::open(
            &ctx.fresh_dir(&format!("traced-replay-{req}")),
            &analyzer_cache_version(),
        )
        .expect("replay store opens"),
    );
    let seed = interner_seed();
    for lib in &plan.libraries {
        let Some(corpus) = &lib.corpus else { continue };
        let replayed = replay(tr, req, corpus, &store, &seed);
        let swept = report.libraries.iter().find(|l| l.library == lib.name);
        if swept.map(|l| &l.rows) != Some(&replayed) {
            out.tally.mismatch(format!("stage replay differs from the sweep on {}", lib.name));
        }
    }
    Some(pass)
}

pub fn run(ctx: &Ctx) -> (Outcome, Tracer) {
    let mut specs = paper_benchmarks();
    specs.push(scaling_spec(12_000));
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut state = None;
    for i in 0..SETUPS {
        let (st, secs) = timed(|| {
            let libs: Vec<Lib> = specs.iter().cloned().map(Lib::new).collect();
            let root = ctx.fresh_dir(&format!("tree-{i}"));
            for lib in &libs {
                write_lib(&root, lib);
            }
            (libs, root)
        });
        setups.push(secs);
        state = Some(st);
    }
    let (mut libs, root) = state.expect("at least one setup");
    out.set("setup_s", median(&setups).unwrap_or(0.0), setups.len());
    let (c_lines, ml_lines, bytes) = libs.iter().fold((0, 0, 0), |acc, l| {
        let c = l.c_source();
        (
            acc.0 + c.lines().count(),
            acc.1 + l.ml_source().lines().count(),
            acc.2 + c.len() + l.ml_source().len(),
        )
    });

    let mut editor = Editor::new(ctx.seed);
    let mut tally = Tally::default();
    let plain = passes(ctx, &root, &mut libs, &mut editor, &mut tally, !ctx.trace);
    out.inputs.push(format!(
        "{} libraries: c_lines={c_lines} ml_lines={ml_lines} bytes={bytes} c_functions={}",
        libs.len(),
        plain.c_functions
    ));
    let tr = Tracer::new(ctx.trace);
    out.attempted += plain.attempted;
    out.failed += plain.failed;
    if ctx.trace {
        let mut traced = Vec::new();
        let start = Instant::now();
        let mut req = 0;
        while start.elapsed() < ctx.phase() {
            req += 1;
            out.attempted += 1;
            match traced_pass(ctx, &tr, req, &root, &libs, &mut out) {
                Some(pass) => traced.push(pass),
                None => out.failed += 1,
            }
        }
        let n = traced.len();
        let mean = |f: fn(&TracedPass) -> f64| traced.iter().map(f).sum::<f64>() / n.max(1) as f64;
        out.set("shard.map.balance", mean(|p| p.balance), n);
        out.set("core.infer.workers_executed", mean(|p| p.workers_executed as f64), n);
        let traced: Vec<f64> = traced.iter().map(|p| p.secs).collect();
        if let (Some(t), Some(u)) = (median(&traced), median(&plain.cold)) {
            out.set("trace.overhead_frac", t / u - 1.0, traced.len());
        }
        out.set_span_layers(&tr, traced.len());
    } else {
        let (u50, u90) = p50_p90_ms(&plain.unchanged);
        let (e50, e90) = p50_p90_ms(&plain.edit);
        out.set("c_kloc_per_s", median(&plain.kloc_per_s).unwrap_or(0.0), plain.kloc_per_s.len());
        out.set("unchanged_p50_ms", u50, plain.unchanged.len());
        out.set("unchanged_p90_ms", u90, plain.unchanged.len());
        out.set("edit_p50_ms", e50, plain.edit.len());
        out.set("edit_p90_ms", e90, plain.edit.len());
        out.set("peak_rss_mb", median(&plain.rss_mb).unwrap_or(0.0), plain.rss_mb.len());
    }
    out.tally.merge(tally);
    (out, tr)
}
