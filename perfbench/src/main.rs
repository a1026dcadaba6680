//! The ffisafe benchmark harness.
//!
//! ```text
//! ffisafe-perfbench --workload <fig9-sweep-cold|edit-local|served-edit>
//!                   --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! Prints one `metric <name> <value> <unit> n=<samples>` line per metric
//! and, as the last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` reports the per-layer metrics from a traced run, whose
//! spans are written to `<work-dir>/trace-<workload>-<seed>.json`.
//! Exits 1 when any report disagrees with ground truth or a check fails.

mod edits;
mod local;
mod oracle;
mod replay;
mod samples;
mod served;
mod stats;
mod sweep;
mod trace;

use oracle::Tally;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics: every workload reports each one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("c_kloc_per_s", "kLoC/s"),
    ("unchanged_p50_ms", "ms"),
    ("unchanged_p90_ms", "ms"),
    ("edit_p50_ms", "ms"),
    ("edit_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics from the traced run. `_s` metrics are mean seconds
/// of span self time per timed operation; a layer off a workload's path
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("support.json.decode_s", "s"),
    ("serve.wire.request_bytes", "bytes"),
    ("serve.wire.request_encode_s", "s"),
    ("serve.wire.reply_decode_s", "s"),
    ("serve.wire.round_trip_s", "s"),
    ("serve.daemon.request_s", "s"),
    ("serve.daemon.busy_total", "count"),
    ("serve.wire.unattributed_s", "s"),
    ("core.corpus.build_s", "s"),
    ("core.parse.ml_s", "s"),
    ("core.parse.c_s", "s"),
    ("core.frontend_ml.run_s", "s"),
    ("core.frontend_c.run_s", "s"),
    ("core.infer.link_s", "s"),
    ("core.cache.base_digest_s", "s"),
    ("core.infer.run_s", "s"),
    ("core.infer.workers_executed", "count"),
    ("core.discharge.run_s", "s"),
    ("core.report.render_s", "s"),
    ("core.service.analyze_s", "s"),
    ("core.unattributed_s", "s"),
    ("core.service.unchanged_p50_ms", "ms"),
    ("core.service.edit_p50_ms", "ms"),
    ("cache.tier1.misses_per_edit", "count"),
    ("cache.tier1.hit_ratio", "ratio"),
    ("cache.tier2.hit_ratio", "ratio"),
    ("cache.tier2.probe_s", "s"),
    ("cache.tier2.put_s", "s"),
    ("cache.store.bytes", "bytes"),
    ("cache.store.entries", "count"),
    ("shard.plan_s", "s"),
    ("shard.map_s", "s"),
    ("shard.reduce_s", "s"),
    ("shard.map.balance", "ratio"),
    ("edit.changed_functions", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// The stages the replay times inside one analysis; `core.unattributed_s`
/// is the service call minus their sum.
pub const REPLAY_STAGES: &[&str] = &[
    "core.parse.ml",
    "core.parse.c",
    "cache.tier2.probe",
    "core.frontend_ml.run",
    "core.frontend_c.run",
    "core.infer.link",
    "core.cache.base_digest",
    "core.infer.run",
    "core.discharge.run",
    "cache.tier2.put",
];

/// How many times each workload sets up; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub work: PathBuf,
}

impl Ctx {
    /// A new, empty directory under the work dir. Nothing under the work
    /// dir is deleted before the run ends: on a disk mounted with online
    /// discard, deleting thousands of cache files stalls the I/O of the
    /// operations being timed.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.work.join(name);
        assert!(!dir.exists(), "{} is used once per run", dir.display());
        std::fs::create_dir_all(&dir).expect("work dir is writable");
        dir
    }

    /// Budget for one measuring phase: the whole run, or half of it in a
    /// traced run, whose other half measures the untraced reference.
    pub fn phase(&self) -> Duration {
        Duration::from_secs_f64(if self.trace { self.seconds / 2.0 } else { self.seconds })
    }
}

/// A measured value with its sample count.
#[derive(Clone, Copy, Debug)]
pub struct Value {
    pub value: f64,
    pub n: usize,
}

pub fn val(value: f64, n: usize) -> Value {
    Value { value, n }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    pub metrics: BTreeMap<&'static str, Value>,
    pub attempted: u64,
    pub failed: u64,
    pub tally: Tally,
    /// Input-size lines printed before the metrics.
    pub inputs: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        self.metrics.insert(name, val(value, n));
    }

    /// Per-op self time of every span named after a `_s` per-layer metric.
    pub fn set_span_layers(&mut self, tr: &trace::Tracer, ops: usize) {
        let self_s = tr.self_seconds();
        for &(name, unit) in PER_LAYER {
            if unit != "s" || self.metrics.contains_key(name) {
                continue;
            }
            if let Some(total) = self_s.get(name.trim_end_matches("_s")) {
                self.set(name, total / ops.max(1) as f64, ops);
            }
        }
    }

    /// `core.unattributed_s`: the service call minus the replayed stages.
    pub fn set_unattributed(&mut self, ops: usize) {
        let get = |m: &BTreeMap<&'static str, Value>, k: &str| m.get(k).map_or(0.0, |v| v.value);
        let analyze = get(&self.metrics, "core.service.analyze_s");
        let stages: f64 = REPLAY_STAGES.iter().map(|s| get(&self.metrics, &format!("{s}_s"))).sum();
        self.set("core.unattributed_s", analyze - stages, ops);
    }
}

/// `(p50, p90)` of latencies in seconds, as milliseconds.
pub fn p50_p90_ms(samples: &[f64]) -> (f64, f64) {
    (
        stats::quantile(samples, 0.5).unwrap_or(0.0) * 1e3,
        stats::quantile(samples, 0.9).unwrap_or(0.0) * 1e3,
    )
}

/// Times `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

fn usage(msg: &str) -> ! {
    eprintln!("ffisafe-perfbench: {msg}");
    eprintln!(
        "usage: ffisafe-perfbench --workload <fig9-sweep-cold|edit-local|served-edit> \
         --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>"
    );
    std::process::exit(2)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut work) =
        (None, 0u64, 10.0, false, None);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds")),
            "--trace" => trace = value == "1",
            "--work-dir" => work = Some(PathBuf::from(value)),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let work = work.unwrap_or_else(|| usage("--work-dir is required"));
    let ctx =
        Ctx { seed, seconds, trace, work: work.join(format!("{workload}-{}", std::process::id())) };
    std::fs::create_dir_all(&ctx.work).expect("work dir is writable");

    let (out, tr) = match workload.as_str() {
        "fig9-sweep-cold" => sweep::run(&ctx),
        "edit-local" => local::run(&ctx),
        "served-edit" => served::run(&ctx),
        other => usage(&format!("unknown workload {other}")),
    };
    if trace {
        let path = work.join(format!("trace-{workload}-{seed}.json"));
        if let Err(e) = tr.write_chrome(&path) {
            eprintln!("ffisafe-perfbench: cannot write {}: {e}", path.display());
        }
    }
    // Deleting the run's cache files queues discards on a disk mounted
    // with online discard; flushing them now keeps them out of the next
    // run's timings.
    let _ = std::fs::remove_dir_all(&ctx.work);
    let _ = std::process::Command::new("sync").status();

    println!("workload {workload} seed {seed} seconds {seconds} trace {}", u8::from(trace));
    for line in &out.inputs {
        println!("input {line}");
    }
    let wanted = if trace { PER_LAYER } else { END_TO_END };
    let mut json = Vec::new();
    for &(name, unit) in wanted {
        let v = out.metrics.get(name).copied().unwrap_or(val(0.0, 0));
        println!("metric {name} {} {unit} n={}", v.value, v.n);
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(v.value)
        ));
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!("metric wrong_reports {} count n={}", out.tally.wrong, out.tally.scored);
    println!("metric failed_frac {failed_frac} ratio n={}", out.attempted);
    println!("check mismatches {}", out.tally.mismatches);
    for reason in &out.tally.reasons {
        println!("check failed: {reason}");
    }
    let correct = out.tally.wrong == 0 && out.tally.mismatches == 0 && out.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        json.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
