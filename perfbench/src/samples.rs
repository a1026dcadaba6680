//! Samples of one measuring phase of an edit workload, and the metrics
//! derived from them.

use crate::edits::{build_corpus, Lib};
use crate::oracle::Tally;
use crate::stats::median;
use crate::{p50_p90_ms, Outcome};
use ffisafe_core::{AnalysisRequest, AnalysisService};
use ffisafe_support::rng::Rng64;

/// What one submission reported about itself.
pub struct Op {
    pub unchanged: bool,
    pub latency: f64,
    pub c_loc: usize,
    pub report_hit: bool,
    pub workers: usize,
    pub fn_hits: usize,
    pub fn_misses: usize,
    /// Peak resident set during the operation, when sampled.
    pub rss_mb: Option<f64>,
    /// The local service's analyze + render time, when measured.
    pub service_s: Option<f64>,
}

#[derive(Default)]
pub struct Samples {
    edit: Vec<f64>,
    unchanged: Vec<f64>,
    service_edit: Vec<f64>,
    service_unchanged: Vec<f64>,
    c_loc: f64,
    busy_s: f64,
    fn_misses: Vec<f64>,
    fn_hits: f64,
    report_hits: usize,
    workers: f64,
    pub changed: Vec<f64>,
    /// Peak resident set during each sampled operation, MiB.
    rss_mb: Vec<f64>,
    pub request_bytes: f64,
    pub bodies: Vec<Vec<u8>>,
    pub attempted: u64,
    pub failed: u64,
    pub tally: Tally,
    /// `(ml, c, warm render_stable)` kept for the cache-transparency check.
    pub kept: Vec<(String, String, String)>,
}

impl Samples {
    pub fn record(&mut self, op: Op) {
        self.c_loc += op.c_loc as f64;
        self.busy_s += op.latency;
        self.workers += op.workers as f64;
        self.report_hits += usize::from(op.report_hit);
        self.rss_mb.extend(op.rss_mb);
        if op.unchanged {
            self.unchanged.push(op.latency);
            self.service_unchanged.extend(op.service_s);
        } else {
            self.edit.push(op.latency);
            self.service_edit.extend(op.service_s);
            self.fn_misses.push(op.fn_misses as f64);
            self.fn_hits += op.fn_hits as f64;
        }
    }

    pub fn ops(&self) -> usize {
        self.edit.len() + self.unchanged.len()
    }

    pub fn merge(&mut self, o: Samples) {
        self.edit.extend(o.edit);
        self.unchanged.extend(o.unchanged);
        self.service_edit.extend(o.service_edit);
        self.service_unchanged.extend(o.service_unchanged);
        self.c_loc += o.c_loc;
        self.busy_s += o.busy_s;
        self.fn_misses.extend(o.fn_misses);
        self.fn_hits += o.fn_hits;
        self.report_hits += o.report_hits;
        self.workers += o.workers;
        self.changed.extend(o.changed);
        self.rss_mb.extend(o.rss_mb);
        self.request_bytes += o.request_bytes;
        self.bodies.extend(o.bodies);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.tally.merge(o.tally);
        self.kept.extend(o.kept);
    }

    /// Takes over `other`'s oracle tally and kept reports, not its samples.
    pub fn merge_checks(&mut self, other: Samples) {
        self.tally.merge(other.tally);
        self.kept.extend(other.kept);
    }

    /// The end-to-end metrics of an untraced phase.
    pub fn set_end_to_end(&self, out: &mut Outcome) {
        let (u50, u90) = p50_p90_ms(&self.unchanged);
        let (e50, e90) = p50_p90_ms(&self.edit);
        out.set("unchanged_p50_ms", u50, self.unchanged.len());
        out.set("unchanged_p90_ms", u90, self.unchanged.len());
        out.set("edit_p50_ms", e50, self.edit.len());
        out.set("edit_p90_ms", e90, self.edit.len());
        out.set("c_kloc_per_s", self.c_loc / 1e3 / self.busy_s.max(1e-9), self.ops());
        out.set("peak_rss_mb", median(&self.rss_mb).unwrap_or(0.0), self.rss_mb.len());
    }

    /// The cache, edit and local-service metrics of a traced phase, and
    /// the tracing overhead against the untraced phase `plain`.
    pub fn set_layers(&self, out: &mut Outcome, plain: &Samples) {
        let edits = self.fn_misses.len();
        let ops = self.ops();
        let misses = self.fn_misses.iter().fold(0.0, |a, b| a + b);
        out.set("cache.tier1.misses_per_edit", misses / edits.max(1) as f64, edits);
        out.set("cache.tier1.hit_ratio", self.fn_hits / (self.fn_hits + misses).max(1.0), edits);
        out.set("cache.tier2.hit_ratio", self.report_hits as f64 / ops.max(1) as f64, ops);
        out.set("core.infer.workers_executed", self.workers / ops.max(1) as f64, ops);
        let changed = self.changed.iter().fold(0.0, |a, b| a + b);
        let edits_made = self.changed.len();
        out.set("edit.changed_functions", changed / edits_made.max(1) as f64, edits_made);
        let (service_unchanged, _) = p50_p90_ms(&self.service_unchanged);
        let (service_edit, _) = p50_p90_ms(&self.service_edit);
        out.set("core.service.unchanged_p50_ms", service_unchanged, self.service_unchanged.len());
        out.set("core.service.edit_p50_ms", service_edit, self.service_edit.len());
        if let (Some(traced), Some(untraced)) = (median(&self.unchanged), median(&plain.unchanged))
        {
            out.set("trace.overhead_frac", traced / untraced - 1.0, self.unchanged.len());
        }
        out.attempted += self.attempted;
        out.failed += self.failed;
    }

    /// Keeps the first two reports and a seeded quarter of the rest, up to
    /// `cap`, for the cache-transparency check.
    pub fn maybe_keep(
        &mut self,
        cap: usize,
        picker: &mut Rng64,
        lib: &Lib,
        rendered: impl FnOnce() -> String,
    ) {
        if self.kept.len() < cap && (self.kept.len() < 2 || picker.next_u64().is_multiple_of(4)) {
            let (ml, c) = lib.texts();
            self.kept.push((ml, c, rendered()));
        }
    }

    /// Compares each kept warm report byte-for-byte with an uncached
    /// analysis of the same text.
    pub fn check_transparency(&mut self) {
        let uncached = AnalysisService::new();
        for (ml, c, warm) in &self.kept {
            let cold = uncached
                .analyze(&AnalysisRequest::new(build_corpus(ml.clone(), c.clone())))
                .map(|r| r.render_stable());
            if cold.as_deref() != Ok(warm.as_str()) {
                self.tally.mismatch("warm report differs from an uncached analysis".to_string());
            }
        }
    }
}
