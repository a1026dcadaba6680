//! The ground-truth oracle: every report of every workload is scored
//! against the generator's ground truth with the `figure9::score` rules,
//! applied to diagnostic rows (file, line, severity) so that in-process
//! reports, served JSON reports and sweep rows all go through one scorer.

use ffisafe_bench::corpus::{Benchmark, SeedKind};
use ffisafe_bench::spec::BenchSpec;
use ffisafe_core::AnalysisReport;
use ffisafe_shard::{DiagNote, DiagRow, LibraryReport};
use ffisafe_support::{DiagnosticBag, SourceMap};
use std::collections::HashSet;

/// Scored counts for one report, in the shape of a Figure 9 row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Score {
    pub errors: usize,
    pub warnings: usize,
    pub false_pos: usize,
    pub imprecision: usize,
    pub unexpected: Vec<String>,
    pub missed: Vec<String>,
}

impl Score {
    /// A report is wrong if it has an unexpected or missed finding or if
    /// its counts differ from the library's Figure 9 row.
    pub fn is_wrong(&self, spec: &BenchSpec) -> bool {
        !self.unexpected.is_empty()
            || !self.missed.is_empty()
            || self.errors != spec.paper.errors
            || self.warnings != spec.paper.warnings
            || self.false_pos != spec.paper.false_pos
            || self.imprecision != spec.paper.imprecision
    }
}

/// Classifies diagnostic rows against `bench`'s ground truth, with the
/// same rules as `ffisafe_bench::figure9::score`.
pub fn score_rows(bench: &Benchmark, rows: &[DiagRow]) -> Score {
    let mut hit_errors: HashSet<&str> = HashSet::new();
    let mut hit_warnings: HashSet<&str> = HashSet::new();
    let mut hit_imprecision: HashSet<&str> = HashSet::new();
    let mut false_pos = 0usize;
    let mut imprecision = 0usize;
    let mut unexpected = Vec::new();

    for d in rows.iter().filter(|d| d.severity != "note") {
        let line = u32::try_from(d.line).unwrap_or(u32::MAX);
        let func = if d.file.ends_with(".c") {
            bench.func_at_c_line(line)
        } else {
            bench.func_at_ml_line(line)
        };
        let rendered = format!("{}:{}: {} [{}]: {}", d.file, d.line, d.severity, d.code, d.message);
        let Some(func) = func else {
            unexpected.push(rendered);
            continue;
        };
        let sev = d.severity.as_str();
        match func.seed {
            None => unexpected.push(rendered),
            Some(kind) if kind.is_true_defect() => {
                if sev == "error" {
                    hit_errors.insert(&func.name);
                }
            }
            Some(kind) if kind.is_warning() => {
                if sev == "warning" {
                    hit_warnings.insert(&func.name);
                } else {
                    unexpected.push(rendered);
                }
            }
            Some(kind) if kind.is_false_positive_source() => match sev {
                "error" | "warning" => false_pos += 1,
                _ => unexpected.push(rendered),
            },
            Some(_) => {
                if sev == "imprecision" {
                    imprecision += 1;
                    hit_imprecision.insert(&func.name);
                } else {
                    unexpected.push(rendered);
                }
            }
        }
    }

    let mut missed = Vec::new();
    for f in &bench.funcs {
        let Some(kind) = f.seed else { continue };
        let hit = match kind {
            k if k.is_true_defect() => hit_errors.contains(f.name.as_str()),
            k if k.is_warning() => hit_warnings.contains(f.name.as_str()),
            k if k.is_imprecision() => hit_imprecision.contains(f.name.as_str()),
            SeedKind::PolyVariantFp | SeedKind::DisguisedPtrFp => false_pos > 0,
            _ => true,
        };
        if !hit {
            missed.push(format!("{:?} in {}", kind, f.name));
        }
    }

    Score {
        errors: hit_errors.len(),
        warnings: hit_warnings.len(),
        false_pos,
        imprecision,
        unexpected,
        missed,
    }
}

/// A report's diagnostic rows.
pub fn rows_of_report(report: &AnalysisReport) -> Vec<DiagRow> {
    LibraryReport::from_report(String::new(), 2, report).rows
}

/// Rows for `diags` resolved through `map`, in the shape
/// `LibraryReport::from_report` produces.
pub fn rows_of(diags: &DiagnosticBag, map: &SourceMap) -> Vec<DiagRow> {
    diags
        .iter()
        .map(|d| {
            let loc = map.resolve(d.span());
            DiagRow {
                file: loc.file.clone(),
                line: u64::from(loc.line),
                column: u64::from(loc.col),
                severity: d.severity().to_string(),
                code: d.code().to_string(),
                message: d.message().to_string(),
                notes: d
                    .notes()
                    .iter()
                    .map(|(span, note)| {
                        let nloc = map.resolve(*span);
                        DiagNote {
                            file: nloc.file.clone(),
                            line: u64::from(nloc.line),
                            column: u64::from(nloc.col),
                            message: note.clone(),
                        }
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Tallies wrong reports (ground truth) and check mismatches (cache
/// transparency, stage replay), with the first few reasons.
#[derive(Default)]
pub struct Tally {
    pub scored: u64,
    pub wrong: u64,
    pub mismatches: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, spec: &BenchSpec, bench: &Benchmark, rows: &[DiagRow]) {
        self.scored += 1;
        let score = score_rows(bench, rows);
        if score.is_wrong(spec) {
            self.wrong += 1;
            self.reason(format!("{}: {:?}", spec.name, score));
        }
    }

    pub fn mismatch(&mut self, reason: String) {
        self.mismatches += 1;
        self.reason(reason);
    }

    fn reason(&mut self, reason: String) {
        if self.reasons.len() < 5 {
            self.reasons.push(reason);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.scored += other.scored;
        self.wrong += other.wrong;
        self.mismatches += other.mismatches;
        for r in other.reasons {
            self.reason(r);
        }
    }
}
