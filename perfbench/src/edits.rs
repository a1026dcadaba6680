//! Synthesized libraries and the seeded one-function edit generator.
//!
//! Every edit rewrites one line of one C function in place: no line is
//! added or removed, so the generator's ground-truth line ranges still
//! hold and the Figure 9 oracle applies to every edited text. Edits are
//! cumulative; the function is drawn uniformly among the functions the
//! edit kind can apply to, and the kinds rotate through a seeded shuffle
//! of all four in each block of four edits.

use ffisafe_bench::corpus::{generate, Benchmark};
use ffisafe_bench::spec::BenchSpec;
use ffisafe_core::Corpus;
use ffisafe_support::rng::Rng64;

/// The four edit kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EditKind {
    /// `int pbench_N = d;` appended after the opening brace (length-changing).
    InsertStmt,
    /// `return E;` becomes `return (E);` (length-changing).
    GrowExpr,
    /// The last digit of a return-value or addend literal changes
    /// (length-preserving).
    ConstChange,
    /// A trailing comment or an extra space on the opening line
    /// (length-changing).
    Churn,
}

const KINDS: [EditKind; 4] =
    [EditKind::InsertStmt, EditKind::GrowExpr, EditKind::ConstChange, EditKind::Churn];

/// One synthesized library whose C text the edit generator rewrites.
#[derive(Clone)]
pub struct Lib {
    pub spec: BenchSpec,
    pub bench: Benchmark,
    c_lines: Vec<String>,
    /// Index of each ground-truth region's opening line (`value f(...) {`).
    opening: Vec<usize>,
}

impl Lib {
    pub fn new(spec: BenchSpec) -> Lib {
        let bench = generate(&spec);
        let c_lines: Vec<String> = bench.c_source.split('\n').map(str::to_string).collect();
        let opening = bench
            .funcs
            .iter()
            .map(|f| {
                let (lo, hi) = (f.c_lines.0 as usize - 1, f.c_lines.1 as usize - 1);
                (lo..=hi)
                    .find(|&i| c_lines[i].starts_with("value ") && c_lines[i].ends_with('{'))
                    .expect("every generated region defines a function")
            })
            .collect();
        Lib { spec, bench, c_lines, opening }
    }

    pub fn name(&self) -> &str {
        &self.bench.name
    }

    pub fn ml_source(&self) -> &str {
        &self.bench.ml_source
    }

    pub fn c_source(&self) -> String {
        self.c_lines.join("\n")
    }

    /// The current OCaml and C texts, as a caller would read them.
    pub fn texts(&self) -> (String, String) {
        (self.ml_source().to_string(), self.c_source())
    }

    pub fn function_count(&self) -> usize {
        self.bench.funcs.len()
    }

    fn region_lines(&self, region: usize) -> std::ops::RangeInclusive<usize> {
        let f = &self.bench.funcs[region];
        f.c_lines.0 as usize - 1..=f.c_lines.1 as usize - 1
    }

    /// The line `kind` rewrites in `region`, if the kind applies there.
    fn target(&self, kind: EditKind, region: usize) -> Option<usize> {
        match kind {
            EditKind::InsertStmt | EditKind::Churn => Some(self.opening[region]),
            EditKind::GrowExpr => self
                .region_lines(region)
                .find(|&i| self.c_lines[i].trim_start().starts_with("return ")),
            EditKind::ConstChange => {
                self.region_lines(region).find(|&i| const_digit(&self.c_lines[i]).is_some())
            }
        }
    }

    /// Applies `kind` to `region`; `n` numbers the edit and `r` picks the
    /// new digit of a constant change.
    fn apply(&mut self, kind: EditKind, region: usize, n: u64, r: u64) {
        let i = self.target(kind, region).expect("edit kinds are drawn among eligible functions");
        let line = &mut self.c_lines[i];
        match kind {
            EditKind::InsertStmt => {
                let brace = line.find('{').expect("opening line has a brace");
                line.insert_str(brace + 1, &format!(" int pbench_{n} = {};", n % 10));
            }
            EditKind::GrowExpr => {
                let start = line.find("return ").expect("target has a return") + "return ".len();
                let end = line.rfind(';').expect("return statement ends with ;");
                line.insert(end, ')');
                line.insert(start, '(');
            }
            EditKind::ConstChange => {
                let at = const_digit(line).expect("target has a literal");
                let old = line.as_bytes()[at] - b'0';
                let new = (old as u64 + 1 + r % 9) % 10;
                line.replace_range(at..at + 1, &new.to_string());
            }
            EditKind::Churn => {
                if n.is_multiple_of(2) {
                    line.push_str(&format!(" /* churn {n} */"));
                } else {
                    line.insert(5, ' ');
                }
            }
        }
    }

    /// Ground-truth regions whose C text differs from `before`.
    pub fn changed_regions(&self, before: &str) -> usize {
        let old: Vec<&str> = before.split('\n').collect();
        assert_eq!(old.len(), self.c_lines.len(), "edits never add or remove lines");
        let mut changed: Vec<&str> = old
            .iter()
            .zip(&self.c_lines)
            .enumerate()
            .filter(|(_, (a, b))| **a != b.as_str())
            .filter_map(|(i, _)| self.bench.func_at_c_line(i as u32 + 1).map(|f| f.name.as_str()))
            .collect();
        changed.dedup();
        changed.len()
    }
}

/// The corpus a submission of `(ml, c)` analyzes.
pub fn build_corpus(ml: String, c: String) -> Corpus {
    Corpus::builder().ml_source("lib.ml", ml).c_source("glue.c", c).build()
}

/// Byte offset of the digit a constant change rewrites: the last digit
/// of a `Val_int(<digits>)`, `+ <digits>;` or `= <digits>;` literal.
fn const_digit(line: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    for prefix in ["Val_int(", "+ ", "= "] {
        let mut from = 0;
        while let Some(p) = line[from..].find(prefix) {
            let start = from + p + prefix.len();
            let digits = bytes[start..].iter().take_while(|b| b.is_ascii_digit()).count();
            let close = if prefix == "Val_int(" { b')' } else { b';' };
            if digits > 0 && bytes.get(start + digits) == Some(&close) {
                return Some(start + digits - 1);
            }
            from = start;
        }
    }
    None
}

/// Seeded generator of cumulative one-function edits to one library.
pub struct Editor {
    rng: Rng64,
    schedule: Vec<EditKind>,
    count: u64,
}

impl Editor {
    pub fn new(seed: u64) -> Editor {
        Editor { rng: Rng64::seed_from_u64(seed ^ 0xED17_5EED), schedule: Vec::new(), count: 0 }
    }

    fn below(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n as u64) as usize
    }

    /// Applies the next edit to `lib`; returns how many ground-truth
    /// functions' text it changed.
    pub fn next(&mut self, lib: &mut Lib) -> usize {
        if self.schedule.is_empty() {
            let mut block = KINDS.to_vec();
            for i in (1..block.len()).rev() {
                block.swap(i, self.below(i + 1));
            }
            self.schedule = block;
        }
        let kind = self.schedule.pop().expect("schedule refilled above");
        let eligible: Vec<usize> =
            (0..lib.function_count()).filter(|&r| lib.target(kind, r).is_some()).collect();
        let region = eligible[self.below(eligible.len())];
        let before = lib.c_source();
        let r = self.rng.next_u64();
        lib.apply(kind, region, self.count, r);
        self.count += 1;
        lib.changed_regions(&before)
    }
}
