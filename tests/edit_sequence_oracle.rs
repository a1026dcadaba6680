//! Differential oracle for incremental reanalysis under seeded edit
//! sequences.
//!
//! Each seed picks one synthesized Figure 9 library — a generator output
//! that packs every C stub into one file — and drives one cached
//! `AnalysisService` through a sequence of `Rng64`-chosen edits:
//!
//! * **Body edits** (an inserted statement or blank line, a parenthesized
//!   return expression, an extra space in the header, a trailing comment
//!   on the opening line) to one to three functions. Each edit grows its
//!   function's text, so no text ever repeats. After each, exactly the
//!   edited functions must miss the tier-1 cache: an edit shifts the byte
//!   offsets of every later function in the file, and those must replay.
//! * **Structural edits** (two functions swapped, one duplicated under a
//!   new name, one removed). These reshape the registry, which
//!   legitimately invalidates every entry, so only byte-identity is
//!   asserted for them.
//!
//! After every edit the warm report's `render_stable` must be
//! byte-identical to an uncached analysis of the same text. Every
//! assertion message carries the seed; replay one with
//! `FFISAFE_EDIT_SEED=<n> cargo test --test edit_sequence_oracle`.

use ffisafe::{AnalysisOptions, AnalysisReport, AnalysisRequest, AnalysisService, Corpus};
use ffisafe_bench::corpus::generate;
use ffisafe_bench::spec::paper_benchmarks;
use ffisafe_support::rng::Rng64;

/// Seeds run by default; each takes about a second in a debug build.
const DEFAULT_SEEDS: [u64; 6] = [1, 2, 3, 4, 5, 6];
const EDITS_PER_SEED: usize = 12;
/// Libraries small enough for debug builds, still tens of functions in
/// one file.
const LIBRARIES: [&str; 4] =
    ["ocaml-ssl-0.1.0", "ocaml-glpk-0.1.1", "gz-0.5.5", "ocaml-vorbis-0.1.1"];

/// A C file as a prefix plus one chunk per function: each chunk runs from
/// a function's opening line to just before the next one's.
struct CFile {
    prefix: String,
    funcs: Vec<String>,
}

impl CFile {
    fn split(src: &str) -> CFile {
        let mut file = CFile { prefix: String::new(), funcs: Vec::new() };
        for line in src.split_inclusive('\n') {
            let opens_function = !line.starts_with([' ', '\t', '}', '/'])
                && line.trim_end().ends_with('{')
                && line.contains('(');
            match file.funcs.last_mut() {
                _ if opens_function => file.funcs.push(line.to_string()),
                Some(chunk) => chunk.push_str(line),
                None => file.prefix.push_str(line),
            }
        }
        for chunk in &mut file.funcs {
            if !chunk.ends_with('\n') {
                chunk.push('\n');
            }
        }
        file
    }

    fn text(&self) -> String {
        let mut out = self.prefix.clone();
        self.funcs.iter().for_each(|f| out.push_str(f));
        out
    }
}

/// Grows one function's text in place, always before its last statement
/// (text after it lies outside the function's analyzed range, where no
/// miss is expected). `n` makes every insertion unique.
fn body_edit(chunk: &mut String, kind: u32, n: usize) {
    let open_end = chunk.find('\n').expect("chunks are whole lines");
    match kind {
        // a new statement line right after the opening brace
        0 => chunk.insert_str(open_end + 1, &format!("    int oracle_{n} = {};\n", n % 10)),
        // `return E;` -> `return (E);` on the first plain return line
        1 => {
            let ret = chunk.find("    return ").filter(|&at| {
                let line_end = at + chunk[at..].find('\n').unwrap();
                chunk[at..line_end].trim_end().ends_with(';')
            });
            match ret {
                Some(at) => {
                    let line_end = at + chunk[at..].find('\n').unwrap();
                    let semi = at + chunk[at..line_end].rfind(';').unwrap();
                    chunk.insert(semi, ')');
                    chunk.insert(at + "    return ".len(), '(');
                }
                None => chunk.insert(open_end + 1, '\n'),
            }
        }
        // whitespace churn inside the header: `value  f(...)`
        2 => chunk.insert(chunk.find(' ').expect("a header has a space"), ' '),
        // comment churn on the opening line
        _ => chunk.insert_str(open_end, &format!(" /* oracle {n} */")),
    }
}

/// Swaps, duplicates or removes functions; returns a label for messages.
fn structural_edit(file: &mut CFile, rng: &mut Rng64, n: usize) -> &'static str {
    let len = file.funcs.len();
    let i = rng.gen_range(0..len);
    match rng.gen_range(0..3u32) {
        0 => {
            let j = (i + 1 + rng.gen_range(0..len - 1)) % len;
            file.funcs.swap(i, j);
            "swap"
        }
        1 => {
            let chunk = &file.funcs[i];
            let paren = chunk.find('(').expect("header has a parameter list");
            let mut copy = chunk.clone();
            copy.insert_str(paren, &format!("_oracle_dup_{n}"));
            file.funcs.insert(i + 1, copy);
            "duplicate"
        }
        _ => {
            file.funcs.remove(i);
            "remove"
        }
    }
}

fn analyze(service: &AnalysisService, ml: &str, c: &str, jobs: usize) -> AnalysisReport {
    let corpus = Corpus::builder().ml_source("lib.ml", ml).c_source("glue.c", c).build();
    let options = AnalysisOptions::default().with_jobs(jobs);
    service.analyze(&AnalysisRequest::new(corpus).options(options)).expect("analysis runs")
}

fn run_seed(seed: u64) {
    let mut rng = Rng64::seed_from_u64(seed);
    let name = LIBRARIES[rng.gen_range(0..LIBRARIES.len())];
    let spec = paper_benchmarks().into_iter().find(|s| s.name == name).expect("known library");
    let bench = generate(&spec);
    let mut file = CFile::split(&bench.c_source);
    assert_eq!(file.text(), bench.c_source, "seed {seed}: the split is lossless");
    assert!(file.funcs.len() > 10, "seed {seed}: {name} packs many functions into one file");

    let dir =
        std::env::temp_dir().join(format!("ffisafe-edit-oracle-{}-{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cached = AnalysisService::with_cache_dir(&dir).expect("temp cache dir opens");
    let uncached = AnalysisService::new();
    let cold = analyze(&cached, &bench.ml_source, &file.text(), 2);
    assert_eq!(cold.stats.cache_fn_misses, file.funcs.len(), "seed {seed}: cold run");

    for step in 0..EDITS_PER_SEED {
        let n = step + 1;
        let structural = rng.gen_range(0..4u32) == 0;
        let (what, changed) = if structural {
            (structural_edit(&mut file, &mut rng, n).to_string(), None)
        } else {
            let mut edited: Vec<usize> = Vec::new();
            for _ in 0..1 + rng.gen_range(0..3u32) {
                let i = rng.gen_range(0..file.funcs.len());
                body_edit(&mut file.funcs[i], rng.gen_range(0..4u32), n);
                edited.push(i);
            }
            edited.sort_unstable();
            edited.dedup();
            (format!("body edit of functions {edited:?}"), Some(edited.len()))
        };
        let c = file.text();
        let warm = analyze(&cached, &bench.ml_source, &c, 2);
        let fresh = analyze(&uncached, &bench.ml_source, &c, 1);
        let ctx = format!("seed {seed}, {name}, step {step} ({what})");
        if let Some(changed) = changed {
            assert_eq!(warm.stats.cache_fn_misses, changed, "{ctx}: misses = changed functions");
            assert_eq!(warm.stats.workers_executed, changed, "{ctx}");
        }
        assert_eq!(warm.render_stable(), fresh.render_stable(), "{ctx}: warm != uncached");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seeded_edit_sequences_miss_only_edited_functions_and_match_uncached_runs() {
    let seeds: Vec<u64> = match std::env::var("FFISAFE_EDIT_SEED") {
        Ok(s) => vec![s.parse().expect("FFISAFE_EDIT_SEED is an integer")],
        Err(_) => DEFAULT_SEEDS.to_vec(),
    };
    for seed in seeds {
        run_seed(seed);
    }
}
