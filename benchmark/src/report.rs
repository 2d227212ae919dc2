//! Printing: the driver's one-line result, the full table, and the
//! `--repeat-check` comparison.

use crate::run::{self, RunResult};
use crate::spec::{MetricDef, Workload, END_TO_END, PER_LAYER};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Where results and traces go, relative to the repository root
/// (`run.sh` makes that the working directory).
fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

fn trace_path() -> PathBuf {
    out_dir().join("trace.jsonl")
}

/// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
/// `{}` on an `f64` prints the shortest decimal that reads back to the
/// same value: all the digits that were measured, never an exponent.
fn result_json(result: &RunResult, defs: &[MetricDef]) -> String {
    let mut metrics = String::new();
    for (i, def) in defs.iter().enumerate() {
        let value = *result
            .metrics
            .get(def.name)
            .unwrap_or_else(|| panic!("the run did not measure {}", def.name));
        assert!(value.is_finite(), "{} is not finite: {value}", def.name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        result.correct, result.attempted, result.failed
    )
}

/// One run of one workload, as the driver asks for it: problems on
/// standard error, the result as the last line of standard output, the
/// spans of a traced pass in `benchmark/out/trace.jsonl`.
pub fn single(workload: Workload, seed: u64, seconds: f64, trace: bool) -> bool {
    let rounds = if seconds >= 3.0 { 3 } else { 1 };
    let (result, defs) = if trace {
        (run::traced(workload, seed, seconds), PER_LAYER)
    } else {
        (run::untraced(workload, seed, seconds, rounds), END_TO_END)
    };
    for p in &result.problems {
        eprintln!("{}: {p}", workload.name());
    }
    if !result.correct {
        eprintln!("{}: outputs are WRONG (see above)", workload.name());
    }
    if let Some(spans) = &result.trace {
        std::fs::create_dir_all(out_dir()).expect("create benchmark/out");
        let file = std::fs::File::create(trace_path()).expect("create trace.jsonl");
        let mut out = std::io::BufWriter::new(file);
        spans
            .write_jsonl(&mut out, workload.name())
            .and_then(|()| std::io::Write::flush(&mut out))
            .expect("write trace.jsonl");
    }
    println!("{}", result_json(&result, defs));
    result.correct
}

/// What one child run printed.
struct ChildResult {
    correct: bool,
    /// The result line, verbatim, for `results.json`.
    line: String,
    metrics: BTreeMap<String, f64>,
}

impl ChildResult {
    fn value(&self, def: &MetricDef) -> f64 {
        *self
            .metrics
            .get(def.name)
            .unwrap_or_else(|| panic!("the run did not print {}", def.name))
    }
}

pub fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    match v {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("JSON object has no {key}")),
        other => panic!("expected an object, got {other:?}"),
    }
}

/// Run one workload in a process of its own, exactly as the driver
/// does: peak memory, allocator state and thread counts of one run
/// never leak into the next.
fn run_child(workload: Workload, seed: u64, seconds: f64, trace: bool) -> ChildResult {
    let exe = std::env::current_exe().expect("path of this executable");
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .expect("start a child run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .unwrap_or_else(|| panic!("{} printed no result", workload.name()))
        .to_string();
    let json: Value = serde_json::from_str(&line).expect("the result line is JSON");
    let metrics = match field(&json, "metrics") {
        Value::Object(fields) => fields
            .iter()
            .map(|(name, m)| {
                let value = match field(m, "value") {
                    Value::F64(x) => *x,
                    Value::U64(x) => *x as f64,
                    Value::I64(x) => *x as f64,
                    other => panic!("{name} is not a number: {other:?}"),
                };
                (name.clone(), value)
            })
            .collect(),
        other => panic!("metrics is not an object: {other:?}"),
    };
    ChildResult {
        correct: output.status.success() && matches!(field(&json, "correct"), Value::Bool(true)),
        line,
        metrics,
    }
}

/// Every workload, untraced then traced.
struct FullSet {
    /// Per workload, one untraced run per seed given.
    untraced: Vec<Vec<ChildResult>>,
    traced: Vec<ChildResult>,
    /// The traced passes' spans, one workload after the other.
    spans: String,
}

impl FullSet {
    fn correct(&self) -> bool {
        self.untraced
            .iter()
            .flatten()
            .chain(&self.traced)
            .all(|r| r.correct)
    }

    /// The median over the seeds of one end-to-end metric × workload.
    fn end_to_end(&self, workload: usize, def: &MetricDef) -> f64 {
        let values: Vec<f64> = self.untraced[workload]
            .iter()
            .map(|r| r.value(def))
            .collect();
        crate::stats::median(&values)
    }
}

/// Untraced runs on `seeds` seeds from `seed` up, one traced run.
fn run_set(seed: u64, seeds: u64, seconds: f64) -> FullSet {
    let mut set = FullSet {
        untraced: Vec::new(),
        traced: Vec::new(),
        spans: String::new(),
    };
    for w in Workload::ALL {
        eprintln!("== {} (untraced, {seconds} s): {} ==", w.name(), w.why());
        set.untraced.push(
            (seed..seed + seeds)
                .map(|s| run_child(w, s, seconds, false))
                .collect(),
        );
    }
    for w in Workload::ALL {
        eprintln!("== {} (traced pass + layer probes) ==", w.name());
        set.traced.push(run_child(w, seed, seconds, true));
        set.spans
            .push_str(&std::fs::read_to_string(trace_path()).expect("the child's trace.jsonl"));
    }
    set
}

fn table(title: &str, defs: &[MetricDef], results: &[&ChildResult]) {
    println!("\n{title}");
    print!("{:<52}{:>7}{:>8}", "metric", "unit", "better");
    for w in Workload::ALL {
        print!("{:>16}", w.name());
    }
    println!();
    for def in defs {
        print!("{:<52}{:>7}{:>8}", def.name, def.unit, def.better);
        for r in results {
            print!("{:>16.4}", r.value(def));
        }
        println!();
    }
}

fn write_outputs(set: &FullSet) -> std::io::Result<()> {
    let mut json = String::from("{\n");
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let _ = writeln!(
            json,
            "  \"{}\": {{\n    \"end_to_end\": {},\n    \"per_layer\": {}\n  }}{}",
            w.name(),
            set.untraced[i][0].line,
            set.traced[i].line,
            if i + 1 == Workload::ALL.len() {
                ""
            } else {
                ","
            }
        );
    }
    json.push_str("}\n");
    std::fs::create_dir_all(out_dir())?;
    std::fs::write(out_dir().join("results.json"), json)?;
    std::fs::write(trace_path(), &set.spans)
}

/// The whole benchmark once; `--quick` is 1 round × 1 s, no gating.
pub fn full(seed: u64, seconds: f64, quick: bool) -> bool {
    let set = run_set(seed, 1, if quick { 1.0 } else { seconds });
    let untraced: Vec<&ChildResult> = set.untraced.iter().map(|runs| &runs[0]).collect();
    table("End-to-end (untraced pass)", END_TO_END, &untraced);
    let traced: Vec<&ChildResult> = set.traced.iter().collect();
    table("Per layer (traced pass + probes)", PER_LAYER, &traced);
    write_outputs(&set).expect("write benchmark/out");
    println!(
        "\nwrote {0}/results.json and {0}/trace.jsonl",
        out_dir().display()
    );
    quick || set.correct()
}

/// Counts the single-threaded probes produce; they must repeat exactly.
const EXACT_COUNTS: &[&str] = &[
    "bmp.decode_allocs_per_event",
    "core.detector.prepare_allocs_per_event",
    "core.pipeline.allocs_per_event",
    "core.pipeline.alloc_bytes_per_event",
];

/// Seeds per set in `--repeat-check`. The driver compares medians of
/// ten runs; a single run of `setup_s` spreads about as wide as its
/// bound on this host (README, "Host noise"), the median of three does
/// not.
const REPEAT_SEEDS: u64 = 3;

/// The full set twice on the same build, each end-to-end value the
/// median over three seeds. Every metric × workload must agree within
/// the metric's own bound, and the allocation counts of the
/// single-threaded probes must repeat exactly.
pub fn repeat_check(seed: u64, seconds: f64) -> bool {
    let first = run_set(seed, REPEAT_SEEDS, seconds);
    let second = run_set(seed, REPEAT_SEEDS, seconds);
    let mut ok = first.correct() && second.correct();

    println!(
        "\n{:<32}{:<16}{:>15}{:>15}{:>9}{:>7}  verdict",
        "metric", "workload", "first", "second", "diff", "bound"
    );
    for def in END_TO_END {
        for (i, w) in Workload::ALL.into_iter().enumerate() {
            let (a, b) = (first.end_to_end(i, def), second.end_to_end(i, def));
            let diff = a.max(b) / a.min(b) - 1.0;
            let agrees = diff <= def.bound;
            ok &= agrees;
            println!(
                "{:<32}{:<16}{a:>15.4}{b:>15.4}{:>8.2}%{:>6.0}%  {}",
                def.name,
                w.name(),
                diff * 100.0,
                def.bound * 100.0,
                if agrees { "agree" } else { "DISAGREE" }
            );
        }
    }
    for name in EXACT_COUNTS {
        let def = PER_LAYER
            .iter()
            .find(|d| d.name == *name)
            .expect("exact count is a per-layer metric");
        for (i, w) in Workload::ALL.into_iter().enumerate() {
            let (a, b) = (first.traced[i].value(def), second.traced[i].value(def));
            if a != b {
                ok = false;
                println!(
                    "{name} on {}: {a} then {b} — counts must repeat exactly",
                    w.name()
                );
            }
        }
    }
    println!(
        "\n{}",
        if ok {
            "repeat-check: both sets agree"
        } else {
            "repeat-check: FAILED"
        }
    );
    ok
}
