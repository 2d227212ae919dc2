//! Wire-to-alert benchmark of the ARTEMIS reproduction. See README.md
//! in this directory for what is measured and why, and BENCHMARK.json
//! at the repository root for the contract the driver checks.
//!
//! Three ways to run it:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one run of one
//!   workload; the last line of standard output is one JSON object
//!   (the form the driver uses).
//! * no `--workload` — every workload, untraced then traced; prints a
//!   table and writes `benchmark/out/results.json` and `trace.jsonl`.
//!   `--quick` makes that 1 round × 1 s for builders iterating.
//! * `--repeat-check` — the full set twice on the same build; exits
//!   non-zero when an end-to-end metric disagrees beyond its bound.

mod alloc;
mod check;
mod closed;
mod fleet;
mod harness;
mod paced;
mod probes;
mod procinfo;
mod report;
mod rng;
mod run;
mod spec;
mod stats;
mod stream;
mod trace;

use spec::Workload;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    repeat_check: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: artemis-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--quick] [--repeat-check]\n  workloads: {}",
        Workload::ALL.map(Workload::name).join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        trace: false,
        quick: false,
        repeat_check: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::from_name(&value()).unwrap_or_else(|| usage()))
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value() == "1",
            "--quick" => args.quick = true,
            "--repeat-check" => args.repeat_check = true,
            _ => usage(),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        usage();
    }
    args
}

fn main() {
    let args = parse_args();
    let ok = match args.workload {
        Some(workload) => report::single(workload, args.seed, args.seconds, args.trace),
        None if args.repeat_check => report::repeat_check(args.seed, args.seconds),
        None => report::full(args.seed, args.seconds, args.quick),
    };
    std::process::exit(if ok { 0 } else { 1 });
}
