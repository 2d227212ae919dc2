//! One run of one workload: rounds, pooling, and the metric values.

use crate::check::Verdict;
use crate::fleet::Fleet;
use crate::harness::RoundOutcome;
use crate::paced::DaemonExtras;
use crate::probes;
use crate::spec::{Harness, Workload};
use crate::stats;
use crate::stream::Generator;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-up samples per run (rounds plus set-up-only repeats).
const SETUP_SAMPLES: usize = 9;

/// The result of a run: metric values by name, and the failure
/// accounting the contract's last line carries.
#[derive(Default)]
pub struct RunResult {
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub problems: Vec<String>,
    /// The spans of a traced pass.
    pub trace: Option<Tracer>,
}

/// Rounds of one harness, pooled.
#[derive(Default)]
struct Pool {
    rounds: Vec<RoundOutcome>,
    extras: Vec<DaemonExtras>,
}

impl Pool {
    fn sum(&self, f: impl Fn(&RoundOutcome) -> u64) -> u64 {
        self.rounds.iter().map(f).sum()
    }

    fn verdict(&mut self) -> Verdict {
        let mut all = Verdict::default();
        for r in &mut self.rounds {
            all.merge(std::mem::take(&mut r.verdict));
        }
        all
    }
}

fn run_one_round(
    workload: Workload,
    fleet: &Fleet,
    gen: &mut Generator<'_>,
    duration: Duration,
    tracer: &mut Tracer,
    pool: &mut Pool,
) {
    match workload.harness() {
        Harness::Closed(spec) => {
            pool.rounds.push(crate::closed::run_round(
                fleet, gen, &spec, duration, tracer,
            ));
        }
        Harness::Paced(spec) => {
            let (round, extras) = crate::paced::run_round(fleet, gen, &spec, duration, tracer);
            pool.rounds.push(round);
            pool.extras.push(extras);
        }
    }
}

fn is_closed(workload: Workload) -> bool {
    matches!(workload.harness(), Harness::Closed(_))
}

/// Events per second of a run.
struct Throughput {
    /// What the workload reports: the rate of its fastest segments
    /// where the program sets the pace (closed loop), delivered over
    /// elapsed where the generator does (open loop).
    rate: f64,
    /// Delivered over elapsed, whole windows.
    mean: f64,
    /// The median segment rate, and the share of segments more than
    /// 1.25× slower than `rate`: how much of the run the host spent
    /// away from its fast state (README, "Host noise").
    median: f64,
    slow_share: f64,
}

fn throughput(workload: Workload, pool: &Pool) -> Throughput {
    let mean =
        pool.sum(|r| r.timed_events) as f64 / pool.rounds.iter().map(|r| r.timed_secs).sum::<f64>();
    if !is_closed(workload) {
        return Throughput {
            rate: mean,
            mean,
            median: mean,
            slow_share: 0.0,
        };
    }
    let segments: Vec<(u64, f64)> = pool
        .rounds
        .iter()
        .flat_map(|r| r.segments.iter().copied())
        .collect();
    let rate = stats::fastest_rate(&segments);
    Throughput {
        rate,
        mean,
        median: stats::median_rate(&segments),
        slow_share: stats::slow_share(&segments, rate),
    }
}

/// Wire-to-alert latency of a run, in milliseconds.
///
/// Open loop: wall-clock from the due instant of the hijack's tick to
/// the long-poll response that carries its alert. Closed loop: under
/// saturation that interval is queueing — the in-flight window worked
/// off at whatever speed the host had at that moment — so it is
/// counted in events the program delivered meanwhile and converted at
/// the rate `events_per_s` reports: the time the same queue takes while
/// the host is in its fast state.
struct Latency {
    detect_p50: f64,
    /// Share of hijacks detected within twice the median (of the same
    /// samples `detect_p50` is the median of): the tail as a count
    /// against a limit. A percentile out in the tail (p95 is still
    /// reported per layer) sits where few samples are, and through the
    /// daemon it sits on the knee between "a control-plane read held
    /// the mutex" and "none did", so it flips from run to run (README,
    /// "Bounds"); the share within a limit moves by exactly the share
    /// of hijacks that stalls push over it.
    detect_within_2x_median: f64,
    detect_p95: f64,
    mitigate_p50: f64,
    samples: usize,
}

impl Latency {
    fn of(workload: Workload, verdict: &Verdict, rate: f64) -> Latency {
        let (detect, mitigate): (Vec<f64>, Vec<f64>) = if is_closed(workload) {
            let to_ms = |events: &f64| events / rate * 1e3;
            (
                verdict.detect_events.iter().map(to_ms).collect(),
                verdict.mitigate_events.iter().map(to_ms).collect(),
            )
        } else {
            (verdict.detect_ms.clone(), verdict.mitigate_ms.clone())
        };
        assert!(
            !detect.is_empty() && !mitigate.is_empty(),
            "no hijack was detected and mitigated: {:?}",
            verdict.problems
        );
        let (detect, mitigate) = (stats::sorted(detect), stats::sorted(mitigate));
        let detect_p50 = stats::quantile(&detect, 0.5);
        let within = detect.partition_point(|ms| *ms <= 2.0 * detect_p50);
        Latency {
            detect_p50,
            detect_within_2x_median: within as f64 / detect.len() as f64,
            detect_p95: stats::quantile(&detect, stats::supported_percentile(detect.len(), 0.95)),
            mitigate_p50: stats::quantile(&mitigate, 0.5),
            samples: detect.len(),
        }
    }
}

/// Failure accounting shared by both kinds of run.
fn account(pool: &mut Pool, result: &mut RunResult) -> Verdict {
    let verdict = pool.verdict();
    let sent = pool.sum(|r| r.sent);
    let shed = pool.sum(|r| r.shed);
    let commands = pool.sum(|r| r.commands_sent);
    let commands_failed = pool.sum(|r| r.commands_failed);
    result.attempted = sent + verdict.hijacks + commands;
    result.failed = shed + verdict.wrong() + commands_failed;
    result.problems = verdict.problems.clone();
    for (i, r) in pool.rounds.iter().enumerate() {
        if !r.accounted() {
            result.problems.push(format!(
                "round {i}: sent {} != delivered {} + dropped {}",
                r.sent, r.delivered, r.dropped
            ));
        }
    }
    if commands_failed > 0 {
        result.problems.push(format!(
            "{commands_failed} operator commands failed or were rejected"
        ));
    }
    result.correct = verdict.wrong() == 0
        && commands_failed == 0
        && pool.rounds.iter().all(RoundOutcome::accounted);
    result
        .metrics
        .insert("bench.shed_share", shed as f64 / sent as f64);
    result.metrics.insert(
        "bench.missed_share",
        verdict.wrong() as f64 / verdict.hijacks.max(1) as f64,
    );
    verdict
}

/// `--trace 0`: the end-to-end metrics.
pub fn untraced(workload: Workload, seed: u64, seconds: f64, rounds: u32) -> RunResult {
    let fleet = Fleet::generate(seed);
    let mut gen = Generator::new(&fleet, seed);
    let mut tracer = Tracer::new(Instant::now(), false);
    let mut pool = Pool::default();
    let per_round = Duration::from_secs_f64(seconds / rounds as f64);
    // Timed rounds alternate with set-up-only rounds (zero-length
    // window), so the set-up and command samples of a run are spread
    // over its whole length instead of sharing one phase of the host.
    let extra = SETUP_SAMPLES.saturating_sub(rounds as usize);
    let mut extra_left = extra;
    for round in 0..rounds {
        run_one_round(
            workload,
            &fleet,
            &mut gen,
            per_round,
            &mut tracer,
            &mut pool,
        );
        let here = if round + 1 == rounds {
            extra_left
        } else {
            extra.div_ceil(rounds as usize).min(extra_left)
        };
        for _ in 0..here {
            run_one_round(
                workload,
                &fleet,
                &mut gen,
                Duration::ZERO,
                &mut tracer,
                &mut pool,
            );
        }
        extra_left -= here;
    }
    let setups: Vec<f64> = pool.rounds.iter().map(|r| r.setup_s).collect();
    // Peak memory when the first window closed: one service's life,
    // before its status snapshot and before later rounds add allocator
    // fragmentation that differs from run to run.
    let rss_peak_mb = pool.rounds[0].rss_peak_mb;

    let mut result = RunResult::default();
    let verdict = account(&mut pool, &mut result);

    let rate = throughput(workload, &pool).rate;
    let latency = Latency::of(workload, &verdict, rate);
    let commands = stats::sorted(
        pool.rounds
            .iter()
            .flat_map(|r| r.command_ms.iter().copied())
            .collect(),
    );
    let m = &mut result.metrics;
    m.insert("setup_s", stats::median(&setups));
    m.insert("events_per_s", rate);
    m.insert("detect_p50_ms", latency.detect_p50);
    m.insert(
        "detect_within_2x_median_share",
        latency.detect_within_2x_median,
    );
    m.insert("mitigate_p50_ms", latency.mitigate_p50);
    m.insert("command_ms", stats::quantile(&commands, 0.25));
    m.insert("rss_peak_mb", rss_peak_mb);
    result
}

/// `--trace 1`: one untraced and one traced round of a third of
/// `--seconds` each (their difference is the tracing overhead), then
/// the layer probes on the workload's own inputs.
pub fn traced(workload: Workload, seed: u64, seconds: f64) -> RunResult {
    let fleet = Fleet::generate(seed);
    let mut gen = Generator::new(&fleet, seed);
    let per_round = Duration::from_secs_f64(seconds / 3.0);

    let mut plain = Pool::default();
    let mut off = Tracer::new(Instant::now(), false);
    run_one_round(workload, &fleet, &mut gen, per_round, &mut off, &mut plain);

    let mut pool = Pool::default();
    let mut tracer = Tracer::new(Instant::now(), true);
    run_one_round(
        workload,
        &fleet,
        &mut gen,
        per_round,
        &mut tracer,
        &mut pool,
    );

    let mut result = RunResult::default();
    let round_cpu_us = |r: &RoundOutcome| r.cpu_s * 1e6 / r.timed_events as f64;
    // Closed loop: how much slower the traced round ran. Open loop (the
    // rate is fixed): how much more CPU it spent per event.
    let overhead = if is_closed(workload) {
        1.0 - throughput(workload, &pool).rate / throughput(workload, &plain).rate
    } else {
        round_cpu_us(&pool.rounds[0]) / round_cpu_us(&plain.rounds[0]) - 1.0
    };
    // Lateness is the generator's, so it is read where nothing else
    // of the benchmark runs beside it: the untraced round.
    let late = stats::sorted(std::mem::take(&mut plain.rounds[0].late_ms));
    let plain_ok = plain.rounds[0].accounted() && plain.verdict().wrong() == 0;

    let speed = throughput(workload, &pool);
    let verdict = account(&mut pool, &mut result);
    let latency = Latency::of(workload, &verdict, speed.rate);
    result.correct &= plain_ok;
    let round = &pool.rounds[0];
    let stages = round.stages.expect("traced rounds read the stage metrics");

    let m = &mut result.metrics;
    m.insert("bench.trace_overhead_share", overhead);
    m.insert("bench.events_per_s_mean", speed.mean);
    m.insert("bench.events_per_s_median", speed.median);
    m.insert("bench.slow_regime_share", speed.slow_share);
    m.insert("bench.detect_samples", latency.samples as f64);
    m.insert("bench.detect_p95_ms", latency.detect_p95);
    // Closed-loop generators keep no schedule; they are never late.
    m.insert(
        "bench.generator_late_p99_ms",
        late.last().map_or(0.0, |_| stats::quantile(&late, 0.99)),
    );
    m.insert("process.cpu_us_per_event", round_cpu_us(round));
    m.insert("process.threads", round.threads as f64);

    let per_event = |s: &artemis_core::StageStat| s.nanos as f64 / s.events.max(1) as f64;
    for (name, stat) in [
        ("core.pipeline.stage.drain_ns_per_event", &stages.drain),
        (
            "core.pipeline.stage.drain_seal_ns_per_event",
            &stages.drain_seal,
        ),
        (
            "core.pipeline.stage.drain_merge_ns_per_event",
            &stages.drain_merge,
        ),
        (
            "core.pipeline.stage.classify_ns_per_event",
            &stages.classify,
        ),
        (
            "core.pipeline.stage.classify_snapshot_ns_per_event",
            &stages.classify_snapshot,
        ),
        (
            "core.pipeline.stage.classify_prepare_ns_per_event",
            &stages.classify_prepare,
        ),
        ("core.pipeline.stage.commit_ns_per_event", &stages.commit),
        ("core.pipeline.stage.detect_ns_per_event", &stages.detect),
        (
            "core.pipeline.stage.monitor_route_ns_per_event",
            &stages.monitor_route,
        ),
        (
            "core.pipeline.stage.monitor_ingest_ns_per_event",
            &stages.monitor_ingest,
        ),
        ("core.pipeline.stage.resolve_ns_per_event", &stages.resolve),
        (
            "core.pipeline.stage.mitigate_ns_per_event",
            &stages.mitigate,
        ),
    ] {
        m.insert(name, per_event(stat));
    }
    let batch_mean = stages.drain.events as f64 / stages.drain.batches.max(1) as f64;
    m.insert("core.pipeline.batch_events_mean", batch_mean);

    // Pump-side time per event, and how busy the pump was. In process
    // it is the time inside `pump_feeds` calls that delivered events;
    // through the daemon, whose pump thread is out of reach, it is
    // what the pipeline's own stage clocks add up to.
    let stage_sum = (stages.drain.nanos + stages.classify.nanos + stages.commit.nanos) as f64;
    let (pump_ns, busy_share, ring_max) = if is_closed(workload) {
        (
            round.pump.busy_ns as f64 / round.timed_events as f64,
            round.pump.busy_ns as f64 / (round.timed_secs * 1e9),
            round.pump.max_batch,
        )
    } else {
        (
            stage_sum / stages.drain.events.max(1) as f64,
            stage_sum / (round.timed_secs * 1e9),
            pool.extras[0].max_drain,
        )
    };
    m.insert("core.service.pump_ns_per_event", pump_ns);
    m.insert("core.service.pump_busy_share", busy_share);
    m.insert("feeds.ring_depth_max", ring_max as f64);

    let probe = probes::run_all(&fleet, seed, workload);
    let pump_side_probes = probe.pump_side_sum(!is_closed(workload));
    for (name, value) in probe.metrics {
        m.insert(name, value);
    }
    m.insert(
        "bench.unattributed_ns_per_event",
        pump_ns - pump_side_probes,
    );
    // What the event stream itself says about the commit half.
    m.insert("core.monitor.live_max", verdict.live_max as f64);
    m.insert("controller.intents_submitted", verdict.intents as f64);

    result.trace = Some(tracer);
    result
}
