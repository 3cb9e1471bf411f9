//! Closed-loop, single-client benchmark of the COARSE simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <design-sweep|chaos-soak|recovery|event-kernel|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client thread issues the next op only after the previous one
//! returns. With `--trace 0` the run prints the end-to-end metrics, measured
//! untraced; with `--trace 1` it prints the per-layer metrics of a traced
//! run. The last line of standard output is always one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. Run artifacts (the
//! per-second op-time medians, the digest, and in traced runs every span)
//! land in `perfbench/out/`. `README.md` documents the design.

mod stats;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use coarse_bench::expectations::Scorecard;

use stats::{median, peak_rss_mib, quantile, Digest};
use trace::Tracer;
use workloads::{
    gen_input, run_op, run_traced_op, Fixtures, OpInput, Samples, Workload, WORKLOADS,
};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: u64 = 3;
/// Timed ops per run at least, so that ten samples lie beyond p90.
const MIN_OPS: usize = 100;
/// The timed phase never runs longer than this many times `--seconds`.
const MAX_STRETCH: f64 = 3.0;
/// Leading timed ops whose outputs make up the digest.
const DIGEST_OPS: u64 = 4;
/// Share of a traced run spent alternating untraced and traced ops of the
/// workload itself; the rest traces a few ops of every other workload.
const OWN_SHARE: f64 = 0.75;
/// Traced ops per other workload in a traced run.
const HOME_OPS: u64 = 3;
/// Input streams: set-up repetition `r` draws from stream `r`, so no two
/// phases share inputs.
const STREAM_TIMED: u64 = 0;
const STREAM_HOME: u64 = 100;

const USAGE: &str =
    "usage: perfbench --workload <design-sweep|chaos-soak|recovery|event-kernel|all> \
[--seed <n>] [--seconds <s>] [--trace <0|1>]
  default seed 1; seed 20261017 is held out from tuning, reserved for confirming claims";

/// A per-layer metric: name, unit, the workload whose ops measure it
/// (`None`: the workload under test), and the end-to-end metric it should
/// move.
struct Layer {
    name: &'static str,
    unit: &'static str,
    home: Option<Workload>,
    moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    home: Workload,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        home: Some(home),
        moves,
    }
}

const DS: Workload = Workload::DesignSweep;
const CS: Workload = Workload::ChaosSoak;
const RC: Workload = Workload::Recovery;
const EK: Workload = Workload::EventKernel;
const DEPLOY: &str = "op_ms_p75 on design-sweep, chaos-soak, recovery; none on event-kernel";
const FINAL: &str = "op_ms_p75 on design-sweep, then chaos-soak";
const CHAOS: &str = "op_ms_p75 on chaos-soak";
const RECOVERY: &str = "op_ms_p75 on recovery";
const KERNEL: &str = "op_ms_p75 on event-kernel; none elsewhere";

const LAYERS: &[Layer] = &[
    layer("trainsim.deploy_ms", "ms", DS, DEPLOY),
    layer("trainsim.deploy_frac", "frac", DS, DEPLOY),
    layer("core.pilot_runs", "count", DS, DEPLOY),
    layer("trainsim.final_run_ms", "ms", DS, FINAL),
    layer("trainsim.push_ms", "ms", DS, FINAL),
    layer("trainsim.pull_ms", "ms", DS, FINAL),
    layer("fabric.link_ms", "ms", DS, FINAL),
    layer("fabric.transfers", "count", DS, FINAL),
    layer("fabric.ns_per_transfer", "ns", DS, FINAL),
    layer("fabric.staged_frac", "frac", DS, FINAL),
    layer("cci.sync_ring_ms", "ms", DS, FINAL),
    layer("collectives.ring_steps", "count", DS, FINAL),
    layer("cci.ns_per_ring_step", "ns", DS, FINAL),
    layer("trainsim.clean_ref_ms", "ms", CS, CHAOS),
    layer("trainsim.faulty_ms", "ms", CS, CHAOS),
    layer("trainsim.faulty_observed_ms", "ms", CS, CHAOS),
    layer("simcore.oracle_ms", "ms", CS, CHAOS),
    layer("simcore.oracle_frac", "frac", CS, CHAOS),
    layer("simcore.fault_sample_us", "us", CS, CHAOS),
    layer("trainsim.retries", "count", CS, CHAOS),
    layer("trainsim.failovers", "count", CS, CHAOS),
    layer("trainsim.recovering_ms", "ms", RC, RECOVERY),
    layer("trainsim.checkpointed_ms", "ms", RC, RECOVERY),
    layer("cci.checkpoint_host_ms", "ms", RC, RECOVERY),
    layer("trainsim.recovering_observed_ms", "ms", RC, RECOVERY),
    layer("trainsim.restores", "count", RC, RECOVERY),
    layer("trainsim.lost_iterations", "count", RC, RECOVERY),
    layer("simcore.events", "count", EK, KERNEL),
    layer("simcore.ns_per_event", "ns", EK, KERNEL),
    layer("simcore.queue_depth_max", "count", EK, KERNEL),
    layer("trainsim.straggler_ms", "ms", EK, KERNEL),
    layer("core.service_ms", "ms", EK, KERNEL),
    layer("core.service_us_per_event", "us", EK, KERNEL),
    // Instrument health, measured on the workload under test.
    Layer {
        name: "trace_overhead_frac",
        unit: "frac",
        home: None,
        moves: "none (traced vs untraced op p50)",
    },
    Layer {
        name: "coverage",
        unit: "frac",
        home: None,
        moves: "none (share of each op span its child spans cover)",
    },
];

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for pair in argv.chunks(2) {
        let value = pair
            .get(1)
            .ok_or_else(|| format!("{} needs a value", pair[0]))?;
        match pair[0].as_str() {
            "--workload" if value == "all" => args.workloads = WORKLOADS.to_vec(),
            "--workload" => {
                let w =
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                args.workloads = vec![w];
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("seconds {value} outside (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, not {value:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    for &w in &args.workloads {
        let result = if args.trace {
            traced_run(w, &args)
        } else {
            timed_run(w, &args)
        };
        println!("{}", result.json());
    }
}

/// One run's verdict and metrics.
struct RunResult {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)`.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `f`, turning a panic into an error.
fn guarded(f: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|_| Err("panicked".into()))
}

/// Tally of ops attempted and failed, printing the first few failures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, r: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("op failed ({what}): {e}");
            }
        }
    }
}

/// Generates inputs and runs a fixed count of warm-up ops, `reps` times,
/// each repetition on inputs of its own. Returns the last repetition's
/// fixtures and each repetition's duration in seconds.
fn setup(w: Workload, seed: u64, reps: u64, tally: &mut Tally) -> (Fixtures, Vec<f64>) {
    let mut durations = Vec::new();
    let mut fx = None;
    for rep in 1..=reps {
        let t0 = Instant::now();
        let fixtures = Fixtures::new();
        let inputs: Vec<OpInput> = (0..w.warmup_ops())
            .map(|i| gen_input(w, seed, rep, i))
            .collect();
        for input in &inputs {
            let r = guarded(|| run_op(input, &fixtures, &mut Digest::default()));
            tally.record("warm-up", r);
        }
        durations.push(t0.elapsed().as_secs_f64());
        fx = Some(fixtures);
    }
    (fx.unwrap_or_else(Fixtures::new), durations)
}

/// Medians of op times grouped by the second of the phase they ended in.
fn per_second_medians(ends_s: &[f64], op_ms: &[f64]) -> Vec<f64> {
    let seconds = ends_s.iter().fold(0.0f64, |a, &b| a.max(b)).floor() as usize + 1;
    let mut buckets = vec![Vec::new(); seconds];
    for (&end, &ms) in ends_s.iter().zip(op_ms) {
        buckets[end.floor() as usize].push(ms);
    }
    buckets
        .iter()
        .filter(|b| !b.is_empty())
        .map(|b| median(b))
        .collect()
}

fn fmt_list(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| format!("{x:.3}")).collect();
    format!("[{}]", items.join(", "))
}

/// Writes one artifact under `perfbench/out/`; failure to write is reported
/// and otherwise ignored (the metrics are already on standard output).
fn write_artifact(file: &str, body: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(file);
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

/// The untraced run: set-up, the timed closed loop, then the fidelity
/// scorecard outside the timed phase.
fn timed_run(w: Workload, args: &Args) -> RunResult {
    let mut warm = Tally::default();
    let (fx, setups) = setup(w, args.seed, SETUP_REPS, &mut warm);

    let mut timed = Tally::default();
    let mut op_ms = Vec::new();
    let mut ends_s = Vec::new();
    let mut digest = Digest::default();
    let start = Instant::now();
    for i in 0.. {
        let input = gen_input(w, args.seed, STREAM_TIMED, i);
        let mut op_digest = Digest::default();
        let t0 = Instant::now();
        let r = guarded(|| run_op(&input, &fx, &mut op_digest));
        op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        timed.record("timed", r);
        if i < DIGEST_OPS {
            digest.word(op_digest.value());
        }
        let elapsed = start.elapsed().as_secs_f64();
        ends_s.push(elapsed);
        if (elapsed >= args.seconds && op_ms.len() >= MIN_OPS)
            || elapsed >= args.seconds * MAX_STRETCH
        {
            break;
        }
    }
    let timed_s = start.elapsed().as_secs_f64();

    let card = Scorecard::evaluate(None);
    let (pass, _, _) = card.counts();
    let fidelity = pass as f64 / card.rows.len().max(1) as f64;

    let p50 = quantile(&op_ms, 0.5).unwrap_or(0.0);
    let p75 = quantile(&op_ms, 0.75).unwrap_or(0.0);
    let p90 = quantile(&op_ms, 0.9).unwrap_or(0.0);
    let beyond = op_ms.iter().filter(|&&x| x > p90).count();
    let ok_frac = (timed.attempted - timed.failed) as f64 / timed.attempted as f64;
    let per_second = per_second_medians(&ends_s, &op_ms);
    let result = RunResult {
        attempted: timed.attempted + warm.attempted,
        failed: timed.failed + warm.failed,
        metrics: vec![
            ("op_ms_p75", p75, "ms"),
            ("setup_s", median(&setups), "s"),
            ("peak_rss_mib", peak_rss_mib().unwrap_or(0.0), "MiB"),
            ("ok_frac", ok_frac, "frac"),
            ("fidelity_pass_frac", fidelity, "frac"),
        ],
    };
    // Printed but not gated: on a host that alternates between speed
    // states, these follow the share of the run spent in each (README.md).
    let ungated = RunResult {
        attempted: timed.attempted,
        failed: timed.failed,
        metrics: vec![
            ("op_ms_p50", p50, "ms"),
            ("op_ms_p90", p90, "ms"),
            ("ops_per_s", op_ms.len() as f64 / timed_s, "1/s"),
        ],
    };

    println!(
        "workload {} seed {} (untraced, {:.1} s timed)",
        w.name(),
        args.seed,
        timed_s
    );
    for (name, v, unit) in &result.metrics {
        println!("  {name:<20} {v:>12.4} {unit}");
    }
    for (name, v, unit) in &ungated.metrics {
        println!("  {name:<20} {v:>12.4} {unit} (not gated)");
    }
    println!(
        "  op_ms_p90 samples: {} ops, {beyond} beyond p90",
        op_ms.len()
    );
    println!("  fidelity scorecard: {pass}/{} PASS", card.rows.len());
    println!("  setup repetitions s: {}", fmt_list(&setups));
    println!("  per-second op_ms p50: {}", fmt_list(&per_second));
    println!("  digest {} seed {}: {}", w.name(), args.seed, digest.hex());
    write_artifact(
        &format!("{}-seed{}-trace0.json", w.name(), args.seed),
        &format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"digest\": \"{}\", \"ops\": {}, \"beyond_p90\": {beyond}, \
             \"setup_reps_s\": {}, \"per_second_op_ms_p50\": {}, \"op_ms\": {}, \
             \"ungated\": {}, \"result\": {}}}\n",
            w.name(),
            args.seed,
            digest.hex(),
            op_ms.len(),
            fmt_list(&setups),
            fmt_list(&per_second),
            fmt_list(&op_ms),
            ungated.json(),
            result.json()
        ),
    );
    result
}

/// One traced op; a failure is tallied and yields no samples.
fn traced_op(
    input: &OpInput,
    fx: &Fixtures,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Option<(f64, Samples)> {
    let mut out = None;
    let r = guarded(|| {
        out = Some(run_traced_op(input, fx, tracer)?);
        Ok(())
    });
    tally.record("traced", r);
    out
}

/// The per-layer samples of `count` traced ops of `w`.
fn trace_ops(
    w: Workload,
    seed: u64,
    count: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Vec<Samples> {
    let fx = Fixtures::new();
    (0..count)
        .filter_map(|i| {
            tracer.set_op(STREAM_HOME * 1_000_000 + i);
            let input = gen_input(w, seed, STREAM_HOME, i);
            traced_op(&input, &fx, tracer, tally).map(|(_, s)| s)
        })
        .collect()
}

/// The traced run: alternating untraced and traced ops of `w` give the
/// trace overhead, coverage and the per-layer metrics `w` exercises; a few
/// traced ops of each other workload give the rest.
fn traced_run(w: Workload, args: &Args) -> RunResult {
    let mut tally = Tally::default();
    let (fx, _) = setup(w, args.seed, 1, &mut tally);
    let mut tracer = Tracer::default();
    let mut untraced_ms = Vec::new();
    let mut ends_s = Vec::new();
    let mut traced_ms = Vec::new();
    let mut own: Vec<Samples> = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < args.seconds * OWN_SHARE || i < 2 {
        let input = gen_input(w, args.seed, STREAM_TIMED, i);
        if i % 2 == 0 {
            let t0 = Instant::now();
            let r = guarded(|| run_op(&input, &fx, &mut Digest::default()));
            untraced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            ends_s.push(start.elapsed().as_secs_f64());
            tally.record("untraced", r);
        } else {
            tracer.set_op(i);
            if let Some((ns, s)) = traced_op(&input, &fx, &mut tracer, &mut tally) {
                traced_ms.push(ns / 1e6);
                own.push(s);
            }
        }
        i += 1;
    }
    let coverage = median(&tracer.coverage("op"));
    let mut home: Vec<(Workload, Vec<Samples>)> = vec![(w, own)];
    for h in WORKLOADS.into_iter().filter(|&h| h != w) {
        home.push((
            h,
            trace_ops(h, args.seed, HOME_OPS, &mut tracer, &mut tally),
        ));
    }

    let untraced_p50 = median(&untraced_ms);
    let overhead = if traced_ms.is_empty() || untraced_p50 <= 0.0 {
        0.0
    } else {
        median(&traced_ms) / untraced_p50 - 1.0
    };
    let mut metrics = Vec::new();
    println!("workload {} seed {} (traced)", w.name(), args.seed);
    println!(
        "  {:<32} {:>14} {:<6} {:<13} moves",
        "metric", "median/op", "unit", "measured on"
    );
    for l in LAYERS {
        let source = l.home.unwrap_or(w);
        let value = match l.name {
            "trace_overhead_frac" => overhead,
            "coverage" => coverage,
            name => {
                let values: Vec<f64> = home
                    .iter()
                    .filter(|(h, _)| *h == source)
                    .flat_map(|(_, samples)| samples)
                    .filter_map(|s| s.get(name).copied())
                    .collect();
                median(&values)
            }
        };
        println!(
            "  {:<32} {value:>14.4} {:<6} {:<13} {}",
            l.name,
            l.unit,
            source.name(),
            l.moves
        );
        metrics.push((l.name, value, l.unit));
    }
    let per_second = per_second_medians(&ends_s, &untraced_ms);
    println!(
        "  untraced ops {}, traced ops {}",
        untraced_ms.len(),
        traced_ms.len()
    );
    println!("  per-second untraced op_ms p50: {}", fmt_list(&per_second));
    write_artifact(
        &format!("{}-seed{}-spans.json", w.name(), args.seed),
        &tracer.to_json(),
    );
    RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
    }
}
