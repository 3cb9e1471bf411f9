//! The four workloads: seeded inputs, the untraced op, the traced op, the
//! per-op output checks, and the digest of simulated outputs.
//!
//! Every op of a workload makes the same calls over the same rotation of
//! inputs, so op costs stay alike and the median cannot jump between op
//! classes. Why each workload exists is recorded in `README.md`.

use std::collections::BTreeMap;

use coarse_core::deadlock::SchedulingPolicy;
use coarse_core::resilience::{RecoveryPolicy, ResiliencePolicy};
use coarse_core::service::{round_robin_jobs, run_service, run_service_profiled, ServiceOutcome};
use coarse_fabric::machines::{Machine, MachineBuilder, Partition, PartitionScheme};
use coarse_models::profile::ModelProfile;
use coarse_models::zoo::{bert_base, bert_large, resnet50};
use coarse_simcore::faults::{FaultPlan, FaultPlanGen};
use coarse_simcore::json::JsonValue;
use coarse_simcore::metrics::name as metric;
use coarse_simcore::oracle::{MembershipMonotonicity, OracleHub, Reconvergence};
use coarse_simcore::prof::{region, Profiler};
use coarse_simcore::time::SimDuration;
use coarse_trainsim::chaos::{soak, universe_for, SoakConfig, SoakOutcome};
use coarse_trainsim::coarse::{
    record_coarse_metrics, record_coarse_profile, result_fingerprint,
    simulate_coarse_faulty_observed, simulate_coarse_recovering_observed, Sabotage,
};
use coarse_trainsim::recovery::{plan_clear_instant, recovery_report, reference_schedule};
use coarse_trainsim::straggler::{
    run_straggler, run_straggler_profiled, StragglerConfig, StragglerResult, SyncModel,
};
use coarse_trainsim::{Scenario, Scheme, TrainResult};

use crate::stats::{mix64, Digest, Rng};
use crate::trace::Tracer;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Never-repeating Fig. 16 configurations through all three schemes.
    DesignSweep,
    /// One fault-injected, oracle-observed soak case per preset.
    ChaosSoak,
    /// The recovery harness for every preset.
    Recovery,
    /// Straggler and proxy-service runs on the event kernel.
    EventKernel,
}

/// Every workload, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload::DesignSweep,
    Workload::ChaosSoak,
    Workload::Recovery,
    Workload::EventKernel,
];

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DesignSweep => "design-sweep",
            Workload::ChaosSoak => "chaos-soak",
            Workload::Recovery => "recovery",
            Workload::EventKernel => "event-kernel",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Ops run untimed by each set-up repetition: a count, not a duration,
    /// so set-up measures a fixed amount of work.
    pub fn warmup_ops(self) -> u64 {
        match self {
            Workload::DesignSweep => 2,
            Workload::ChaosSoak => 1,
            Workload::Recovery => 1,
            Workload::EventKernel => 2,
        }
    }
}

/// One of the paper's Fig. 16 panels, spelled out from the public builders
/// so that ops can reach the lower-level `trainsim::coarse` entry points.
/// Must match `Scenario::try_preset` (a test checks it does).
pub struct Preset {
    /// `Scenario::preset` name.
    pub name: &'static str,
    /// `MachineBuilder::preset` name.
    pub machine: &'static str,
    /// Model constructor.
    pub model: fn() -> ModelProfile,
    /// Worker/memory-device split.
    pub partition: PartitionScheme,
    /// Per-GPU batch.
    pub batch: u32,
}

/// The five Fig. 16 presets, in `Scenario::presets` order.
pub const PRESETS: [Preset; 5] = [
    Preset {
        name: "fig16a",
        machine: "aws_t4",
        model: resnet50,
        partition: PartitionScheme::OneToOne,
        batch: 64,
    },
    Preset {
        name: "fig16b",
        machine: "aws_t4",
        model: bert_base,
        partition: PartitionScheme::OneToOne,
        batch: 2,
    },
    Preset {
        name: "fig16c",
        machine: "sdsc_p100",
        model: bert_large,
        partition: PartitionScheme::OneToOne,
        batch: 2,
    },
    Preset {
        name: "fig16d",
        machine: "aws_v100",
        model: bert_large,
        partition: PartitionScheme::OneToOne,
        batch: 2,
    },
    Preset {
        name: "fig16d-2to1",
        machine: "aws_v100",
        model: bert_large,
        partition: PartitionScheme::TwoToOne,
        batch: 2,
    },
];

/// Simulated iterations per design-sweep run (the `Scenario` default).
const DESIGN_ITERS: u32 = 3;
/// Chaos cases per soak call: two per preset, so each op averages over
/// ten sampled plans.
const CHAOS_CASES: u32 = 2 * PRESETS.len() as u32;
/// Simulated iterations per chaos case (the `chaos soak` CLI's).
const CHAOS_ITERS: u32 = 2;
/// Fault events per sampled chaos plan, at most.
const CHAOS_MAX_EVENTS: usize = 4;
/// Simulated iterations per recovery run.
const RECOVERY_ITERS: u32 = 3;
/// Oracle watchdog of the chaos and recovery harnesses.
const WATCHDOG: SimDuration = SimDuration::from_secs(60);
/// Straggler worker counts, i.e. pending-queue depths: tens to hundreds.
const DEPTHS: [usize; 3] = [24, 96, 384];
/// Kernel events per straggler run, held roughly constant across depths.
const EVENTS_PER_RUN: usize = 19_200;
/// Drawn configurations of each Fig. 16 family per design-sweep op.
const CONFIGS_PER_FAMILY: usize = 2;
/// Sync cores per proxy in the service runs.
const SERVICE_CORES: usize = 2;

/// One drawn design-sweep configuration of a Fig. 16 family.
#[derive(Debug, Clone)]
pub struct DesignConfig {
    /// Index into [`PRESETS`].
    pub family: usize,
    /// GPU slot bandwidth, GiB/s.
    pub gpu_link: f64,
    /// Switch uplink bandwidth, GiB/s.
    pub uplink: f64,
    /// Same-switch hairpin bandwidth, GiB/s (machines that have one).
    pub hairpin: Option<f64>,
    /// Per-hop PCIe latency, ns.
    pub hop_ns: u64,
    /// Per-GPU batch.
    pub batch: u32,
    /// Worker/memory-device split.
    pub partition: PartitionScheme,
}

impl DesignConfig {
    fn machine(&self) -> Machine {
        let mut b = MachineBuilder::preset(PRESETS[self.family].machine)
            .gpu_link_gib(self.gpu_link)
            .uplink_gib(self.uplink)
            .hop_latency(SimDuration::from_nanos(self.hop_ns));
        if let Some(h) = self.hairpin {
            b = b.hairpin_gib(h);
        }
        b.build()
    }
}

/// The drawn parameters of one event-kernel op.
#[derive(Debug, Clone)]
pub struct KernelDraw {
    /// Straggler jitter sigma.
    pub jitter: f64,
    /// Straggler draw seed.
    pub seed: u64,
    /// Barrier collective duration, ms.
    pub sync_ms: u64,
    /// Overlapped local tail, ms (below `sync_ms`).
    pub tail_ms: u64,
    /// Overlapped run-ahead slack, ms.
    pub slack_ms: u64,
    /// Duration of one proxy-service collective, µs.
    pub service_us: u64,
}

/// The inputs of one op.
#[derive(Debug, Clone)]
pub enum OpInput {
    /// One configuration per Fig. 16 family.
    Design(Vec<DesignConfig>),
    /// The soak's base seed.
    Chaos(u64),
    /// Checkpoint interval per preset.
    Recovery([u32; 5]),
    /// Straggler and service draws.
    Kernel(KernelDraw),
}

/// Shape of one proxy-service run: a Fig. 16 model's tensor count over its
/// machine's clients and proxies.
#[derive(Debug, Clone, Copy)]
pub struct ServiceShape {
    tensors: u64,
    clients: usize,
    proxies: usize,
}

/// What input generation derives once per set-up from the public builders.
#[derive(Debug, Clone)]
pub struct Fixtures {
    service: Vec<ServiceShape>,
}

impl Fixtures {
    /// Service shapes of ResNet-50 (fig16a), BERT-base (fig16b) and
    /// BERT-large (fig16d).
    pub fn new() -> Fixtures {
        let service = [0, 1, 3]
            .iter()
            .map(|&i| {
                let p = &PRESETS[i];
                let part = MachineBuilder::preset(p.machine)
                    .build()
                    .partition(p.partition);
                ServiceShape {
                    tensors: (p.model)().tensors().len() as u64,
                    clients: part.workers.len(),
                    proxies: part.mem_devices.len(),
                }
            })
            .collect();
        Fixtures { service }
    }
}

/// The inputs of op `index` of input stream `stream` under `seed`.
pub fn gen_input(w: Workload, seed: u64, stream: u64, index: u64) -> OpInput {
    let mut rng = Rng::for_op(seed, stream, index);
    match w {
        Workload::DesignSweep => OpInput::Design(
            (0..CONFIGS_PER_FAMILY * PRESETS.len())
                .map(|i| draw_design(i % PRESETS.len(), &mut rng))
                .collect(),
        ),
        Workload::ChaosSoak => OpInput::Chaos(rng.next_u64()),
        Workload::Recovery => {
            OpInput::Recovery(std::array::from_fn(|_| rng.range_u64(1, 3) as u32))
        }
        Workload::EventKernel => OpInput::Kernel(KernelDraw {
            jitter: rng.range_f64(0.05, 0.4),
            seed: rng.next_u64(),
            sync_ms: rng.range_u64(60, 110),
            tail_ms: rng.range_u64(10, 30),
            slack_ms: rng.range_u64(40, 120),
            service_us: rng.range_u64(500, 2000),
        }),
    }
}

/// Draws link bandwidths and hop latency around the family's machine
/// preset, plus batch and (where the machine has eight GPUs to split)
/// partition. Ranges keep every scheme within GPU memory.
fn draw_design(family: usize, rng: &mut Rng) -> DesignConfig {
    let p = &PRESETS[family];
    let (gpu_link, uplink, hairpin, hop_ns) = match p.machine {
        "aws_t4" => (
            rng.range_f64(4.5, 8.0),
            rng.range_f64(9.0, 14.0),
            None,
            rng.range_u64(1000, 3000),
        ),
        "sdsc_p100" => (
            rng.range_f64(11.0, 15.0),
            rng.range_f64(8.0, 12.0),
            Some(rng.range_f64(10.0, 16.0)),
            rng.range_u64(500, 1500),
        ),
        _ => (
            rng.range_f64(11.0, 15.0),
            rng.range_f64(7.0, 11.0),
            Some(rng.range_f64(3.5, 7.0)),
            rng.range_u64(500, 1500),
        ),
    };
    let batch = match p.name {
        "fig16a" => rng.range_u64(32, 64) as u32,
        "fig16c" => rng.range_u64(1, 2) as u32,
        _ => rng.range_u64(1, 3) as u32,
    };
    let partition = match p.machine {
        "aws_t4" if rng.next_u64() % 2 == 1 => PartitionScheme::TwoToOne,
        _ => p.partition,
    };
    DesignConfig {
        family,
        gpu_link,
        uplink,
        hairpin,
        hop_ns,
        batch,
        partition,
    }
}

/// Per-layer values of one traced op, keyed by metric name.
pub type Samples = BTreeMap<&'static str, f64>;

/// Runs one untraced op, checks its outputs, and folds them into `digest`.
///
/// # Errors
///
/// A description of the first failed call or output check.
pub fn run_op(input: &OpInput, fx: &Fixtures, digest: &mut Digest) -> Result<(), String> {
    match input {
        OpInput::Design(configs) => {
            for c in configs {
                let machine = c.machine();
                let workers = machine.partition(c.partition).workers.len() as u32;
                let p = &PRESETS[c.family];
                let scenario = Scenario::new(p.name, machine, (p.model)())
                    .partition(c.partition)
                    .batch_per_gpu(c.batch)
                    .iterations(DESIGN_ITERS);
                for scheme in [Scheme::Coarse, Scheme::Dense, Scheme::AllReduce] {
                    let r = scenario.clone().scheme(scheme).run().map_err(err)?;
                    check_train(&r, c.batch * workers)?;
                    digest_train(digest, &r);
                }
            }
        }
        OpInput::Chaos(base_seed) => {
            let outcome = soak(&soak_config(*base_seed)).map_err(err)?;
            check_soak(&outcome, CHAOS_CASES)?;
            for v in [u64::from(outcome.clean), outcome.retries, outcome.failovers] {
                digest.word(v);
            }
        }
        OpInput::Recovery(intervals) => {
            for (p, &interval) in PRESETS.iter().zip(intervals) {
                let r = recovery_report(p.name, RECOVERY_ITERS, &recovery_policy(interval))
                    .map_err(err)?;
                check_recovery(&r.violations, r.goodput())?;
                digest.float(r.goodput());
                for v in [r.faulty.restores, r.faulty.lost_iterations, r.checkpoints] {
                    digest.word(v);
                }
            }
        }
        OpInput::Kernel(k) => {
            for &workers in &DEPTHS {
                let barrier = run_straggler(straggler_config(k, workers, false));
                let overlapped = run_straggler(straggler_config(k, workers, true));
                check_straggler(&barrier, &overlapped)?;
                digest_straggler(digest, &barrier, &overlapped);
            }
            for s in &fx.service {
                let jobs = round_robin_jobs(s.tensors, s.clients, s.proxies, service_time(k));
                let out = run_service(
                    s.proxies,
                    SERVICE_CORES,
                    SchedulingPolicy::PerClientQueues,
                    jobs,
                );
                check_service(&out, s.tensors)?;
                digest_service(digest, &out);
            }
        }
    }
    Ok(())
}

/// Runs one traced op: the same work as [`run_op`], decomposed into the
/// public calls of each layer with a span around each, and with the
/// program's profiler attached where an entry point takes one. Reference
/// runs that per-layer differences need (metered COARSE runs, unobserved
/// faulty runs) are spanned as siblings of the op span, so the op span
/// keeps the untraced op's work. Returns the op span's duration (ns) and
/// the op's per-layer values.
///
/// # Errors
///
/// A description of the first failed call or output check.
pub fn run_traced_op(
    input: &OpInput,
    fx: &Fixtures,
    t: &mut Tracer,
) -> Result<(f64, Samples), String> {
    let mut s = Samples::new();
    let op_ns = match input {
        OpInput::Design(configs) => traced_design(configs, t, &mut s)?,
        OpInput::Chaos(base_seed) => traced_chaos(*base_seed, t, &mut s)?,
        OpInput::Recovery(intervals) => traced_recovery(intervals, t, &mut s)?,
        OpInput::Kernel(k) => traced_kernel(k, fx, t, &mut s)?,
    };
    Ok((op_ns, s))
}

fn add(s: &mut Samples, key: &'static str, v: f64) {
    *s.entry(key).or_insert(0.0) += v;
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn traced_design(configs: &[DesignConfig], t: &mut Tracer, s: &mut Samples) -> Result<f64, String> {
    let mut runs: Vec<(Machine, Partition, ModelProfile, u32, TrainResult)> = Vec::new();
    let (res, op_ns) = t.span("op", |t| -> Result<(), String> {
        for c in configs {
            let p = &PRESETS[c.family];
            let ((machine, part, model), _) = t.span("fabric.machine_build", |_| {
                let machine = c.machine();
                let part = machine.partition(c.partition);
                (machine, part, (p.model)())
            });
            let global = c.batch * part.workers.len() as u32;
            let prof = Profiler::new();
            let (r, _) = t.span("trainsim.coarse_profiled", |_| {
                let r = record_coarse_profile(
                    &machine,
                    &part,
                    &model,
                    c.batch,
                    DESIGN_ITERS,
                    prof.clone(),
                );
                prof.seal();
                r
            });
            check_train(&r, global)?;
            add_profile(s, &prof.wallclock_json());
            let scenario = Scenario::new(p.name, machine.clone(), model.clone())
                .partition(c.partition)
                .batch_per_gpu(c.batch)
                .iterations(DESIGN_ITERS);
            for (scheme, name) in [
                (Scheme::Dense, "trainsim.dense"),
                (Scheme::AllReduce, "trainsim.allreduce"),
            ] {
                let (r, _) = t.span(name, |_| scenario.clone().scheme(scheme).run());
                check_train(&r.map_err(err)?, global)?;
            }
            runs.push((machine, part, model, c.batch, r));
        }
        Ok(())
    });
    res?;
    // Work counters come from the program's metric registry, on a
    // separate metered run of the same configuration.
    for (machine, part, model, batch, profiled) in &runs {
        let ((r, snap), _) = t.span("ref.coarse_metered", |_| {
            record_coarse_metrics(machine, part, model, *batch, DESIGN_ITERS)
        });
        if r != *profiled {
            return Err("metered COARSE run differs from the profiled run".into());
        }
        add(
            s,
            "core.pilot_runs",
            snap.gauge(metric::DUALSYNC_PILOT_RUNS).unwrap_or(0.0),
        );
        for (key, name) in [
            ("fabric.transfers", metric::FABRIC_TRANSFERS),
            ("fabric.staged", metric::FABRIC_STAGED),
            ("collectives.ring_steps", metric::RING_STEPS),
        ] {
            add(s, key, snap.counter(name) as f64);
        }
    }
    let elapsed = s.remove("profile.elapsed_ms").unwrap_or(0.0);
    let deploy = s["trainsim.deploy_ms"];
    s.insert("trainsim.deploy_frac", ratio(deploy, elapsed));
    let transfers = s["fabric.transfers"];
    let staged = s.remove("fabric.staged").unwrap_or(0.0);
    s.insert("fabric.staged_frac", ratio(staged, transfers));
    s.insert(
        "fabric.ns_per_transfer",
        ratio(s["fabric.link_ms"] * 1e6, transfers),
    );
    let steps = s["collectives.ring_steps"];
    s.insert(
        "cci.ns_per_ring_step",
        ratio(s["cci.sync_ring_ms"] * 1e6, steps),
    );
    Ok(op_ns)
}

/// Folds one profiled COARSE run's wall-clock report in: the deployment
/// build plus pilot grid is the profiled elapsed time minus the time the
/// profiler's regions attribute (the regions cover the final run only).
fn add_profile(s: &mut Samples, wall: &JsonValue) {
    let region_ns = |name: &str, key: &str| -> f64 {
        wall.get("regions")
            .and_then(|r| r.get(name))
            .and_then(|r| r.get(key))
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0)
    };
    let elapsed = wall
        .get("elapsed_ns")
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0);
    let attributed: f64 = region::ALL.iter().map(|r| region_ns(r, "self_ns")).sum();
    add(s, "profile.elapsed_ms", elapsed / 1e6);
    add(s, "trainsim.deploy_ms", (elapsed - attributed) / 1e6);
    add(s, "trainsim.final_run_ms", attributed / 1e6);
    for (key, name) in [
        ("trainsim.push_ms", region::TRAIN_PUSH),
        ("trainsim.pull_ms", region::TRAIN_PULL),
        ("fabric.link_ms", region::FABRIC_LINK),
        ("cci.sync_ring_ms", region::CCI_SYNC_RING),
    ] {
        add(s, key, region_ns(name, "total_ns") / 1e6);
    }
}

fn traced_chaos(base_seed: u64, t: &mut Tracer, s: &mut Samples) -> Result<f64, String> {
    let mut cases: Vec<(Scenario, TrainResult)> = Vec::new();
    let (res, op_ns) = t.span("op", |t| -> Result<(), String> {
        // The steps of one `chaos::soak` call: per preset, the fault-free
        // reference and the plan generator; then the cases in rotation.
        let mut derived = Vec::new();
        for p in &PRESETS {
            let base = Scenario::try_preset(p.name)
                .map_err(err)?
                .iterations(CHAOS_ITERS);
            let (clean, ms) = t.span("trainsim.clean_ref", |_| base.run());
            add(s, "trainsim.clean_ref_ms", ms / 1e6);
            let reference = result_fingerprint(&clean.map_err(err)?);
            let (gen, ns) = t.span("simcore.fault_sample", |_| {
                FaultPlanGen::new(universe_for(&base)).max_events(CHAOS_MAX_EVENTS)
            });
            add(s, "simcore.fault_sample_us", ns / 1e3);
            derived.push((base, reference, gen));
        }
        for case in 0..CHAOS_CASES as usize {
            let p = &PRESETS[case % PRESETS.len()];
            let (base, reference, gen) = &derived[case % PRESETS.len()];
            let (plan, ns) = t.span("simcore.fault_sample", |_| {
                gen.sample(mix64(base_seed ^ case as u64))
            });
            add(s, "simcore.fault_sample_us", ns / 1e3);
            let (machine, part, model) = preset_parts(p);
            let hub = oracle_hub(&plan);
            let (faulty, ns) = t.span("trainsim.faulty_observed", |_| {
                simulate_coarse_faulty_observed(
                    &machine,
                    &part,
                    &model,
                    p.batch,
                    CHAOS_ITERS,
                    &plan,
                    &ResiliencePolicy::default(),
                    &hub,
                    Sabotage::None,
                    Some(*reference),
                )
            });
            add(s, "trainsim.faulty_observed_ms", ns / 1e6);
            let violations: Vec<String> = hub.violations().iter().map(|v| v.to_string()).collect();
            if !violations.is_empty() {
                return Err(format!("chaos case {case} ({}): {violations:?}", p.name));
            }
            add(s, "trainsim.retries", faulty.retries as f64);
            add(s, "trainsim.failovers", faulty.failovers as f64);
            cases.push((base.clone().faults(plan), faulty.result));
        }
        Ok(())
    });
    res?;
    // The oracle battery's cost: the same plans run unobserved.
    for (scenario, observed) in &cases {
        let (r, ns) = t.span("ref.faulty_unobserved", |_| scenario.run_faulty());
        add(s, "trainsim.faulty_ms", ns / 1e6);
        if r.map_err(err)?.result != *observed {
            return Err("observed faulty run differs from the unobserved run".into());
        }
    }
    let oracle = s["trainsim.faulty_observed_ms"] - s["trainsim.faulty_ms"];
    s.insert("simcore.oracle_ms", oracle);
    s.insert(
        "simcore.oracle_frac",
        ratio(oracle, s["trainsim.faulty_observed_ms"]),
    );
    Ok(op_ns)
}

fn traced_recovery(intervals: &[u32; 5], t: &mut Tracer, s: &mut Samples) -> Result<f64, String> {
    let (res, op_ns) = t.span("op", |t| -> Result<(), String> {
        // The steps of one `recovery::recovery_report` call, per preset.
        for (p, &interval) in PRESETS.iter().zip(intervals) {
            let policy = recovery_policy(interval);
            let base = Scenario::try_preset(p.name)
                .map_err(err)?
                .iterations(RECOVERY_ITERS);
            let (schedule, _) =
                t.span("trainsim.reference_schedule", |_| reference_schedule(&base));
            let schedule = schedule.map_err(err)?;
            let (baseline, ms0) = t.span("trainsim.recovering", |_| {
                base.run_recovering(&recovery_policy(0))
            });
            let baseline = baseline.map_err(err)?;
            let (ckpt, ms1) = t.span("trainsim.checkpointed", |_| base.run_recovering(&policy));
            ckpt.map_err(err)?;
            add(s, "trainsim.recovering_ms", ms0 / 1e6);
            add(s, "trainsim.checkpointed_ms", ms1 / 1e6);
            let (machine, part, model) = preset_parts(p);
            let hub = oracle_hub(&schedule);
            let (faulty, ns) = t.span("trainsim.recovering_observed", |_| {
                simulate_coarse_recovering_observed(
                    &machine,
                    &part,
                    &model,
                    p.batch,
                    RECOVERY_ITERS,
                    &schedule,
                    &policy,
                    &hub,
                    Some(result_fingerprint(&baseline.result)),
                )
            });
            add(s, "trainsim.recovering_observed_ms", ns / 1e6);
            let violations: Vec<String> = hub.violations().iter().map(|v| v.to_string()).collect();
            let goodput = baseline.wall.as_secs_f64() / faulty.wall.as_secs_f64();
            check_recovery(&violations, goodput)?;
            add(s, "trainsim.restores", faulty.restores as f64);
            add(s, "trainsim.lost_iterations", faulty.lost_iterations as f64);
        }
        Ok(())
    });
    res?;
    s.insert(
        "cci.checkpoint_host_ms",
        s["trainsim.checkpointed_ms"] - s["trainsim.recovering_ms"],
    );
    Ok(op_ns)
}

fn traced_kernel(
    k: &KernelDraw,
    fx: &Fixtures,
    t: &mut Tracer,
    s: &mut Samples,
) -> Result<f64, String> {
    let mut depth_max = 0u64;
    let (res, op_ns) = t.span("op", |t| -> Result<(), String> {
        for &workers in &DEPTHS {
            let mut results = Vec::new();
            for overlapped in [false, true] {
                let prof = Profiler::new();
                let (r, ns) = t.span("trainsim.straggler", |_| {
                    run_straggler_profiled(
                        straggler_config(k, workers, overlapped),
                        Some(prof.clone()),
                    )
                });
                add(s, "trainsim.straggler_ms", ns / 1e6);
                add(s, "simcore.events", prof.events_dispatched() as f64);
                depth_max = depth_max.max(prof.queue_stats().depth.max());
                results.push(r);
            }
            check_straggler(&results[0], &results[1])?;
        }
        for sh in &fx.service {
            let prof = Profiler::new();
            let (out, ns) = t.span("core.service", |_| {
                let jobs = round_robin_jobs(sh.tensors, sh.clients, sh.proxies, service_time(k));
                run_service_profiled(
                    sh.proxies,
                    SERVICE_CORES,
                    SchedulingPolicy::PerClientQueues,
                    jobs,
                    Some(prof.clone()),
                )
            });
            check_service(&out, sh.tensors)?;
            add(s, "core.service_ms", ns / 1e6);
            add(s, "core.service_events", prof.events_dispatched() as f64);
        }
        Ok(())
    });
    res?;
    let service_events = s.remove("core.service_events").unwrap_or(0.0);
    let events = s["simcore.events"] + service_events;
    s.insert("simcore.events", events);
    s.insert("simcore.queue_depth_max", depth_max as f64);
    let kernel_ms = s["trainsim.straggler_ms"] + s["core.service_ms"];
    s.insert("simcore.ns_per_event", ratio(kernel_ms * 1e6, events));
    s.insert(
        "core.service_us_per_event",
        ratio(s["core.service_ms"] * 1e3, service_events),
    );
    Ok(op_ns)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn soak_config(base_seed: u64) -> SoakConfig {
    SoakConfig {
        presets: PRESETS.iter().map(|p| p.name.to_string()).collect(),
        cases: CHAOS_CASES,
        iterations: CHAOS_ITERS,
        base_seed,
        max_events: CHAOS_MAX_EVENTS,
        sabotage: Sabotage::None,
    }
}

fn recovery_policy(interval: u32) -> RecoveryPolicy {
    RecoveryPolicy {
        checkpoint_interval: interval,
        ..RecoveryPolicy::default()
    }
}

/// The oracle battery the chaos and recovery harnesses arm.
fn oracle_hub(plan: &FaultPlan) -> OracleHub {
    let hub = OracleHub::with_builtins(WATCHDOG);
    hub.register(Box::new(MembershipMonotonicity::new()));
    hub.register(Box::new(Reconvergence::new(
        plan_clear_instant(plan),
        WATCHDOG,
    )));
    hub
}

fn preset_parts(p: &Preset) -> (Machine, Partition, ModelProfile) {
    let machine = MachineBuilder::preset(p.machine).build();
    let part = machine.partition(p.partition);
    (machine, part, (p.model)())
}

fn straggler_config(k: &KernelDraw, workers: usize, overlapped: bool) -> StragglerConfig {
    let sync = if overlapped {
        SyncModel::Overlapped {
            tail: SimDuration::from_millis(k.tail_ms),
            slack: SimDuration::from_millis(k.slack_ms),
        }
    } else {
        SyncModel::Barrier {
            sync: SimDuration::from_millis(k.sync_ms),
        }
    };
    StragglerConfig {
        workers,
        iterations: (EVENTS_PER_RUN / workers) as u32,
        compute: SimDuration::from_millis(245),
        jitter_sigma: k.jitter,
        sync,
        seed: k.seed,
    }
}

fn service_time(k: &KernelDraw) -> SimDuration {
    SimDuration::from_micros(k.service_us)
}

/// A training result is self-consistent: iteration ≥ compute > 0,
/// blocked = iteration − compute, throughput = global batch / iteration.
pub fn check_train(r: &TrainResult, global_batch: u32) -> Result<(), String> {
    if r.compute_time == SimDuration::ZERO || r.iteration_time < r.compute_time {
        return Err(format!("bad timing: {r:?}"));
    }
    if r.blocked_comm != r.iteration_time - r.compute_time {
        return Err(format!("blocked != iteration - compute: {r:?}"));
    }
    let expected = f64::from(global_batch) / r.iteration_time.as_secs_f64();
    if (r.throughput - expected).abs() > 1e-9 * expected {
        return Err(format!("throughput {} != {expected}", r.throughput));
    }
    Ok(())
}

/// A soak call ran every case and every case was clean.
pub fn check_soak(o: &SoakOutcome, cases: u32) -> Result<(), String> {
    if o.cases != cases || o.clean != cases || !o.failures.is_empty() {
        return Err(format!(
            "soak: {} of {} cases clean, {} failures",
            o.clean,
            o.cases,
            o.failures.len()
        ));
    }
    Ok(())
}

/// A recovery run upheld every oracle and its goodput lies in (0, 1].
pub fn check_recovery(violations: &[String], goodput: f64) -> Result<(), String> {
    if !violations.is_empty() {
        return Err(format!("recovery violations: {violations:?}"));
    }
    if !(goodput > 0.0 && goodput <= 1.0) {
        return Err(format!("goodput {goodput} outside (0, 1]"));
    }
    Ok(())
}

/// On the same draws, overlapped sync never finishes after the barrier.
pub fn check_straggler(
    barrier: &StragglerResult,
    overlapped: &StragglerResult,
) -> Result<(), String> {
    if overlapped.makespan > barrier.makespan {
        return Err(format!(
            "overlapped makespan {} > barrier {}",
            overlapped.makespan, barrier.makespan
        ));
    }
    Ok(())
}

/// A service run completed every job and left none stuck.
pub fn check_service(o: &ServiceOutcome, jobs: u64) -> Result<(), String> {
    if o.stuck != 0 || o.completed as u64 != jobs {
        return Err(format!(
            "service: {} of {jobs} done, {} stuck",
            o.completed, o.stuck
        ));
    }
    Ok(())
}

fn digest_train(d: &mut Digest, r: &TrainResult) {
    d.word(r.iteration_time.as_nanos());
    d.word(r.compute_time.as_nanos());
    d.word(r.blocked_comm.as_nanos());
    d.float(r.throughput);
}

fn digest_straggler(d: &mut Digest, barrier: &StragglerResult, overlapped: &StragglerResult) {
    for r in [barrier, overlapped] {
        d.word(r.makespan.as_nanos());
        d.word(r.mean_wait.as_nanos());
        d.word(r.p99_wait.as_nanos());
    }
}

fn digest_service(d: &mut Digest, o: &ServiceOutcome) {
    d.word(o.makespan.as_nanos());
    d.word(o.completed as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use coarse_trainsim::coarse::simulate_coarse;
    use coarse_trainsim::straggler::StragglerResult;

    fn good_train() -> TrainResult {
        TrainResult::new(
            SimDuration::from_millis(10),
            SimDuration::from_millis(8),
            16,
        )
    }

    #[test]
    fn train_check_rejects_planted_wrong_outputs() {
        assert!(check_train(&good_train(), 16).is_ok());
        let mut r = good_train();
        r.blocked_comm = SimDuration::from_millis(1);
        assert!(check_train(&r, 16).is_err());
        let mut r = good_train();
        r.throughput *= 1.01;
        assert!(check_train(&r, 16).is_err());
        assert!(check_train(&good_train(), 32).is_err());
        let mut r = good_train();
        r.compute_time = SimDuration::ZERO;
        assert!(check_train(&r, 16).is_err());
        let mut r = good_train();
        r.compute_time = SimDuration::from_millis(11);
        assert!(check_train(&r, 16).is_err());
    }

    #[test]
    fn soak_check_rejects_unclean_cases() {
        let mut o = SoakOutcome {
            cases: 5,
            clean: 5,
            per_preset: BTreeMap::new(),
            retries: 3,
            failovers: 1,
            failures: Vec::new(),
        };
        assert!(check_soak(&o, 5).is_ok());
        assert!(check_soak(&o, 6).is_err());
        o.clean = 4;
        assert!(check_soak(&o, 5).is_err());
    }

    #[test]
    fn recovery_check_rejects_violations_and_bad_goodput() {
        assert!(check_recovery(&[], 0.8).is_ok());
        assert!(check_recovery(&[], 1.0).is_ok());
        assert!(check_recovery(&["[liveness] stalled".to_string()], 0.8).is_err());
        assert!(check_recovery(&[], 1.2).is_err());
        assert!(check_recovery(&[], 0.0).is_err());
        assert!(check_recovery(&[], f64::NAN).is_err());
    }

    #[test]
    fn kernel_checks_reject_planted_wrong_outputs() {
        let r = |ms| StragglerResult {
            makespan: SimDuration::from_millis(ms),
            mean_wait: SimDuration::ZERO,
            p99_wait: SimDuration::ZERO,
            utilization: 1.0,
        };
        assert!(check_straggler(&r(100), &r(90)).is_ok());
        assert!(check_straggler(&r(100), &r(101)).is_err());
        let out = |completed, stuck| ServiceOutcome {
            makespan: SimDuration::from_millis(5),
            completed,
            stuck,
        };
        assert!(check_service(&out(10, 0), 10).is_ok());
        assert!(check_service(&out(9, 1), 10).is_err());
        assert!(check_service(&out(9, 0), 10).is_err());
    }

    fn first_op_digest(w: Workload, seed: u64) -> u64 {
        let mut d = Digest::default();
        run_op(&gen_input(w, seed, 0, 0), &Fixtures::new(), &mut d).unwrap();
        d.value()
    }

    #[test]
    fn digest_repeats_for_a_seed_and_moves_with_it() {
        for w in WORKLOADS {
            let a = first_op_digest(w, 5);
            assert_eq!(a, first_op_digest(w, 5), "{}", w.name());
            assert_ne!(a, first_op_digest(w, 6), "{}", w.name());
        }
    }

    #[test]
    fn traced_ops_replay_the_untraced_calls() {
        let seed = 0x5EED;
        let outcome = soak(&soak_config(seed)).unwrap();
        let mut s = Samples::new();
        traced_chaos(seed, &mut Tracer::default(), &mut s).unwrap();
        assert_eq!(s["trainsim.retries"], outcome.retries as f64);
        assert_eq!(s["trainsim.failovers"], outcome.failovers as f64);

        let intervals = [1, 2, 3, 1, 2];
        let mut restores = 0;
        let mut lost = 0;
        for (p, &i) in PRESETS.iter().zip(&intervals) {
            let r = recovery_report(p.name, RECOVERY_ITERS, &recovery_policy(i)).unwrap();
            restores += r.faulty.restores;
            lost += r.faulty.lost_iterations;
        }
        let mut s = Samples::new();
        traced_recovery(&intervals, &mut Tracer::default(), &mut s).unwrap();
        assert_eq!(s["trainsim.restores"], restores as f64);
        assert_eq!(s["trainsim.lost_iterations"], lost as f64);
    }

    #[test]
    fn presets_match_the_scenario_front_door() {
        for p in &PRESETS {
            let (machine, part, model) = preset_parts(p);
            let direct = simulate_coarse(&machine, &part, &model, p.batch, 2);
            let via = Scenario::preset(p.name).iterations(2).run().unwrap();
            assert_eq!(direct, via, "{}", p.name);
        }
        let names: Vec<&str> = PRESETS.iter().map(|p| p.name).collect();
        assert_eq!(names, Scenario::presets());
    }
}
