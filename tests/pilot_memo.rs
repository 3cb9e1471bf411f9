//! The per-process dual-sync pilot memo (DESIGN.md §18): a memoized pilot
//! grid must reproduce a cold one byte for byte, every keyed input must
//! miss when it changes, concurrent callers must agree, and the memo must
//! stay bounded.
//!
//! The memo and its counters are process-global, so everything runs inside
//! one `#[test]` (one test per binary): the sections run in sequence and
//! can assert exact hit and miss counts.

use coarse_repro::core::resilience::{RecoveryPolicy, ResiliencePolicy};
use coarse_repro::fabric::machines::{Machine, MachineBuilder, Partition, PartitionScheme};
use coarse_repro::models::profile::{ModelProfile, TensorSpec};
use coarse_repro::simcore::faults::FaultPlan;
use coarse_repro::simcore::oracle::OracleHub;
use coarse_repro::simcore::time::{SimDuration, SimTime};
use coarse_repro::trainsim::coarse::{clear_pilot_memo, pilot_memo_stats as stats, PilotMemoStats};
use coarse_repro::trainsim::{
    chrome_trace_json, record_coarse_metrics, record_coarse_trace, simulate_coarse,
    simulate_coarse_faulty_observed, simulate_coarse_recovering_observed, Sabotage,
};

/// A small model: twelve 16 MiB tensors over six layers.
fn toy_model(name: &str, first_elems: u64) -> ModelProfile {
    let tensors = (0..12u32)
        .map(|i| TensorSpec {
            name: format!("t{i}"),
            elems: if i == 0 { first_elems } else { 4 << 20 },
            layer: i / 2,
        })
        .collect();
    ModelProfile::new(name, tensors, 2.0e9)
}

/// A proxy dropout 1 ms in, on the second memory device.
fn dropout(p: &Partition) -> FaultPlan {
    let victim = p.mem_devices[1].index() as u32;
    FaultPlan::new(11).drop_device(victim, SimTime::ZERO + SimDuration::from_millis(1))
}

fn cold_and_warm_runs_are_identical(m: &Machine, p: &Partition, model: &ModelProfile) {
    let cold_then_warm = |run: &dyn Fn() -> String| {
        clear_pilot_memo();
        let cold = run();
        assert_eq!(
            stats(),
            PilotMemoStats {
                hits: 0,
                misses: 1,
                entries: 1
            }
        );
        let warm = run();
        assert_eq!(
            stats(),
            PilotMemoStats {
                hits: 1,
                misses: 1,
                entries: 1
            }
        );
        assert_eq!(cold, warm);
    };

    cold_then_warm(&|| format!("{:?}", simulate_coarse(m, p, model, 2, 3)));

    cold_then_warm(&|| {
        let hub = OracleHub::with_builtins(SimDuration::from_secs(60));
        let r = simulate_coarse_faulty_observed(
            m,
            p,
            model,
            2,
            3,
            &dropout(p),
            &ResiliencePolicy::default(),
            &hub,
            Sabotage::None,
            None,
        );
        assert!(r.failovers > 0, "the dropout must exercise failover");
        format!("{r:?} {:?}", hub.violations())
    });

    cold_then_warm(&|| {
        let hub = OracleHub::with_builtins(SimDuration::from_secs(60));
        let policy = RecoveryPolicy {
            checkpoint_interval: 1,
            ..RecoveryPolicy::default()
        };
        let r = simulate_coarse_recovering_observed(
            m,
            p,
            model,
            2,
            3,
            &dropout(p),
            &policy,
            &hub,
            None,
        );
        assert_eq!(r.restores, 1, "the dropout must exercise a restore");
        format!("{r:?} {:?}", hub.violations())
    });

    cold_then_warm(&|| {
        let (r, trace) = record_coarse_trace(m, p, model, 2, 3);
        let json = chrome_trace_json(&trace);
        assert!(
            json.contains("pilot period(m="),
            "pilot counters re-emitted"
        );
        assert!(
            json.contains("pilot chose m* = "),
            "pilot decision re-emitted"
        );
        format!("{r:?}\n{json}")
    });

    cold_then_warm(&|| {
        let (r, snapshot) = record_coarse_metrics(m, p, model, 2, 3);
        format!("{r:?}\n{}", snapshot.to_json().render())
    });
}

fn every_keyed_input_misses(base_machine: &Machine, model: &ModelProfile) {
    let part = |m: &Machine| m.partition(PartitionScheme::OneToOne);
    let run = |m: &Machine, p: &Partition, model: &ModelProfile, batch: u32| {
        simulate_coarse(m, p, model, batch, 2)
    };
    clear_pilot_memo();
    let base = run(base_machine, &part(base_machine), model, 2);
    assert_eq!(base, run(base_machine, &part(base_machine), model, 2));
    assert_eq!(
        stats(),
        PilotMemoStats {
            hits: 1,
            misses: 1,
            entries: 1
        }
    );

    let misses_once = |label: &str, go: &dyn Fn()| {
        let before = stats();
        go();
        let after = stats();
        assert_eq!(after.misses, before.misses + 1, "{label} must miss");
        assert_eq!(after.hits, before.hits, "{label} must not hit");
    };
    let slower_uplink = MachineBuilder::preset("aws_v100").uplink_gib(7.5).build();
    misses_once("one link bandwidth", &|| {
        run(&slower_uplink, &part(&slower_uplink), model, 2);
    });
    misses_once("the batch", &|| {
        run(base_machine, &part(base_machine), model, 3);
    });
    misses_once("the partition scheme", &|| {
        let p = base_machine.partition(PartitionScheme::TwoToOne);
        run(base_machine, &p, model, 2);
    });
    misses_once("the model", &|| {
        run(
            base_machine,
            &part(base_machine),
            &toy_model("toy", 5 << 20),
            2,
        );
    });

    // Names are not keyed: no pilot run reads them.
    let before = stats();
    let renamed = toy_model("renamed toy", 4 << 20);
    assert_eq!(base, run(base_machine, &part(base_machine), &renamed, 2));
    assert_eq!(stats().hits, before.hits + 1, "a renamed model must hit");
}

fn concurrent_callers_agree(m: &Machine, model: &ModelProfile) {
    let p = m.partition(PartitionScheme::OneToOne);
    clear_pilot_memo();
    // Both threads start their cold lookup together, so they may both miss
    // and race to insert the same key.
    let start = std::sync::Barrier::new(2);
    let run = || {
        start.wait();
        simulate_coarse(m, &p, model, 4, 2)
    };
    let (a, b) = std::thread::scope(|s| {
        let (a, b) = (s.spawn(run), s.spawn(run));
        (a.join(), b.join())
    });
    let (a, b) = (a.expect("thread a"), b.expect("thread b"));
    assert_eq!(a, b);
    assert_eq!(a, simulate_coarse(m, &p, model, 4, 2));
    let s = stats();
    assert_eq!(s.hits + s.misses, 3);
    assert_eq!(s.entries, 1, "racing misses on one key keep one entry");
}

fn memo_is_bounded(m: &Machine, model: &ModelProfile) {
    let p = m.partition(PartitionScheme::OneToOne);
    clear_pilot_memo();
    for batch in 1..=10 {
        simulate_coarse(m, &p, model, batch, 2);
    }
    assert_eq!(
        stats(),
        PilotMemoStats {
            hits: 0,
            misses: 10,
            entries: 8
        }
    );
    // First in, first out: batch 1 and 2 were evicted, batch 3 stays.
    simulate_coarse(m, &p, model, 3, 2);
    assert_eq!(stats().hits, 1);
    simulate_coarse(m, &p, model, 1, 2);
    assert_eq!(
        stats(),
        PilotMemoStats {
            hits: 1,
            misses: 11,
            entries: 8
        }
    );
}

#[test]
fn pilot_memo_is_exact_keyed_thread_safe_and_bounded() {
    let m = MachineBuilder::preset("aws_v100").build();
    let model = toy_model("toy", 4 << 20);
    cold_and_warm_runs_are_identical(&m, &m.partition(PartitionScheme::OneToOne), &model);
    every_keyed_input_misses(&m, &model);
    concurrent_callers_agree(&m, &model);
    memo_is_bounded(&m, &model);
}
