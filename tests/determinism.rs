//! Golden fixed-seed determinism tests.
//!
//! The allocation-lean core refactor (slab/generation event queue, dirty-
//! tracked scheduler views, per-node command index, incremental completion
//! counting) and the rack-sharded engine (per-rack dirty lists and free-slot
//! counters, rack-aware assignment, interval-spread heartbeat staggering)
//! must not change *what* the simulator computes, only how fast. These tests
//! pin concrete fixed-seed outcomes so any future change to the hot path
//! that perturbs scheduling order or timing is caught immediately — the same
//! role a golden `ClusterReport` diff would play.

use hadoop_os_preempt::prelude::*;
use mrp_engine::{
    Cluster, DetectorConfig, FaultEvent, FaultKind, NodeId, RackId, RandomFaults, RefreshMode,
    ReliabilityConfig, ShuffleConfig, SpeculationConfig, SwapConfig,
};
use mrp_experiments::{run_memory_pressure, run_once, MemoryPressureConfig};
use mrp_sim::{SimRng, SimTime};

#[test]
fn fixed_seed_paper_scenario_is_pinned() {
    let run = run_once(
        &ScenarioConfig::lightweight(PreemptionPrimitive::SuspendResume, 0.5),
        1,
    );
    // Exact values recorded from the rack-sharded core (identical in debug
    // and release builds; the clock is integer microseconds throughout).
    // The first heartbeat of a single-node cluster now lands at 1.5s (evenly
    // spread over one interval) instead of the old fixed 200ms, which shifts
    // the schedule by 1.3s against the PR-1 pins.
    assert_eq!(run.report.finished_at.as_micros(), 163_162_486);
    assert_eq!(run.sojourn_th_secs, 81.622_288);
    assert_eq!(run.makespan_secs, 163.162_486);
    assert_eq!(run.tl_suspend_cycles, 1);
    assert_eq!(run.tl_attempts, 1);
    assert_eq!(run.swap_out_bytes, 0);
}

fn churn_cluster() -> Cluster {
    churn_cluster_cfg(ClusterConfig::small_cluster(8, 2, 1))
}

fn churn_cluster_cfg(cfg: ClusterConfig) -> Cluster {
    let mut cluster = Cluster::new(
        cfg,
        Box::new(HfspScheduler::new(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::ClosestToCompletion,
        )),
    );
    for i in 0..4u32 {
        cluster.submit_job_at(
            JobSpec::synthetic(format!("batch-{i}"), 20, 64 * MIB),
            SimTime::from_secs(u64::from(i)),
        );
    }
    for i in 0..6u32 {
        cluster.submit_job_at(
            JobSpec::synthetic(format!("small-{i}"), 2, 16 * MIB),
            SimTime::from_secs(10 + 5 * u64::from(i)),
        );
    }
    cluster
}

#[test]
fn fixed_seed_preemption_churn_run_is_pinned() {
    let mut cluster = churn_cluster();
    cluster.run(SimTime::from_secs(24 * 3_600));
    let report = cluster.report();
    assert!(report.all_jobs_complete());
    let suspends: u32 = report
        .jobs
        .iter()
        .flat_map(|j| j.tasks.iter())
        .map(|t| t.suspend_cycles)
        .sum();
    // Pinned fixed-seed outcome of the HFSP suspend/resume churn scenario
    // (re-recorded for the rack-sharded engine's heartbeat staggering).
    assert_eq!(cluster.events_processed(), 605);
    assert_eq!(report.finished_at.as_micros(), 83_340_102);
    assert_eq!(suspends, 6);
    // Synthetic tasks have no placement preference: every launch counts as
    // node-local by definition.
    assert_eq!(report.locality.total(), 92);
    assert_eq!(report.locality.node_local, 92);

    // And the run is bit-for-bit repeatable within the same binary.
    let mut again = churn_cluster();
    again.run(SimTime::from_secs(24 * 3_600));
    assert_eq!(again.report(), report);
    assert_eq!(again.events_processed(), cluster.events_processed());
}

/// A 4-rack / 16-node HFSP cluster with DFS-backed jobs whose first replicas
/// are spread over the racks, so launches land in all three locality buckets.
fn racked_cluster() -> Cluster {
    let mut cfg = ClusterConfig::racked_cluster(4, 4, 2, 1);
    cfg.dfs_replication = 2;
    let mut cluster = Cluster::new(
        cfg,
        Box::new(HfspScheduler::new(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::ClosestToCompletion,
        )),
    );
    for i in 0..6u32 {
        let path = format!("/racked/in-{i}");
        cluster
            .create_input_file_from(&path, 384 * MIB, Some(NodeId((i * 5) % 16)))
            .unwrap();
        cluster.submit_job_at(
            JobSpec::map_only(format!("job-{i}"), path),
            SimTime::from_secs(u64::from(4 * i)),
        );
    }
    cluster
}

const PINNED_RACKED_EVENTS: u64 = 310;
const PINNED_RACKED_FINISH: u64 = 43_828_399;
const PINNED_RACKED_LOCALITY: (u64, u64, u64) = (7, 10, 1);

#[test]
fn fixed_seed_multi_rack_run_is_pinned() {
    let mut cluster = racked_cluster();
    cluster.run(SimTime::from_secs(24 * 3_600));
    let report = cluster.report();
    assert!(report.all_jobs_complete());
    // Pinned fixed-seed outcome of the multi-rack scenario, including the
    // exact locality split (6 jobs x 3 blocks = 18 map launches).
    assert_eq!(report.locality.total(), 18);
    assert_eq!(cluster.events_processed(), PINNED_RACKED_EVENTS);
    assert_eq!(report.finished_at.as_micros(), PINNED_RACKED_FINISH);
    assert_eq!(
        (
            report.locality.node_local,
            report.locality.rack_local,
            report.locality.off_rack
        ),
        PINNED_RACKED_LOCALITY
    );
    assert!(
        report.locality.rack_local + report.locality.off_rack > 0,
        "a multi-rack run must exercise remote launches"
    );

    let mut again = racked_cluster();
    again.run(SimTime::from_secs(24 * 3_600));
    assert_eq!(again.report(), report);
}

/// Fixed-seed pinned outcome of a fault-injection churn scenario: HFSP
/// suspend/resume with speculation enabled, scripted node kill/rejoin and a
/// rack outage, plus seeded random MTBF churn. Pins the exact event count,
/// finish time and fault counters so any change to the fault paths (teardown
/// order, re-replication draws, speculation triggering) is caught
/// immediately.
fn fault_churn_cluster() -> Cluster {
    fault_churn_cluster_cfg(fault_churn_config())
}

fn fault_churn_config() -> ClusterConfig {
    let mut cfg = ClusterConfig::racked_cluster(3, 4, 1, 1);
    cfg.trace_level = mrp_engine::TraceLevel::Off;
    cfg.speculation = SpeculationConfig::enabled();
    cfg.faults.events.push(FaultEvent {
        at: SimTime::from_secs(30),
        kind: FaultKind::Kill { node: NodeId(5) },
    });
    cfg.faults.events.push(FaultEvent {
        at: SimTime::from_secs(70),
        kind: FaultKind::Rejoin { node: NodeId(5) },
    });
    cfg.faults.events.push(FaultEvent {
        at: SimTime::from_secs(45),
        kind: FaultKind::RackOutage { rack: RackId(2) },
    });
    cfg.faults.events.push(FaultEvent {
        at: SimTime::from_secs(95),
        kind: FaultKind::RackRejoin { rack: RackId(2) },
    });
    cfg.faults.random = Some(RandomFaults {
        rack_mtbf_secs: 80.0,
        mean_recovery_secs: Some(40.0),
        horizon: SimTime::from_secs(400),
        seed: 0xC0FFEE,
    });
    cfg
}

fn fault_churn_cluster_cfg(cfg: ClusterConfig) -> Cluster {
    let mut cluster = Cluster::new(
        cfg,
        Box::new(HfspScheduler::new(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::ClosestToCompletion,
        )),
    );
    for i in 0..4u32 {
        cluster.submit_job_at(
            JobSpec::synthetic(format!("batch-{i}"), 18, 96 * MIB),
            SimTime::from_secs(u64::from(i)),
        );
    }
    for i in 0..6u32 {
        cluster.submit_job_at(
            JobSpec::synthetic(format!("small-{i}"), 2, 16 * MIB),
            SimTime::from_secs(12 + 9 * u64::from(i)),
        );
    }
    cluster
}

#[test]
fn fixed_seed_fault_churn_run_is_pinned() {
    let mut cluster = fault_churn_cluster();
    cluster.run(SimTime::from_secs(24 * 3_600));
    let report = cluster.report();
    assert!(report.all_jobs_complete());
    let faults = report.faults;
    // Scripted events all fired (1 kill + 4-node rack outage, matching
    // rejoins) on top of the random churn.
    assert!(faults.node_failures >= 5, "{faults:?}");
    assert!(faults.node_rejoins >= 5, "{faults:?}");
    assert!(faults.re_executed_tasks >= 1, "{faults:?}");
    // Pinned fixed-seed outcome (see PINNED_FAULT_* below).
    assert_eq!(cluster.events_processed(), PINNED_FAULT_EVENTS);
    assert_eq!(report.finished_at.as_micros(), PINNED_FAULT_FINISH);
    assert_eq!(
        (faults.node_failures, faults.re_executed_tasks),
        PINNED_FAULT_COUNTS
    );

    let mut again = fault_churn_cluster();
    again.run(SimTime::from_secs(24 * 3_600));
    assert_eq!(again.report(), report);
    assert_eq!(again.events_processed(), cluster.events_processed());
}

const PINNED_FAULT_EVENTS: u64 = 1_059;
const PINNED_FAULT_FINISH: u64 = 169_811_893;
const PINNED_FAULT_COUNTS: (u64, u64) = (12, 12);

/// Fixed-seed pinned outcome of the combined robustness surface: map/reduce
/// jobs with fault-tolerant shuffle (map-output registry, re-fetch backoff),
/// the ATLAS-style reliability predictor, delay scheduling *and* speculation,
/// under a scripted rack outage plus random churn. Pins the exact event
/// count, finish time and the new shuffle fault counters so any change to
/// the shuffle fault path (registry teardown order, backoff draws,
/// placement bias) is caught immediately.
fn shuffle_outage_cluster() -> Cluster {
    let mut cfg = ClusterConfig::racked_cluster(3, 4, 2, 1).with_delay_intervals(1.0, 1.0);
    cfg.trace_level = mrp_engine::TraceLevel::Off;
    cfg.speculation = SpeculationConfig::enabled();
    cfg.shuffle = ShuffleConfig::fault_tolerant();
    cfg.reliability = ReliabilityConfig::predictive();
    cfg.faults.events.push(FaultEvent {
        at: SimTime::from_secs(40),
        kind: FaultKind::RackOutage { rack: RackId(1) },
    });
    cfg.faults.events.push(FaultEvent {
        at: SimTime::from_secs(100),
        kind: FaultKind::RackRejoin { rack: RackId(1) },
    });
    cfg.faults.random = Some(RandomFaults {
        rack_mtbf_secs: 90.0,
        mean_recovery_secs: Some(40.0),
        horizon: SimTime::from_secs(400),
        seed: 0xB0B0,
    });
    let mut cluster = Cluster::new(
        cfg,
        Box::new(HfspScheduler::new(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::ClosestToCompletion,
        )),
    );
    for i in 0..4u32 {
        cluster.submit_job_at(
            JobSpec::synthetic(format!("mr-{i}"), 12, 96 * MIB).with_reduces(3),
            SimTime::from_secs(u64::from(2 * i)),
        );
    }
    for i in 0..4u32 {
        cluster.submit_job_at(
            JobSpec::synthetic(format!("small-{i}"), 3, 16 * MIB).with_reduces(1),
            SimTime::from_secs(15 + 11 * u64::from(i)),
        );
    }
    cluster
}

#[test]
fn fixed_seed_shuffle_outage_run_is_pinned() {
    let mut cluster = shuffle_outage_cluster();
    cluster.run(SimTime::from_secs(24 * 3_600));
    let report = cluster.report();
    assert!(report.all_jobs_complete());
    let faults = report.faults;
    // The outage must exercise the whole shuffle fault path: committed map
    // outputs die with the rack, stalled reduces re-fetch with backoff, and
    // the affected maps re-execute.
    assert!(faults.lost_map_outputs >= 1, "{faults:?}");
    assert!(faults.shuffle_refetches >= 1, "{faults:?}");
    assert!(
        faults.re_executed_tasks >= faults.lost_map_outputs,
        "{faults:?}"
    );
    // Pinned fixed-seed outcome (see PINNED_SHUFFLE_* below).
    assert_eq!(cluster.events_processed(), PINNED_SHUFFLE_EVENTS);
    assert_eq!(report.finished_at.as_micros(), PINNED_SHUFFLE_FINISH);
    assert_eq!(
        (faults.lost_map_outputs, faults.shuffle_refetches),
        PINNED_SHUFFLE_COUNTS
    );

    let mut again = shuffle_outage_cluster();
    again.run(SimTime::from_secs(24 * 3_600));
    assert_eq!(again.report(), report);
    assert_eq!(again.events_processed(), cluster.events_processed());
}

const PINNED_SHUFFLE_EVENTS: u64 = 751;
const PINNED_SHUFFLE_FINISH: u64 = 79_687_322;
const PINNED_SHUFFLE_COUNTS: (u64, u64) = (4, 74);

/// The rack-sharded refresh path must also be observationally identical to
/// the naive reference *under fault injection*: node teardown, rejoin,
/// re-replication and speculative re-execution all mutate the incremental
/// indexes (RackView counters, PendingTotals, per-job counters, dirty
/// lists), and none of it may depend on the refresh strategy.
#[test]
fn sharded_and_full_refresh_match_under_fault_injection() {
    for case in 0..6u64 {
        let mut rng = SimRng::new(0xFA57 + case);
        let racks = 2 + rng.index(3) as u32; // 2..=4
        let per_rack = 2 + rng.index(3) as u32; // 2..=4
        let job_count = 3 + rng.index(4); // 3..=6
        let mut jobs = Vec::new();
        for i in 0..job_count {
            let tasks = 2 + rng.index(12) as u32;
            let arrival = rng.index(40) as u64;
            jobs.push((i, tasks, arrival));
        }
        let mtbf = 30.0 + rng.index(60) as f64;
        let use_speculation = rng.chance(0.5);
        let run = |mode: RefreshMode| {
            let mut cfg = ClusterConfig::racked_cluster(racks, per_rack, 2, 1);
            cfg.refresh_mode = mode;
            cfg.trace_level = mrp_engine::TraceLevel::Off;
            if use_speculation {
                cfg.speculation = SpeculationConfig::enabled();
            }
            cfg.faults.random = Some(RandomFaults {
                rack_mtbf_secs: mtbf,
                mean_recovery_secs: Some(25.0),
                horizon: SimTime::from_secs(500),
                seed: 0xFEE7 + case,
            });
            let mut cluster = Cluster::new(
                cfg,
                Box::new(HfspScheduler::new(
                    PreemptionPrimitive::SuspendResume,
                    EvictionPolicy::ClosestToCompletion,
                )),
            );
            for &(i, tasks, arrival) in &jobs {
                cluster.submit_job_at(
                    JobSpec::synthetic(format!("job-{i}"), tasks, 64 * MIB),
                    SimTime::from_secs(arrival),
                );
            }
            cluster.run(SimTime::from_secs(24 * 3_600));
            (cluster.events_processed(), cluster.report())
        };
        let sharded = run(RefreshMode::Sharded);
        let full = run(RefreshMode::Full);
        assert!(sharded.1.all_jobs_complete(), "case {case} must complete");
        assert_eq!(
            sharded, full,
            "sharded vs full refresh diverged under faults in case {case}"
        );
    }
}

/// ...and identical once more with this PR's shuffle fault domain switched
/// on: map-output registry teardown, shuffle re-fetch backoff scheduling,
/// reliability-biased placement, rack-aware reduce placement and delay
/// scheduling all interact with the incremental indexes, and none of it may
/// depend on the refresh strategy.
#[test]
fn sharded_and_full_refresh_match_under_shuffle_fault_paths() {
    for case in 0..6u64 {
        let mut rng = SimRng::new(0x5F1E + case);
        let racks = 2 + rng.index(3) as u32; // 2..=4
        let per_rack = 2 + rng.index(3) as u32; // 2..=4
        let job_count = 3 + rng.index(4); // 3..=6
        let mut jobs = Vec::new();
        for i in 0..job_count {
            let tasks = 2 + rng.index(10) as u32;
            let reduces = rng.index(4) as u32; // 0..=3
            let arrival = rng.index(40) as u64;
            jobs.push((i, tasks, reduces, arrival));
        }
        let outage_rack = rng.index(racks as usize) as u32;
        let mtbf = 40.0 + rng.index(60) as f64;
        let use_delay = rng.chance(0.5);
        let use_predictor = rng.chance(0.67);
        let run = |mode: RefreshMode| {
            let mut cfg = ClusterConfig::racked_cluster(racks, per_rack, 2, 1);
            if use_delay {
                cfg = cfg.with_delay_intervals(1.0, 1.0);
            }
            cfg.refresh_mode = mode;
            cfg.trace_level = mrp_engine::TraceLevel::Off;
            cfg.speculation = SpeculationConfig::enabled();
            cfg.shuffle = ShuffleConfig::fault_tolerant();
            if use_predictor {
                cfg.reliability = ReliabilityConfig::predictive();
            }
            cfg.faults.events.push(FaultEvent {
                at: SimTime::from_secs(35),
                kind: FaultKind::RackOutage {
                    rack: RackId(outage_rack),
                },
            });
            cfg.faults.events.push(FaultEvent {
                at: SimTime::from_secs(90),
                kind: FaultKind::RackRejoin {
                    rack: RackId(outage_rack),
                },
            });
            cfg.faults.random = Some(RandomFaults {
                rack_mtbf_secs: mtbf,
                mean_recovery_secs: Some(30.0),
                horizon: SimTime::from_secs(400),
                seed: 0xD1CE + case,
            });
            let mut cluster = Cluster::new(
                cfg,
                Box::new(HfspScheduler::new(
                    PreemptionPrimitive::SuspendResume,
                    EvictionPolicy::ClosestToCompletion,
                )),
            );
            for &(i, tasks, reduces, arrival) in &jobs {
                cluster.submit_job_at(
                    JobSpec::synthetic(format!("job-{i}"), tasks, 64 * MIB).with_reduces(reduces),
                    SimTime::from_secs(arrival),
                );
            }
            cluster.run(SimTime::from_secs(24 * 3_600));
            (cluster.events_processed(), cluster.report())
        };
        let sharded = run(RefreshMode::Sharded);
        let full = run(RefreshMode::Full);
        assert!(sharded.1.all_jobs_complete(), "case {case} must complete");
        assert_eq!(
            sharded, full,
            "sharded vs full refresh diverged under shuffle faults in case {case}"
        );
    }
}

/// Fixed-seed pinned outcome of the full robustness surface this PR adds:
/// suspicion-based failure detection (3 missed heartbeats), a healable node
/// partition, a healable rack partition, a gray-failed node (slow disk and
/// NIC), a detector-deferred kill — on top of delay scheduling, speculation,
/// fault-tolerant shuffle and the reliability predictor. Pins the exact
/// event count, finish time and the new detector/partition counters so any
/// change to suspicion timing, teardown order or heal reconciliation is
/// caught immediately.
fn detector_partition_cluster() -> Cluster {
    let mut cfg = ClusterConfig::racked_cluster(3, 4, 1, 1).with_delay_intervals(1.0, 1.0);
    cfg.trace_level = mrp_engine::TraceLevel::Off;
    cfg.speculation = SpeculationConfig::enabled();
    cfg.shuffle = ShuffleConfig::fault_tolerant();
    cfg.reliability = ReliabilityConfig::predictive();
    cfg.detector = DetectorConfig::enabled();
    cfg.faults.events.push(FaultEvent {
        at: SimTime::from_secs(10),
        kind: FaultKind::Gray {
            node: NodeId(2),
            slow_disk: 3.0,
            slow_net: 2.0,
        },
    });
    cfg.faults.events.push(FaultEvent {
        at: SimTime::from_secs(30),
        kind: FaultKind::Partition { node: NodeId(5) },
    });
    cfg.faults.events.push(FaultEvent {
        at: SimTime::from_secs(90),
        kind: FaultKind::PartitionHeal { node: NodeId(5) },
    });
    cfg.faults.events.push(FaultEvent {
        at: SimTime::from_secs(50),
        kind: FaultKind::RackPartition { rack: RackId(2) },
    });
    cfg.faults.events.push(FaultEvent {
        at: SimTime::from_secs(120),
        kind: FaultKind::RackPartitionHeal { rack: RackId(2) },
    });
    cfg.faults.events.push(FaultEvent {
        at: SimTime::from_secs(60),
        kind: FaultKind::Kill { node: NodeId(7) },
    });
    cfg.faults.events.push(FaultEvent {
        at: SimTime::from_secs(140),
        kind: FaultKind::Rejoin { node: NodeId(7) },
    });
    cfg.faults.events.push(FaultEvent {
        at: SimTime::from_secs(200),
        kind: FaultKind::GrayHeal { node: NodeId(2) },
    });
    let mut cluster = Cluster::new(
        cfg,
        Box::new(HfspScheduler::new(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::ClosestToCompletion,
        )),
    );
    for i in 0..4u32 {
        cluster.submit_job_at(
            JobSpec::synthetic(format!("mr-{i}"), 14, 96 * MIB).with_reduces(2),
            SimTime::from_secs(u64::from(2 * i)),
        );
    }
    for i in 0..5u32 {
        cluster.submit_job_at(
            JobSpec::synthetic(format!("small-{i}"), 2, 16 * MIB),
            SimTime::from_secs(15 + 9 * u64::from(i)),
        );
    }
    cluster
}

#[test]
fn fixed_seed_detector_partition_run_is_pinned() {
    let mut cluster = detector_partition_cluster();
    cluster.run(SimTime::from_secs(24 * 3_600));
    let report = cluster.report();
    assert!(report.all_jobs_complete());
    let faults = report.faults;
    // Every family fired: 5 partitions (1 node + 4 rack members) all healed,
    // the kill was suspected and confirmed only after the heartbeat timeout,
    // and the gray node degraded and healed.
    assert_eq!(faults.partitions, 5, "{faults:?}");
    assert_eq!(faults.partition_heals, 5, "{faults:?}");
    assert_eq!(faults.gray_failures, 1, "{faults:?}");
    assert_eq!(faults.gray_heals, 1, "{faults:?}");
    assert!(faults.nodes_suspected >= 1, "{faults:?}");
    assert!(faults.failures_detected >= 1, "{faults:?}");
    assert!(faults.detection_lag_secs_max > 0.0, "{faults:?}");
    // Detection lag is bounded by the suspicion timeout plus one heartbeat
    // interval (the anchor is the last delivered heartbeat).
    assert!(
        faults.detection_lag_secs_max <= 3.0 * 3.0 + 3.0,
        "{faults:?}"
    );
    // First-commit-wins: reconciliation ran, duplicates never happen.
    assert_eq!(faults.duplicate_commits, 0);
    // Pinned fixed-seed outcome (see PINNED_DETECTOR_* below).
    assert_eq!(cluster.events_processed(), PINNED_DETECTOR_EVENTS);
    assert_eq!(report.finished_at.as_micros(), PINNED_DETECTOR_FINISH);
    assert_eq!(
        (faults.nodes_suspected, faults.failures_detected),
        PINNED_DETECTOR_COUNTS
    );
    assert_eq!(
        faults.reconciled_commits + faults.reconciled_discards,
        PINNED_DETECTOR_RECONCILED
    );

    let mut again = detector_partition_cluster();
    again.run(SimTime::from_secs(24 * 3_600));
    assert_eq!(again.report(), report);
    assert_eq!(again.events_processed(), cluster.events_processed());
}

const PINNED_DETECTOR_EVENTS: u64 = 1_534;
const PINNED_DETECTOR_FINISH: u64 = 262_341_232;
const PINNED_DETECTOR_COUNTS: (u64, u64) = (6, 6);
const PINNED_DETECTOR_RECONCILED: u64 = 8;

/// ...and the sharded refresh must stay observationally identical to the
/// naive reference with the detector, partitions and gray failures switched
/// on: deferred teardown, partition buffering, heal reconciliation and
/// unreachable-node view filtering all mutate the incremental indexes.
#[test]
fn sharded_and_full_refresh_match_under_detector_and_partitions() {
    for case in 0..6u64 {
        let mut rng = SimRng::new(0xDE7EC7 + case);
        let racks = 2 + rng.index(3) as u32; // 2..=4
        let per_rack = 2 + rng.index(3) as u32; // 2..=4
        let nodes = racks * per_rack;
        let job_count = 3 + rng.index(4); // 3..=6
        let mut jobs = Vec::new();
        for i in 0..job_count {
            let tasks = 2 + rng.index(10) as u32;
            let reduces = rng.index(3) as u32; // 0..=2
            let arrival = rng.index(40) as u64;
            jobs.push((i, tasks, reduces, arrival));
        }
        let victim = rng.index(nodes as usize) as u32;
        let partition_at = 20 + rng.index(30) as u64;
        let heal_at = partition_at + 5 + rng.index(90) as u64;
        let gray_node = rng.index(nodes as usize) as u32;
        let slow_disk = 1.5 + rng.index(3) as f64;
        let use_grace = rng.chance(0.5);
        let mtbf = 50.0 + rng.index(60) as f64;
        let run = |mode: RefreshMode| {
            let mut cfg =
                ClusterConfig::racked_cluster(racks, per_rack, 2, 1).with_delay_intervals(1.0, 1.0);
            cfg.refresh_mode = mode;
            cfg.trace_level = mrp_engine::TraceLevel::Off;
            cfg.speculation = SpeculationConfig::enabled();
            cfg.shuffle = ShuffleConfig::fault_tolerant();
            cfg.reliability = ReliabilityConfig::predictive();
            cfg.detector = DetectorConfig::enabled();
            if use_grace {
                cfg.detector.confirmation_grace = mrp_sim::SimDuration::from_secs(2);
            }
            cfg.faults.events.push(FaultEvent {
                at: SimTime::from_secs(partition_at),
                kind: FaultKind::Partition {
                    node: NodeId(victim),
                },
            });
            cfg.faults.events.push(FaultEvent {
                at: SimTime::from_secs(heal_at),
                kind: FaultKind::PartitionHeal {
                    node: NodeId(victim),
                },
            });
            cfg.faults.events.push(FaultEvent {
                at: SimTime::from_secs(10),
                kind: FaultKind::Gray {
                    node: NodeId(gray_node),
                    slow_disk,
                    slow_net: 1.5,
                },
            });
            cfg.faults.random = Some(RandomFaults {
                rack_mtbf_secs: mtbf,
                mean_recovery_secs: Some(30.0),
                horizon: SimTime::from_secs(300),
                seed: 0xFEED + case,
            });
            let mut cluster = Cluster::new(
                cfg,
                Box::new(HfspScheduler::new(
                    PreemptionPrimitive::SuspendResume,
                    EvictionPolicy::ClosestToCompletion,
                )),
            );
            for &(i, tasks, reduces, arrival) in &jobs {
                cluster.submit_job_at(
                    JobSpec::synthetic(format!("job-{i}"), tasks, 64 * MIB).with_reduces(reduces),
                    SimTime::from_secs(arrival),
                );
            }
            cluster.run(SimTime::from_secs(24 * 3_600));
            (cluster.events_processed(), cluster.report())
        };
        let sharded = run(RefreshMode::Sharded);
        let full = run(RefreshMode::Full);
        assert!(sharded.1.all_jobs_complete(), "case {case} must complete");
        assert_eq!(
            sharded, full,
            "sharded vs full refresh diverged under the detector in case {case}"
        );
    }
}

/// First-commit-wins property, randomized: across partition/heal timings no
/// task ever commits twice, every job drains, and the heal never drives any
/// counter inconsistent (the engine's debug assertions would catch a
/// negative pending count; here the externally visible invariants are
/// checked on the report).
#[test]
fn partition_heals_never_double_commit() {
    for case in 0..10u64 {
        let mut rng = SimRng::new(0xFC0 + case);
        let racks = 2 + rng.index(2) as u32; // 2..=3
        let per_rack = 2 + rng.index(2) as u32; // 2..=3
        let nodes = racks * per_rack;
        let victim = rng.index(nodes as usize) as u32;
        let partition_at = 10 + rng.index(40) as u64;
        // Heal anywhere from well before the suspicion timeout to long
        // after the teardown and re-execution — both reconciliation
        // outcomes (commit and discard) get exercised across cases.
        let heal_at = partition_at + 2 + rng.index(120) as u64;
        let tasks = 12 + rng.index(12) as u32;
        let reduces = rng.index(3) as u32;
        let mut cfg = ClusterConfig::racked_cluster(racks, per_rack, 1, 1);
        cfg.trace_level = mrp_engine::TraceLevel::Off;
        cfg.speculation = SpeculationConfig::enabled();
        cfg.shuffle = ShuffleConfig::fault_tolerant();
        cfg.detector = DetectorConfig::enabled();
        cfg.faults.events.push(FaultEvent {
            at: SimTime::from_secs(partition_at),
            kind: FaultKind::Partition {
                node: NodeId(victim),
            },
        });
        cfg.faults.events.push(FaultEvent {
            at: SimTime::from_secs(heal_at),
            kind: FaultKind::PartitionHeal {
                node: NodeId(victim),
            },
        });
        let mut cluster = Cluster::new(
            cfg,
            Box::new(HfspScheduler::new(
                PreemptionPrimitive::SuspendResume,
                EvictionPolicy::ClosestToCompletion,
            )),
        );
        cluster.submit_job_at(
            JobSpec::synthetic("property", tasks, 64 * MIB).with_reduces(reduces),
            SimTime::ZERO,
        );
        cluster.submit_job_at(
            JobSpec::synthetic("tail", 4, 64 * MIB),
            SimTime::from_secs(partition_at),
        );
        cluster.run(SimTime::from_secs(24 * 3_600));
        let report = cluster.report();
        assert!(report.all_jobs_complete(), "case {case} must drain");
        let faults = report.faults;
        assert_eq!(
            faults.duplicate_commits, 0,
            "case {case} double-committed: {faults:?}"
        );
        // The run loop stops once every job drains, so a partition (or its
        // heal) scripted past that point never fires — heals can only trail
        // partitions, never exceed them.
        assert!(faults.partitions <= 1, "case {case}: {faults:?}");
        assert!(
            faults.partition_heals <= faults.partitions,
            "case {case}: {faults:?}"
        );
        // Every task finished exactly once, whatever the heal timing did.
        for job in &report.jobs {
            for task in &job.tasks {
                assert!(
                    (task.progress - 1.0).abs() < 1e-9,
                    "case {case}: task left incomplete"
                );
            }
        }
        // The run is repeatable bit-for-bit.
        // (Covered structurally by the pinned test above; here the cheap
        // invariant is that reconciliation never outruns the work done.)
        assert!(
            faults.reconciled_commits + faults.reconciled_discards
                <= u64::from(tasks + reduces) * 3,
            "case {case}: runaway reconciliation: {faults:?}"
        );
    }
}

/// Fixed-seed pins of the FIFO, FAIR and HFSP plugin bundles
/// (`ActionPipeline::fifo/fair/hfsp`) across three suites: suspend/resume
/// preemption churn, delay-scheduled DFS placement on a racked cluster, and
/// detector-confirmed partitions with scripted faults. All three bundles
/// allocate through the engine's one `fill_node`, so these pins also cover
/// `FifoScheduler`, which runs the FIFO order over the same fill. Each entry
/// is (events processed, `finished_at` in microseconds); every run must
/// complete all its jobs.
#[test]
fn plugin_bundles_are_pinned_on_fixed_seeds() {
    type Factory<'a> = &'a dyn Fn(usize) -> Box<dyn SchedulerPolicy>;

    // Preemption churn: small cluster, batch + small jobs, lots of
    // suspend/resume traffic under FAIR/HFSP (16 map slots).
    fn churn_suite(make: Factory) -> (u64, ClusterReport) {
        let mut cluster = Cluster::new(ClusterConfig::small_cluster(8, 2, 1), make(16));
        for i in 0..4u32 {
            cluster.submit_job_at(
                JobSpec::synthetic(format!("batch-{i}"), 20, 64 * MIB),
                SimTime::from_secs(u64::from(i)),
            );
        }
        for i in 0..6u32 {
            cluster.submit_job_at(
                JobSpec::synthetic(format!("small-{i}"), 2, 16 * MIB),
                SimTime::from_secs(10 + 5 * u64::from(i)),
            );
        }
        cluster.run(SimTime::from_secs(24 * 3_600));
        (cluster.events_processed(), cluster.report())
    }

    // Delay scheduling: racked DFS inputs spread over 4 racks, locality
    // waits enabled, so the placement-verdict path is exercised (32 map
    // slots).
    fn delay_suite(make: Factory) -> (u64, ClusterReport) {
        let mut cfg = ClusterConfig::racked_cluster(4, 4, 2, 1).with_delay_intervals(1.0, 1.0);
        cfg.dfs_replication = 2;
        let mut cluster = Cluster::new(cfg, make(32));
        for i in 0..6u32 {
            let path = format!("/pipe/in-{i}");
            cluster
                .create_input_file_from(&path, 384 * MIB, Some(NodeId((i * 5) % 16)))
                .unwrap();
            cluster.submit_job_at(
                JobSpec::map_only(format!("job-{i}"), path),
                SimTime::from_secs(u64::from(4 * i)),
            );
        }
        cluster.run(SimTime::from_secs(24 * 3_600));
        (cluster.events_processed(), cluster.report())
    }

    // Partitions: suspicion-based detector, a healable node partition and a
    // detector-deferred kill on top of map/reduce work (12 map slots).
    fn partition_suite(make: Factory) -> (u64, ClusterReport) {
        let mut cfg = ClusterConfig::racked_cluster(3, 4, 1, 1);
        cfg.trace_level = mrp_engine::TraceLevel::Off;
        cfg.shuffle = ShuffleConfig::fault_tolerant();
        cfg.detector = DetectorConfig::enabled();
        cfg.faults.events.push(FaultEvent {
            at: SimTime::from_secs(25),
            kind: FaultKind::Partition { node: NodeId(4) },
        });
        cfg.faults.events.push(FaultEvent {
            at: SimTime::from_secs(80),
            kind: FaultKind::PartitionHeal { node: NodeId(4) },
        });
        cfg.faults.events.push(FaultEvent {
            at: SimTime::from_secs(40),
            kind: FaultKind::Kill { node: NodeId(9) },
        });
        cfg.faults.events.push(FaultEvent {
            at: SimTime::from_secs(110),
            kind: FaultKind::Rejoin { node: NodeId(9) },
        });
        let mut cluster = Cluster::new(cfg, make(12));
        for i in 0..3u32 {
            cluster.submit_job_at(
                JobSpec::synthetic(format!("mr-{i}"), 12, 96 * MIB).with_reduces(2),
                SimTime::from_secs(u64::from(3 * i)),
            );
        }
        for i in 0..4u32 {
            cluster.submit_job_at(
                JobSpec::synthetic(format!("small-{i}"), 2, 16 * MIB),
                SimTime::from_secs(12 + 8 * u64::from(i)),
            );
        }
        cluster.run(SimTime::from_secs(24 * 3_600));
        (cluster.events_processed(), cluster.report())
    }

    let fifo = |_: usize| -> Box<dyn SchedulerPolicy> { Box::new(ActionPipeline::fifo()) };
    let fair = |slots: usize| -> Box<dyn SchedulerPolicy> {
        Box::new(ActionPipeline::fair(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::ClosestToCompletion,
            slots,
            SimDuration::from_secs(10),
        ))
    };
    let hfsp = |_: usize| -> Box<dyn SchedulerPolicy> {
        Box::new(ActionPipeline::hfsp(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::ClosestToCompletion,
        ))
    };

    type Suite = for<'a> fn(Factory<'a>) -> (u64, ClusterReport);
    let suites: [(&str, Suite); 3] = [
        ("churn", churn_suite),
        ("delay", delay_suite),
        ("partition", partition_suite),
    ];
    // Pins per bundle, in suite order.
    type Pins = [(u64, u64); 3];
    let bundles: [(&str, Factory, Pins); 3] = [
        (
            "fifo",
            &fifo,
            [(583, 77_489_257), (323, 46_122_516), FIFO_PARTITION_PIN],
        ),
        (
            "fair",
            &fair,
            [(601, 83_417_317), (323, 46_122_516), (714, 106_255_122)],
        ),
        (
            "hfsp",
            &hfsp,
            [(605, 83_340_102), (323, 46_122_516), (737, 112_255_122)],
        ),
    ];
    for (policy, make, pins) in bundles {
        for ((suite, run), pin) in suites.into_iter().zip(pins) {
            let (events, report) = run(make);
            assert!(
                report.all_jobs_complete(),
                "{policy}/{suite}: every job must complete"
            );
            assert_eq!(
                (events, report.finished_at.as_micros()),
                pin,
                "{policy}/{suite}: (events, finished_at) moved"
            );
        }
    }
}

const FIFO_PARTITION_PIN: (u64, u64) = (704, 106_255_122);

/// The rack-sharded refresh path (per-rack dirty lists, delta-maintained
/// free-slot counters) must be observationally identical to the naive
/// rebuild-everything reference, across randomized topologies, schedulers
/// and workload mixes.
#[test]
fn sharded_and_full_refresh_produce_identical_reports() {
    for case in 0..8u64 {
        let mut rng = SimRng::new(0x5AAD + case);
        let racks = 2 + rng.index(3) as u32; // 2..=4
        let per_rack = 2 + rng.index(3) as u32; // 2..=4
        let nodes = racks * per_rack;
        let job_count = 3 + rng.index(5); // 3..=7
                                          // Pre-draw the workload so both runs see identical submissions.
        let mut jobs = Vec::new();
        for i in 0..job_count {
            let dfs = rng.chance(0.5);
            let size_mib = 64 + rng.index(512) as u64;
            let arrival = rng.index(60) as u64;
            let writer = rng.index(nodes as usize) as u32;
            jobs.push((i, dfs, size_mib, arrival, writer));
        }
        let use_fifo = rng.chance(0.33);
        let run = |mode: RefreshMode| {
            let mut cfg = ClusterConfig::racked_cluster(racks, per_rack, 2, 1);
            cfg.refresh_mode = mode;
            cfg.trace_level = mrp_engine::TraceLevel::Off;
            let scheduler: Box<dyn SchedulerPolicy> = if use_fifo {
                Box::new(mrp_engine::FifoScheduler::new())
            } else {
                Box::new(HfspScheduler::new(
                    PreemptionPrimitive::SuspendResume,
                    EvictionPolicy::ClosestToCompletion,
                ))
            };
            let mut cluster = Cluster::new(cfg, scheduler);
            for &(i, dfs, size_mib, arrival, writer) in &jobs {
                let name = format!("job-{i}");
                let spec = if dfs {
                    let path = format!("/in-{i}");
                    cluster
                        .create_input_file_from(&path, size_mib * MIB, Some(NodeId(writer)))
                        .unwrap();
                    JobSpec::map_only(name, path)
                } else {
                    JobSpec::synthetic(name, 1 + (size_mib / 64) as u32, 64 * MIB)
                };
                cluster.submit_job_at(spec, SimTime::from_secs(arrival));
            }
            cluster.run(SimTime::from_secs(24 * 3_600));
            (cluster.events_processed(), cluster.report())
        };
        let sharded = run(RefreshMode::Sharded);
        let full = run(RefreshMode::Full);
        assert!(sharded.1.all_jobs_complete(), "case {case} must complete");
        assert_eq!(
            sharded, full,
            "sharded vs full refresh diverged in case {case}"
        );
    }
}

/// Fixed-seed pinned outcome of the block-granular swap device. The
/// memory-pressure scenario (HFSP suspend/resume churn with working sets
/// larger than RAM) exercises the whole device — bitmap allocation, LRU
/// block reuse, swap-out/swap-in timing — so pinning its exact counters
/// catches any perturbation of the swap path, not just of the scheduler.
#[test]
fn fixed_seed_swap_device_run_is_pinned() {
    let cfg = MemoryPressureConfig::small(SwapConfig::enabled());
    let run = run_memory_pressure(&cfg);
    assert!(run.report.all_jobs_complete());
    assert_eq!(run.events_processed, PINNED_SWAP_EVENTS);
    assert_eq!(run.report.finished_at.as_micros(), PINNED_SWAP_FINISH);
    assert_eq!((run.swap_out_bytes, run.swap_in_bytes), PINNED_SWAP_TRAFFIC);
    assert_eq!(run.suspend_cycles, PINNED_SWAP_CYCLES);
    assert_eq!(run.oom_kills, 0);
    // Virtual seconds stalled on swap I/O, accumulated by the device's
    // timing model (f64, but derived from integer-microsecond durations —
    // exact equality is deterministic).
    assert_eq!(run.swap_io_secs, PINNED_SWAP_IO_SECS);

    let again = run_memory_pressure(&cfg);
    assert_eq!(again.report, run.report);
    assert_eq!(again.events_processed, run.events_processed);
}

const PINNED_SWAP_EVENTS: u64 = 822;
const PINNED_SWAP_FINISH: u64 = 419_769_351;
const PINNED_SWAP_TRAFFIC: (u64, u64) = (29_511_961_800, 54_697_918_464);
const PINNED_SWAP_CYCLES: u64 = 29;
const PINNED_SWAP_IO_SECS: f64 = 796.151_36;

/// A `SwapConfig` with `enabled: false` must be inert no matter how its
/// other knobs are set: the legacy byte-granular swap accounting runs and
/// every existing pinned trace stays byte-identical. Guards the default-off
/// gate that keeps the device opt-in.
#[test]
fn disabled_swap_device_is_byte_identical() {
    let weird_but_off = SwapConfig {
        enabled: false,
        block_size: 256 * 1024,
        lazy_resume: true,
        resume_prefetch: 0.75,
    };

    // Preemption-churn shape (the sim_throughput-style suspend/resume mix).
    let mut stock = churn_cluster();
    stock.run(SimTime::from_secs(24 * 3_600));
    let mut tweaked =
        churn_cluster_cfg(ClusterConfig::small_cluster(8, 2, 1).with_swap(weird_but_off));
    tweaked.run(SimTime::from_secs(24 * 3_600));
    assert_eq!(tweaked.report(), stock.report());
    assert_eq!(tweaked.events_processed(), stock.events_processed());

    // Fault-churn shape (kills, rack outages, speculation, re-replication).
    let mut stock = fault_churn_cluster();
    stock.run(SimTime::from_secs(24 * 3_600));
    let mut tweaked = fault_churn_cluster_cfg(fault_churn_config().with_swap(weird_but_off));
    tweaked.run(SimTime::from_secs(24 * 3_600));
    assert_eq!(tweaked.report(), stock.report());
    assert_eq!(tweaked.events_processed(), stock.events_processed());
}
