//! Delay-scheduling integration tests: wait/escalation behavior, skip-state
//! resets, interaction with FAIR deficit tracking and fault injection, and
//! a pinned fixed-seed locality-rate regression.

use hadoop_os_preempt::prelude::*;
use mrp_engine::{
    Cluster, FaultEvent, FaultKind, JobId, NodeId, RackId, RefreshMode, SchedulerPolicy,
};
use mrp_sim::{SimRng, SimTime};

fn hfsp() -> Box<dyn SchedulerPolicy> {
    Box::new(HfspScheduler::new(
        PreemptionPrimitive::SuspendResume,
        EvictionPolicy::ClosestToCompletion,
    ))
}

/// All four blocks of the input live on node 3, which has enough slots for
/// the whole job: with delay scheduling every map waits for (and gets) a
/// node-local launch, while greedy placement lets earlier-heartbeating
/// nodes steal the work off-node. The last local launch resets the job's
/// skip counter (reset-on-local-launch).
#[test]
fn delay_waits_for_node_local_slots_and_resets_on_local_launch() {
    let run = |delay: bool| {
        let mut cfg = mrp_engine::ClusterConfig::racked_cluster(2, 2, 4, 1);
        cfg.dfs_replication = 1;
        if delay {
            cfg = cfg.with_delay_intervals(1.0, 1.0);
        }
        let mut c = Cluster::new(cfg, hfsp());
        c.create_input_file_from("/pinned", 512 * MIB, Some(NodeId(3)))
            .unwrap();
        c.submit_job(JobSpec::map_only("pinned", "/pinned"));
        c.run(SimTime::from_secs(4 * 3_600));
        c
    };

    let greedy = run(false);
    let greedy_report = greedy.report();
    assert!(greedy_report.all_jobs_complete());
    assert!(
        greedy_report.locality.node_local < 4,
        "greedy placement must lose locality for this test to mean anything: {:?}",
        greedy_report.locality
    );
    assert_eq!(greedy_report.locality.delayed_skips, 0);

    let delayed = run(true);
    let report = delayed.report();
    assert!(report.all_jobs_complete());
    assert_eq!(
        report.locality.node_local, 4,
        "all four maps must wait for the replica holder: {:?}",
        report.locality
    );
    assert!(
        report.locality.delayed_skips > 0,
        "earlier-heartbeating nodes must have been declined"
    );
    assert!(
        report.locality.delay_waits_total() >= 1,
        "paid waits end in node-local launches: {:?}",
        report.locality.delay_wait_hist
    );
    // Reset-on-local-launch: the job's last map launched node-local, so its
    // skip counter is zero and no wait clock is running.
    let sb = delayed.delay_scoreboard();
    assert_eq!(sb.job_skips(JobId(1)), 0);
    assert!(!sb.job_waiting(JobId(1)));
    assert_eq!(sb.total_skips(), report.locality.delayed_skips);
}

/// Every replica holder of the job's pending tasks dies mid-wait:
/// node-local placement becomes impossible (task `preferred_nodes` are
/// captured at registration and the holders never return). The wait clock
/// still escalates node → rack → any purely with time, so the job drains
/// off-rack instead of livelocking — a dead node must not strand the job's
/// skip counter.
#[test]
fn delay_escalates_past_rack_to_any_when_holders_are_dead() {
    let mut cfg = mrp_engine::ClusterConfig::racked_cluster(2, 2, 1, 1);
    cfg.dfs_replication = 1;
    cfg = cfg.with_delay_intervals(1.0, 1.0);
    // Rack 1 (nodes 2 and 3, the only replica holders) dies mid-run and
    // never returns.
    cfg.faults.events.push(FaultEvent {
        at: SimTime::from_secs(10),
        kind: FaultKind::RackOutage { rack: RackId(1) },
    });
    let mut c = Cluster::new(cfg, hfsp());
    c.create_input_file_from("/doomed", 256 * MIB, Some(NodeId(3)))
        .unwrap();
    c.submit_job(JobSpec::map_only("doomed", "/doomed"));
    c.run(SimTime::from_secs(4 * 3_600));
    let report = c.report();
    assert!(
        report.all_jobs_complete(),
        "escalation must drain the job despite dead holders"
    );
    // Before the outage node 3's single slot serves one map node-local (the
    // attempt dies with the rack); afterwards every remaining launch wants
    // node 3, declines the rack-0 offers, and escalates to off-rack.
    assert_eq!(report.locality.node_local, 1, "{:?}", report.locality);
    assert_eq!(
        report.locality.off_rack, 2,
        "both final launches end up off-rack: {:?}",
        report.locality
    );
    assert!(report.faults.attempts_lost >= 1, "{:?}", report.faults);
    assert!(
        report.locality.delayed_skips > 0,
        "the job declined rack-0 slots while waiting"
    );
    // Only the pre-outage node-local launch ended a wait; the post-outage
    // waits ran to full escalation without ever resetting.
    assert_eq!(report.locality.delay_waits_total(), 1);
}

/// A job waiting by its own choice must not count as starved: FAIR's
/// deficit tracking would otherwise preempt victim after victim to free
/// slots the waiting job keeps declining. One preemption (for the first,
/// genuinely-starved offer) is legitimate; churning past it is the bug.
#[test]
fn delay_blocked_job_is_not_starved_for_fair_preemption() {
    let run = |delay: bool| {
        // Two racks of one node each, one map slot per node. The hog fills
        // both slots; the latecomer's single block lives on node 0 only.
        let mut cfg = mrp_engine::ClusterConfig::racked_cluster(2, 1, 1, 0);
        cfg.dfs_replication = 1;
        if delay {
            // Long waits so the gate (not escalation) is what matters.
            cfg = cfg.with_delay_intervals(4.0, 4.0);
        }
        let scheduler = ActionPipeline::fair(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::LeastProgress,
            2,
            mrp_sim::SimDuration::from_secs(5),
        );
        let mut c = Cluster::new(cfg, Box::new(scheduler));
        c.create_input_file_from("/late", 128 * MIB, Some(NodeId(0)))
            .unwrap();
        c.submit_job(JobSpec::synthetic("hog", 8, 256 * MIB));
        c.submit_job_at(JobSpec::map_only("late", "/late"), SimTime::from_secs(10));
        c.run(SimTime::from_secs(8 * 3_600));
        let report = c.report();
        assert!(report.all_jobs_complete());
        report
    };
    for delay in [false, true] {
        let report = run(delay);
        let suspends: u32 = report
            .jobs
            .iter()
            .flat_map(|j| j.tasks.iter())
            .map(|t| t.suspend_cycles)
            .sum();
        assert!(
            suspends <= 2,
            "FAIR must not churn-preempt for a waiting job (delay={delay}): \
             {suspends} suspends"
        );
    }
}

/// A delay-restricted job in pure reduce phase must still recover a reduce
/// killed back to pending behind the tier-3 cursor. The delay gate only
/// ever withholds *map* launches, so a job with no schedulable maps is
/// unrestricted — were it treated as restricted, the cursor rewind would
/// stay suppressed and (because a job without schedulable maps never
/// declines anything) its wait clock could never escalate: the reduce
/// would be stranded forever.
#[test]
fn killed_reduce_of_delay_restricted_job_is_recovered() {
    let mut cfg = mrp_engine::ClusterConfig::racked_cluster(2, 2, 1, 1);
    cfg.dfs_replication = 1;
    cfg = cfg.with_delay_intervals(2.0, 2.0);
    // By t=15 the single map is running node-local on node 0
    // (schedulable_maps == 0) and all four reduces are mid-flight with the
    // tier-3 cursor past them: killing node 1 sends its reduce back to
    // pending *behind* the cursor.
    cfg.faults.events.push(FaultEvent {
        at: SimTime::from_secs(15),
        kind: FaultKind::Kill { node: NodeId(1) },
    });
    let mut c = Cluster::new(cfg, hfsp());
    c.create_input_file_from("/mr", 128 * MIB, Some(NodeId(0)))
        .unwrap();
    // A 3x output ratio makes each reduce shuffle ~96 MiB: a minute of
    // work, so the kill lands mid-reduce.
    let profile = TaskProfile {
        output_ratio: Some(3.0),
        ..TaskProfile::default()
    };
    c.submit_job(
        JobSpec::map_only("mr", "/mr")
            .with_reduces(4)
            .with_profile(profile),
    );
    let end = c.run(SimTime::from_secs(4 * 3_600));
    let report = c.report();
    assert!(
        report.all_jobs_complete(),
        "a killed-back reduce must be relaunched, not stranded (ended at {end:?}): {:?}",
        report.faults
    );
    assert_eq!(
        report.faults.node_failures, 1,
        "the kill must actually fire"
    );
    assert!(report.faults.attempts_lost >= 1, "{:?}", report.faults);
}

/// Sharded and full view refresh must stay observationally identical with
/// delay scheduling enabled on DFS-backed jobs, including under fault
/// churn — the delay scoreboard is driven only by policy decisions, which
/// must not depend on the refresh strategy.
#[test]
fn sharded_equals_full_with_delay_and_faults() {
    for case in 0..5u64 {
        let mut rng = SimRng::new(0xDE1A + case);
        let racks = 2 + rng.index(3) as u32;
        let per_rack = 2 + rng.index(3) as u32;
        let nodes = racks * per_rack;
        let job_count = 3 + rng.index(4);
        let mut jobs = Vec::new();
        for i in 0..job_count {
            let size_mib = 128 + rng.index(512) as u64;
            let arrival = rng.index(60) as u64;
            let writer = rng.index(nodes as usize) as u32;
            jobs.push((i, size_mib, arrival, writer));
        }
        let with_faults = rng.chance(0.5);
        let run = |mode: RefreshMode| {
            let mut cfg = mrp_engine::ClusterConfig::racked_cluster(racks, per_rack, 2, 1);
            cfg.refresh_mode = mode;
            cfg.trace_level = mrp_engine::TraceLevel::Off;
            cfg = cfg.with_delay_intervals(1.0, 1.0);
            if with_faults {
                cfg.faults.random = Some(mrp_engine::RandomFaults {
                    rack_mtbf_secs: 60.0,
                    mean_recovery_secs: Some(30.0),
                    horizon: SimTime::from_secs(300),
                    seed: 0xFADE + case,
                });
            }
            let mut cluster = Cluster::new(cfg, hfsp());
            for &(i, size_mib, arrival, writer) in &jobs {
                let path = format!("/in-{i}");
                cluster
                    .create_input_file_from(&path, size_mib * MIB, Some(NodeId(writer)))
                    .unwrap();
                cluster.submit_job_at(
                    JobSpec::map_only(format!("job-{i}"), path),
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
            "sharded vs full refresh diverged with delay scheduling in case {case}"
        );
    }
}

/// Pinned fixed-seed locality-rate regression: the exact locality split of
/// a delay-scheduled multi-rack run. Any change to the delay decision
/// logic, the wait thresholds' interpretation, or the tier gating shows up
/// here immediately.
#[test]
fn fixed_seed_delay_locality_rate_is_pinned() {
    let run = || {
        let mut cfg = mrp_engine::ClusterConfig::racked_cluster(4, 4, 2, 1);
        cfg.dfs_replication = 2;
        cfg = cfg.with_delay_intervals(1.0, 1.0);
        let mut cluster = Cluster::new(cfg, hfsp());
        for i in 0..6u32 {
            let path = format!("/delayed/in-{i}");
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
    };
    let (events, report) = run();
    assert!(report.all_jobs_complete());
    assert_eq!(report.locality.total(), 18, "6 jobs x 3 blocks");
    // The same scenario without delay lands at (7, 10, 1) — pinned in
    // tests/determinism.rs. Delay scheduling must lift the node-local
    // count decisively.
    assert_eq!(
        (
            report.locality.node_local,
            report.locality.rack_local,
            report.locality.off_rack
        ),
        PINNED_DELAY_LOCALITY
    );
    assert_eq!(events, PINNED_DELAY_EVENTS);
    assert_eq!(report.finished_at.as_micros(), PINNED_DELAY_FINISH);
    assert!(report.locality.delayed_skips > 0);

    let (events_again, report_again) = run();
    assert_eq!(events, events_again);
    assert_eq!(report, report_again);
}

const PINNED_DELAY_LOCALITY: (u64, u64, u64) = (18, 0, 0);
const PINNED_DELAY_EVENTS: u64 = 323;
const PINNED_DELAY_FINISH: u64 = 46_122_516;
