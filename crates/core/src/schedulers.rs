//! Preemptive job schedulers built on top of the preemption primitives.
//!
//! The paper motivates the primitive with three scheduler families
//! (Section II): fairness schedulers (Hadoop FAIR/Capacity), deadline
//! schedulers, and size-based schedulers such as the authors' own HFSP. The
//! FAIR-style scheduler is the [`ActionPipeline::fair`] bundle; this module
//! holds the HFSP-style size-based scheduler as a named policy type, and the
//! running-task candidate list the preempt and reclaim actions share. Both
//! are parameterised by the [`PreemptionPrimitive`] and the
//! [`EvictionPolicy`], so the ablation benches can measure how the choice of
//! primitive affects realistic scheduling policies rather than only the
//! paper's two-job scenario.

use crate::eviction::{EvictionCandidate, EvictionPolicy};
use crate::pipeline::ActionPipeline;
use crate::primitive::PreemptionPrimitive;
use mrp_engine::{
    JobId, JobRuntime, NodeId, SchedulerAction, SchedulerContext, SchedulerPolicy, TaskState,
};

const BASE_TASK_FOOTPRINT: u64 = 192 * 1024 * 1024;

pub(crate) fn candidates_of(job: &JobRuntime) -> Vec<EvictionCandidate> {
    job.tasks
        .iter()
        .filter(|t| t.state == TaskState::Running)
        .map(|t| EvictionCandidate {
            task: t.id,
            progress: t.progress,
            memory_bytes: job.spec.profile.state_memory + BASE_TASK_FOOTPRINT,
        })
        .collect()
}

/// An HFSP-style size-based scheduler with preemption.
///
/// Jobs are ordered by remaining size (estimated from the input bytes of
/// their unfinished tasks, scaled by reported progress); the smallest job
/// runs first. When a newly submitted job is smaller than what is currently
/// running and no slots are free, tasks of the largest running job are
/// preempted with the configured primitive.
///
/// The policy is the [`ActionPipeline::hfsp`] bundle — an `allocate` under
/// the cached smallest-remaining-size job order, followed by an
/// arrival-triggered `preempt` — under a name that also exposes the size
/// estimate ([`HfspScheduler::remaining_size`]).
pub struct HfspScheduler {
    /// Primitive used to evict tasks of larger jobs.
    pub primitive: PreemptionPrimitive,
    /// Victim selection policy.
    pub eviction: EvictionPolicy,
    pipeline: ActionPipeline,
}

impl HfspScheduler {
    /// Creates an HFSP-style scheduler.
    pub fn new(primitive: PreemptionPrimitive, eviction: EvictionPolicy) -> Self {
        HfspScheduler {
            primitive,
            eviction,
            pipeline: ActionPipeline::hfsp(primitive, eviction),
        }
    }

    /// Remaining virtual size of a job in bytes (HFSP's ordering metric).
    pub fn remaining_size(job: &JobRuntime) -> u64 {
        crate::pipeline::remaining_size(job)
    }
}

impl SchedulerPolicy for HfspScheduler {
    fn on_heartbeat(&mut self, ctx: &SchedulerContext<'_>, node: NodeId) -> Vec<SchedulerAction> {
        self.pipeline.on_heartbeat(ctx, node)
    }

    fn on_job_submitted(&mut self, ctx: &SchedulerContext<'_>, job: JobId) -> Vec<SchedulerAction> {
        self.pipeline.on_job_submitted(ctx, job)
    }

    fn on_job_finished(&mut self, ctx: &SchedulerContext<'_>, job: JobId) -> Vec<SchedulerAction> {
        self.pipeline.on_job_finished(ctx, job)
    }

    fn name(&self) -> &str {
        "hfsp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_engine::{Cluster, ClusterConfig, JobSpec, TaskId, TaskKind};
    use mrp_sim::{SimDuration, SimTime, MIB};

    fn two_job_cluster(scheduler: Box<dyn SchedulerPolicy>) -> mrp_engine::ClusterReport {
        let mut cluster = Cluster::new(ClusterConfig::paper_single_node(), scheduler);
        cluster.create_input_file("/big", 512 * MIB).unwrap();
        cluster.create_input_file("/small", 128 * MIB).unwrap();
        cluster.submit_job(JobSpec::map_only("big", "/big"));
        cluster.submit_job_at(JobSpec::map_only("small", "/small"), SimTime::from_secs(20));
        cluster.run(SimTime::from_secs(4 * 3_600));
        cluster.report()
    }

    #[test]
    fn hfsp_suspend_lets_the_small_job_jump_the_queue() {
        let report = two_job_cluster(Box::new(HfspScheduler::new(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::ClosestToCompletion,
        )));
        assert!(report.all_jobs_complete());
        let small = report.sojourn_secs("small").unwrap();
        let big_job = report.job("big").unwrap();
        assert!(
            small < 60.0,
            "with preemption the small job should finish in ~25-40s, got {small}"
        );
        assert_eq!(big_job.tasks[0].suspend_cycles, 1);
        assert_eq!(big_job.tasks[0].attempts, 1, "no work lost");
    }

    #[test]
    fn hfsp_kill_wastes_the_big_jobs_work() {
        let report = two_job_cluster(Box::new(HfspScheduler::new(
            PreemptionPrimitive::Kill,
            EvictionPolicy::ClosestToCompletion,
        )));
        assert!(report.all_jobs_complete());
        let big_job = report.job("big").unwrap();
        assert!(big_job.wasted_work_secs() > 5.0);
        assert!(big_job.tasks[0].attempts >= 2);
    }

    #[test]
    fn hfsp_wait_does_not_preempt() {
        let report = two_job_cluster(Box::new(HfspScheduler::new(
            PreemptionPrimitive::Wait,
            EvictionPolicy::ClosestToCompletion,
        )));
        assert!(report.all_jobs_complete());
        let small = report.sojourn_secs("small").unwrap();
        assert!(
            small > 60.0,
            "without preemption the small job waits, got {small}"
        );
        assert_eq!(report.job("big").unwrap().tasks[0].suspend_cycles, 0);
    }

    #[test]
    fn hfsp_suspend_beats_kill_on_makespan_and_ties_on_small_job_latency() {
        let susp = two_job_cluster(Box::new(HfspScheduler::new(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::ClosestToCompletion,
        )));
        let kill = two_job_cluster(Box::new(HfspScheduler::new(
            PreemptionPrimitive::Kill,
            EvictionPolicy::ClosestToCompletion,
        )));
        assert!(susp.makespan_secs().unwrap() < kill.makespan_secs().unwrap());
        assert!(susp.sojourn_secs("small").unwrap() <= kill.sojourn_secs("small").unwrap() + 5.0);
    }

    #[test]
    fn fair_scheduler_shares_a_two_slot_node() {
        let mut cfg = ClusterConfig::paper_single_node();
        cfg.nodes[0].map_slots = 2;
        let scheduler = ActionPipeline::fair(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::ClosestToCompletion,
            2,
            SimDuration::from_secs(10),
        );
        let mut cluster = Cluster::new(cfg, Box::new(scheduler));
        // A job with many tasks hogs both slots; a later job should get one
        // of them back through fairness preemption.
        cluster.submit_job(JobSpec::synthetic("hog", 6, 256 * MIB));
        cluster.submit_job_at(
            JobSpec::synthetic("latecomer", 1, 256 * MIB),
            SimTime::from_secs(30),
        );
        cluster.run(SimTime::from_secs(8 * 3_600));
        let report = cluster.report();
        assert!(report.all_jobs_complete());
        let late = report.sojourn_secs("latecomer").unwrap();
        // Without preemption the latecomer would wait for a full task of the
        // hog to finish (~40s+); with fairness preemption it starts sooner.
        assert!(late < 140.0, "latecomer sojourn {late}");
        let hog = report.job("hog").unwrap();
        let suspensions: u32 = hog.tasks.iter().map(|t| t.suspend_cycles).sum();
        assert!(
            suspensions >= 1,
            "fairness should have suspended at least one hog task"
        );
    }

    #[test]
    fn fair_scheduler_without_contention_never_preempts() {
        let scheduler = ActionPipeline::fair(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::ClosestToCompletion,
            1,
            SimDuration::from_secs(10),
        );
        let mut cluster = Cluster::new(ClusterConfig::paper_single_node(), Box::new(scheduler));
        cluster.submit_job(JobSpec::synthetic("solo", 2, 128 * MIB));
        cluster.run(SimTime::from_secs(4 * 3_600));
        let report = cluster.report();
        assert!(report.all_jobs_complete());
        assert_eq!(
            report
                .job("solo")
                .unwrap()
                .tasks
                .iter()
                .map(|t| t.suspend_cycles)
                .sum::<u32>(),
            0
        );
    }

    #[test]
    fn hfsp_on_racked_cluster_prefers_local_launches() {
        let mut cfg = ClusterConfig::racked_cluster(2, 2, 1, 1);
        cfg.dfs_replication = 1;
        let mut cluster = Cluster::new(
            cfg,
            Box::new(HfspScheduler::new(
                PreemptionPrimitive::SuspendResume,
                EvictionPolicy::ClosestToCompletion,
            )),
        );
        // All replicas on node 3 (rack 1): the first launch should be
        // node-local there, and the scheduler should still spill the
        // remaining blocks to rack-local/off-rack nodes rather than starve.
        cluster
            .create_input_file_from("/pinned", 512 * MIB, Some(mrp_engine::NodeId(3)))
            .unwrap();
        cluster.submit_job(JobSpec::map_only("pinned", "/pinned"));
        cluster.run(SimTime::from_secs(4 * 3_600));
        let report = cluster.report();
        assert!(report.all_jobs_complete());
        assert_eq!(report.locality.total(), 4, "four 128MB blocks, four maps");
        assert!(
            report.locality.node_local >= 1,
            "the replica holder must get node-local work: {:?}",
            report.locality
        );
        assert!(
            report.locality.rack_local + report.locality.off_rack >= 1,
            "non-holders must still get (remote) work: {:?}",
            report.locality
        );
    }

    #[test]
    fn speculation_re_executes_a_stranded_suspended_task() {
        // Two nodes, one map slot each. A four-task "big" job runs in two
        // waves; mid-wave-2 a smaller "medium" job arrives, and HFSP suspends
        // one wave-2 task to make room. The medium job then pins that node
        // while the other node drains — the suspended task is stranded: its
        // progress rate decays below half the job mean (anchored by the three
        // completed siblings). With speculation the idle node runs a backup
        // that finishes before the original can even resume
        // (first-finisher-wins), shrinking the makespan; without it the job
        // waits for the resume.
        let run = |speculation: bool| {
            let mut cfg = ClusterConfig::small_cluster(2, 1, 0);
            if speculation {
                cfg.speculation = mrp_engine::SpeculationConfig::enabled();
            }
            let mut cluster = Cluster::new(
                cfg,
                Box::new(HfspScheduler::new(
                    PreemptionPrimitive::SuspendResume,
                    EvictionPolicy::ClosestToCompletion,
                )),
            );
            cluster.submit_job(JobSpec::synthetic("big", 4, 256 * MIB));
            cluster.submit_job_at(
                JobSpec::synthetic("medium", 1, 320 * MIB),
                SimTime::from_secs(55),
            );
            cluster.run(SimTime::from_secs(8 * 3_600));
            let report = cluster.report();
            assert!(report.all_jobs_complete());
            report
        };
        let with_spec = run(true);
        let without = run(false);
        assert!(
            without.faults.speculative_launched == 0,
            "speculation off must not speculate"
        );
        assert!(
            with_spec.faults.speculative_launched >= 1,
            "the stranded suspended task must draw a backup: {:?}",
            with_spec.faults
        );
        assert!(
            with_spec.faults.speculative_won >= 1,
            "the backup finishes before the stranded original can resume: {:?}",
            with_spec.faults
        );
        assert!(
            with_spec.makespan_secs().unwrap() < without.makespan_secs().unwrap(),
            "speculative re-execution must shrink the makespan: {} vs {}",
            with_spec.makespan_secs().unwrap(),
            without.makespan_secs().unwrap()
        );
    }

    #[test]
    fn remaining_size_shrinks_with_progress() {
        // Direct unit check of the HFSP size estimator.
        let spec = JobSpec::synthetic("x", 2, 100 * MIB);
        let mut job = JobRuntime {
            id: JobId(1),
            spec,
            submitted_at: SimTime::ZERO,
            completed_at: None,
            schedulable_maps: 0,
            schedulable_reduces: 0,
            suspended_count: 0,
            occupying_count: 0,
            speculative_live: 0,
            tasks: vec![
                mrp_engine::TaskRuntime::new(
                    TaskId {
                        job: JobId(1),
                        kind: TaskKind::Map,
                        index: 0,
                    },
                    100 * MIB,
                    vec![],
                ),
                mrp_engine::TaskRuntime::new(
                    TaskId {
                        job: JobId(1),
                        kind: TaskKind::Map,
                        index: 1,
                    },
                    100 * MIB,
                    vec![],
                ),
            ],
        };
        let full = HfspScheduler::remaining_size(&job);
        job.tasks[0].progress = 0.5;
        let half = HfspScheduler::remaining_size(&job);
        assert!(half < full);
        job.tasks[0].set_state(TaskState::Running);
        job.tasks[0].set_state(TaskState::Succeeded);
        let done_one = HfspScheduler::remaining_size(&job);
        assert_eq!(done_one, 100 * MIB);
    }
}
