//! A manual-priority scheduler with preemption: the Introduction's motivating
//! use case ("best-effort" vs. production jobs) turned into a policy.
//!
//! Low-priority tasks run whenever slots are idle; when a higher-priority job
//! cannot get its slots, running lower-priority tasks are preempted with the
//! configured primitive, victims chosen by the eviction policy. Suspended
//! low-priority tasks are resumed once the high-priority demand drains.
//!
//! # Cost per heartbeat
//!
//! The policy reads the engine-maintained counters (per-job schedulable,
//! suspended and slot-occupying task counts, and the cluster-wide
//! [`PendingTotals`](mrp_engine::PendingTotals)) instead of scanning task
//! lists, so a heartbeat costs work in proportion to the pending work:
//!
//! - The FIFO launcher is the engine's `fill_node` under the priority FIFO
//!   job order. It sorts only jobs with schedulable or suspended tasks, and
//!   only when the node has a slot something could use. A job with nothing
//!   for the node costs a counter read; launches come from the job's
//!   consume-once locality lists and a forward-only cursor, so a heartbeat
//!   re-walks a job's task list only to find a task made pending again
//!   behind the cursor.
//! - Resumption reads the totals in O(1) and sorts the node's own suspended
//!   list; it never builds a cluster-wide list.
//! - Preemption returns in O(1) when nothing is pending, and after one sum
//!   of free map slots over the node views when free slots cover every
//!   pending task. Otherwise per-job demand is one counter read per job.
//!   Victims are collected from the task lists of lower-priority jobs that
//!   occupy slots, and ranked once per distinct waiting priority per call
//!   (`EvictionPolicy::Random` ranks once per waiting job, so its random
//!   draws do not depend on this caching). [`ScanCounters`] counts both.

use mrp_engine::{
    FifoScheduler, JobRuntime, NodeId, SchedulerAction, SchedulerContext, SchedulerPolicy, TaskId,
    TaskState,
};
use mrp_preempt::{EvictionCandidate, EvictionPolicy, PreemptionPrimitive};
use mrp_sim::SimRng;
use std::collections::HashSet;

const BASE_TASK_FOOTPRINT: u64 = 192 * 1024 * 1024;

/// Deterministic counts of the work [`PriorityPreemptingScheduler`]'s own
/// preemption scans do, summed over every call since it was created.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanCounters {
    /// Job task lists walked to collect eviction candidates.
    pub task_lists: u64,
    /// Eviction rankings computed ([`EvictionPolicy::rank`] calls).
    pub rankings: u64,
}

/// One waiting priority's eviction candidates and, once computed, their
/// ranking (valid for the rest of the call: the context is immutable).
struct VictimRanking {
    priority: i32,
    candidates: Vec<EvictionCandidate>,
    order: Option<Vec<TaskId>>,
}

/// Priority scheduler with preemption of lower-priority tasks.
pub struct PriorityPreemptingScheduler {
    /// Primitive used to evict lower-priority tasks.
    pub primitive: PreemptionPrimitive,
    /// Victim selection policy.
    pub eviction: EvictionPolicy,
    launcher: FifoScheduler,
    rng: SimRng,
    scan: ScanCounters,
}

impl PriorityPreemptingScheduler {
    /// Creates the scheduler.
    pub fn new(primitive: PreemptionPrimitive, eviction: EvictionPolicy) -> Self {
        PriorityPreemptingScheduler {
            primitive,
            eviction,
            // Resumption is handled here, priority-aware, so the launcher must
            // not hand slots back to suspended low-priority tasks while
            // higher-priority work is still waiting.
            launcher: FifoScheduler::non_resuming(),
            rng: SimRng::new(0x9817),
            scan: ScanCounters::default(),
        }
    }

    /// The work the preemption scans have done so far.
    pub fn scan_counters(&self) -> ScanCounters {
        self.scan
    }

    /// Resumes suspended tasks on `node` with whatever slots the launcher left
    /// over — safe because the launcher has already served every schedulable
    /// task it could.
    fn resume_leftovers(
        ctx: &SchedulerContext<'_>,
        node: NodeId,
        launches_here: usize,
    ) -> Vec<SchedulerAction> {
        let Some(view) = ctx.node(node) else {
            return Vec::new();
        };
        let free = (view.free_map_slots as usize).saturating_sub(launches_here);
        // Any schedulable task still waiting means slots are contended; do not
        // hand them to suspended low-priority work.
        let schedulable = ctx.totals.schedulable_maps + ctx.totals.schedulable_reduces;
        if free == 0 || schedulable as usize > launches_here {
            return Vec::new();
        }
        // The node's own suspended tasks in the launcher's service order. A
        // job's task list holds maps then reduces by index, which is `TaskId`
        // order, so the id breaks ties within a job.
        let mut resumable: Vec<(&JobRuntime, TaskId)> = view
            .suspended
            .iter()
            .filter_map(|&task| {
                let job = ctx.jobs.get(&task.job)?;
                let t = job.task(task)?;
                (t.state == TaskState::Suspended && t.node == Some(node)).then_some((job, task))
            })
            .collect();
        resumable.sort_by(|a, b| a.0.cmp_service_order(b.0).then(a.1.cmp(&b.1)));
        resumable.dedup_by_key(|&mut (_, task)| task);
        resumable
            .into_iter()
            .take(free)
            .map(|(_, task)| SchedulerAction::Resume { task })
            .collect()
    }

    /// Running tasks of unfinished jobs below `priority`: the victims a job
    /// of that priority may evict. Jobs occupying no slot are skipped on
    /// their counter.
    fn victims_below(&mut self, ctx: &SchedulerContext<'_>, priority: i32) -> VictimRanking {
        let mut candidates = Vec::new();
        for job in ctx
            .jobs
            .values()
            .filter(|j| j.spec.priority < priority && !j.is_finished() && j.occupying_count > 0)
        {
            self.scan.task_lists += 1;
            let memory_bytes = job.spec.profile.state_memory + BASE_TASK_FOOTPRINT;
            candidates.extend(
                job.tasks
                    .iter()
                    .filter(|t| t.state == TaskState::Running)
                    .map(|t| EvictionCandidate {
                        task: t.id,
                        progress: t.progress,
                        memory_bytes,
                    }),
            );
        }
        VictimRanking {
            priority,
            candidates,
            order: None,
        }
    }

    /// Preempts, for every unfinished job whose waiting tasks exceed the
    /// cluster's free map slots, that many running lower-priority tasks.
    /// Each victim is emitted at most once per call: jobs that share a
    /// priority share a ranking, and a victim already taken is not replaced.
    fn preemption_actions(&mut self, ctx: &SchedulerContext<'_>) -> Vec<SchedulerAction> {
        // No job waits for more tasks than are pending cluster-wide.
        let totals = ctx.totals;
        let pending =
            (totals.schedulable_maps + totals.schedulable_reduces + totals.suspended) as usize;
        if pending == 0 {
            return Vec::new();
        }
        let free_slots: usize = ctx.nodes.iter().map(|n| n.free_map_slots as usize).sum();
        if pending <= free_slots {
            return Vec::new();
        }
        let mut rankings: Vec<VictimRanking> = Vec::new();
        let mut emitted = HashSet::new();
        let mut actions = Vec::new();
        for job in ctx.jobs.values().filter(|j| !j.is_finished()) {
            let waiting = (job.schedulable_count() + job.suspended_count) as usize;
            let needed = waiting.saturating_sub(free_slots);
            if needed == 0 {
                continue;
            }
            let priority = job.spec.priority;
            let i = match rankings.iter().position(|r| r.priority == priority) {
                Some(i) => i,
                None => {
                    let ranking = self.victims_below(ctx, priority);
                    rankings.push(ranking);
                    rankings.len() - 1
                }
            };
            let ranking = &mut rankings[i];
            // `Random` draws on every ranking, so it re-ranks per job exactly
            // as often as a per-job scan would.
            if ranking.order.is_none() || self.eviction == EvictionPolicy::Random {
                ranking.order = Some(self.eviction.rank(&ranking.candidates, &mut self.rng));
                self.scan.rankings += 1;
            }
            for &victim in ranking.order.iter().flatten().take(needed) {
                if emitted.insert(victim) {
                    actions.extend(self.primitive.preempt_action(victim));
                }
            }
        }
        actions
    }
}

impl SchedulerPolicy for PriorityPreemptingScheduler {
    fn on_heartbeat(&mut self, ctx: &SchedulerContext<'_>, node: NodeId) -> Vec<SchedulerAction> {
        // The priority-aware FIFO launcher serves higher priorities first;
        // leftover slots go back to suspended (preempted) tasks.
        let mut actions = self.launcher.on_heartbeat(ctx, node);
        let launches_here = actions
            .iter()
            .filter(|a| matches!(a, SchedulerAction::Launch { node: n, .. } if *n == node))
            .count();
        actions.extend(Self::resume_leftovers(ctx, node, launches_here));
        actions.extend(self.preemption_actions(ctx));
        actions
    }

    fn on_job_submitted(
        &mut self,
        ctx: &SchedulerContext<'_>,
        _job: mrp_engine::JobId,
    ) -> Vec<SchedulerAction> {
        self.preemption_actions(ctx)
    }

    fn on_job_finished(
        &mut self,
        ctx: &SchedulerContext<'_>,
        job: mrp_engine::JobId,
    ) -> Vec<SchedulerAction> {
        self.launcher.on_job_finished(ctx, job)
    }

    fn name(&self) -> &str {
        "priority-preempting"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrp_engine::{
        Cluster, ClusterConfig, FaultPlan, JobId, JobSpec, JobTable, NodeView, PendingTotals,
        RandomFaults, SpeculationConfig, TaskKind, TaskProfile, TaskRuntime, Topology, TraceLevel,
    };
    use mrp_sim::{SimTime, GIB, MIB};
    use mrp_workload::{dfs_backed, SwimConfig, SwimGenerator};
    use std::cell::RefCell;
    use std::rc::Rc;

    // The whole-table scan, kept as the reference the policy is checked
    // against: it builds and sorts the cluster-wide task lists, walks every
    // task of every job for demand, and ranks the victims afresh for every
    // waiting job.

    fn reference_on_heartbeat(
        s: &mut PriorityPreemptingScheduler,
        ctx: &SchedulerContext<'_>,
        node: NodeId,
    ) -> Vec<SchedulerAction> {
        let mut actions = s.launcher.on_heartbeat(ctx, node);
        let launches_here = actions
            .iter()
            .filter(|a| matches!(a, SchedulerAction::Launch { node: n, .. } if *n == node))
            .count();
        actions.extend(reference_resume_leftovers(ctx, node, launches_here));
        actions.extend(reference_preemption_actions(s, ctx));
        actions
    }

    /// All tasks in a schedulable state, ordered by (priority desc, job
    /// submission order, task index).
    fn schedulable_tasks(ctx: &SchedulerContext<'_>) -> Vec<TaskId> {
        tasks_in_service_order(
            ctx,
            |j| j.schedulable_count() > 0,
            TaskState::is_schedulable,
        )
    }

    /// All tasks currently suspended, in the same priority order.
    fn suspended_tasks(ctx: &SchedulerContext<'_>) -> Vec<TaskId> {
        tasks_in_service_order(
            ctx,
            |j| j.suspended_count > 0,
            |state| state == TaskState::Suspended,
        )
    }

    /// Tasks whose state passes `wanted`, from jobs whose counters say they
    /// hold such tasks, in [`JobRuntime::cmp_service_order`] and task-list
    /// order.
    fn tasks_in_service_order(
        ctx: &SchedulerContext<'_>,
        has_work: impl Fn(&JobRuntime) -> bool,
        wanted: impl Fn(TaskState) -> bool,
    ) -> Vec<TaskId> {
        let mut jobs: Vec<&JobRuntime> = ctx.jobs.values().filter(|j| has_work(j)).collect();
        jobs.sort_by(|a, b| a.cmp_service_order(b));
        jobs.iter()
            .flat_map(|j| j.tasks.iter())
            .filter(|t| wanted(t.state))
            .map(|t| t.id)
            .collect()
    }

    fn reference_resume_leftovers(
        ctx: &SchedulerContext<'_>,
        node: NodeId,
        launches_here: usize,
    ) -> Vec<SchedulerAction> {
        let Some(view) = ctx.node(node) else {
            return Vec::new();
        };
        let mut free = (view.free_map_slots as usize).saturating_sub(launches_here);
        let mut actions = Vec::new();
        let still_waiting = schedulable_tasks(ctx).len() > launches_here;
        if still_waiting {
            return actions;
        }
        for task in suspended_tasks(ctx) {
            if free == 0 {
                break;
            }
            if ctx.task(task).map(|t| t.node) == Some(Some(node)) {
                actions.push(SchedulerAction::Resume { task });
                free -= 1;
            }
        }
        actions
    }

    fn reference_preemption_actions(
        s: &mut PriorityPreemptingScheduler,
        ctx: &SchedulerContext<'_>,
    ) -> Vec<SchedulerAction> {
        let free_slots: u32 = ctx.nodes.iter().map(|n| n.free_map_slots).sum();
        let demand: Vec<(i32, usize)> = ctx
            .jobs
            .values()
            .filter(|j| !j.is_finished())
            .map(|j| {
                let waiting = j
                    .tasks
                    .iter()
                    .filter(|t| t.state.is_schedulable() || t.state == TaskState::Suspended)
                    .count();
                (j.spec.priority, waiting)
            })
            .filter(|(_, waiting)| *waiting > 0)
            .collect();
        let mut actions = Vec::new();
        for (priority, waiting) in demand {
            let needed = waiting.saturating_sub(free_slots as usize);
            if needed == 0 {
                continue;
            }
            let candidates: Vec<EvictionCandidate> = ctx
                .jobs
                .values()
                .filter(|j| j.spec.priority < priority && !j.is_finished())
                .flat_map(|j| {
                    j.tasks
                        .iter()
                        .filter(|t| t.state == TaskState::Running)
                        .map(|t| EvictionCandidate {
                            task: t.id,
                            progress: t.progress,
                            memory_bytes: j.spec.profile.state_memory + BASE_TASK_FOOTPRINT,
                        })
                })
                .collect();
            for victim in s.eviction.pick(&candidates, needed, &mut s.rng) {
                actions.extend(s.primitive.preempt_action(victim));
            }
        }
        actions
    }

    /// `actions` with every repeat of an earlier preemption of the same task
    /// removed (the only actions the reference repeats).
    fn first_occurrences(actions: Vec<SchedulerAction>) -> Vec<SchedulerAction> {
        let mut victims = HashSet::new();
        actions
            .into_iter()
            .filter(|a| match a {
                SchedulerAction::Suspend { task } | SchedulerAction::Kill { task } => {
                    victims.insert(*task)
                }
                _ => true,
            })
            .collect()
    }

    /// Consecutive calls at one simulated instant after which a differential
    /// run counts as stalled. The policy, like the reference, can ping-pong
    /// a node's low-priority tasks between resume and suspend without time
    /// advancing: a higher-priority job's suspended tasks count as demand,
    /// but they can only resume on their own, full nodes.
    const STALL_CALLS: u64 = 10_000;

    /// What a differential run saw.
    #[derive(Debug, Default)]
    struct DiffStats {
        calls: u64,
        preemptions: u64,
        resumes: u64,
        duplicates_removed: u64,
        /// When the run stalled, if it did; calls from then on are neither
        /// compared nor acted on, so the run can reach its horizon.
        stalled_at: Option<SimTime>,
    }

    /// Runs the policy and the reference side by side on every context the
    /// engine hands out, asserts they agree, and drives the engine with the
    /// policy's actions.
    struct Differential {
        policy: PriorityPreemptingScheduler,
        reference: PriorityPreemptingScheduler,
        stats: Rc<RefCell<DiffStats>>,
        now: SimTime,
        calls_at_now: u64,
    }

    type Hook<'h> = &'h dyn Fn(&mut PriorityPreemptingScheduler) -> Vec<SchedulerAction>;

    impl Differential {
        /// Answers one call with the policy's actions after checking them
        /// against the reference's, minus the reference's repeats.
        fn compare(
            &mut self,
            ctx: &SchedulerContext<'_>,
            reference: Hook<'_>,
            policy: Hook<'_>,
        ) -> Vec<SchedulerAction> {
            let mut stats = self.stats.borrow_mut();
            if stats.stalled_at.is_some() {
                return Vec::new();
            }
            if ctx.now == self.now {
                self.calls_at_now += 1;
                if self.calls_at_now > STALL_CALLS {
                    stats.stalled_at = Some(ctx.now);
                    return Vec::new();
                }
            } else {
                self.now = ctx.now;
                self.calls_at_now = 1;
            }
            let reference = reference(&mut self.reference);
            let actual = policy(&mut self.policy);
            let count = reference.len();
            let expected = first_occurrences(reference);
            assert_eq!(expected, actual, "diverged at {:?}", ctx.now);
            stats.calls += 1;
            stats.duplicates_removed += (count - expected.len()) as u64;
            for action in &actual {
                match action {
                    SchedulerAction::Suspend { .. } | SchedulerAction::Kill { .. } => {
                        stats.preemptions += 1
                    }
                    SchedulerAction::Resume { .. } => stats.resumes += 1,
                    _ => {}
                }
            }
            actual
        }
    }

    impl SchedulerPolicy for Differential {
        fn on_heartbeat(
            &mut self,
            ctx: &SchedulerContext<'_>,
            node: NodeId,
        ) -> Vec<SchedulerAction> {
            self.compare(ctx, &|s| reference_on_heartbeat(s, ctx, node), &|s| {
                s.on_heartbeat(ctx, node)
            })
        }

        fn on_job_submitted(
            &mut self,
            ctx: &SchedulerContext<'_>,
            job: JobId,
        ) -> Vec<SchedulerAction> {
            self.compare(ctx, &|s| reference_preemption_actions(s, ctx), &|s| {
                s.on_job_submitted(ctx, job)
            })
        }

        fn on_job_finished(
            &mut self,
            ctx: &SchedulerContext<'_>,
            job: JobId,
        ) -> Vec<SchedulerAction> {
            self.reference.on_job_finished(ctx, job);
            self.policy.on_job_finished(ctx, job)
        }
    }

    /// A small churning, speculating cluster under a SWIM trace with some
    /// reduces, driven by [`Differential`]. Jobs keep SWIM's production and
    /// best-effort priorities, or get four levels with `four_levels`.
    /// Returns what the run saw and whether every job completed.
    fn differential_run(
        primitive: PreemptionPrimitive,
        eviction: EvictionPolicy,
        four_levels: bool,
        seed: u64,
    ) -> (DiffStats, bool) {
        let faults = FaultPlan {
            events: Vec::new(),
            random: Some(RandomFaults {
                rack_mtbf_secs: 40.0,
                mean_recovery_secs: Some(30.0),
                horizon: SimTime::from_secs(400),
                seed: seed ^ 0xDEAD,
            }),
        };
        let cfg = ClusterConfig::racked_cluster(3, 4, 2, 1)
            .with_trace_level(TraceLevel::Off)
            .with_seed(seed)
            .with_faults(faults)
            .with_speculation(SpeculationConfig::enabled());
        let stats = Rc::new(RefCell::new(DiffStats::default()));
        let policy = Differential {
            policy: PriorityPreemptingScheduler::new(primitive, eviction),
            reference: PriorityPreemptingScheduler::new(primitive, eviction),
            stats: Rc::clone(&stats),
            now: SimTime::ZERO,
            calls_at_now: 0,
        };
        let mut cluster = Cluster::new(cfg, Box::new(policy));
        let swim = SwimConfig {
            jobs: 36,
            mean_interarrival_secs: 1.5,
            size_shape: 0.9,
            min_job_bytes: 256 * MIB,
            max_job_bytes: 4 * GIB,
            stateful_fraction: 0.2,
            slow_fraction: 0.15,
            slow_max_tasks: 6,
            reduce_ratio: 0.25,
            ..SwimConfig::default()
        };
        let trace = SwimGenerator::new(swim, seed).generate();
        let (jobs, files) = dfs_backed(&trace, "/diff");
        for (i, (path, bytes)) in files.iter().enumerate() {
            let writer = NodeId((i * 5 % 12) as u32);
            cluster
                .create_input_file_from(path, *bytes, Some(writer))
                .unwrap();
        }
        for (i, mut job) in jobs.into_iter().enumerate() {
            if four_levels {
                job.spec.priority = [0, 0, 1, 5, 10][i % 5];
            }
            cluster.submit_job_at(job.spec, job.arrival);
        }
        cluster.run(SimTime::from_secs(4 * 3_600));
        let complete = cluster.report().all_jobs_complete();
        drop(cluster);
        (Rc::try_unwrap(stats).unwrap().into_inner(), complete)
    }

    #[test]
    fn matches_the_whole_table_reference_on_every_call() {
        let (mut resumes, mut duplicates) = (0, 0);
        for primitive in [
            PreemptionPrimitive::SuspendResume,
            PreemptionPrimitive::Kill,
        ] {
            for (i, eviction) in EvictionPolicy::ALL.into_iter().enumerate() {
                for four_levels in [false, true] {
                    let (stats, complete) =
                        differential_run(primitive, eviction, four_levels, 0x5EED + i as u64);
                    let run = format!("{primitive:?}/{eviction:?}/{four_levels}: {stats:?}");
                    assert!(stats.calls > 1_000 && stats.preemptions > 0, "{run}");
                    // Two priorities never stall; four may (see STALL_CALLS).
                    assert!(
                        complete || (four_levels && stats.stalled_at.is_some()),
                        "{run}"
                    );
                    resumes += stats.resumes;
                    duplicates += stats.duplicates_removed;
                }
            }
        }
        assert!(resumes > 0, "the runs never resumed a task");
        assert!(duplicates > 0, "the runs never exercised duplicate victims");
    }

    /// A hand-built job whose map tasks are in `states`; running tasks sit
    /// on node 0 with progress rising by index.
    fn job(id: u32, priority: i32, states: &[TaskState]) -> JobRuntime {
        let job_id = JobId(id);
        let mut job = JobRuntime {
            id: job_id,
            spec: JobSpec::synthetic(format!("job{id}"), states.len() as u32, 100)
                .with_priority(priority),
            submitted_at: SimTime::from_secs(u64::from(id)),
            completed_at: None,
            tasks: states
                .iter()
                .enumerate()
                .map(|(i, &state)| {
                    let id = TaskId {
                        job: job_id,
                        kind: TaskKind::Map,
                        index: i as u32,
                    };
                    let mut t = TaskRuntime::new(id, 100, vec![]);
                    t.state = state;
                    if state == TaskState::Running {
                        t.node = Some(NodeId(0));
                        t.progress = (i as f64 + 1.0) / 10.0;
                    }
                    t
                })
                .collect(),
            schedulable_maps: 0,
            schedulable_reduces: 0,
            suspended_count: 0,
            occupying_count: 0,
            speculative_live: 0,
        };
        job.recount_task_states();
        job
    }

    fn table(jobs: Vec<JobRuntime>) -> JobTable {
        let mut table = JobTable::new();
        for job in jobs {
            table.insert(job.id, job);
        }
        table
    }

    /// Calls `f` with a one-node context over `jobs` with `free` map slots.
    fn with_ctx<R>(jobs: &JobTable, free: u32, f: impl FnOnce(&SchedulerContext<'_>) -> R) -> R {
        let nodes = [NodeView {
            id: NodeId(0),
            free_map_slots: free,
            free_reduce_slots: 0,
            running: vec![],
            suspended: vec![],
        }];
        let topology = Topology::single_rack(1);
        f(&SchedulerContext {
            now: SimTime::from_secs(100),
            jobs,
            nodes: &nodes,
            racks: &[],
            topology: &topology,
            totals: PendingTotals::from_jobs(jobs),
            speculation: SpeculationConfig::default(),
            delay: None,
            shuffle: None,
            reliability: None,
        })
    }

    fn scheduler(eviction: EvictionPolicy) -> PriorityPreemptingScheduler {
        PriorityPreemptingScheduler::new(PreemptionPrimitive::SuspendResume, eviction)
    }

    #[test]
    fn same_priority_waiting_jobs_suspend_each_victim_once() {
        use TaskState::{Pending, Running};
        let jobs = table(vec![
            job(1, 0, &[Running, Running, Running, Running]),
            job(2, 10, &[Pending, Pending]),
            job(3, 10, &[Pending, Pending]),
        ]);
        let mut policy = scheduler(EvictionPolicy::ClosestToCompletion);
        let mut reference = scheduler(EvictionPolicy::ClosestToCompletion);
        let (actions, old) = with_ctx(&jobs, 0, |ctx| {
            (
                policy.on_heartbeat(ctx, NodeId(0)),
                reference_on_heartbeat(&mut reference, ctx, NodeId(0)),
            )
        });
        let victim = |index| SchedulerAction::Suspend {
            task: TaskId {
                job: JobId(1),
                kind: TaskKind::Map,
                index,
            },
        };
        // Both waiting jobs want the two tasks closest to completion; the
        // second finds them taken and picks no replacements.
        assert_eq!(actions, vec![victim(3), victim(2)]);
        assert_eq!(old, vec![victim(3), victim(2), victim(3), victim(2)]);
    }

    #[test]
    fn scan_counters_pin_task_list_walks_and_rankings() {
        use TaskState::{Pending, Running};
        // Demand the free slots cover, and no demand at all, walk nothing.
        let covered = table(vec![
            job(1, 0, &[Running, Running]),
            job(2, 10, &[Pending, Pending]),
        ]);
        let mut policy = scheduler(EvictionPolicy::ClosestToCompletion);
        with_ctx(&covered, 2, |ctx| policy.on_heartbeat(ctx, NodeId(0)));
        let idle = table(vec![job(1, 0, &[Running, Running])]);
        with_ctx(&idle, 0, |ctx| policy.on_heartbeat(ctx, NodeId(0)));
        assert_eq!(policy.scan_counters(), ScanCounters::default());

        // Three waiting jobs at two distinct priorities, free slots 0.
        let jobs = table(vec![
            job(1, 0, &[Running; 6]),
            job(2, 5, &[Running, Pending, Pending]),
            job(3, 10, &[Pending, Pending]),
            job(4, 10, &[Pending, Pending]),
            job(5, 20, &[TaskState::Succeeded]),
        ]);
        for eviction in EvictionPolicy::ALL {
            let mut policy = scheduler(eviction);
            let actions = with_ctx(&jobs, 0, |ctx| policy.on_job_submitted(ctx, JobId(4)));
            // Jobs 2 and 3 want two victims each; job 4 shares job 3's.
            let mut victims: Vec<TaskId> = actions
                .iter()
                .map(|a| match a {
                    SchedulerAction::Suspend { task } => *task,
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            victims.sort();
            victims.dedup();
            assert!(
                (2..=4).contains(&victims.len()),
                "{eviction:?}: {actions:?}"
            );
            assert_eq!(victims.len(), actions.len(), "{eviction:?}: {actions:?}");
            let rankings = if eviction == EvictionPolicy::Random {
                3
            } else {
                2
            };
            // Priority 5 walks job 1; priority 10 walks jobs 1 and 2.
            assert_eq!(
                policy.scan_counters(),
                ScanCounters {
                    task_lists: 3,
                    rankings,
                },
                "{eviction:?}"
            );
        }
    }

    #[test]
    fn high_priority_job_preempts_best_effort_work() {
        let scheduler = PriorityPreemptingScheduler::new(
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::SmallestMemory,
        );
        let mut cluster = Cluster::new(ClusterConfig::paper_single_node(), Box::new(scheduler));
        cluster.submit_job(JobSpec::synthetic("best-effort", 1, 512 * MIB).with_priority(0));
        cluster.submit_job_at(
            JobSpec::synthetic("production", 1, 512 * MIB).with_priority(10),
            SimTime::from_secs(30),
        );
        cluster.run(SimTime::from_secs(8 * 3_600));
        let report = cluster.report();
        assert!(report.all_jobs_complete());
        let prod = report.sojourn_secs("production").unwrap();
        assert!(
            prod < 100.0,
            "the production job must not wait for best-effort work, got {prod}"
        );
        assert_eq!(
            report.job("best-effort").unwrap().tasks[0].suspend_cycles,
            1
        );
        assert_eq!(report.total_wasted_work_secs(), 0.0);
    }

    #[test]
    fn smallest_memory_eviction_pages_less_than_largest_memory() {
        let run = |policy| {
            let scheduler =
                PriorityPreemptingScheduler::new(PreemptionPrimitive::SuspendResume, policy);
            let mut cfg = ClusterConfig::paper_single_node();
            cfg.nodes[0].map_slots = 3;
            cfg.nodes[0].os.memory.total_ram = 8 * GIB;
            let mut cluster = Cluster::new(cfg, Box::new(scheduler));
            for (name, state) in [("small", 128 * MIB), ("medium", GIB), ("large", 3 * GIB)] {
                cluster.submit_job(
                    JobSpec::synthetic(name, 1, 512 * MIB)
                        .with_priority(0)
                        .with_profile(TaskProfile::memory_hungry(state)),
                );
            }
            cluster.submit_job_at(
                JobSpec::synthetic("hp", 1, 512 * MIB)
                    .with_priority(10)
                    .with_profile(TaskProfile::memory_hungry(2 * GIB)),
                SimTime::from_secs(40),
            );
            cluster.run(SimTime::from_secs(24 * 3_600));
            let r = cluster.report();
            assert!(r.all_jobs_complete());
            r.total_swap_out_bytes()
        };
        let small_first = run(EvictionPolicy::SmallestMemory);
        let large_first = run(EvictionPolicy::LargestMemory);
        assert!(
            small_first <= large_first,
            "evicting the small-footprint task should not page more ({small_first} vs {large_first})"
        );
    }
}
