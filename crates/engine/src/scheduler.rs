//! The scheduler plug-in interface and the default FIFO policy.
//!
//! The engine separates *mechanism* from *policy* exactly as the paper does:
//! the JobTracker implements the mechanics of launching, killing, suspending
//! and resuming tasks (including the heartbeat-piggybacked command protocol),
//! while a [`SchedulerPolicy`] decides *which* task runs or is preempted
//! *where* and *when*. The paper's dummy trigger-driven scheduler, the
//! preemptive FAIR scheduler and the HFSP-style size-based scheduler all live
//! in the `mrp-preempt` crate and implement this trait.

use crate::config::SpeculationConfig;
use crate::delay::DelayScoreboard;
use crate::fill::{fill_node, LocalityIndex};
use crate::job::{JobId, JobRuntime, JobSpec, JobTable, TaskId, TaskKind, TaskRuntime, TaskState};
use crate::plugin::JobOrder;
use crate::reliability::ReliabilityTracker;
use crate::shuffle::ShuffleTracker;
use mrp_dfs::{Locality, NodeId, RackId, Topology};
use mrp_sim::SimTime;
use serde::{Deserialize, Serialize};

/// A command a scheduler hands back to the JobTracker.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SchedulerAction {
    /// Submit a brand-new job (used by trigger-driven experiment schedulers).
    SubmitJob(JobSpec),
    /// Launch a schedulable task on a node with a free slot.
    Launch {
        /// The task to launch.
        task: TaskId,
        /// The node to launch it on.
        node: NodeId,
    },
    /// Launch a speculative (backup) attempt of a straggling task on a node
    /// with a free slot; the first attempt to finish wins and the engine
    /// kills the loser. Only valid for tasks currently running or suspended,
    /// on a node other than the original attempt's.
    LaunchSpeculative {
        /// The straggling task to back up.
        task: TaskId,
        /// The node to run the backup on.
        node: NodeId,
    },
    /// Ask the task's TaskTracker to suspend it (`SIGTSTP`) at its next
    /// heartbeat. This is the paper's new primitive.
    Suspend {
        /// The task to suspend.
        task: TaskId,
    },
    /// Ask the task's TaskTracker to resume it (`SIGCONT`) at its next
    /// heartbeat; requires a free slot on that node when the command arrives.
    Resume {
        /// The task to resume.
        task: TaskId,
    },
    /// Ask the task's TaskTracker to kill the current attempt; the task
    /// becomes schedulable again from scratch.
    Kill {
        /// The task to kill.
        task: TaskId,
    },
}

/// Snapshot of one node's slot occupancy, given to scheduler policies.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NodeView {
    /// The node.
    pub id: NodeId,
    /// Free map slots right now.
    pub free_map_slots: u32,
    /// Free reduce slots right now.
    pub free_reduce_slots: u32,
    /// Tasks currently occupying slots on this node.
    pub running: Vec<TaskId>,
    /// Tasks suspended on this node (they occupy memory but no slot).
    pub suspended: Vec<TaskId>,
}

impl NodeView {
    /// Free slots of the given kind.
    pub fn free_slots(&self, kind: TaskKind) -> u32 {
        match kind {
            TaskKind::Map => self.free_map_slots,
            TaskKind::Reduce => self.free_reduce_slots,
        }
    }
}

/// Aggregate slot occupancy of one rack, maintained incrementally by the
/// engine (per-rack counters updated only for nodes whose tracker state
/// changed). Policies use these to answer cluster-wide capacity questions in
/// O(racks) instead of O(nodes).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RackView {
    /// The rack.
    pub id: RackId,
    /// Number of nodes in the rack.
    pub nodes: u32,
    /// Free map slots across the rack right now.
    pub free_map_slots: u32,
    /// Free reduce slots across the rack right now.
    pub free_reduce_slots: u32,
}

/// Cluster-wide pending-work counters, maintained incrementally by the
/// engine on every task state transition. They let a scheduling round prove
/// "this node's free slots cannot be used by anything" in O(1) — the
/// overwhelmingly common case at 10k-node scale (e.g. a free reduce slot on
/// every node of a map-only workload must not trigger job scans).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PendingTotals {
    /// Schedulable map tasks across all jobs.
    pub schedulable_maps: u32,
    /// Schedulable reduce tasks across all jobs.
    pub schedulable_reduces: u32,
    /// Suspended tasks across all jobs.
    pub suspended: u32,
}

impl PendingTotals {
    /// Recomputes the totals from a job table (for hand-built harnesses and
    /// invariant checks; the engine maintains them incrementally).
    pub fn from_jobs(jobs: &JobTable) -> Self {
        let mut totals = PendingTotals::default();
        for job in jobs.values() {
            totals.schedulable_maps += job.schedulable_maps;
            totals.schedulable_reduces += job.schedulable_reduces;
            totals.suspended += job.suspended_count;
        }
        totals
    }
}

/// A placement question for [`SchedulerContext::placement_verdict`] — the
/// single decision surface behind the grown set of placement-veto helpers
/// (`reliability_avoid`, `prefer_reduce_elsewhere`, `delay_gated`), which
/// are now thin wrappers over it.
#[derive(Clone, Copy, Debug)]
pub enum PlacementQuery<'q> {
    /// Would a fresh `Launch`/`LaunchSpeculative` of a task of `kind` on
    /// `node` be steered away by the node-reliability predictor?
    FreshTask {
        /// The candidate node.
        node: NodeId,
        /// Map or reduce.
        kind: TaskKind,
    },
    /// Should a reduce of `job` decline a slot on `node` because the rack
    /// holding most of the job's map output is elsewhere and has capacity?
    ReducePlacement {
        /// The job whose reduce is being placed.
        job: JobId,
        /// The candidate node.
        node: NodeId,
    },
    /// Is `job` voluntarily declining slots under delay scheduling right
    /// now (so preempting victims on its behalf would be pure churn)?
    DelayGate {
        /// The job under consideration.
        job: &'q JobRuntime,
    },
}

/// The answer to a [`PlacementQuery`]: either the placement is fine, or the
/// specific veto that applies. Policies that only care whether to proceed
/// use [`PlacementVerdict::allows`]; the variant says *why* when they want
/// to record or trade off the reason.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlacementVerdict {
    /// No veto: place the work.
    Allow,
    /// The reliability predictor flags the node flaky and capacity exists
    /// elsewhere — steer fresh launches away.
    AvoidFlakyNode,
    /// The job's map-output bytes concentrate in a different rack with free
    /// reduce capacity — prefer launching the reduce there.
    PreferReduceElsewhere,
    /// The job is inside its delay-scheduling wait window — it would
    /// decline this slot anyway while waiting for locality.
    WaitForLocality,
}

impl PlacementVerdict {
    /// True when no veto applies.
    pub fn allows(self) -> bool {
        self == PlacementVerdict::Allow
    }
}

/// Read-only view of the cluster handed to scheduler policies.
pub struct SchedulerContext<'a> {
    /// Current virtual time.
    pub now: SimTime,
    /// All jobs the JobTracker knows about, keyed by id (insertion ordered).
    pub jobs: &'a JobTable,
    /// Per-node slot occupancy snapshots.
    pub nodes: &'a [NodeView],
    /// Per-rack aggregate slot counters (empty slices are fine for
    /// hand-built single-node harnesses; only cluster-wide capacity helpers
    /// read them).
    pub racks: &'a [RackView],
    /// The cluster topology, for rack-aware placement decisions.
    pub topology: &'a Topology,
    /// Cluster-wide pending-work counters (see [`PendingTotals`]).
    pub totals: PendingTotals,
    /// Speculative-execution knobs (from
    /// [`ClusterConfig::speculation`](crate::ClusterConfig)); policies use
    /// [`SchedulerContext::push_speculative_candidates`] and never need to
    /// read this directly.
    pub speculation: SpeculationConfig,
    /// The engine-owned delay-scheduling scoreboard (from
    /// [`ClusterConfig::delay`](crate::ClusterConfig)), if the cluster has
    /// one. Policies consult it through [`SchedulerContext::delay_allowed`],
    /// [`SchedulerContext::note_delay_skip`] and
    /// [`SchedulerContext::delay_gated`]; hand-built harness contexts pass
    /// `None` (delay scheduling off).
    pub delay: Option<&'a DelayScoreboard>,
    /// The engine-owned map-output registry (from
    /// [`ClusterConfig::shuffle`](crate::ClusterConfig)), if the cluster has
    /// one. Policies consult it through
    /// [`SchedulerContext::prefer_reduce_elsewhere`]; hand-built harness
    /// contexts pass `None` (topology-blind shuffle).
    pub shuffle: Option<&'a ShuffleTracker>,
    /// The engine-owned node-reliability predictor (from
    /// [`ClusterConfig::reliability`](crate::ClusterConfig)), if the cluster
    /// has one. Policies consult it through
    /// [`SchedulerContext::reliability_avoid`]; hand-built harness contexts
    /// pass `None` (failure-blind placement).
    pub reliability: Option<&'a ReliabilityTracker>,
}

impl<'a> SchedulerContext<'a> {
    /// The view of a specific node, if it exists.
    ///
    /// Cluster-built view slices are indexed by dense node id, so the lookup
    /// is O(1); the scan only remains as a fallback for hand-built slices in
    /// tests and custom harnesses.
    pub fn node(&self, id: NodeId) -> Option<&NodeView> {
        if let Some(view) = self.nodes.get(id.0 as usize) {
            if view.id == id {
                return Some(view);
            }
        }
        self.nodes.iter().find(|n| n.id == id)
    }

    /// Looks up a task across all jobs.
    pub fn task(&self, id: TaskId) -> Option<&crate::job::TaskRuntime> {
        self.jobs.get(&id.job).and_then(|j| j.task(id))
    }

    /// Free map slots across the whole cluster, from the maintained per-rack
    /// counters: O(racks), not O(nodes).
    pub fn free_map_slots_total(&self) -> u32 {
        self.racks.iter().map(|r| r.free_map_slots).sum()
    }

    /// Free reduce slots across the whole cluster (O(racks)).
    pub fn free_reduce_slots_total(&self) -> u32 {
        self.racks.iter().map(|r| r.free_reduce_slots).sum()
    }

    /// The view of a specific rack, if it exists. Cluster-built slices are
    /// dense by rack id (O(1)); the scan is a fallback for hand-built slices.
    pub fn rack(&self, id: RackId) -> Option<&RackView> {
        if let Some(view) = self.racks.get(id.0 as usize) {
            if view.id == id {
                return Some(view);
            }
        }
        self.racks.iter().find(|r| r.id == id)
    }

    /// True when the node-reliability predictor says fresh launches of `kind`
    /// should be steered off `node` right now: the predictor is on, the node's
    /// combined failure score is above the flaky threshold, **and** free slots
    /// of that kind exist elsewhere in the cluster. The capacity guard keeps
    /// the bias starvation-free — when a flaky node is the only capacity
    /// left, work still lands on it. Policies apply this to fresh `Launch`
    /// and `LaunchSpeculative` decisions only, never to resumes (a suspended
    /// task's memory already lives on its node).
    pub fn reliability_avoid(&self, node: NodeId, kind: TaskKind) -> bool {
        !self
            .placement_verdict(PlacementQuery::FreshTask { node, kind })
            .allows()
    }

    /// Answers a [`PlacementQuery`]: the one decision surface all placement
    /// vetoes go through, for the helpers `fill_node` calls and
    /// action-pipeline plugins alike. Returns [`PlacementVerdict::Allow`]
    /// when no veto applies.
    pub fn placement_verdict(&self, query: PlacementQuery<'_>) -> PlacementVerdict {
        match query {
            PlacementQuery::FreshTask { node, kind } => {
                let Some(r) = self.reliability else {
                    return PlacementVerdict::Allow;
                };
                if !r.enabled() {
                    return PlacementVerdict::Allow;
                }
                let Some(rack) = self.topology.rack_of(node) else {
                    return PlacementVerdict::Allow;
                };
                if !r.flaky(node, rack, self.now) {
                    return PlacementVerdict::Allow;
                }
                let free_here = self.node(node).map(|v| v.free_slots(kind)).unwrap_or(0);
                let total = match kind {
                    TaskKind::Map => self.free_map_slots_total(),
                    TaskKind::Reduce => self.free_reduce_slots_total(),
                };
                if total > free_here {
                    PlacementVerdict::AvoidFlakyNode
                } else {
                    PlacementVerdict::Allow
                }
            }
            PlacementQuery::ReducePlacement { job, node } => {
                let Some(s) = self.shuffle else {
                    return PlacementVerdict::Allow;
                };
                if !s.enabled() {
                    return PlacementVerdict::Allow;
                }
                let Some(pref) = s.preferred_rack(job) else {
                    return PlacementVerdict::Allow;
                };
                let Some(here) = self.topology.rack_of(node) else {
                    return PlacementVerdict::Allow;
                };
                if pref != here && self.rack(pref).is_some_and(|r| r.free_reduce_slots > 0) {
                    PlacementVerdict::PreferReduceElsewhere
                } else {
                    PlacementVerdict::Allow
                }
            }
            PlacementQuery::DelayGate { job } => {
                let Some(d) = self.delay else {
                    return PlacementVerdict::Allow;
                };
                if !d.enabled() || job.schedulable_maps == 0 {
                    return PlacementVerdict::Allow;
                }
                // Reduce work can launch anywhere, so a job with pending
                // reduces always has a legitimate claim on slots.
                if job.schedulable_reduces > 0 {
                    return PlacementVerdict::Allow;
                }
                // Tasks are laid out maps-first; a preference-less first map
                // means the whole job is synthetic and never
                // delay-restricted.
                if job
                    .tasks
                    .first()
                    .is_none_or(|t| t.preferred_nodes.is_empty())
                {
                    return PlacementVerdict::Allow;
                }
                if d.gated(job.id, self.now) {
                    PlacementVerdict::WaitForLocality
                } else {
                    PlacementVerdict::Allow
                }
            }
        }
    }

    /// True when a reduce of `job` should decline a slot on `node` because
    /// the rack holding the most of the job's map-output bytes is a different
    /// one **and** that rack has a free reduce slot right now (O(1) via the
    /// maintained rack counters — and the guard that makes the preference
    /// starvation-free: when the byte-heavy rack is full, the reduce launches
    /// wherever it can). Always false while fault-tolerant shuffle is off or
    /// the job has no committed map output yet.
    pub fn prefer_reduce_elsewhere(&self, job: JobId, node: NodeId) -> bool {
        !self
            .placement_verdict(PlacementQuery::ReducePlacement { job, node })
            .allows()
    }

    /// Input locality a launch of `task` on `node` would get: the best
    /// locality over the task's preferred (replica-holding) nodes. Tasks with
    /// no placement preference (synthetic input) count as node-local, since
    /// every node is equally good. O(replicas) via the topology's dense rack
    /// index.
    pub fn task_locality(&self, task: &TaskRuntime, node: NodeId) -> Locality {
        if task.preferred_nodes.is_empty() {
            return Locality::NodeLocal;
        }
        task.preferred_nodes
            .iter()
            .map(|holder| self.topology.locality(node, *holder))
            .min()
            .unwrap_or(Locality::OffRack)
    }

    /// True when there is at least one incomplete job.
    pub fn has_incomplete_jobs(&self) -> bool {
        self.jobs.values().any(|j| !j.is_finished())
    }

    /// True when delay scheduling is active for this cluster. Policies use
    /// this to keep every delay branch off the hot path when the feature is
    /// off.
    pub fn delay_enabled(&self) -> bool {
        self.delay.is_some_and(|d| d.enabled())
    }

    /// The loosest locality level `job` may launch map tasks at right now
    /// under delay scheduling: `NodeLocal` means node-local only,
    /// `RackLocal` adds same-rack nodes, `OffRack` means anything goes (and
    /// is always the answer when delay scheduling is off). Tasks with no
    /// placement preference (synthetic input) and reduce tasks are never
    /// restricted — the level only gates map tasks that actually have
    /// preferred replica holders.
    pub fn delay_allowed(&self, job: JobId) -> Locality {
        match self.delay {
            Some(d) => d.allowed(job, self.now),
            None => Locality::OffRack,
        }
    }

    /// Records that `job` declined a launch opportunity (a free slot of a
    /// kind it has pending work for, on a node below its allowed locality
    /// level): starts/continues the job's wait clock so its allowed level
    /// escalates, and counts the skip in
    /// [`LocalityStats::delayed_skips`](crate::LocalityStats).
    pub fn note_delay_skip(&self, job: JobId) {
        if let Some(d) = self.delay {
            d.note_skip(job, self.now);
        }
    }

    /// True while `job` is voluntarily declining slots under delay
    /// scheduling: its wait clock is running, it has not yet escalated to
    /// off-rack, and everything it could schedule is locality-restricted.
    /// FAIR uses this to keep waiting jobs out of its starvation deficit —
    /// preempting victims to free slots the job would decline again is pure
    /// churn. A job that was never offered a slot (clock not running) is
    /// *not* gated: it may be genuinely starved.
    pub fn delay_gated(&self, job: &JobRuntime) -> bool {
        !self
            .placement_verdict(PlacementQuery::DelayGate { job })
            .allows()
    }

    /// Appends up to `max` speculative-launch candidates from `job` for a
    /// backup on `node`, using the job's mean progress rate as the straggler
    /// baseline (Hadoop-style, but rate-based so tasks frozen in `Suspended`
    /// decay into candidacy — the re-execution opportunity preemption churn
    /// and node loss create).
    ///
    /// Policies call this only for tail-phase jobs (nothing schedulable
    /// left) with free slots remaining after regular assignment, so the
    /// O(job tasks) scan stays off the saturated hot path.
    pub fn push_speculative_candidates(
        &self,
        job: &JobRuntime,
        node: NodeId,
        max: usize,
        out: &mut Vec<TaskId>,
    ) {
        let cfg = self.speculation;
        if !cfg.enabled
            || max == 0
            || job.speculative_live >= cfg.max_live_per_job
            || job.schedulable_maps > 0
        {
            return;
        }
        let min_runtime = cfg.min_runtime.as_secs_f64();
        // Pass 1: the job's mean progress rate. Completed tasks anchor the
        // baseline (their rate is 1/duration), so a job whose remaining
        // attempts are *all* degraded — e.g. every one frozen in `Suspended`
        // — still recognises them as stragglers once siblings have finished.
        let mut rate_sum = 0.0f64;
        let mut count = 0u32;
        let eligible = |t: &TaskRuntime| {
            t.id.kind == TaskKind::Map
                && matches!(
                    t.state,
                    TaskState::Running
                        | TaskState::Suspended
                        | TaskState::MustSuspend
                        | TaskState::MustResume
                )
        };
        for t in &job.tasks {
            if t.id.kind != TaskKind::Map {
                continue;
            }
            let Some(started) = t.first_launched_at else {
                continue;
            };
            if t.state == TaskState::Succeeded {
                if let Some(done) = t.finished_at {
                    let duration = (done - started).as_secs_f64();
                    if duration > 0.0 {
                        rate_sum += 1.0 / duration;
                        count += 1;
                    }
                }
                continue;
            }
            if !eligible(t) {
                continue;
            }
            let elapsed = (self.now - started).as_secs_f64();
            if elapsed < min_runtime {
                continue;
            }
            rate_sum += t.progress / elapsed;
            count += 1;
        }
        if count < 2 {
            return; // no population to call anything a straggler against
        }
        let threshold = cfg.slowness_ratio * (rate_sum / f64::from(count));
        // Pass 2: tasks whose rate fell below the threshold and that can
        // take a backup on this node. Only `Suspended` stragglers qualify: a
        // running straggler (e.g. a task restarted after a node failure)
        // executes at full speed, so a from-scratch backup loses the race by
        // construction and only wastes a slot, and a `MustResume` task's
        // resume is already riding the next heartbeat — whereas a task
        // frozen in `Suspended` makes no progress at all until its node
        // frees a slot, which is exactly when a backup elsewhere wins. (The
        // engine accepts `LaunchSpeculative` for `MustResume` too, for
        // policies with their own detectors.)
        let budget = max.min((cfg.max_live_per_job - job.speculative_live) as usize);
        let mut pushed = 0usize;
        for t in &job.tasks {
            if pushed >= budget {
                break;
            }
            if t.state != TaskState::Suspended
                || t.id.kind != TaskKind::Map
                || t.spec_attempt.is_some()
                || t.node == Some(node)
            {
                continue;
            }
            let Some(started) = t.first_launched_at else {
                continue;
            };
            let elapsed = (self.now - started).as_secs_f64();
            if elapsed < min_runtime || t.progress >= 1.0 {
                continue;
            }
            if t.progress / elapsed < threshold {
                out.push(t.id);
                pushed += 1;
            }
        }
    }
}

/// A pluggable scheduling policy driven by JobTracker events.
///
/// Every hook returns the actions the policy wants to perform; the engine
/// validates them (slot availability, task states) and runs the preemption
/// protocol for the ones that need TaskTracker cooperation.
pub trait SchedulerPolicy {
    /// Called when `node` heartbeats and is willing to accept work.
    fn on_heartbeat(&mut self, ctx: &SchedulerContext<'_>, node: NodeId) -> Vec<SchedulerAction>;

    /// Called right after a job is submitted.
    fn on_job_submitted(
        &mut self,
        _ctx: &SchedulerContext<'_>,
        _job: JobId,
    ) -> Vec<SchedulerAction> {
        Vec::new()
    }

    /// Called when a task reaches a terminal state (succeeded).
    fn on_task_finished(
        &mut self,
        _ctx: &SchedulerContext<'_>,
        _task: TaskId,
    ) -> Vec<SchedulerAction> {
        Vec::new()
    }

    /// Called when a job completes (all its tasks succeeded).
    fn on_job_finished(
        &mut self,
        _ctx: &SchedulerContext<'_>,
        _job: JobId,
    ) -> Vec<SchedulerAction> {
        Vec::new()
    }

    /// Called when a progress trigger registered with
    /// [`crate::cluster::Cluster::add_progress_trigger`] fires.
    fn on_progress_trigger(
        &mut self,
        _ctx: &SchedulerContext<'_>,
        _task: TaskId,
        _fraction: f64,
    ) -> Vec<SchedulerAction> {
        Vec::new()
    }

    /// Human-readable policy name (for reports and traces).
    fn name(&self) -> &str {
        "scheduler"
    }
}

/// Priority FIFO's job order: jobs with schedulable or suspended tasks, by
/// (priority desc, submission, id) — [`JobRuntime::cmp_service_order`].
/// Jobs with no such task are dropped on their engine-maintained counters
/// before the sort, so a finished or fully launched job costs one counter
/// read.
#[derive(Debug, Default, Clone, Copy)]
pub struct FifoJobOrder;

impl JobOrder for FifoJobOrder {
    fn refresh(
        &mut self,
        ctx: &SchedulerContext<'_>,
        _node: NodeId,
        order: &mut Vec<JobId>,
    ) -> bool {
        order.clear();
        order.extend(
            ctx.jobs
                .values()
                .filter(|j| j.schedulable_count() > 0 || j.suspended_count > 0)
                .map(|j| j.id),
        );
        order.sort_unstable_by(|a, b| ctx.jobs[a].cmp_service_order(&ctx.jobs[b]));
        true
    }
}

/// The default policy: priority-aware FIFO without preemption.
///
/// On every heartbeat it fills the node's free slots through [`fill_node`]
/// under the [`FifoJobOrder`]: each job in (priority, submission) order
/// resumes its tasks suspended on the node (so that externally requested
/// suspensions — e.g. from the command-line API — eventually finish), then
/// launches its pending tasks node-local first.
#[derive(Default)]
pub struct FifoScheduler {
    order: Vec<JobId>,
    locality: LocalityIndex,
}

impl FifoScheduler {
    /// Creates the default FIFO policy that also resumes suspended tasks.
    pub fn new() -> Self {
        FifoScheduler::default()
    }

    /// A FIFO launcher that never resumes suspended tasks on its own (used
    /// by wrappers that control resumption themselves).
    pub fn non_resuming() -> Self {
        FifoScheduler {
            order: Vec::new(),
            locality: LocalityIndex::non_resuming(),
        }
    }
}

impl SchedulerPolicy for FifoScheduler {
    fn on_heartbeat(&mut self, ctx: &SchedulerContext<'_>, node: NodeId) -> Vec<SchedulerAction> {
        // The O(1) no-usable-slot exit comes before the job sort: at scale
        // most heartbeats take it.
        if !self.locality.can_fill(ctx, node) {
            return Vec::new();
        }
        FifoJobOrder.refresh(ctx, node, &mut self.order);
        fill_node(ctx, node, &self.order, &mut self.locality)
    }

    fn on_job_finished(&mut self, _ctx: &SchedulerContext<'_>, job: JobId) -> Vec<SchedulerAction> {
        self.locality.forget(job);
        Vec::new()
    }

    fn name(&self) -> &str {
        "fifo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, TaskRuntime};

    fn make_job(id: u32, priority: i32, submitted: u64, tasks: usize) -> JobRuntime {
        let spec =
            JobSpec::synthetic(format!("job{id}"), tasks as u32, 100).with_priority(priority);
        let job_id = JobId(id);
        let mut job = JobRuntime {
            id: job_id,
            spec,
            submitted_at: SimTime::from_secs(submitted),
            completed_at: None,
            tasks: (0..tasks)
                .map(|i| {
                    TaskRuntime::new(
                        TaskId {
                            job: job_id,
                            kind: TaskKind::Map,
                            index: i as u32,
                        },
                        100,
                        vec![],
                    )
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

    fn view(id: u32, free_map: u32) -> NodeView {
        NodeView {
            id: NodeId(id),
            free_map_slots: free_map,
            free_reduce_slots: 0,
            running: vec![],
            suspended: vec![],
        }
    }

    #[test]
    fn fifo_job_order_is_priority_then_submission() {
        let mut jobs = JobTable::new();
        jobs.insert(JobId(1), make_job(1, 0, 0, 1));
        jobs.insert(JobId(2), make_job(2, 5, 10, 1));
        jobs.insert(JobId(3), make_job(3, 0, 5, 1));
        let nodes = [view(0, 1)];
        let topo = Topology::single_rack(10);
        let ctx = SchedulerContext {
            now: SimTime::from_secs(20),
            jobs: &jobs,
            nodes: &nodes,
            racks: &[],
            topology: &topo,
            totals: PendingTotals::from_jobs(&jobs),
            speculation: SpeculationConfig::default(),
            delay: None,
            shuffle: None,
            reliability: None,
        };
        let order_of = |ctx: &SchedulerContext<'_>| {
            let mut order = Vec::new();
            assert!(FifoJobOrder.refresh(ctx, NodeId(0), &mut order));
            order.into_iter().map(|j| j.0).collect::<Vec<_>>()
        };
        // Highest priority first, then FIFO by submission.
        assert_eq!(order_of(&ctx), vec![2, 1, 3]);

        // Interleave finished, exhausted and suspended-only jobs of mixed
        // priority: only jobs whose counters show schedulable or suspended
        // work are ordered, by (priority desc, submission, id).
        let with_states = |id: u32, priority: i32, submitted: u64, states: &[TaskState]| {
            let mut job = make_job(id, priority, submitted, states.len());
            for (t, &state) in job.tasks.iter_mut().zip(states) {
                t.state = state;
            }
            job.recount_task_states();
            job
        };
        use TaskState::{Killed, Pending, Running, Succeeded, Suspended};
        let mut jobs = JobTable::new();
        jobs.insert(
            JobId(1),
            with_states(1, 0, 0, &[Pending, Suspended, Killed]),
        );
        let mut finished = with_states(2, 5, 10, &[Succeeded, Succeeded]);
        finished.completed_at = Some(SimTime::from_secs(15));
        jobs.insert(JobId(2), finished);
        jobs.insert(JobId(3), with_states(3, 5, 10, &[Suspended, Pending]));
        jobs.insert(JobId(4), with_states(4, 0, 5, &[Running, Succeeded]));
        jobs.insert(JobId(5), with_states(5, -1, 1, &[Suspended, Suspended]));
        jobs.insert(JobId(6), with_states(6, 5, 3, &[Running, Killed]));
        jobs.insert(JobId(7), with_states(7, 0, 5, &[Running, Pending]));
        jobs.insert(JobId(8), with_states(8, 0, 5, &[Suspended]));
        let ctx = SchedulerContext {
            jobs: &jobs,
            totals: PendingTotals::from_jobs(&jobs),
            ..ctx
        };
        assert_eq!(order_of(&ctx), vec![6, 3, 1, 7, 8, 5]);
    }

    #[test]
    fn fifo_serves_priority_before_locality() {
        // One free map slot on node 0 of a two-rack cluster. The
        // higher-priority job's only map is off-rack (replica on node 5);
        // the lower-priority job's map is node-local. The higher-priority
        // job takes the slot.
        let mut jobs = JobTable::new();
        let mut low = make_job(1, 0, 0, 1);
        low.tasks[0].preferred_nodes = vec![NodeId(0)];
        jobs.insert(JobId(1), low);
        let mut high = make_job(2, 10, 5, 1);
        high.tasks[0].preferred_nodes = vec![NodeId(5)];
        jobs.insert(JobId(2), high);
        let nodes = [view(0, 1)];
        let topo = Topology::blocked(10, 2);
        let ctx = SchedulerContext {
            now: SimTime::from_secs(10),
            jobs: &jobs,
            nodes: &nodes,
            racks: &[],
            topology: &topo,
            totals: PendingTotals::from_jobs(&jobs),
            speculation: SpeculationConfig::default(),
            delay: None,
            shuffle: None,
            reliability: None,
        };
        let actions = FifoScheduler::new().on_heartbeat(&ctx, NodeId(0));
        assert_eq!(
            actions,
            vec![SchedulerAction::Launch {
                task: TaskId {
                    job: JobId(2),
                    kind: TaskKind::Map,
                    index: 0,
                },
                node: NodeId(0),
            }]
        );
    }

    #[test]
    fn fifo_fills_free_slots_only() {
        let mut jobs = JobTable::new();
        jobs.insert(JobId(1), make_job(1, 0, 0, 3));
        let nodes = [view(0, 2)];
        let topo = Topology::single_rack(10);
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            jobs: &jobs,
            nodes: &nodes,
            racks: &[],
            topology: &topo,
            totals: PendingTotals::from_jobs(&jobs),
            speculation: SpeculationConfig::default(),
            delay: None,
            shuffle: None,
            reliability: None,
        };
        let mut fifo = FifoScheduler::new();
        let actions = fifo.on_heartbeat(&ctx, NodeId(0));
        let launches = actions
            .iter()
            .filter(|a| matches!(a, SchedulerAction::Launch { .. }))
            .count();
        assert_eq!(launches, 2, "only as many launches as free slots");
    }

    #[test]
    fn fifo_prefers_data_local_tasks() {
        let mut jobs = JobTable::new();
        let mut job = make_job(1, 0, 0, 2);
        job.tasks[0].preferred_nodes = vec![NodeId(5)];
        job.tasks[1].preferred_nodes = vec![NodeId(0)];
        jobs.insert(JobId(1), job);
        let nodes = [view(0, 1)];
        let topo = Topology::single_rack(10);
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            jobs: &jobs,
            nodes: &nodes,
            racks: &[],
            topology: &topo,
            totals: PendingTotals::from_jobs(&jobs),
            speculation: SpeculationConfig::default(),
            delay: None,
            shuffle: None,
            reliability: None,
        };
        let mut fifo = FifoScheduler::new();
        let actions = fifo.on_heartbeat(&ctx, NodeId(0));
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            SchedulerAction::Launch { task, node } => {
                assert_eq!(task.index, 1, "the node-local task should win the slot");
                assert_eq!(*node, NodeId(0));
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn fifo_resumes_suspended_tasks_on_their_node() {
        let mut jobs = JobTable::new();
        let mut job = make_job(1, 0, 0, 1);
        job.tasks[0].state = TaskState::Pending;
        job.tasks[0].set_state(TaskState::Running);
        job.tasks[0].set_state(TaskState::MustSuspend);
        job.tasks[0].set_state(TaskState::Suspended);
        job.tasks[0].node = Some(NodeId(0));
        job.recount_task_states();
        jobs.insert(JobId(1), job);
        let mut v = view(0, 1);
        v.suspended = vec![TaskId {
            job: JobId(1),
            kind: TaskKind::Map,
            index: 0,
        }];
        let nodes = [v];
        let topo = Topology::single_rack(10);
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            jobs: &jobs,
            nodes: &nodes,
            racks: &[],
            topology: &topo,
            totals: PendingTotals::from_jobs(&jobs),
            speculation: SpeculationConfig::default(),
            delay: None,
            shuffle: None,
            reliability: None,
        };
        let mut fifo = FifoScheduler::new();
        let actions = fifo.on_heartbeat(&ctx, NodeId(0));
        assert!(matches!(actions[0], SchedulerAction::Resume { .. }));

        // On a different node nothing happens.
        let actions = fifo.on_heartbeat(&ctx, NodeId(9));
        assert!(actions.is_empty());
    }

    #[test]
    fn fifo_delay_declines_remote_tiers_until_escalation() {
        use crate::config::DelayConfig;
        use mrp_sim::SimDuration;
        let sb = DelayScoreboard::new(DelayConfig::waits(
            SimDuration::from_secs(3),
            SimDuration::from_secs(3),
        ));
        sb.register_job();
        let mut jobs = JobTable::new();
        let mut job = make_job(1, 0, 0, 1);
        // The only replica holder is node 5, which lives in the other rack
        // of a 2-rack topology: a launch on node 0 would be off-rack.
        job.tasks[0].preferred_nodes = vec![NodeId(5)];
        jobs.insert(JobId(1), job);
        let nodes = [view(0, 1)];
        let topo = Topology::blocked(10, 2);
        let ctx_at = |now: SimTime| SchedulerContext {
            now,
            jobs: &jobs,
            nodes: &nodes,
            racks: &[],
            topology: &topo,
            totals: PendingTotals::from_jobs(&jobs),
            speculation: SpeculationConfig::default(),
            delay: Some(&sb),
            shuffle: None,
            reliability: None,
        };
        let mut fifo = FifoScheduler::new();
        // Node-local-only phase: the off-rack launch is declined and the
        // wait clock starts.
        assert!(fifo
            .on_heartbeat(&ctx_at(SimTime::ZERO), NodeId(0))
            .is_empty());
        assert!(sb.job_waiting(JobId(1)));
        assert_eq!(sb.job_skips(JobId(1)), 1);
        // Rack-local phase: node 0 is still in the wrong rack — declined.
        assert!(fifo
            .on_heartbeat(&ctx_at(SimTime::from_secs(4)), NodeId(0))
            .is_empty());
        // Fully escalated: anything goes.
        let actions = fifo.on_heartbeat(&ctx_at(SimTime::from_secs(6)), NodeId(0));
        assert_eq!(actions.len(), 1);
        assert!(matches!(actions[0], SchedulerAction::Launch { .. }));
    }

    #[test]
    fn reliability_avoid_steers_fresh_launches_while_capacity_exists() {
        use crate::config::ReliabilityConfig;
        let mut tracker = ReliabilityTracker::new(ReliabilityConfig::predictive(), 10, 2);
        // Node 1 just crashed and rejoined: flaky.
        tracker.record_failure(NodeId(1), RackId(0), SimTime::from_secs(100));
        let mut jobs = JobTable::new();
        jobs.insert(JobId(1), make_job(1, 0, 0, 2));
        let nodes = [view(0, 1), view(1, 1)];
        let racks = [
            RackView {
                id: RackId(0),
                nodes: 5,
                free_map_slots: 2,
                free_reduce_slots: 0,
            },
            RackView {
                id: RackId(1),
                nodes: 5,
                free_map_slots: 0,
                free_reduce_slots: 0,
            },
        ];
        let topo = Topology::blocked(10, 2);
        let ctx = SchedulerContext {
            now: SimTime::from_secs(100),
            jobs: &jobs,
            nodes: &nodes,
            racks: &racks,
            topology: &topo,
            totals: PendingTotals::from_jobs(&jobs),
            speculation: SpeculationConfig::default(),
            delay: None,
            shuffle: None,
            reliability: Some(&tracker),
        };
        assert!(ctx.reliability_avoid(NodeId(1), TaskKind::Map));
        assert!(
            !ctx.reliability_avoid(NodeId(0), TaskKind::Map),
            "healthy node"
        );
        // The FIFO policy keeps fresh launches off the flaky node...
        let mut fifo = FifoScheduler::new();
        assert!(fifo.on_heartbeat(&ctx, NodeId(1)).is_empty());
        // ...but still fills the healthy one.
        assert!(!fifo.on_heartbeat(&ctx, NodeId(0)).is_empty());
        // Starvation guard: when the flaky node holds the only free capacity,
        // work lands on it anyway.
        let only_here = [RackView {
            id: RackId(0),
            nodes: 5,
            free_map_slots: 1,
            free_reduce_slots: 0,
        }];
        let ctx2 = SchedulerContext {
            racks: &only_here,
            nodes: &nodes[1..],
            ..ctx
        };
        assert!(!ctx2.reliability_avoid(NodeId(1), TaskKind::Map));
        assert!(!fifo.on_heartbeat(&ctx2, NodeId(1)).is_empty());
    }

    #[test]
    fn reduces_prefer_the_rack_holding_map_output_bytes() {
        use crate::config::ShuffleConfig;
        let mut shuffle = ShuffleTracker::new(ShuffleConfig::fault_tolerant(), 2);
        shuffle.register_job(1, 1);
        // All map output lives on rack 1 (node 5 in the blocked topology).
        shuffle.record_map_output(JobId(1), 0, NodeId(5), RackId(1), 100);
        let mut jobs = JobTable::new();
        let spec = JobSpec::synthetic("red", 0, 100).with_reduces(1);
        let job_id = JobId(1);
        let mut job = JobRuntime {
            id: job_id,
            spec,
            submitted_at: SimTime::ZERO,
            completed_at: None,
            tasks: vec![TaskRuntime::new(
                TaskId {
                    job: job_id,
                    kind: TaskKind::Reduce,
                    index: 0,
                },
                100,
                vec![],
            )],
            schedulable_maps: 0,
            schedulable_reduces: 0,
            suspended_count: 0,
            occupying_count: 0,
            speculative_live: 0,
        };
        job.recount_task_states();
        jobs.insert(job_id, job);
        let mut v0 = view(0, 0);
        v0.free_reduce_slots = 1;
        let mut v5 = NodeView {
            id: NodeId(5),
            free_map_slots: 0,
            free_reduce_slots: 1,
            running: vec![],
            suspended: vec![],
        };
        let racks_with_capacity = [
            RackView {
                id: RackId(0),
                nodes: 5,
                free_map_slots: 0,
                free_reduce_slots: 1,
            },
            RackView {
                id: RackId(1),
                nodes: 5,
                free_map_slots: 0,
                free_reduce_slots: 1,
            },
        ];
        let topo = Topology::blocked(10, 2);
        let nodes = [v0.clone()];
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            jobs: &jobs,
            nodes: &nodes,
            racks: &racks_with_capacity,
            topology: &topo,
            totals: PendingTotals::from_jobs(&jobs),
            speculation: SpeculationConfig::default(),
            delay: None,
            shuffle: Some(&shuffle),
            reliability: None,
        };
        // Rack 0 offer is declined: the bytes (and a free slot) are on rack 1.
        assert!(ctx.prefer_reduce_elsewhere(JobId(1), NodeId(0)));
        let mut fifo = FifoScheduler::new();
        assert!(fifo.on_heartbeat(&ctx, NodeId(0)).is_empty());
        // On the byte-holding rack the reduce launches.
        assert!(!ctx.prefer_reduce_elsewhere(JobId(1), NodeId(5)));
        v5.free_reduce_slots = 1;
        let nodes5 = [v0.clone(), v5];
        let ctx5 = SchedulerContext {
            nodes: &nodes5,
            ..ctx
        };
        assert_eq!(fifo.on_heartbeat(&ctx5, NodeId(5)).len(), 1);
        // Once rack 1 is full, rack 0 stops declining (starvation guard).
        let full = [
            racks_with_capacity[0].clone(),
            RackView {
                id: RackId(1),
                nodes: 5,
                free_map_slots: 0,
                free_reduce_slots: 0,
            },
        ];
        let ctx_full = SchedulerContext {
            racks: &full,
            ..ctx5
        };
        assert!(!ctx_full.prefer_reduce_elsewhere(JobId(1), NodeId(0)));
    }

    #[test]
    fn context_helpers() {
        let mut jobs = JobTable::new();
        jobs.insert(JobId(1), make_job(1, 0, 0, 1));
        let nodes = [view(0, 1)];
        let topo = Topology::single_rack(10);
        let ctx = SchedulerContext {
            now: SimTime::ZERO,
            jobs: &jobs,
            nodes: &nodes,
            racks: &[],
            topology: &topo,
            totals: PendingTotals::from_jobs(&jobs),
            speculation: SpeculationConfig::default(),
            delay: None,
            shuffle: None,
            reliability: None,
        };
        assert!(ctx.node(NodeId(0)).is_some());
        assert!(ctx.node(NodeId(4)).is_none());
        assert!(ctx.has_incomplete_jobs());
        let tid = TaskId {
            job: JobId(1),
            kind: TaskKind::Map,
            index: 0,
        };
        assert!(ctx.task(tid).is_some());
        assert_eq!(ctx.nodes[0].free_slots(TaskKind::Map), 1);
        assert_eq!(ctx.nodes[0].free_slots(TaskKind::Reduce), 0);
    }
}
