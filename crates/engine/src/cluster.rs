//! The simulated cluster: JobTracker, TaskTrackers, heartbeat protocol, and
//! the discrete-event loop.
//!
//! The [`Cluster`] plays the role of the JobTracker plus the glue that, in a
//! real deployment, is the network between the JobTracker and its
//! TaskTrackers. Commands issued by the scheduler (launch, kill, and the
//! paper's suspend/resume) are not applied instantaneously: they put the task
//! in a `MUST_*` state and are delivered when the involved TaskTracker next
//! heartbeats, exactly as Section III-B describes. TaskTrackers heartbeat
//! every `heartbeat_interval` and — as recommended for low-latency Hadoop
//! deployments — send an out-of-band heartbeat whenever a task completes, is
//! suspended, or is killed.
//!
//! # Hot-path design
//!
//! The event loop is the inner loop of every experiment, so its per-event
//! work is kept index-based and allocation-lean:
//!
//! * TaskTrackers live in a `Vec` indexed by node id (node ids are dense by
//!   construction), not a tree;
//! * per-node [`NodeView`] snapshots for scheduler policies are reusable
//!   buffers refreshed only for trackers whose occupancy changed since the
//!   last refresh (dirty tracking), instead of being rebuilt from scratch on
//!   every scheduler invocation;
//! * pending `MUST_*` commands are indexed per node, so a heartbeat delivers
//!   its commands in O(commands) instead of scanning every task of every job;
//! * "all jobs complete" is an incrementally maintained counter, not an
//!   O(jobs) scan per event;
//! * execution plans are built from borrowed config/profile state — no
//!   per-launch clones of profiles, disk configs or preferred-node lists;
//! * trace recording (and its string formatting) is gated behind
//!   [`TraceLevel`](crate::config::TraceLevel) so throughput runs pay nothing
//!   for it.

use crate::attempt::{AttemptPhase, AttemptState, ExecPlan};
use crate::config::{ClusterConfig, FaultEvent, FaultKind, RefreshMode, TraceLevel};
use crate::delay::DelayScoreboard;
use crate::job::{
    AttemptId, JobId, JobRuntime, JobSpec, JobTable, MapInput, TaskId, TaskKind, TaskRuntime,
    TaskState,
};
use crate::metrics::{
    ClusterReport, FaultStats, JobReport, LocalityStats, NodeReport, TraceEntry, TraceKind,
};
use crate::obs::{ObsState, SpanKey};
use crate::reliability::ReliabilityTracker;
use crate::scheduler::{
    NodeView, PendingTotals, RackView, SchedulerAction, SchedulerContext, SchedulerPolicy,
};
use crate::shuffle::ShuffleTracker;
use crate::tasktracker::{FailedAttempt, TaskTracker, TerminationOutcome};
use mrp_dfs::{Locality, NameNode, NodeId, RackId, Topology};
use mrp_sim::{EventId, EventQueue, SimDuration, SimRng, SimTime};

/// Events driving the cluster simulation.
#[derive(Clone, Debug)]
enum Event {
    /// A pre-registered job arrives.
    JobArrival { index: usize },
    /// An out-of-band TaskTracker heartbeat (periodic heartbeats come from
    /// the [`HeartbeatWheel`], not the event queue).
    Heartbeat { node: NodeId },
    /// The current phase segment of an attempt finished.
    PhaseDone {
        node: NodeId,
        attempt: AttemptId,
        phase: AttemptPhase,
    },
    /// The cleanup attempt of a killed task released its slot. `epoch` is
    /// the node's failure epoch at scheduling time: if the node failed in
    /// between, `fail` already freed every slot and the stale release is
    /// discarded.
    CleanupDone {
        node: NodeId,
        kind: TaskKind,
        epoch: u64,
    },
    /// A registered progress trigger fired.
    ProgressTrigger { index: usize },
    /// A fault-plan event (node kill/decommission/rejoin, rack outage)
    /// strikes; `index` points into the cluster's resolved fault schedule.
    Fault { index: usize },
    /// A failure-detector timer: `confirm == false` is the missed-heartbeat
    /// suspicion check, `confirm == true` the post-grace confirmation.
    /// `epoch` is the node's suspicion epoch at arming time; a timer armed
    /// before the link state last changed is discarded.
    Detector {
        node: NodeId,
        epoch: u64,
        confirm: bool,
    },
}

/// Master-side view of the link to one node under the failure detector.
#[derive(Clone, Copy, Debug, PartialEq)]
enum LinkState {
    /// Heartbeats flowing normally.
    Up,
    /// The node is dead but the master has not noticed yet: no heartbeats
    /// arrive and no node-side events fire. `since` is when the fault struck.
    Silent { since: SimTime },
    /// The node is alive but cut off from the master: it keeps executing,
    /// yet the master hears nothing from it. `since` is when the partition
    /// struck.
    Partitioned { since: SimTime },
}

#[derive(Clone, Debug)]
enum TriggerState {
    Waiting,
    Armed { event: EventId, task: TaskId },
    Fired,
}

/// A progress watch: fires when the named task first reaches the given
/// fraction of its work phase. Used by trigger-driven experiment schedulers
/// to reproduce the paper's "preempt tl at r% progress" scenarios exactly.
#[derive(Clone, Debug)]
struct ProgressTrigger {
    job_name: String,
    task_index: u32,
    fraction: f64,
    state: TriggerState,
}

/// Per-rack shard of the cluster's heartbeat bookkeeping: the rack's member
/// nodes and a dirty list of members whose tracker state changed since the
/// last view refresh. Shards keep a scheduling round O(changed nodes): racks
/// with an empty dirty list are never even visited.
#[derive(Debug, Default)]
struct RackShard {
    /// Node indices (dense ids) in this rack.
    members: Vec<u32>,
    /// Members whose tracker state changed since the last refresh (may
    /// contain duplicates; the tracker's dirty flag dedups the rebuild).
    dirty: Vec<u32>,
    /// Whether this shard is already queued on the cluster's dirty-rack list.
    queued: bool,
}

/// O(1) source of the periodic heartbeat schedule: every node heartbeats
/// every `interval`, staggered evenly over one interval, so the rotation is
/// pure arithmetic — node `idx` of cycle `c` fires at
/// `c * interval + interval * (idx + 1) / (nodes + 1)`. Computing the
/// periodic heartbeats instead of storing them keeps the 10k heartbeat
/// events of a large cluster out of the central heap entirely; without the
/// wheel they dominate the heap and make every pop O(log nodes) over a
/// cache-hostile working set.
#[derive(Debug)]
struct HeartbeatWheel {
    interval_us: u64,
    nodes: u64,
    /// Next node to fire (dense id).
    idx: u64,
    /// Completed full rotations.
    cycle: u64,
}

impl HeartbeatWheel {
    fn new(interval_us: u64, nodes: u64) -> Self {
        HeartbeatWheel {
            interval_us,
            nodes,
            idx: 0,
            cycle: 0,
        }
    }

    /// Timestamp of the next periodic heartbeat.
    fn peek(&self) -> SimTime {
        let offset = (self.interval_us * (self.idx + 1) / (self.nodes + 1)).max(1);
        SimTime::from_micros(self.cycle * self.interval_us + offset)
    }

    /// Consumes the next periodic heartbeat, returning its node.
    fn advance(&mut self) -> NodeId {
        let node = NodeId(self.idx as u32);
        self.idx += 1;
        if self.idx == self.nodes {
            self.idx = 0;
            self.cycle += 1;
        }
        node
    }
}

/// The simulated Hadoop cluster.
pub struct Cluster {
    config: ClusterConfig,
    queue: EventQueue<Event>,
    namenode: NameNode,
    /// TaskTrackers indexed by node id (node ids are dense: 0..n).
    trackers: Vec<TaskTracker>,
    jobs: JobTable,
    scheduler: Box<dyn SchedulerPolicy>,
    rng: SimRng,
    pending_arrivals: Vec<(SimTime, Option<JobSpec>)>,
    arrivals_remaining: usize,
    triggers: Vec<ProgressTrigger>,
    trace: Vec<TraceEntry>,
    next_job_id: u32,
    /// Reusable per-node scheduler views, refreshed via dirty tracking.
    views: Vec<NodeView>,
    /// Rack of each node (dense rack ids, indexed by dense node id).
    node_rack: Vec<u32>,
    /// Per-rack shards: members plus the rack-local dirty list.
    shards: Vec<RackShard>,
    /// Racks with a non-empty dirty list (no duplicates; `RackShard::queued`
    /// guards the push).
    dirty_racks: Vec<u32>,
    /// Per-rack aggregate free-slot counters, maintained by delta whenever a
    /// member view is rebuilt; handed to schedulers as
    /// [`RackView`](crate::scheduler::RackView) slices.
    rack_views: Vec<RackView>,
    /// Pending `MUST_*` commands indexed by node; delivered at heartbeats.
    pending_cmds: Vec<Vec<TaskId>>,
    /// Reusable buffer for per-heartbeat progress refreshes (attempt id,
    /// task, reported progress).
    progress_buf: Vec<(AttemptId, TaskId, f64)>,
    /// Jobs registered but not yet complete (incremental completion count).
    incomplete_jobs: usize,
    /// Events handled by [`Cluster::run`] so far (throughput accounting).
    events_processed: u64,
    /// Map-task launches bucketed by input locality.
    locality: LocalityStats,
    /// Cluster-wide pending-work counters (see [`PendingTotals`]), updated on
    /// every task state transition alongside the per-job counters.
    totals: PendingTotals,
    /// Computed periodic-heartbeat schedule (see [`HeartbeatWheel`]).
    wheel: HeartbeatWheel,
    /// Resolved fault schedule (scripted events plus pre-drawn random churn),
    /// referenced by [`Event::Fault`] indexes.
    fault_events: Vec<FaultEvent>,
    /// Number of leading `fault_events` entries that came from the user's
    /// script (the rest are generated churn).
    scripted_faults: usize,
    /// Nodes whose current outage was caused by a *churn* kill. A churn
    /// rejoin only revives these: an absorbed churn strike on a node that a
    /// scripted kill, rack outage or decommission took down must not let its
    /// paired recovery cut the scripted outage short. Scripted rejoins (an
    /// operator action) revive anything.
    churn_down: Vec<bool>,
    /// Fault-injection and speculation counters for the report.
    fault_stats: FaultStats,
    /// Delay-scheduling state (per-job wait clocks and skip counters),
    /// shared with policies through the [`SchedulerContext`].
    delay: DelayScoreboard,
    /// Per-job map-output registry: which node holds each committed map's
    /// output and how those bytes spread over racks. Shared read-only with
    /// policies through the [`SchedulerContext`].
    shuffle: ShuffleTracker,
    /// ATLAS-style failure-history scores per node and rack, fed by observed
    /// crashes and shared read-only with policies.
    reliability: ReliabilityTracker,
    /// Master-side link state per node (suspicion-based failure detection
    /// and network partitions). All `Up` while those fault kinds are unused.
    link: Vec<LinkState>,
    /// Per-node suspicion epoch: detector timers carry the epoch they were
    /// armed in and are discarded if the link state changed since.
    suspect_epoch: Vec<u64>,
    /// When each node's last heartbeat reached the master (`SimTime::ZERO`
    /// before the first); anchors the missed-heartbeat timeout so detection
    /// lag is bounded by the timeout plus one heartbeat interval.
    last_heartbeat: Vec<SimTime>,
    /// Completions finished on a node behind a partition, buffered until the
    /// heal reconciles them first-commit-wins.
    partition_buffer: Vec<Vec<AttemptId>>,
    /// Per-node gray-failure multipliers `(slow_disk, slow_net)`; `(1.0,
    /// 1.0)` while healthy. Applied to new launches only: a degraded node
    /// stretches the plans of work placed on it, it does not rewrite history.
    gray: Vec<(f64, f64)>,
    /// Observability state (metrics registry, series sampler, event-loop
    /// profiler, span trace); `None` unless [`ObsConfig`](crate::ObsConfig)
    /// is enabled, so the default path pays one null check per site.
    obs: Option<Box<ObsState>>,
}

impl Cluster {
    /// Builds a cluster from a configuration and a scheduling policy.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`ClusterConfig::validate`]); a bad configuration is a programming
    /// error in the experiment, not a runtime condition.
    pub fn new(config: ClusterConfig, scheduler: Box<dyn SchedulerPolicy>) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid cluster configuration: {e}"));
        let node_count = config.nodes.len();
        let topology = Topology::blocked(node_count as u32, config.racks);
        let mut trackers = Vec::with_capacity(node_count);
        let mut views = Vec::with_capacity(node_count);
        let mut queue = EventQueue::new();
        // First heartbeats are staggered evenly over one interval by the
        // wheel, so they neither all land on the same instant nor (as a
        // fixed per-node offset would at 10k nodes) stretch the cluster's
        // start-up over many minutes of virtual time.
        let wheel = HeartbeatWheel::new(config.heartbeat_interval.as_micros(), node_count as u64);
        for (i, node_cfg) in config.nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            trackers.push(TaskTracker::new(
                id,
                node_cfg.os.clone(),
                node_cfg.map_slots,
                node_cfg.reduce_slots,
            ));
            views.push(NodeView {
                id,
                free_map_slots: node_cfg.map_slots,
                free_reduce_slots: node_cfg.reduce_slots,
                running: Vec::new(),
                suspended: Vec::new(),
            });
        }
        // Per-rack shards and aggregate free-slot counters.
        let mut node_rack = vec![0u32; node_count];
        let mut shards: Vec<RackShard> = Vec::with_capacity(topology.rack_count());
        let mut rack_views: Vec<RackView> = Vec::with_capacity(topology.rack_count());
        for rack in 0..topology.rack_count() {
            let members: Vec<u32> = topology
                .members_of(RackId(rack as u32))
                .iter()
                .map(|n| n.0)
                .collect();
            let mut rv = RackView {
                id: RackId(rack as u32),
                nodes: members.len() as u32,
                free_map_slots: 0,
                free_reduce_slots: 0,
            };
            for &m in &members {
                node_rack[m as usize] = rack as u32;
                rv.free_map_slots += config.nodes[m as usize].map_slots;
                rv.free_reduce_slots += config.nodes[m as usize].reduce_slots;
            }
            shards.push(RackShard {
                dirty: members.clone(),
                members,
                queued: true,
            });
            rack_views.push(rv);
        }
        let namenode = NameNode::new(topology, config.dfs_block_size, config.dfs_replication);
        let rng = SimRng::new(config.seed);
        let rack_count = shards.len();
        // Resolve the fault plan: scripted events first, then per-rack random
        // churn drawn from a dedicated seed (one derived stream per rack, so
        // adding a rack never perturbs another rack's failure times). All
        // fault events go through the ordinary event heap; whether they fire
        // is decided by the run loop like any other event.
        let mut fault_events = config.faults.events.clone();
        // Events below this index are the user's scripted ones; everything
        // appended by the random generator is churn. The distinction matters
        // at fire time: a churn rejoin must never resurrect a node an
        // operator decommissioned.
        let scripted_faults = fault_events.len();
        if let Some(rf) = config.faults.random {
            let frng = SimRng::new(rf.seed);
            for (rack, shard) in shards.iter().enumerate() {
                if shard.members.is_empty() {
                    continue;
                }
                let mut rrng = frng.derive(rack as u64);
                let mut clock = 0.0f64;
                // Scheduled recovery time per member: a strike on a node
                // still down from an earlier strike is absorbed (no Kill, and
                // crucially no orphaned Rejoin that would cut the first
                // outage short).
                let mut down_until = vec![f64::NEG_INFINITY; shard.members.len()];
                loop {
                    clock += rrng.exponential(rf.rack_mtbf_secs);
                    let at = SimTime::from_secs_f64(clock);
                    if at > rf.horizon {
                        break;
                    }
                    let member = rrng.index(shard.members.len());
                    if clock < down_until[member] {
                        continue;
                    }
                    let node = NodeId(shard.members[member]);
                    // Single construction point for churn events: a strike is
                    // a kill plus, when recovery is configured, its paired
                    // rejoin.
                    let mut push_churn = |at: SimTime, kind: FaultKind| {
                        fault_events.push(FaultEvent { at, kind });
                    };
                    push_churn(at, FaultKind::Kill { node });
                    if let Some(recovery) = rf.mean_recovery_secs {
                        let downtime = rrng.exponential(recovery).max(1.0);
                        down_until[member] = clock + downtime;
                        push_churn(
                            at + SimDuration::from_secs_f64(downtime),
                            FaultKind::Rejoin { node },
                        );
                    } else {
                        down_until[member] = f64::INFINITY;
                    }
                }
            }
        }
        for (index, ev) in fault_events.iter().enumerate() {
            queue.schedule(ev.at, Event::Fault { index });
        }
        let delay = DelayScoreboard::new(config.delay);
        let shuffle = ShuffleTracker::new(config.shuffle, rack_count);
        let reliability = ReliabilityTracker::new(config.reliability, node_count, rack_count);
        let obs = config
            .obs
            .enabled
            .then(|| Box::new(ObsState::new(config.obs)));
        Cluster {
            config,
            queue,
            namenode,
            trackers,
            jobs: JobTable::new(),
            scheduler,
            rng,
            pending_arrivals: Vec::new(),
            arrivals_remaining: 0,
            triggers: Vec::new(),
            trace: Vec::new(),
            next_job_id: 1,
            views,
            node_rack,
            shards,
            dirty_racks: (0..rack_count as u32).collect(),
            rack_views,
            pending_cmds: vec![Vec::new(); node_count],
            progress_buf: Vec::new(),
            incomplete_jobs: 0,
            events_processed: 0,
            locality: LocalityStats::default(),
            totals: PendingTotals::default(),
            wheel,
            fault_events,
            scripted_faults,
            churn_down: vec![false; node_count],
            fault_stats: FaultStats::default(),
            delay,
            shuffle,
            reliability,
            link: vec![LinkState::Up; node_count],
            suspect_epoch: vec![0; node_count],
            last_heartbeat: vec![SimTime::ZERO; node_count],
            partition_buffer: vec![Vec::new(); node_count],
            gray: vec![(1.0, 1.0); node_count],
            obs,
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Read access to the simulated NameNode.
    pub fn namenode(&self) -> &NameNode {
        &self.namenode
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The recorded schedule trace (empty when tracing is
    /// [`TraceLevel::Off`]).
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    /// Read access to the JobTracker's job table.
    pub fn jobs(&self) -> &JobTable {
        &self.jobs
    }

    /// Number of events processed by [`Cluster::run`] so far; the numerator
    /// of the `sim_throughput` bench's events/sec metric.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Map-task launch counts by input locality so far (also part of the
    /// end-of-run [`ClusterReport`]), including the delay-scheduling skip
    /// count maintained on the scoreboard.
    pub fn locality_stats(&self) -> LocalityStats {
        let mut stats = self.locality;
        stats.delayed_skips = self.delay.total_skips();
        stats
    }

    /// Read access to the delay-scheduling scoreboard (per-job wait clocks
    /// and skip counters), for tests and harnesses that assert on the delay
    /// state directly.
    pub fn delay_scoreboard(&self) -> &DelayScoreboard {
        &self.delay
    }

    /// Read access to the per-job map-output registry (which node holds each
    /// committed map's output), for tests and harnesses asserting on the
    /// shuffle fault path directly.
    pub fn shuffle_tracker(&self) -> &ShuffleTracker {
        &self.shuffle
    }

    /// Read access to the node-reliability predictor's failure-history
    /// scores.
    pub fn reliability_tracker(&self) -> &ReliabilityTracker {
        &self.reliability
    }

    /// Fault-injection and speculation counters so far (also part of the
    /// end-of-run [`ClusterReport`]).
    pub fn fault_stats(&self) -> FaultStats {
        self.fault_stats
    }

    /// The engine-maintained cluster-wide pending-work counters; exposed so
    /// tests can assert they match a recount from the job table.
    pub fn pending_totals(&self) -> PendingTotals {
        self.totals
    }

    /// The observability state — metrics registry, sampled time series,
    /// event-loop profile and span trace — accumulated so far; `None` unless
    /// [`ObsConfig`](crate::ObsConfig) is enabled.
    pub fn observability(&self) -> Option<&ObsState> {
        self.obs.as_deref()
    }

    /// Takes the observability state out of the cluster (for harnesses that
    /// want to keep the recordings but drop the cluster). Subsequent events
    /// are no longer observed.
    pub fn take_observability(&mut self) -> Option<Box<ObsState>> {
        self.obs.take()
    }

    /// Whether `node` is currently in service.
    pub fn node_is_alive(&self, node: NodeId) -> bool {
        self.tracker(node).map(|tt| tt.is_alive()).unwrap_or(false)
    }

    /// Alive *and* reachable: a partition victim the detector tore down is
    /// still alive but offers the master nothing, so promotion and placement
    /// paths must use this stricter check.
    fn node_in_service(&self, node: NodeId) -> bool {
        self.tracker(node)
            .map(|tt| tt.is_alive() && tt.is_reachable())
            .unwrap_or(false)
    }

    /// The per-rack aggregate free-slot counters, as schedulers see them
    /// after the most recent refresh.
    pub fn rack_views(&self) -> &[RackView] {
        &self.rack_views
    }

    fn tracker(&self, node: NodeId) -> Option<&TaskTracker> {
        self.trackers.get(node.0 as usize)
    }

    fn tracker_mut(&mut self, node: NodeId) -> Option<&mut TaskTracker> {
        self.trackers.get_mut(node.0 as usize)
    }

    /// Creates an input file in the simulated HDFS, writing it from node 0 so
    /// the paper's single-node experiments get node-local splits.
    pub fn create_input_file(&mut self, path: &str, len: u64) -> Result<(), mrp_dfs::DfsError> {
        let writer = self.namenode.topology().node_at(0);
        self.create_input_file_from(path, len, writer)
    }

    /// Creates an input file written from an explicit node, so multi-rack
    /// harnesses can spread first replicas over the cluster instead of
    /// stacking them all on node 0. `None` lets the NameNode pick a random
    /// writer.
    pub fn create_input_file_from(
        &mut self,
        path: &str,
        len: u64,
        writer: Option<NodeId>,
    ) -> Result<(), mrp_dfs::DfsError> {
        self.namenode
            .create_file(path, len, writer, &mut self.rng)?;
        Ok(())
    }

    /// Registers a job to arrive at `at`.
    pub fn submit_job_at(&mut self, spec: JobSpec, at: SimTime) {
        let index = self.pending_arrivals.len();
        self.pending_arrivals.push((at, Some(spec)));
        self.arrivals_remaining += 1;
        self.queue.schedule(at, Event::JobArrival { index });
    }

    /// Registers a job arriving at time zero.
    pub fn submit_job(&mut self, spec: JobSpec) {
        self.submit_job_at(spec, SimTime::ZERO);
    }

    /// Registers a progress trigger: when map task `task_index` of the job
    /// named `job_name` first reaches `fraction` of its work phase, the
    /// scheduler's `on_progress_trigger` hook is invoked. The trigger fires at
    /// most once; if the watched task is suspended or killed before reaching
    /// the fraction, the watch re-arms when it runs again.
    pub fn add_progress_trigger(&mut self, job_name: &str, task_index: u32, fraction: f64) {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        self.triggers.push(ProgressTrigger {
            job_name: job_name.to_string(),
            task_index,
            fraction,
            state: TriggerState::Waiting,
        });
    }

    /// Runs the simulation until every submitted job completes, the event
    /// queue drains, or `max_time` is reached. Returns the final virtual time.
    pub fn run(&mut self, max_time: SimTime) -> SimTime {
        if let Some(obs) = self.obs.as_mut() {
            obs.loop_begin();
        }
        loop {
            if self.arrivals_remaining == 0 && self.all_jobs_complete() {
                break;
            }
            // Next event is the earlier of the queue's head and the wheel's
            // computed periodic heartbeat; on a timestamp tie the heartbeat
            // fires first (either order would be deterministic).
            let wheel_at = self.wheel.peek();
            let (take_wheel, next_at) = match self.queue.peek_time() {
                Some(queue_at) if queue_at < wheel_at => (false, queue_at),
                _ => (true, wheel_at),
            };
            if next_at > max_time {
                break;
            }
            self.events_processed += 1;
            if take_wheel {
                self.queue.advance_to(wheel_at);
                let node = self.wheel.advance();
                if let Some(obs) = self.obs.as_mut() {
                    obs.note_event(0);
                }
                self.handle_heartbeat(node, wheel_at);
            } else {
                let (now, event) = self.queue.pop().expect("peeked event must exist");
                if let Some(obs) = self.obs.as_mut() {
                    obs.note_event(Self::event_kind(&event));
                }
                self.handle_event(now, event);
            }
            // The series sampler piggybacks on loop iterations (virtual-time
            // deadline polling) instead of scheduling events of its own, so
            // an observed run processes exactly the same event sequence.
            if self.obs.is_some() {
                self.obs_sample(next_at);
            }
        }
        if let Some(obs) = self.obs.as_mut() {
            obs.loop_end();
        }
        self.queue.now()
    }

    /// Profiler index of a queue event; index 0 is the heartbeat wheel (see
    /// [`crate::obs::EVENT_KINDS`]).
    fn event_kind(event: &Event) -> usize {
        match event {
            Event::JobArrival { .. } => 1,
            Event::Heartbeat { .. } => 2,
            Event::PhaseDone { .. } => 3,
            Event::CleanupDone { .. } => 4,
            Event::ProgressTrigger { .. } => 5,
            Event::Fault { .. } => 6,
            Event::Detector { .. } => 7,
        }
    }

    /// Polls the series sampler at `now`, recording one row when a sampling
    /// deadline has passed. Reads only — never mutates simulation state.
    fn obs_sample(&mut self, now: SimTime) {
        if !self.obs.as_ref().is_some_and(|o| o.series_due(now)) {
            return;
        }
        let mut free_map_slots = 0u64;
        let mut free_reduce_slots = 0u64;
        for rv in &self.rack_views {
            free_map_slots += u64::from(rv.free_map_slots);
            free_reduce_slots += u64::from(rv.free_reduce_slots);
        }
        let mut swapped_bytes = 0u64;
        let mut swap_backlog_bytes = 0u64;
        for tt in &self.trackers {
            swapped_bytes += tt.kernel().memory().swap_used();
            swap_backlog_bytes += tt.kernel().disk().background_pending();
        }
        let row = vec![
            u64::from(self.totals.schedulable_maps),
            u64::from(self.totals.schedulable_reduces),
            u64::from(self.totals.suspended),
            free_map_slots,
            free_reduce_slots,
            swapped_bytes,
            swap_backlog_bytes,
            self.fault_stats.nodes_suspected,
            self.incomplete_jobs as u64,
            self.events_processed,
        ];
        if let Some(obs) = self.obs.as_mut() {
            obs.record_series(now, row);
        }
    }

    fn all_jobs_complete(&self) -> bool {
        self.incomplete_jobs == 0
    }

    /// Builds the end-of-run report.
    pub fn report(&self) -> ClusterReport {
        ClusterReport {
            jobs: self.jobs.values().map(JobReport::from_runtime).collect(),
            nodes: self
                .trackers
                .iter()
                .map(|tt| {
                    let disk = tt.kernel().disk_stats();
                    NodeReport {
                        id: tt.id,
                        swap_out_bytes: disk.swap_bytes_out,
                        swap_in_bytes: disk.swap_bytes_in,
                        disk_read_bytes: disk.bytes_read,
                        disk_write_bytes: disk.bytes_written,
                        oom_kills: tt.kernel().memory_stats().oom_kills,
                        thrash_events: tt.kernel().memory_stats().thrash_events,
                        swap_io_secs: tt
                            .kernel()
                            .memory()
                            .swap_device()
                            .map(|dev| {
                                let s = dev.stats();
                                (s.swap_out_time + s.swap_in_time).as_secs_f64()
                            })
                            .unwrap_or(0.0),
                    }
                })
                .collect(),
            locality: self.locality_stats(),
            faults: self.fault_stats,
            finished_at: self.queue.now(),
        }
    }

    // ----- internal helpers -------------------------------------------------

    /// Whether schedule tracing is enabled; callers gate both the
    /// [`TraceEntry`] push and the detail-string formatting behind this, so a
    /// throughput run allocates nothing for tracing.
    #[inline]
    fn tracing(&self) -> bool {
        self.config.trace_level != TraceLevel::Off
    }

    fn trace_event(
        &mut self,
        at: SimTime,
        kind: TraceKind,
        job: JobId,
        task: Option<TaskId>,
        node: Option<NodeId>,
        detail: impl Into<String>,
    ) {
        if !self.tracing() {
            return;
        }
        self.trace.push(TraceEntry {
            at,
            kind,
            job,
            task,
            node,
            detail: detail.into(),
        });
    }

    /// Marks `node`'s view stale; the next [`Cluster::refresh_views`] rebuilds
    /// it. Call sites are the cluster paths that mutate tracker occupancy.
    /// The node goes on its rack's dirty list, and the rack on the cluster's
    /// dirty-rack list, so the refresh touches only racks with actual dirt.
    #[inline]
    fn mark_node_dirty(&mut self, node: NodeId) {
        let Some(&rack) = self.node_rack.get(node.0 as usize) else {
            return;
        };
        let shard = &mut self.shards[rack as usize];
        shard.dirty.push(node.0);
        if !shard.queued {
            shard.queued = true;
            self.dirty_racks.push(rack);
        }
    }

    /// Refreshes the reusable per-node scheduler views and the per-rack
    /// free-slot counters before a scheduling round.
    ///
    /// In the default [`RefreshMode::Sharded`] only racks on the dirty-rack
    /// list are visited, only nodes on their shards' dirty lists are
    /// inspected, and only trackers whose occupancy actually changed are
    /// rebuilt — O(changed nodes), not O(nodes). Rack counters are adjusted
    /// by the delta between a view's old and new free-slot counts.
    /// [`RefreshMode::Full`] instead rebuilds everything from scratch; it
    /// exists as the naive reference for equivalence tests.
    fn refresh_views(&mut self) {
        match self.config.refresh_mode {
            RefreshMode::Sharded => self.refresh_views_sharded(),
            RefreshMode::Full => self.refresh_views_full(),
        }
    }

    fn refresh_views_sharded(&mut self) {
        while let Some(rack) = self.dirty_racks.pop() {
            let shard = &mut self.shards[rack as usize];
            shard.queued = false;
            // Take the dirty list so the shard borrow does not overlap the
            // tracker/view borrows; nothing re-dirties nodes mid-refresh, and
            // the buffer (and its capacity) is handed back afterwards.
            let mut dirty = std::mem::take(&mut shard.dirty);
            for idx in dirty.drain(..) {
                let Some(tt) = self.trackers.get_mut(idx as usize) else {
                    continue;
                };
                if !tt.take_dirty() {
                    continue;
                }
                let view = &mut self.views[idx as usize];
                let rv = &mut self.rack_views[rack as usize];
                rv.free_map_slots = rv.free_map_slots + tt.free_map_slots() - view.free_map_slots;
                rv.free_reduce_slots =
                    rv.free_reduce_slots + tt.free_reduce_slots() - view.free_reduce_slots;
                fill_view(view, tt);
            }
            self.shards[rack as usize].dirty = dirty;
        }
    }

    fn refresh_views_full(&mut self) {
        self.dirty_racks.clear();
        for rack in 0..self.shards.len() {
            let shard = &mut self.shards[rack];
            shard.dirty.clear();
            shard.queued = false;
            let rv = &mut self.rack_views[rack];
            rv.free_map_slots = 0;
            rv.free_reduce_slots = 0;
            for mi in 0..self.shards[rack].members.len() {
                let idx = self.shards[rack].members[mi] as usize;
                let tt = &mut self.trackers[idx];
                let _ = tt.take_dirty();
                let view = &mut self.views[idx];
                fill_view(view, tt);
                let rv = &mut self.rack_views[rack];
                rv.free_map_slots += view.free_map_slots;
                rv.free_reduce_slots += view.free_reduce_slots;
            }
        }
    }

    fn task_mut(&mut self, id: TaskId) -> Option<&mut TaskRuntime> {
        self.jobs.get_mut(&id.job).and_then(|j| j.task_mut(id))
    }

    /// The counter-relevant classification of a task state:
    /// (schedulable, suspended, occupies a slot).
    #[inline]
    fn state_classes(state: TaskState) -> (bool, bool, bool) {
        (
            state.is_schedulable(),
            state == TaskState::Suspended,
            state.occupies_slot(),
        )
    }

    /// Adjusts the job's maintained per-state counters *and* the cluster-wide
    /// pending totals for one task of `kind` moving between the given
    /// classifications. Job counters and totals are updated from the same
    /// branches so they cannot drift apart — the O(1) heartbeat early-exits
    /// trust both to prove "no work exists".
    #[inline]
    fn apply_state_delta(
        job: &mut JobRuntime,
        totals: &mut PendingTotals,
        kind: TaskKind,
        before: (bool, bool, bool),
        after: (bool, bool, bool),
    ) {
        if before.0 != after.0 {
            let (job_field, total_field) = match kind {
                TaskKind::Map => (&mut job.schedulable_maps, &mut totals.schedulable_maps),
                TaskKind::Reduce => (
                    &mut job.schedulable_reduces,
                    &mut totals.schedulable_reduces,
                ),
            };
            if after.0 {
                *job_field += 1;
                *total_field += 1;
            } else {
                debug_assert!(*job_field > 0 && *total_field > 0);
                *job_field -= 1;
                *total_field -= 1;
            }
        }
        if before.1 != after.1 {
            if after.1 {
                job.suspended_count += 1;
                totals.suspended += 1;
            } else {
                debug_assert!(job.suspended_count > 0 && totals.suspended > 0);
                job.suspended_count -= 1;
                totals.suspended -= 1;
            }
        }
        if before.2 != after.2 {
            if after.2 {
                job.occupying_count += 1;
            } else {
                debug_assert!(job.occupying_count > 0);
                job.occupying_count -= 1;
            }
        }
    }

    /// Transitions `task` through the legality-checked state machine and
    /// keeps the owning job's schedulable/suspended/occupying counters in
    /// sync. Every engine-side task state change goes through here (or
    /// through [`Cluster::force_task_pending`] for the reset paths), so the
    /// counters schedulers rely on for O(1) job skipping stay exact.
    fn set_task_state(&mut self, task: TaskId, next: TaskState) {
        let Some(job) = self.jobs.get_mut(&task.job) else {
            return;
        };
        let before = {
            let Some(t) = job.task_mut(task) else { return };
            let before = Self::state_classes(t.state);
            t.set_state(next);
            before
        };
        let after = Self::state_classes(next);
        Self::apply_state_delta(job, &mut self.totals, task.kind, before, after);
    }

    /// Resets a task whose attempt vanished underneath the JobTracker (OOM
    /// kill, lost attempt) straight back to `Pending`, bypassing the legality
    /// check exactly like the old field assignments did, while keeping the
    /// job counters in sync.
    fn force_task_pending(&mut self, task: TaskId) {
        let Some(job) = self.jobs.get_mut(&task.job) else {
            return;
        };
        let before = {
            let Some(t) = job.task_mut(task) else { return };
            let before = Self::state_classes(t.state);
            t.state = TaskState::Pending;
            t.progress = 0.0;
            t.node = None;
            t.current_attempt = None;
            before
        };
        let after = Self::state_classes(TaskState::Pending);
        Self::apply_state_delta(job, &mut self.totals, task.kind, before, after);
    }

    /// Forces a task into `next` without the legality check, keeping the job
    /// counters in sync. Used by the fault paths, where a node vanishing
    /// under a task produces transitions the heartbeat protocol never would
    /// (e.g. `Suspended` → `Running` when a speculative backup is promoted).
    fn force_task_state(&mut self, task: TaskId, next: TaskState) {
        let Some(job) = self.jobs.get_mut(&task.job) else {
            return;
        };
        let before = {
            let Some(t) = job.task_mut(task) else { return };
            let before = Self::state_classes(t.state);
            t.state = next;
            before
        };
        let after = Self::state_classes(next);
        Self::apply_state_delta(job, &mut self.totals, task.kind, before, after);
    }

    /// Clears a task's speculative-attempt fields and decrements the owning
    /// job's live-speculation counter. Does *not* touch the backup attempt on
    /// its tracker — callers either killed it already or are promoting it.
    fn clear_speculation_fields(&mut self, task: TaskId) {
        let Some(job) = self.jobs.get_mut(&task.job) else {
            return;
        };
        let Some(t) = job.task_mut(task) else { return };
        if t.spec_attempt.take().is_some() {
            t.spec_node = None;
            debug_assert!(job.speculative_live > 0);
            job.speculative_live = job.speculative_live.saturating_sub(1);
        }
    }

    /// Debug-build invariant: the incrementally maintained job counters match
    /// a recount from the task list.
    #[cfg(debug_assertions)]
    fn debug_check_job_counters(&self, job: JobId) {
        if let Some(j) = self.jobs.get(&job) {
            let mut fresh = j.clone();
            fresh.recount_task_states();
            assert_eq!(
                (
                    j.schedulable_maps,
                    j.schedulable_reduces,
                    j.suspended_count,
                    j.occupying_count,
                    j.speculative_live
                ),
                (
                    fresh.schedulable_maps,
                    fresh.schedulable_reduces,
                    fresh.suspended_count,
                    fresh.occupying_count,
                    fresh.speculative_live
                ),
                "maintained task-state counters drifted for {job:?}"
            );
        }
        assert_eq!(
            self.totals,
            PendingTotals::from_jobs(&self.jobs),
            "maintained cluster-wide pending totals drifted"
        );
    }

    fn task(&self, id: TaskId) -> Option<&TaskRuntime> {
        self.jobs.get(&id.job).and_then(|j| j.task(id))
    }

    /// Records that `task` has a pending `MUST_*` command awaiting delivery
    /// at `node`'s next heartbeat.
    fn enqueue_command(&mut self, node: NodeId, task: TaskId) {
        if let Some(list) = self.pending_cmds.get_mut(node.0 as usize) {
            if !list.contains(&task) {
                list.push(task);
            }
        }
    }

    fn schedule_out_of_band_heartbeat(&mut self, node: NodeId, now: SimTime) {
        if self.config.out_of_band_heartbeats {
            self.queue.schedule(now, Event::Heartbeat { node });
        }
    }

    fn handle_event(&mut self, now: SimTime, event: Event) {
        match event {
            Event::JobArrival { index } => {
                self.arrivals_remaining -= 1;
                let spec = self.pending_arrivals[index]
                    .1
                    .take()
                    .expect("each arrival fires exactly once");
                self.register_job(spec, now);
            }
            Event::Heartbeat { node } => {
                self.handle_heartbeat(node, now);
            }
            Event::PhaseDone {
                node,
                attempt,
                phase,
            } => {
                if self.node_is_silent(node) {
                    return; // the node died with the fault; teardown follows
                }
                self.handle_phase_done(node, attempt, phase, now);
            }
            Event::CleanupDone { node, kind, epoch } => {
                if self.node_is_silent(node) {
                    return; // dead but undetected; the teardown frees slots
                }
                let Some(tt) = self.tracker_mut(node) else {
                    return;
                };
                if !tt.is_alive() || tt.epoch() != epoch {
                    return; // the node failed since; its slots were all freed
                }
                tt.release_slot(kind);
                self.mark_node_dirty(node);
                self.schedule_out_of_band_heartbeat(node, now);
            }
            Event::ProgressTrigger { index } => {
                self.handle_progress_trigger(index, now);
            }
            Event::Fault { index } => {
                self.handle_fault(index, now);
            }
            Event::Detector {
                node,
                epoch,
                confirm,
            } => {
                self.handle_detector(node, epoch, confirm, now);
            }
        }
    }

    // ----- fault injection --------------------------------------------------

    fn handle_fault(&mut self, index: usize, now: SimTime) {
        let scripted = index < self.scripted_faults;
        match self.fault_events[index].kind {
            FaultKind::Kill { node } => {
                // With the detector on, the kill only silences the node: the
                // master keeps scheduling around its stale view until the
                // missed-heartbeat timeout confirms the death.
                let downed = if self.config.detector.enabled {
                    self.begin_silence(node, now)
                } else {
                    self.fail_node(node, now, false)
                };
                if downed && !scripted {
                    self.churn_down[node.0 as usize] = true;
                }
            }
            FaultKind::Decommission { node } => {
                // An operator action: the master knows immediately, detector
                // or not.
                self.fail_node(node, now, true);
            }
            FaultKind::Rejoin { node } => self.rejoin_node(node, now, scripted),
            FaultKind::RackOutage { rack } => {
                let members = self
                    .shards
                    .get(rack.0 as usize)
                    .map(|s| s.members.clone())
                    .unwrap_or_default();
                for m in members {
                    // Rack outages are scripted-only: a member already down
                    // from churn now belongs to the scripted outage, so its
                    // pending churn recovery must not revive it.
                    if self.config.detector.enabled {
                        self.begin_silence(NodeId(m), now);
                    } else {
                        self.fail_node(NodeId(m), now, false);
                    }
                    self.churn_down[m as usize] = false;
                }
            }
            FaultKind::RackRejoin { rack } => {
                let members = self
                    .shards
                    .get(rack.0 as usize)
                    .map(|s| s.members.clone())
                    .unwrap_or_default();
                for m in members {
                    self.rejoin_node(NodeId(m), now, scripted);
                }
            }
            FaultKind::Partition { node } => self.partition_node(node, now),
            FaultKind::PartitionHeal { node } => self.heal_partition(node, now),
            FaultKind::RackPartition { rack } => {
                let members = self
                    .shards
                    .get(rack.0 as usize)
                    .map(|s| s.members.clone())
                    .unwrap_or_default();
                for m in members {
                    self.partition_node(NodeId(m), now);
                }
            }
            FaultKind::RackPartitionHeal { rack } => {
                let members = self
                    .shards
                    .get(rack.0 as usize)
                    .map(|s| s.members.clone())
                    .unwrap_or_default();
                for m in members {
                    self.heal_partition(NodeId(m), now);
                }
            }
            FaultKind::Gray {
                node,
                slow_disk,
                slow_net,
            } => self.degrade_node(node, slow_disk, slow_net, now),
            FaultKind::GrayHeal { node } => self.heal_degradation(node, now),
        }
    }

    /// Whether the node is dead-but-undetected: its node-side events are
    /// discarded until the detector confirms the death.
    #[inline]
    fn node_is_silent(&self, node: NodeId) -> bool {
        matches!(
            self.link.get(node.0 as usize),
            Some(LinkState::Silent { .. })
        )
    }

    /// Takes a node out of service: tears down its attempts (suspended-to-
    /// disk state is lost — the paper's key cost under failure), drops its
    /// pending commands, routes block loss through the NameNode with
    /// re-replication, and reconciles every incremental index so sharded and
    /// full refresh stay equivalent under churn.
    /// Returns `true` when the node was alive and actually taken down.
    fn fail_node(&mut self, node: NodeId, now: SimTime, decommission: bool) -> bool {
        let Some(tt) = self.tracker_mut(node) else {
            return false;
        };
        if !tt.is_alive() {
            return false; // duplicate fault (e.g. random churn hit a dead node)
        }
        let torn_down = tt.fail(now);
        self.mark_node_dirty(node);
        // Commands addressed to this node can never be delivered now; the
        // teardown below resets their tasks, so drop them wholesale.
        if let Some(cmds) = self.pending_cmds.get_mut(node.0 as usize) {
            cmds.clear();
        }
        for failed in torn_down {
            self.resolve_failed_attempt(failed, now);
        }
        // Map outputs are node-local artifacts, not HDFS blocks: a crash
        // destroys them and the affected *completed* maps go back to Pending
        // for re-execution, while a graceful decommission drains them to a
        // live node first so no re-execution is needed — mirroring the
        // NameNode's graceful-vs-crash block handling below.
        if self.shuffle.enabled() {
            let drain = if decommission {
                self.drain_target(node)
            } else {
                None
            };
            match drain {
                Some((to, to_rack)) => {
                    let rack = RackId(self.node_rack[node.0 as usize]);
                    let jobs: Vec<JobId> = self
                        .jobs
                        .values()
                        .filter(|j| j.completed_at.is_none())
                        .map(|j| j.id)
                        .collect();
                    for job in jobs {
                        let moved = self.shuffle.migrate(job, node, rack, to, to_rack);
                        self.fault_stats.map_outputs_migrated += moved;
                    }
                }
                // A crash — or a decommission with nowhere left to drain
                // to — loses the outputs.
                None => self.lose_map_outputs(node, now),
            }
        }
        // Only crashes feed the reliability predictor: a decommission is an
        // operator action, not evidence of flakiness.
        if !decommission {
            let rack = RackId(self.node_rack[node.0 as usize]);
            self.reliability.record_failure(node, rack, now);
        }
        // Block loss goes through the NameNode: replicas on the node vanish
        // and under-replicated blocks are repaired from survivors (a graceful
        // decommission drains even last-replica blocks).
        let affected = self.namenode.decommission(node);
        let repair = self
            .namenode
            .re_replicate(&affected, decommission, &mut self.rng);
        self.fault_stats.re_replicated_blocks += repair.re_replicated;
        self.fault_stats.lost_blocks += repair.lost_blocks;
        self.charge_re_replication_io(repair.re_replicated);
        if decommission {
            self.fault_stats.node_decommissions += 1;
        } else {
            self.fault_stats.node_failures += 1;
        }
        if self.tracing() {
            let kind = if decommission {
                TraceKind::NodeDecommissioned
            } else {
                TraceKind::NodeFailed
            };
            self.trace_event(
                now,
                kind,
                JobId(0),
                None,
                Some(node),
                format!(
                    "{} replicas re-created, {} blocks lost",
                    repair.re_replicated, repair.lost_blocks
                ),
            );
        }
        true
    }

    /// Deterministic target for a decommission drain of map outputs: the
    /// lowest-id live node on the leaving node's rack, else the lowest-id
    /// live node anywhere, else `None` (nothing left to drain to).
    fn drain_target(&self, leaving: NodeId) -> Option<(NodeId, RackId)> {
        let rack = self.node_rack[leaving.0 as usize];
        let mut fallback = None;
        for (i, tt) in self.trackers.iter().enumerate() {
            if i == leaving.0 as usize || !tt.is_alive() {
                continue;
            }
            let r = self.node_rack[i];
            if r == rack {
                return Some((NodeId(i as u32), RackId(r)));
            }
            if fallback.is_none() {
                fallback = Some((NodeId(i as u32), RackId(r)));
            }
        }
        fallback
    }

    /// Declares every map output on `node` destroyed: affected *completed*
    /// maps go back to `Pending` for re-execution. Shared by the crash path
    /// of [`Cluster::fail_node`] and the partition teardown.
    fn lose_map_outputs(&mut self, node: NodeId, now: SimTime) {
        if !self.shuffle.enabled() {
            return;
        }
        let rack = RackId(self.node_rack[node.0 as usize]);
        let jobs: Vec<JobId> = self
            .jobs
            .values()
            .filter(|j| j.completed_at.is_none())
            .map(|j| j.id)
            .collect();
        for job in jobs {
            for index in self.shuffle.on_node_lost(job, node, rack) {
                let map = TaskId {
                    job,
                    kind: TaskKind::Map,
                    index,
                };
                if self.task(map).map(|t| t.state) != Some(TaskState::Succeeded) {
                    // Already re-executing (e.g. reset by the attempt
                    // teardown); nothing to do.
                    continue;
                }
                self.force_task_pending(map);
                self.fault_stats.lost_map_outputs += 1;
                self.fault_stats.re_executed_tasks += 1;
                if self.tracing() {
                    self.trace_event(
                        now,
                        TraceKind::MapOutputLost,
                        job,
                        Some(map),
                        Some(node),
                        "output died with its node; map re-executes",
                    );
                }
            }
        }
    }

    /// Reconciles one attempt torn down by node loss with the JobTracker
    /// state: promotes a surviving speculative backup, or resets the task to
    /// `Pending` for re-execution.
    fn resolve_failed_attempt(&mut self, failed: FailedAttempt, now: SimTime) {
        let task = failed.id.task;
        self.fault_stats.attempts_lost += 1;
        if let Some(obs) = self.obs.as_mut() {
            obs.end_attempt_spans(failed.id, now);
        }
        if let Some(ev) = failed.segment_event {
            self.queue.cancel(ev);
        }
        self.unarm_triggers(task);
        if failed.state == AttemptState::Suspended {
            self.fault_stats.suspended_tasks_lost += 1;
            self.fault_stats.lost_suspended_work_secs += failed.invested.as_secs_f64();
        }
        let (is_current, is_spec, backup) = {
            let Some(t) = self.task(task) else { return };
            (
                t.current_attempt == Some(failed.id),
                t.spec_attempt == Some(failed.id),
                t.spec_attempt.zip(t.spec_node),
            )
        };
        if is_current {
            match backup {
                Some((spec_attempt, spec_node)) if self.node_in_service(spec_node) => {
                    // The speculative backup survives the failure: promote it
                    // to be the task's attempt. This is exactly the payoff of
                    // speculative re-execution under churn. Progress watches
                    // re-arm against the promoted attempt.
                    self.clear_speculation_fields(task);
                    if let Some(t) = self.task_mut(task) {
                        t.current_attempt = Some(spec_attempt);
                        t.node = Some(spec_node);
                        t.wasted_work += failed.invested;
                    }
                    self.force_task_state(task, TaskState::Running);
                    self.arm_triggers(task, spec_node, spec_attempt, now);
                }
                _ => {
                    // No live backup: the task restarts from scratch
                    // elsewhere. (A backup on a node torn down by the same
                    // rack outage is resolved by its own FailedAttempt entry;
                    // only the fields are cleared here.)
                    self.fault_stats.re_executed_tasks += 1;
                    if backup.is_some() {
                        self.clear_speculation_fields(task);
                    }
                    self.force_task_pending(task);
                    if let Some(t) = self.task_mut(task) {
                        t.wasted_work += failed.invested;
                    }
                }
            }
        } else if is_spec {
            // Only the backup died; the original attempt continues.
            self.fault_stats.speculative_wasted_secs += failed.invested.as_secs_f64();
            self.clear_speculation_fields(task);
        }
    }

    // ----- suspicion-based failure detection & partitions -------------------

    /// A kill under the failure detector: the node goes dark but the master
    /// does not know yet, so its slots stay "occupied" in every scheduler
    /// view until the missed-heartbeat timeout confirms the death. Returns
    /// whether the node was actually up (mirrors [`Cluster::fail_node`]'s
    /// return for churn bookkeeping).
    fn begin_silence(&mut self, node: NodeId, now: SimTime) -> bool {
        let idx = node.0 as usize;
        let Some(tt) = self.trackers.get(idx) else {
            return false;
        };
        if !tt.is_alive() {
            return false; // duplicate fault on an already-dead node
        }
        match self.link[idx] {
            LinkState::Silent { .. } => false, // already dark
            LinkState::Up => {
                self.link[idx] = LinkState::Silent { since: now };
                self.suspect_epoch[idx] += 1;
                self.schedule_suspicion(node, now);
                true
            }
            LinkState::Partitioned { since } => {
                // The partitioned node dies for real. The master cannot tell
                // the difference — from its side the silence simply
                // continues, dated from the original partition.
                let torn_down = !tt.is_reachable();
                self.link[idx] = LinkState::Silent { since };
                if torn_down {
                    // The master already resolved every attempt at the
                    // partition teardown; the node-side remnants die quietly,
                    // and the buffered completions die with the node.
                    let failed = self.trackers[idx].fail(now);
                    for f in failed {
                        if let Some(ev) = f.segment_event {
                            self.queue.cancel(ev);
                        }
                    }
                    self.partition_buffer[idx].clear();
                    self.mark_node_dirty(node);
                }
                // Not torn down: the suspicion timer armed at partition time
                // (same epoch) is still counting and will confirm this death.
                true
            }
        }
    }

    /// Arms the missed-heartbeat timer for a newly dark node, anchored on
    /// the last heartbeat the master actually received — which is what
    /// bounds detection lag by `timeout + one heartbeat interval`.
    fn schedule_suspicion(&mut self, node: NodeId, now: SimTime) {
        let idx = node.0 as usize;
        let interval = self.config.heartbeat_interval;
        let missed = self.config.detector.missed_heartbeats;
        let at = (self.last_heartbeat[idx] + interval.mul_f64(f64::from(missed))).max(now);
        self.queue.schedule(
            at,
            Event::Detector {
                node,
                epoch: self.suspect_epoch[idx],
                confirm: false,
            },
        );
    }

    fn handle_detector(&mut self, node: NodeId, epoch: u64, confirm: bool, now: SimTime) {
        let idx = node.0 as usize;
        if self.suspect_epoch.get(idx) != Some(&epoch) || self.link[idx] == LinkState::Up {
            return; // stale timer: the link state changed since it was armed
        }
        if confirm {
            self.confirm_failure(node, now);
            return;
        }
        self.fault_stats.nodes_suspected += 1;
        if self.tracing() {
            self.trace_event(
                now,
                TraceKind::NodeSuspected,
                JobId(0),
                None,
                Some(node),
                format!(
                    "{} missed heartbeats",
                    self.config.detector.missed_heartbeats
                ),
            );
        }
        let grace = self.config.detector.confirmation_grace;
        if grace == SimDuration::ZERO {
            self.confirm_failure(node, now);
        } else {
            self.queue.schedule(
                now + grace,
                Event::Detector {
                    node,
                    epoch,
                    confirm: true,
                },
            );
        }
    }

    /// The detector gives up on a node: record the detection lag and run the
    /// teardown the fault deferred.
    fn confirm_failure(&mut self, node: NodeId, now: SimTime) {
        let idx = node.0 as usize;
        let since = match self.link[idx] {
            LinkState::Up => return,
            LinkState::Silent { since } | LinkState::Partitioned { since } => since,
        };
        let lag = (now - since).as_secs_f64();
        self.fault_stats.failures_detected += 1;
        self.fault_stats.detection_lag_secs_sum += lag;
        self.fault_stats.detection_lag_secs_max = self.fault_stats.detection_lag_secs_max.max(lag);
        match self.link[idx] {
            LinkState::Silent { .. } => {
                self.link[idx] = LinkState::Up;
                self.suspect_epoch[idx] += 1;
                self.fail_node(node, now, false);
            }
            LinkState::Partitioned { .. } => {
                // The node stays partitioned — it is alive out there — but
                // the master tears down its view of it.
                self.teardown_partitioned(node, now);
            }
            LinkState::Up => unreachable!("matched above"),
        }
    }

    /// A rejoining node that was still under (unconfirmed) silence: the
    /// reconnect itself reveals the outage. Record the detection lag and run
    /// the deferred teardown so the revive starts from a clean slate.
    fn resolve_silent_rejoin(&mut self, node: NodeId, now: SimTime) {
        let idx = node.0 as usize;
        let Some(&LinkState::Silent { since }) = self.link.get(idx) else {
            return;
        };
        self.link[idx] = LinkState::Up;
        self.suspect_epoch[idx] += 1;
        if !self.trackers[idx].is_alive() {
            // Already torn down node-side (a partition victim that died after
            // the master confirmed the partition): nothing new to observe.
            return;
        }
        let lag = (now - since).as_secs_f64();
        self.fault_stats.failures_detected += 1;
        self.fault_stats.detection_lag_secs_sum += lag;
        self.fault_stats.detection_lag_secs_max = self.fault_stats.detection_lag_secs_max.max(lag);
        self.fail_node(node, now, false);
    }

    /// Cuts a node off from the master. It keeps executing — completions
    /// buffer for the heal — while the detector (if on) counts down toward
    /// tearing it down.
    fn partition_node(&mut self, node: NodeId, now: SimTime) {
        let idx = node.0 as usize;
        let Some(tt) = self.trackers.get(idx) else {
            return;
        };
        if !tt.is_alive() || self.link[idx] != LinkState::Up {
            return; // dead, dark, or already partitioned
        }
        self.link[idx] = LinkState::Partitioned { since: now };
        self.suspect_epoch[idx] += 1;
        self.fault_stats.partitions += 1;
        if let Some(obs) = self.obs.as_mut() {
            obs.span_begin(
                SpanKey::Partition(node),
                node,
                format!("node-{}", node.0),
                now,
            );
        }
        if self.config.detector.enabled {
            self.schedule_suspicion(node, now);
        }
        if self.tracing() {
            self.trace_event(
                now,
                TraceKind::NodePartitioned,
                JobId(0),
                None,
                Some(node),
                "",
            );
        }
    }

    /// The master gives up on a partitioned node: every attempt it knows of
    /// there is resolved as lost, the node's capacity disappears from the
    /// scheduler views, its map outputs are declared gone and its blocks
    /// re-replicated — exactly a crash, except the node itself keeps running
    /// toward the heal and `node_failures` stays untouched (the partition
    /// counter family tracks it instead).
    fn teardown_partitioned(&mut self, node: NodeId, now: SimTime) {
        let idx = node.0 as usize;
        // Synthesize the master-side view of the teardown. `segment_event`
        // stays `None`: the attempts really are still running out there, and
        // their node-side phase events keep firing toward the heal.
        let failed: Vec<FailedAttempt> = self.trackers[idx]
            .attempts()
            .map(|a| FailedAttempt {
                id: a.id,
                state: a.state,
                invested: a.invested_time(now),
                segment_event: None,
            })
            .collect();
        self.trackers[idx].set_reachable(false);
        self.mark_node_dirty(node);
        if let Some(cmds) = self.pending_cmds.get_mut(idx) {
            cmds.clear();
        }
        for f in failed {
            self.resolve_failed_attempt(f, now);
        }
        self.lose_map_outputs(node, now);
        let rack = RackId(self.node_rack[idx]);
        self.reliability.record_failure(node, rack, now);
        let affected = self.namenode.decommission(node);
        let repair = self.namenode.re_replicate(&affected, false, &mut self.rng);
        self.fault_stats.re_replicated_blocks += repair.re_replicated;
        self.fault_stats.lost_blocks += repair.lost_blocks;
        self.charge_re_replication_io(repair.re_replicated);
        if self.tracing() {
            self.trace_event(
                now,
                TraceKind::NodeFailed,
                JobId(0),
                None,
                Some(node),
                "partition confirmed; node torn down",
            );
        }
    }

    /// Charges re-replication write traffic against the survivors' spindles:
    /// repaired replicas are written by live nodes, and — with a disk
    /// `background_share` configured — swap I/O on those nodes contends with
    /// the stream until it drains. No-op in the default configuration, where
    /// `queue_background_io` discards the bytes.
    fn charge_re_replication_io(&mut self, replicas: u64) {
        if replicas == 0 {
            return;
        }
        let total = replicas * self.config.dfs_block_size;
        let alive = self.trackers.iter().filter(|tt| tt.is_alive()).count() as u64;
        if alive == 0 {
            return;
        }
        let per_node = total / alive;
        for tt in self.trackers.iter_mut().filter(|tt| tt.is_alive()) {
            tt.queue_background_io(per_node);
        }
    }

    /// Reconnects a partitioned node. Completions it finished behind the
    /// partition reconcile first-commit-wins; if the master had torn it
    /// down, its capacity and replicas return to service.
    fn heal_partition(&mut self, node: NodeId, now: SimTime) {
        let idx = node.0 as usize;
        let Some(&LinkState::Partitioned { .. }) = self.link.get(idx) else {
            // Never partitioned — or the node died behind the partition
            // (now `Silent`): the pending timer or its rejoin resolves that
            // death, not the heal.
            return;
        };
        self.link[idx] = LinkState::Up;
        self.suspect_epoch[idx] += 1;
        self.fault_stats.partition_heals += 1;
        if let Some(obs) = self.obs.as_mut() {
            obs.span_end(SpanKey::Partition(node), now);
        }
        let torn_down = !self.trackers[idx].is_reachable();
        if torn_down {
            self.trackers[idx].set_reachable(true);
            self.namenode.rejoin(node);
        }
        // Reconcile in completion order: the first committed attempt of a
        // task wins, later ones are discarded.
        let buffered = std::mem::take(&mut self.partition_buffer[idx]);
        for attempt in buffered {
            self.reconcile_completion(attempt, node, now);
        }
        if torn_down {
            // Suspended orphans hold no slot and nothing will ever resume
            // them (the master re-ran their tasks at teardown); running
            // orphans keep going — they may still win first-commit-wins.
            let suspended: Vec<AttemptId> = self.trackers[idx].suspended_attempts().collect();
            for a in suspended {
                let _ = self.trackers[idx].kill(a, now);
            }
        }
        self.mark_node_dirty(node);
        self.last_heartbeat[idx] = now;
        if self.tracing() {
            self.trace_event(
                now,
                TraceKind::PartitionHealed,
                JobId(0),
                None,
                Some(node),
                "",
            );
        }
        // The node reconnects: an immediate heartbeat reintroduces it to the
        // scheduler.
        self.queue.schedule(now, Event::Heartbeat { node });
    }

    /// Slows a node down without killing it: new launches there stretch by
    /// the disk multiplier (work, finalize) and the net multiplier (shuffle,
    /// re-fetch backoff). Feeds the reliability predictor at half a crash's
    /// weight.
    fn degrade_node(&mut self, node: NodeId, slow_disk: f64, slow_net: f64, now: SimTime) {
        let idx = node.0 as usize;
        let Some(tt) = self.trackers.get(idx) else {
            return;
        };
        if !tt.is_alive() {
            return;
        }
        self.gray[idx] = (slow_disk.max(1.0), slow_net.max(1.0));
        self.fault_stats.gray_failures += 1;
        self.reliability.record_degraded(node, now);
        if self.tracing() {
            self.trace_event(
                now,
                TraceKind::NodeDegraded,
                JobId(0),
                None,
                Some(node),
                format!("disk x{slow_disk:.1}, net x{slow_net:.1}"),
            );
        }
    }

    /// Stretches a freshly built [`ExecPlan`] by the node's gray-failure
    /// multipliers: a slow disk stretches the I/O-bound segments (work,
    /// finalize), a slow NIC stretches the shuffle copy. Healthy nodes pass
    /// through untouched — the `!= 1.0` guards also keep the default path
    /// byte-identical (an f64 round-trip of the micros is never taken).
    fn apply_gray_stretch(&self, mut plan: ExecPlan, node: NodeId) -> ExecPlan {
        let (slow_disk, slow_net) = self
            .gray
            .get(node.0 as usize)
            .copied()
            .unwrap_or((1.0, 1.0));
        if slow_disk != 1.0 {
            plan.work = plan.work.mul_f64(slow_disk);
            plan.finalize = plan.finalize.mul_f64(slow_disk);
        }
        if slow_net != 1.0 {
            plan.shuffle = plan.shuffle.mul_f64(slow_net);
        }
        plan
    }

    /// Restores a gray-failed node to full speed (new launches only;
    /// attempts planned while degraded keep their stretched plans).
    fn heal_degradation(&mut self, node: NodeId, now: SimTime) {
        let idx = node.0 as usize;
        if self.gray.get(idx).copied().unwrap_or((1.0, 1.0)) == (1.0, 1.0) {
            return;
        }
        self.gray[idx] = (1.0, 1.0);
        self.fault_stats.gray_heals += 1;
        if self.tracing() {
            self.trace_event(
                now,
                TraceKind::DegradationHealed,
                JobId(0),
                None,
                Some(node),
                "",
            );
        }
    }

    /// Returns a failed node to service with empty disks and all slots free.
    /// A *churn* rejoin only revives a node whose current outage was caused
    /// by a churn kill — never one a scripted kill, rack outage or
    /// decommission took down. Scripted rejoins (operator actions) revive
    /// anything.
    fn rejoin_node(&mut self, node: NodeId, now: SimTime, scripted: bool) {
        if !scripted
            && !self
                .churn_down
                .get(node.0 as usize)
                .copied()
                .unwrap_or(false)
        {
            return;
        }
        // Under the failure detector a dead node may still be *silent* —
        // never confirmed. Its reconnect is itself the detection: resolve the
        // deferred teardown first, then revive from that clean slate.
        self.resolve_silent_rejoin(node, now);
        {
            let Some(tt) = self.tracker_mut(node) else {
                return;
            };
            if tt.is_alive() {
                return;
            }
            tt.revive();
        }
        self.churn_down[node.0 as usize] = false;
        self.last_heartbeat[node.0 as usize] = now;
        self.namenode.rejoin(node);
        self.mark_node_dirty(node);
        self.fault_stats.node_rejoins += 1;
        if self.tracing() {
            self.trace_event(now, TraceKind::NodeRejoined, JobId(0), None, Some(node), "");
        }
    }

    fn register_job(&mut self, spec: JobSpec, now: SimTime) -> JobId {
        let id = JobId(self.next_job_id);
        self.next_job_id += 1;

        let mut tasks;
        let mut total_map_input: u64 = 0;
        match &spec.input {
            MapInput::DfsFile { path } => {
                let file = self.namenode.lookup(path).unwrap_or_else(|| {
                    panic!("input file {path} does not exist in the simulated HDFS")
                });
                tasks = Vec::with_capacity(file.blocks.len() + spec.reduce_tasks as usize);
                for (i, block_id) in file.blocks.iter().enumerate() {
                    let size = self.namenode.block(*block_id).expect("block metadata").size;
                    let preferred = self.namenode.replicas_of(*block_id).to_vec();
                    total_map_input += size;
                    tasks.push(TaskRuntime::new(
                        TaskId {
                            job: id,
                            kind: TaskKind::Map,
                            index: i as u32,
                        },
                        size,
                        preferred,
                    ));
                }
            }
            MapInput::Synthetic {
                tasks: n,
                bytes_per_task,
            } => {
                tasks = Vec::with_capacity(*n as usize + spec.reduce_tasks as usize);
                for i in 0..*n {
                    total_map_input += bytes_per_task;
                    tasks.push(TaskRuntime::new(
                        TaskId {
                            job: id,
                            kind: TaskKind::Map,
                            index: i,
                        },
                        *bytes_per_task,
                        Vec::new(),
                    ));
                }
            }
        }
        if spec.reduce_tasks > 0 {
            let output_ratio = spec
                .profile
                .output_ratio
                .unwrap_or(self.config.task.output_ratio);
            let shuffle_per_reduce =
                ((total_map_input as f64 * output_ratio) / spec.reduce_tasks as f64) as u64;
            for i in 0..spec.reduce_tasks {
                tasks.push(TaskRuntime::new(
                    TaskId {
                        job: id,
                        kind: TaskKind::Reduce,
                        index: i,
                    },
                    shuffle_per_reduce.max(1),
                    Vec::new(),
                ));
            }
        }
        assert!(!tasks.is_empty(), "job {} has no tasks", spec.name);

        let name = if self.tracing() {
            spec.name.clone()
        } else {
            String::new()
        };
        // Freshly registered tasks are all Pending, hence schedulable.
        let map_count = tasks.iter().filter(|t| t.id.kind == TaskKind::Map).count() as u32;
        let reduce_count = tasks.len() as u32 - map_count;
        self.totals.schedulable_maps += map_count;
        self.totals.schedulable_reduces += reduce_count;
        self.delay.register_job();
        self.shuffle.register_job(map_count, reduce_count);
        self.jobs.insert(
            id,
            JobRuntime {
                id,
                spec,
                submitted_at: now,
                completed_at: None,
                tasks,
                schedulable_maps: map_count,
                schedulable_reduces: reduce_count,
                suspended_count: 0,
                occupying_count: 0,
                speculative_live: 0,
            },
        );
        self.incomplete_jobs += 1;
        self.trace_event(now, TraceKind::JobSubmitted, id, None, None, name);

        self.refresh_views();
        let actions = {
            let ctx = SchedulerContext {
                now,
                jobs: &self.jobs,
                nodes: &self.views,
                racks: &self.rack_views,
                topology: self.namenode.topology(),
                totals: self.totals,
                speculation: self.config.speculation,
                delay: Some(&self.delay),
                shuffle: Some(&self.shuffle),
                reliability: Some(&self.reliability),
            };
            self.scheduler.on_job_submitted(&ctx, id)
        };
        self.apply_actions(actions, now);
        id
    }

    fn handle_heartbeat(&mut self, node: NodeId, now: SimTime) {
        let node_idx = node.0 as usize;
        if node_idx >= self.trackers.len() {
            return;
        }
        // Dead nodes do not heartbeat. The wheel keeps computing their
        // periodic slots (same event count in every refresh mode), but the
        // cluster ignores them until the node rejoins.
        if !self.trackers[node_idx].is_alive() {
            return;
        }
        // A silent or partitioned node's heartbeats never arrive; the
        // detector timer (if armed) counts down against the last one that
        // did.
        if self.link[node_idx] != LinkState::Up {
            return;
        }
        self.last_heartbeat[node_idx] = now;

        // 1. Refresh reported progress for tasks on this node (reusable
        //    buffer: no per-heartbeat allocation).
        let mut buf = std::mem::take(&mut self.progress_buf);
        buf.clear();
        for a in self.trackers[node_idx].attempts() {
            if matches!(a.state, AttemptState::Running | AttemptState::Suspended) {
                buf.push((a.id, a.task, a.progress(now)));
            }
        }
        for &(attempt, task, progress) in &buf {
            if let Some(t) = self.task_mut(task) {
                // Only attempts the JobTracker still tracks may report: an
                // orphan left running on a healed partition victim must not
                // overwrite the progress of a task that already succeeded
                // (or re-ran) elsewhere.
                if t.current_attempt != Some(attempt) && t.spec_attempt != Some(attempt) {
                    continue;
                }
                // With a live backup attempt the task's progress is the best
                // of the two attempts, whichever node reports it.
                if t.spec_attempt.is_some() {
                    t.progress = t.progress.max(progress);
                } else {
                    t.progress = progress;
                }
            }
        }
        buf.clear();
        self.progress_buf = buf;

        // 2. Deliver pending MUST_* commands piggybacked on this heartbeat.
        //    The per-node command index replaces the old O(jobs x tasks) scan.
        if !self.pending_cmds[node_idx].is_empty() {
            self.deliver_commands(node, now);
        }

        // 3. Let the scheduling policy hand out work for this node.
        self.refresh_views();
        let actions = {
            let ctx = SchedulerContext {
                now,
                jobs: &self.jobs,
                nodes: &self.views,
                racks: &self.rack_views,
                topology: self.namenode.topology(),
                totals: self.totals,
                speculation: self.config.speculation,
                delay: Some(&self.delay),
                shuffle: Some(&self.shuffle),
                reliability: Some(&self.reliability),
            };
            self.scheduler.on_heartbeat(&ctx, node)
        };
        self.apply_actions(actions, now);
    }

    /// Delivers `node`'s pending `MUST_*` commands (step 2 of a heartbeat)
    /// and keeps the ones that could not be delivered yet.
    fn deliver_commands(&mut self, node: NodeId, now: SimTime) {
        let node_idx = node.0 as usize;
        let mut pending = std::mem::take(&mut self.pending_cmds[node_idx]);
        for &task in &pending {
            let Some(t) = self.task(task) else { continue };
            if t.node != Some(node) {
                continue;
            }
            match t.state {
                TaskState::MustSuspend => self.deliver_suspend(task, node, now),
                TaskState::MustResume => self.deliver_resume(task, node, now),
                TaskState::MustKill => self.deliver_kill(task, node, now),
                _ => {}
            }
        }
        // Keep commands that could not be delivered yet (e.g. suspend during
        // setup, resume without a free slot); they retry next heartbeat.
        pending.retain(|&task| {
            self.task(task).is_some_and(|t| {
                t.node == Some(node)
                    && matches!(
                        t.state,
                        TaskState::MustSuspend | TaskState::MustResume | TaskState::MustKill
                    )
            })
        });
        let list = &mut self.pending_cmds[node_idx];
        for task in pending {
            if !list.contains(&task) {
                list.push(task);
            }
        }
    }

    fn deliver_suspend(&mut self, task: TaskId, node: NodeId, now: SimTime) {
        let Some(attempt_id) = self.task(task).and_then(|t| t.current_attempt) else {
            return;
        };
        let Some(tt) = self.tracker_mut(node) else {
            return;
        };
        let Some(attempt) = tt.attempt(attempt_id) else {
            return;
        };
        match attempt.phase {
            // Too early: retry at the next heartbeat once the task is in its
            // work phase (a task that has not started working has nothing
            // worth preserving yet, and Hadoop cannot stop a task mid-setup).
            AttemptPhase::Setup | AttemptPhase::Shuffle => {}
            // Too late: the task will complete before the suspension matters;
            // the completion heartbeat resolves the race (Section III-B).
            AttemptPhase::Finalize => {}
            AttemptPhase::Work => {
                let pending_event = tt.attempt(attempt_id).and_then(|a| a.segment_event);
                let progress = match tt.suspend(attempt_id, now) {
                    Ok(p) => p,
                    Err(_) => return,
                };
                self.mark_node_dirty(node);
                if let Some(ev) = pending_event {
                    self.queue.cancel(ev);
                }
                self.unarm_triggers(task);
                self.set_task_state(task, TaskState::Suspended);
                if let Some(t) = self.task_mut(task) {
                    t.progress = progress;
                    t.suspend_cycles += 1;
                }
                if let Some(obs) = self.obs.as_mut() {
                    obs.span_begin(
                        SpanKey::Suspend(attempt_id),
                        node,
                        attempt_id.to_string(),
                        now,
                    );
                }
                if self.tracing() {
                    self.trace_event(
                        now,
                        TraceKind::Suspended,
                        task.job,
                        Some(task),
                        Some(node),
                        format!("SIGTSTP at {:.0}% progress", progress * 100.0),
                    );
                }
                self.schedule_out_of_band_heartbeat(node, now);
            }
        }
    }

    fn deliver_resume(&mut self, task: TaskId, node: NodeId, now: SimTime) {
        let Some(attempt_id) = self.task(task).and_then(|t| t.current_attempt) else {
            return;
        };
        let Some(tt) = self.tracker_mut(node) else {
            return;
        };
        let stall = match tt.resume(attempt_id, now) {
            Ok(stall) => stall,
            // No free slot (or similar): stay in MUST_RESUME and retry at the
            // next heartbeat from this tracker.
            Err(_) => return,
        };
        let (segment_start, remaining) = {
            let attempt = tt
                .attempt_mut(attempt_id)
                .expect("attempt present after resume");
            debug_assert_eq!(attempt.phase, AttemptPhase::Work);
            let remaining = attempt.remaining_work();
            attempt.segment_start = now + stall;
            attempt.segment_duration = remaining;
            (attempt.segment_start, remaining)
        };
        let event = self.queue.schedule(
            segment_start + remaining,
            Event::PhaseDone {
                node,
                attempt: attempt_id,
                phase: AttemptPhase::Work,
            },
        );
        if let Some(tt) = self.tracker_mut(node) {
            if let Some(attempt) = tt.attempt_mut(attempt_id) {
                attempt.segment_event = Some(event);
            }
        }
        self.mark_node_dirty(node);
        self.set_task_state(task, TaskState::Running);
        self.arm_triggers(task, node, attempt_id, now);
        if let Some(obs) = self.obs.as_mut() {
            obs.span_end(SpanKey::Suspend(attempt_id), now);
        }
        if self.tracing() {
            self.trace_event(
                now,
                TraceKind::Resumed,
                task.job,
                Some(task),
                Some(node),
                format!("SIGCONT, page-in stall {:.2}s", stall.as_secs_f64()),
            );
        }
    }

    fn deliver_kill(&mut self, task: TaskId, node: NodeId, now: SimTime) {
        let Some(attempt_id) = self.task(task).and_then(|t| t.current_attempt) else {
            return;
        };
        // Killing a task kills the whole task: any live backup dies with it.
        self.abort_speculation(task, now);
        let Some(tt) = self.tracker_mut(node) else {
            return;
        };
        if tt.attempt(attempt_id).is_none() {
            // The attempt vanished underneath us (e.g. the OOM killer took
            // it); make the task schedulable again so it restarts from scratch.
            self.force_task_pending(task);
            return;
        }
        let Some(tt) = self.tracker_mut(node) else {
            return;
        };
        let Some(attempt) = tt.attempt(attempt_id) else {
            return;
        };
        let pending_event = attempt.segment_event;
        let invested = attempt.invested_time(now);
        let outcome = match tt.kill(attempt_id, now) {
            Ok(o) => o,
            Err(_) => return,
        };
        self.mark_node_dirty(node);
        if let Some(obs) = self.obs.as_mut() {
            obs.end_attempt_spans(attempt_id, now);
        }
        if let Some(ev) = pending_event {
            self.queue.cancel(ev);
        }
        self.unarm_triggers(task);
        let cleanup = self.config.task.cleanup_duration;
        if outcome.held_slot {
            // The cleanup attempt holds the slot while it deletes the killed
            // task's partial output.
            let epoch = self.tracker(node).map(|tt| tt.epoch()).unwrap_or(0);
            self.queue.schedule(
                now + cleanup,
                Event::CleanupDone {
                    node,
                    kind: task.kind,
                    epoch,
                },
            );
        }
        self.set_task_state(task, TaskState::Killed);
        if let Some(t) = self.task_mut(task) {
            t.wasted_work += invested;
            t.paged_out_bytes += outcome.paged_out_bytes;
            t.paged_in_bytes += outcome.paged_in_bytes;
            t.progress = 0.0;
            t.node = None;
            t.current_attempt = None;
        }
        // The task itself is rescheduled from scratch.
        self.set_task_state(task, TaskState::Pending);
        if self.tracing() {
            self.trace_event(
                now,
                TraceKind::Killed,
                task.job,
                Some(task),
                Some(node),
                format!("SIGKILL, {:.1}s of work lost", invested.as_secs_f64()),
            );
        }
    }

    fn handle_phase_done(
        &mut self,
        node: NodeId,
        attempt_id: AttemptId,
        phase: AttemptPhase,
        now: SimTime,
    ) {
        // Defensive: the attempt may have been suspended, killed or OOM-killed
        // since this event was scheduled; its cancellation normally removes
        // the event, but a removed attempt cannot be cancelled, so re-check.
        let Some(tt) = self.tracker_mut(node) else {
            return;
        };
        let Some(attempt) = tt.attempt(attempt_id) else {
            return;
        };
        if attempt.state != AttemptState::Running || attempt.phase != phase {
            return;
        }
        let task = attempt_id.task;
        match phase {
            AttemptPhase::Setup => {
                let alloc = match tt.allocate_task_memory(attempt_id, now) {
                    Ok(a) => a,
                    Err(_) => return, // unknown attempt: nothing to clean up
                };
                if !alloc.failed {
                    let input_bytes = tt
                        .attempt(attempt_id)
                        .map(|a| a.plan.input_bytes)
                        .unwrap_or(0);
                    tt.record_input_read(input_bytes);
                }
                if !alloc.oom_killed.is_empty() {
                    self.mark_node_dirty(node);
                }
                // The allocating attempt itself may be among the victims (the
                // OOM killer sacrificed it); the failure path below resolves
                // it, so only the *other* victims are handled here.
                let self_killed = alloc.oom_killed.contains(&attempt_id);
                for victim in &alloc.oom_killed {
                    if *victim != attempt_id {
                        self.handle_oom_victim(*victim, node, now);
                    }
                }
                if alloc.failed {
                    self.handle_allocation_failure(task, attempt_id, node, self_killed, now);
                    return;
                }
                let next_phase = if task.kind == TaskKind::Reduce {
                    AttemptPhase::Shuffle
                } else {
                    AttemptPhase::Work
                };
                self.enter_phase(node, attempt_id, next_phase, alloc.stall, now);
            }
            AttemptPhase::Shuffle => {
                // The reduce finished copying, but map outputs may have died
                // with a node mid-shuffle. Graceful degradation: the reduce
                // does not fail — it stalls in Shuffle re-fetching with
                // exponential backoff while the JobTracker re-executes the
                // lost maps, and proceeds once every output is back.
                if !self.shuffle.complete(task.job) {
                    let cfg = *self.shuffle.config();
                    let retries = {
                        let Some(tt) = self.tracker_mut(node) else {
                            return;
                        };
                        let Some(a) = tt.attempt_mut(attempt_id) else {
                            return;
                        };
                        let r = a.shuffle_retries;
                        a.shuffle_retries = r.saturating_add(1);
                        r
                    };
                    let mut wait = SimDuration::from_secs_f64(
                        (cfg.fetch_retry_base.as_secs_f64()
                            * cfg.fetch_retry_backoff.powi(retries.min(63) as i32))
                        .min(cfg.fetch_retry_cap.as_secs_f64()),
                    );
                    // A gray-failed NIC stretches every re-fetch round too.
                    let slow_net = self.gray[node.0 as usize].1;
                    if slow_net != 1.0 {
                        wait = wait.mul_f64(slow_net);
                    }
                    let event = self.queue.schedule(
                        now + wait,
                        Event::PhaseDone {
                            node,
                            attempt: attempt_id,
                            phase: AttemptPhase::Shuffle,
                        },
                    );
                    if let Some(tt) = self.tracker_mut(node) {
                        if let Some(a) = tt.attempt_mut(attempt_id) {
                            a.segment_start = now;
                            a.segment_duration = wait;
                            a.segment_event = Some(event);
                        }
                    }
                    self.fault_stats.shuffle_refetches += 1;
                    if retries == 0 {
                        if let Some(obs) = self.obs.as_mut() {
                            obs.span_begin(
                                SpanKey::Shuffle(attempt_id),
                                node,
                                attempt_id.to_string(),
                                now,
                            );
                        }
                    }
                    if self.tracing() {
                        self.trace_event(
                            now,
                            TraceKind::ShuffleStalled,
                            task.job,
                            Some(task),
                            Some(node),
                            format!("retry {} in {:.1}s", retries + 1, wait.as_secs_f64()),
                        );
                    }
                    return;
                }
                if let Some(obs) = self.obs.as_mut() {
                    obs.span_end(SpanKey::Shuffle(attempt_id), now);
                }
                self.enter_phase(node, attempt_id, AttemptPhase::Work, SimDuration::ZERO, now);
            }
            AttemptPhase::Work => {
                // Work finished: fault the task's own state back in (stateful
                // tasks read their memory when finalizing) and write output.
                let stall = tt
                    .fault_in_own_memory(attempt_id, now)
                    .unwrap_or(SimDuration::ZERO);
                let output = tt
                    .attempt(attempt_id)
                    .map(|a| a.plan.output_bytes)
                    .unwrap_or(0);
                tt.write_output(output);
                if let Some(a) = tt.attempt_mut(attempt_id) {
                    a.work_completed = a.plan.work;
                }
                self.enter_phase(node, attempt_id, AttemptPhase::Finalize, stall, now);
            }
            AttemptPhase::Finalize => {
                self.complete_attempt(node, attempt_id, now);
            }
        }
    }

    /// Moves an attempt into `phase`, scheduling its completion after
    /// `stall + <phase duration>`.
    fn enter_phase(
        &mut self,
        node: NodeId,
        attempt_id: AttemptId,
        phase: AttemptPhase,
        stall: SimDuration,
        now: SimTime,
    ) {
        let Some(tt) = self.tracker_mut(node) else {
            return;
        };
        let Some(attempt) = tt.attempt_mut(attempt_id) else {
            return;
        };
        attempt.phase = phase;
        let duration = match phase {
            AttemptPhase::Setup => attempt.plan.setup,
            AttemptPhase::Shuffle => attempt.plan.shuffle,
            AttemptPhase::Work => attempt.remaining_work(),
            AttemptPhase::Finalize => attempt.plan.finalize,
        };
        attempt.segment_start = now + stall;
        attempt.segment_duration = duration;
        let fire_at = attempt.segment_start + duration;
        let event = self.queue.schedule(
            fire_at,
            Event::PhaseDone {
                node,
                attempt: attempt_id,
                phase,
            },
        );
        if let Some(tt) = self.tracker_mut(node) {
            if let Some(attempt) = tt.attempt_mut(attempt_id) {
                attempt.segment_event = Some(event);
            }
        }
        if phase == AttemptPhase::Work {
            self.arm_triggers(attempt_id.task, node, attempt_id, now);
        }
    }

    fn complete_attempt(&mut self, node: NodeId, attempt_id: AttemptId, now: SimTime) {
        let task = attempt_id.task;
        let idx = node.0 as usize;
        // Behind a partition the node finishes work the master cannot see:
        // the completion buffers until the heal reconciles it.
        if matches!(self.link.get(idx), Some(LinkState::Partitioned { .. })) {
            self.partition_buffer[idx].push(attempt_id);
            return;
        }
        // An attempt the JobTracker no longer tracks (its task was re-run
        // after a partition teardown) completing on a healed node goes
        // through first-commit-wins reconciliation instead.
        let orphan = match self.task(task) {
            None => true,
            Some(t) => t.current_attempt != Some(attempt_id) && t.spec_attempt != Some(attempt_id),
        };
        if orphan {
            self.reconcile_completion(attempt_id, node, now);
            return;
        }
        let Some(tt) = self.tracker_mut(node) else {
            return;
        };
        // Captured before `complete` consumes the attempt: a committing map
        // registers its output size with the shuffle tracker below.
        let output_bytes = tt
            .attempt(attempt_id)
            .map(|a| a.plan.output_bytes)
            .unwrap_or(0);
        let outcome = match tt.complete(attempt_id, now) {
            Ok(o) => o,
            Err(_) => return,
        };
        self.mark_node_dirty(node);
        if let Some(obs) = self.obs.as_mut() {
            obs.end_attempt_spans(attempt_id, now);
        }
        // First finisher wins: a completing attempt kills its sibling (the
        // original kills the backup; a winning backup kills the original,
        // wherever — running or suspended — it currently sits).
        let (is_current, is_spec, sibling) = {
            match self.task(task) {
                Some(t) => {
                    let is_current = t.current_attempt == Some(attempt_id);
                    let sibling = if is_current {
                        t.spec_attempt.zip(t.spec_node)
                    } else {
                        t.current_attempt.zip(t.node)
                    };
                    (is_current, t.spec_attempt == Some(attempt_id), sibling)
                }
                None => (false, false, None),
            }
        };
        if is_current || is_spec {
            if let Some((loser, loser_node)) = sibling {
                self.kill_sibling_attempt(loser, loser_node, now);
            }
            self.clear_speculation_fields(task);
            if is_spec {
                self.fault_stats.speculative_won += 1;
            }
        }
        self.set_task_state(task, TaskState::Succeeded);
        self.commit_success(task, node, &outcome, output_bytes, now, "");
    }

    /// The commit tail shared by a live completion and a reconciled one,
    /// once the task is `Succeeded`: the task's final fields, the committed
    /// map's output registration, the `Completed` trace (with `detail`) and
    /// [`Cluster::after_task_success`].
    fn commit_success(
        &mut self,
        task: TaskId,
        node: NodeId,
        outcome: &TerminationOutcome,
        output_bytes: u64,
        now: SimTime,
        detail: &str,
    ) {
        if let Some(t) = self.task_mut(task) {
            t.progress = 1.0;
            t.finished_at = Some(now);
            t.current_attempt = None;
            t.node = Some(node);
            t.paged_out_bytes += outcome.paged_out_bytes;
            t.paged_in_bytes += outcome.paged_in_bytes;
        }
        // A committed map leaves its output on this node's local disks; the
        // registry is what makes that output a fault domain (and what feeds
        // rack-aware reduce placement).
        if task.kind == TaskKind::Map && self.shuffle.tracked(task.job) {
            let rack = RackId(self.node_rack[node.0 as usize]);
            self.shuffle
                .record_map_output(task.job, task.index as usize, node, rack, output_bytes);
        }
        self.trace_event(
            now,
            TraceKind::Completed,
            task.job,
            Some(task),
            Some(node),
            detail,
        );
        self.after_task_success(task, node, now);
    }

    /// The shared tail of a task success — job-completion bookkeeping plus
    /// the scheduler hooks. Used by the normal commit path and by
    /// reconciled commits after a partition heal.
    fn after_task_success(&mut self, task: TaskId, node: NodeId, now: SimTime) {
        // Job completion check.
        let job_complete = self
            .jobs
            .get(&task.job)
            .map(|j| j.is_complete())
            .unwrap_or(false);
        if job_complete {
            if let Some(job) = self.jobs.get_mut(&task.job) {
                job.completed_at = Some(now);
            }
            self.shuffle.job_finished(task.job);
            self.incomplete_jobs = self.incomplete_jobs.saturating_sub(1);
            #[cfg(debug_assertions)]
            self.debug_check_job_counters(task.job);
            self.trace_event(now, TraceKind::JobCompleted, task.job, None, None, "");
        }

        // Scheduler hooks.
        self.refresh_views();
        let mut actions = {
            let ctx = SchedulerContext {
                now,
                jobs: &self.jobs,
                nodes: &self.views,
                racks: &self.rack_views,
                topology: self.namenode.topology(),
                totals: self.totals,
                speculation: self.config.speculation,
                delay: Some(&self.delay),
                shuffle: Some(&self.shuffle),
                reliability: Some(&self.reliability),
            };
            self.scheduler.on_task_finished(&ctx, task)
        };
        if job_complete {
            let more = {
                let ctx = SchedulerContext {
                    now,
                    jobs: &self.jobs,
                    nodes: &self.views,
                    racks: &self.rack_views,
                    topology: self.namenode.topology(),
                    totals: self.totals,
                    speculation: self.config.speculation,
                    delay: Some(&self.delay),
                    shuffle: Some(&self.shuffle),
                    reliability: Some(&self.reliability),
                };
                self.scheduler.on_job_finished(&ctx, task.job)
            };
            actions.extend(more);
        }
        self.apply_actions(actions, now);
        self.schedule_out_of_band_heartbeat(node, now);
    }

    /// First-commit-wins reconciliation of a completion the master did not
    /// witness live: either buffered behind a partition and drained at the
    /// heal, or finished by an orphaned attempt the teardown already wrote
    /// off. Exactly one commit per task ever happens — if the task already
    /// succeeded elsewhere (or its job retired), this completion is
    /// discarded and only frees the node-side slot.
    fn reconcile_completion(&mut self, attempt_id: AttemptId, node: NodeId, now: SimTime) {
        let task = attempt_id.task;
        let job_retired = self
            .jobs
            .get(&task.job)
            .map(|j| j.completed_at.is_some())
            .unwrap_or(true);
        let task_state = self.task(task).map(|t| t.state);
        let already_succeeded = task_state == Some(TaskState::Succeeded);
        if job_retired || already_succeeded || task_state.is_none() {
            // Discard: someone else committed first (or the job is gone).
            // The duplicate-commit tripwire in FaultStats stays at zero
            // because this path never touches task state.
            if let Some(tt) = self.tracker_mut(node) {
                let _ = tt.complete(attempt_id, now);
            }
            self.mark_node_dirty(node);
            self.fault_stats.reconciled_discards += 1;
            if self.tracing() {
                self.trace_event(
                    now,
                    TraceKind::Killed,
                    task.job,
                    Some(task),
                    Some(node),
                    "stale completion discarded at heal",
                );
            }
            return;
        }
        // Commit: this attempt is the first finisher. Kill whatever
        // re-execution the teardown started — first commit wins.
        let (current, spec) = {
            let Some(t) = self.task(task) else { return };
            (
                t.current_attempt.zip(t.node),
                t.spec_attempt.zip(t.spec_node),
            )
        };
        if let Some((a, n)) = current {
            if a != attempt_id {
                self.kill_sibling_attempt(a, n, now);
            }
        }
        if let Some((a, n)) = spec {
            if a != attempt_id {
                self.kill_sibling_attempt(a, n, now);
            }
        }
        self.clear_speculation_fields(task);
        self.unarm_triggers(task);
        let output_bytes = self
            .tracker(node)
            .and_then(|tt| tt.attempt(attempt_id))
            .map(|a| a.plan.output_bytes)
            .unwrap_or(0);
        let outcome = {
            let Some(tt) = self.tracker_mut(node) else {
                return;
            };
            match tt.complete(attempt_id, now) {
                Ok(o) => o,
                Err(_) => return,
            }
        };
        self.mark_node_dirty(node);
        // Tripwire, not control flow: if the task somehow reached Succeeded
        // between the routing check above and here, committing again would
        // be a double commit. The bench quality gate asserts this is zero.
        if self.task(task).map(|t| t.state) == Some(TaskState::Succeeded) {
            self.fault_stats.duplicate_commits += 1;
        }
        self.fault_stats.reconciled_commits += 1;
        self.force_task_state(task, TaskState::Succeeded);
        self.commit_success(task, node, &outcome, output_bytes, now, "reconciled");
    }

    /// Handles a task whose process was sacrificed by the OOM killer while
    /// another task was allocating memory.
    fn handle_oom_victim(&mut self, attempt_id: AttemptId, node: NodeId, now: SimTime) {
        let task = attempt_id.task;
        if let Some(obs) = self.obs.as_mut() {
            obs.end_attempt_spans(attempt_id, now);
        }
        let (is_current, is_spec, backup, wasted) = {
            let Some(t) = self.task(task) else { return };
            (
                t.current_attempt == Some(attempt_id),
                t.spec_attempt == Some(attempt_id),
                t.spec_attempt.zip(t.spec_node),
                t.progress,
            )
        };
        if is_spec {
            // Only the backup died (its process is already gone); the
            // original attempt is untouched.
            self.clear_speculation_fields(task);
            self.trace_event(
                now,
                TraceKind::Killed,
                task.job,
                Some(task),
                Some(node),
                "speculative attempt OOM-killed",
            );
            return;
        }
        if !is_current {
            return;
        }
        self.unarm_triggers(task);
        if let Some((spec_attempt, spec_node)) = backup {
            // The original died but its backup lives on another node (the
            // OOM happened on the original's node): promote the backup and
            // re-arm any progress watches against it.
            self.clear_speculation_fields(task);
            if let Some(t) = self.task_mut(task) {
                t.current_attempt = Some(spec_attempt);
                t.node = Some(spec_node);
                t.wasted_work += SimDuration::from_secs_f64(wasted * 10.0);
            }
            self.force_task_state(task, TaskState::Running);
            self.arm_triggers(task, spec_node, spec_attempt, now);
        } else {
            // Whatever state the task was in, its attempt is gone: it goes
            // back to pending and will be rescheduled from scratch.
            self.force_task_pending(task);
            if let Some(t) = self.task_mut(task) {
                t.wasted_work += SimDuration::from_secs_f64(wasted * 10.0);
            }
        }
        self.trace_event(
            now,
            TraceKind::Killed,
            task.job,
            Some(task),
            Some(node),
            "OOM-killed while another task allocated memory",
        );
    }

    /// Resolves an unrecoverable memory-allocation failure for `attempt_id`.
    /// `attempt_gone` means the OOM killer already took the allocating
    /// attempt's process; otherwise the attempt is still on the tracker and
    /// goes through the ordinary kill path.
    fn handle_allocation_failure(
        &mut self,
        task: TaskId,
        attempt_id: AttemptId,
        node: NodeId,
        attempt_gone: bool,
        now: SimTime,
    ) {
        if attempt_gone {
            // Same resolution as any other OOM victim: reschedule the task
            // (or promote its backup).
            self.handle_oom_victim(attempt_id, node, now);
            return;
        }
        let is_spec = self
            .task(task)
            .is_some_and(|t| t.spec_attempt == Some(attempt_id));
        if is_spec {
            // Only the backup failed to allocate; the original continues.
            self.abort_speculation(task, now);
        } else {
            self.force_kill_after_failure(task, node, now);
        }
    }

    fn force_kill_after_failure(&mut self, task: TaskId, node: NodeId, now: SimTime) {
        let marked = matches!(
            self.task(task).map(|t| t.state),
            Some(TaskState::Running | TaskState::MustSuspend)
        );
        if marked {
            self.set_task_state(task, TaskState::MustKill);
            // Index the command in case the immediate delivery below cannot
            // complete (the retry then rides the next heartbeat).
            self.enqueue_command(node, task);
        }
        self.deliver_kill(task, node, now);
    }

    fn apply_actions(&mut self, actions: Vec<SchedulerAction>, now: SimTime) {
        // Profiler bookkeeping: exact per-action counts, plus direct timing
        // of one invocation in `ACTION_SAMPLE_EVERY` (scaled back up). The
        // array indices mirror [`crate::obs::ACTION_KINDS`].
        let timer = self.obs.as_mut().and_then(|o| o.action_timer());
        let mut acted = [0u32; 6];
        for action in actions {
            if self.obs.is_some() {
                let idx = match &action {
                    SchedulerAction::SubmitJob(_) => 0,
                    SchedulerAction::Launch { .. } => 1,
                    SchedulerAction::LaunchSpeculative { .. } => 2,
                    SchedulerAction::Suspend { .. } => 3,
                    SchedulerAction::Resume { .. } => 4,
                    SchedulerAction::Kill { .. } => 5,
                };
                acted[idx] += 1;
            }
            match action {
                SchedulerAction::SubmitJob(spec) => {
                    // register_job invokes on_job_submitted itself and applies
                    // any actions it returns.
                    self.register_job(spec, now);
                }
                SchedulerAction::Launch { task, node } => {
                    self.launch_task(task, node, now);
                }
                SchedulerAction::LaunchSpeculative { task, node } => {
                    self.launch_speculative(task, node, now);
                }
                SchedulerAction::Suspend { task } => {
                    let node = match self.task(task) {
                        Some(t) if t.state == TaskState::Running => t.node,
                        _ => None,
                    };
                    if let Some(node) = node {
                        self.set_task_state(task, TaskState::MustSuspend);
                        self.enqueue_command(node, task);
                    }
                }
                SchedulerAction::Resume { task } => {
                    let node = match self.task(task) {
                        Some(t) if t.state == TaskState::Suspended => t.node,
                        _ => None,
                    };
                    if let Some(node) = node {
                        self.set_task_state(task, TaskState::MustResume);
                        self.enqueue_command(node, task);
                    }
                }
                SchedulerAction::Kill { task } => {
                    let node = match self.task(task) {
                        Some(t)
                            if matches!(
                                t.state,
                                TaskState::Running
                                    | TaskState::Suspended
                                    | TaskState::MustSuspend
                                    | TaskState::MustResume
                            ) =>
                        {
                            t.node
                        }
                        _ => None,
                    };
                    if let Some(node) = node {
                        self.set_task_state(task, TaskState::MustKill);
                        self.enqueue_command(node, task);
                    }
                }
            }
        }
        if let Some(obs) = self.obs.as_mut() {
            obs.record_actions(&acted, timer);
        }
    }

    /// Shuffle-duration multiplier for a reduce of `job` launching on `node`:
    /// cross-rack map-output bytes pay the configured top-of-rack penalty,
    /// `1 + (penalty - 1) * cross_rack_fraction`. `1.0` while shuffle
    /// tracking is off (or the penalty is 1), so the default-off
    /// configuration prices every byte identically.
    fn reduce_contention(&self, job: JobId, node: NodeId) -> f64 {
        if !self.shuffle.enabled() {
            return 1.0;
        }
        let rack = RackId(self.node_rack[node.0 as usize]);
        let penalty = self.shuffle.config().cross_rack_penalty;
        1.0 + (penalty - 1.0) * self.shuffle.cross_rack_fraction(job, rack)
    }

    fn launch_task(&mut self, task: TaskId, node: NodeId, now: SimTime) {
        // A dark node cannot receive a launch: the scheduler's view of it is
        // stale until the detector tears it down or the link heals.
        if self.link.get(node.0 as usize) != Some(&LinkState::Up) {
            return;
        }
        // Build the execution plan from borrowed state: no clones of the
        // profile, the preferred-node list or the disk config on this path.
        let (plan, locality) = {
            let Some(job) = self.jobs.get(&task.job) else {
                return;
            };
            let Some(t) = job.task(task) else { return };
            if !t.state.is_schedulable() {
                return;
            }
            let Some(tt) = self.tracker(node) else { return };
            if tt.free_slots(task.kind) == 0 {
                return;
            }
            // O(replicas): the topology's rack lookups are O(1).
            let locality = if t.preferred_nodes.is_empty() {
                Locality::NodeLocal
            } else {
                t.preferred_nodes
                    .iter()
                    .map(|holder| self.namenode.topology().locality(node, *holder))
                    .min()
                    .unwrap_or(Locality::OffRack)
            };
            let disk = &tt.kernel().config().disk;
            let profile = &job.spec.profile;
            let plan = match task.kind {
                TaskKind::Map => {
                    ExecPlan::for_map(&self.config.task, disk, profile, t.input_bytes, locality)
                }
                TaskKind::Reduce => {
                    let contention = self.reduce_contention(task.job, node);
                    ExecPlan::for_reduce_contended(
                        &self.config.task,
                        disk,
                        profile,
                        t.input_bytes,
                        contention,
                    )
                }
            };
            (plan, locality)
        };
        let plan = self.apply_gray_stretch(plan, node);
        let attempt_id = {
            let Some(t) = self.task_mut(task) else { return };
            t.next_attempt()
        };
        let tt = self.tracker_mut(node).expect("checked above");
        if tt.launch(attempt_id, task.kind, plan, now).is_err() {
            // Roll back the attempt counter bump is not necessary: attempt ids
            // only need to be unique.
            return;
        }
        self.mark_node_dirty(node);
        if task.kind == TaskKind::Map {
            self.locality.record(locality);
            // Delay scheduling: a node-local launch ends the job's wait
            // (reset-on-local-launch); the wait it paid goes into the
            // histogram. Preference-less tasks count as node-local but never
            // start a wait, so they record nothing.
            if locality == Locality::NodeLocal {
                if let Some(waited) = self.delay.local_launch(task.job, now) {
                    self.locality.record_delay_wait(waited);
                }
            }
        }
        self.set_task_state(task, TaskState::Running);
        {
            let t = self.task_mut(task).expect("task exists");
            t.node = Some(node);
            t.current_attempt = Some(attempt_id);
            t.progress = 0.0;
            if t.first_launched_at.is_none() {
                t.first_launched_at = Some(now);
            }
        }
        // Schedule the end of the setup phase.
        let setup = self
            .tracker(node)
            .and_then(|tt| tt.attempt(attempt_id))
            .map(|a| a.plan.setup)
            .unwrap_or(SimDuration::ZERO);
        let event = self.queue.schedule(
            now + setup,
            Event::PhaseDone {
                node,
                attempt: attempt_id,
                phase: AttemptPhase::Setup,
            },
        );
        if let Some(tt) = self.tracker_mut(node) {
            if let Some(a) = tt.attempt_mut(attempt_id) {
                a.segment_event = Some(event);
                a.segment_start = now;
                a.segment_duration = setup;
            }
        }
        if let Some(obs) = self.obs.as_mut() {
            obs.span_begin(
                SpanKey::Attempt(attempt_id),
                node,
                attempt_id.to_string(),
                now,
            );
        }
        if self.tracing() {
            self.trace_event(
                now,
                TraceKind::Launched,
                task.job,
                Some(task),
                Some(node),
                format!("attempt {}", attempt_id.number),
            );
        }
    }

    // ----- speculative re-execution -----------------------------------------

    /// Launches a speculative (backup) attempt of `task` on `node`. The task
    /// keeps its JobTracker state (`Running` or `Suspended`); the backup is
    /// tracked through [`TaskRuntime::spec_attempt`] and the first attempt to
    /// finish wins.
    fn launch_speculative(&mut self, task: TaskId, node: NodeId, now: SimTime) {
        if self.link.get(node.0 as usize) != Some(&LinkState::Up) {
            return;
        }
        let plan = {
            let Some(job) = self.jobs.get(&task.job) else {
                return;
            };
            if job.speculative_live >= self.config.speculation.max_live_per_job {
                return;
            }
            let Some(t) = job.task(task) else { return };
            if t.spec_attempt.is_some()
                || !matches!(
                    t.state,
                    TaskState::Running | TaskState::Suspended | TaskState::MustResume
                )
                || t.node == Some(node)
            {
                return;
            }
            let Some(tt) = self.tracker(node) else { return };
            if !tt.is_alive() || tt.free_slots(task.kind) == 0 {
                return;
            }
            let locality = if t.preferred_nodes.is_empty() {
                Locality::NodeLocal
            } else {
                t.preferred_nodes
                    .iter()
                    .map(|holder| self.namenode.topology().locality(node, *holder))
                    .min()
                    .unwrap_or(Locality::OffRack)
            };
            let disk = &tt.kernel().config().disk;
            let profile = &job.spec.profile;
            match task.kind {
                TaskKind::Map => {
                    ExecPlan::for_map(&self.config.task, disk, profile, t.input_bytes, locality)
                }
                TaskKind::Reduce => {
                    let contention = self.reduce_contention(task.job, node);
                    ExecPlan::for_reduce_contended(
                        &self.config.task,
                        disk,
                        profile,
                        t.input_bytes,
                        contention,
                    )
                }
            }
        };
        let plan = self.apply_gray_stretch(plan, node);
        let attempt_id = {
            let Some(t) = self.task_mut(task) else { return };
            t.next_attempt()
        };
        let tt = self.tracker_mut(node).expect("checked above");
        if tt.launch(attempt_id, task.kind, plan, now).is_err() {
            return;
        }
        self.mark_node_dirty(node);
        {
            let job = self.jobs.get_mut(&task.job).expect("checked above");
            job.speculative_live += 1;
            let t = job.task_mut(task).expect("checked above");
            t.spec_attempt = Some(attempt_id);
            t.spec_node = Some(node);
        }
        self.fault_stats.speculative_launched += 1;
        let setup = self
            .tracker(node)
            .and_then(|tt| tt.attempt(attempt_id))
            .map(|a| a.plan.setup)
            .unwrap_or(SimDuration::ZERO);
        let event = self.queue.schedule(
            now + setup,
            Event::PhaseDone {
                node,
                attempt: attempt_id,
                phase: AttemptPhase::Setup,
            },
        );
        if let Some(tt) = self.tracker_mut(node) {
            if let Some(a) = tt.attempt_mut(attempt_id) {
                a.segment_event = Some(event);
                a.segment_start = now;
                a.segment_duration = setup;
            }
        }
        if let Some(obs) = self.obs.as_mut() {
            obs.span_begin(
                SpanKey::Attempt(attempt_id),
                node,
                attempt_id.to_string(),
                now,
            );
        }
        if self.tracing() {
            self.trace_event(
                now,
                TraceKind::Speculated,
                task.job,
                Some(task),
                Some(node),
                format!("backup attempt {}", attempt_id.number),
            );
        }
    }

    /// Kills the losing attempt of a first-finisher-wins race (or of an
    /// aborted speculation), wherever it is and whatever state it is in.
    /// Charges its invested time to the speculation-waste counter.
    fn kill_sibling_attempt(&mut self, attempt: AttemptId, node: NodeId, now: SimTime) {
        let Some(tt) = self.tracker_mut(node) else {
            return;
        };
        let Some(a) = tt.attempt(attempt) else { return };
        let pending_event = a.segment_event;
        let invested = a.invested_time(now);
        if tt.kill(attempt, now).map(|o| o.held_slot).unwrap_or(false) {
            // The killed loser held a slot: a cleanup attempt occupies it
            // until the partial output is deleted, exactly like a scheduler
            // kill.
            let epoch = self.tracker(node).map(|tt| tt.epoch()).unwrap_or(0);
            self.queue.schedule(
                now + self.config.task.cleanup_duration,
                Event::CleanupDone {
                    node,
                    kind: attempt.task.kind,
                    epoch,
                },
            );
        }
        self.mark_node_dirty(node);
        if let Some(obs) = self.obs.as_mut() {
            obs.end_attempt_spans(attempt, now);
        }
        if let Some(ev) = pending_event {
            self.queue.cancel(ev);
        }
        self.fault_stats.speculative_wasted_secs += invested.as_secs_f64();
        self.schedule_out_of_band_heartbeat(node, now);
    }

    /// Tears down a task's live backup attempt (if any) and clears the
    /// speculation fields; the original attempt is unaffected.
    fn abort_speculation(&mut self, task: TaskId, now: SimTime) {
        let backup = self
            .task(task)
            .and_then(|t| t.spec_attempt.zip(t.spec_node));
        if let Some((spec_attempt, spec_node)) = backup {
            self.kill_sibling_attempt(spec_attempt, spec_node, now);
            self.clear_speculation_fields(task);
        }
    }

    // ----- progress triggers -----------------------------------------------

    fn arm_triggers(&mut self, task: TaskId, node: NodeId, attempt_id: AttemptId, _now: SimTime) {
        if self.triggers.is_empty() || task.kind != TaskKind::Map {
            return;
        }
        let Some(job) = self.jobs.get(&task.job) else {
            return;
        };
        let job_name = job.spec.name.clone();
        let (segment_start, work, work_completed) = {
            let Some(tt) = self.tracker(node) else { return };
            let Some(a) = tt.attempt(attempt_id) else {
                return;
            };
            (a.segment_start, a.plan.work, a.work_completed)
        };
        for index in 0..self.triggers.len() {
            let matches = {
                let t = &self.triggers[index];
                matches!(t.state, TriggerState::Waiting)
                    && t.job_name == job_name
                    && t.task_index == task.index
            };
            if !matches {
                continue;
            }
            let fraction = self.triggers[index].fraction;
            let target = work.mul_f64(fraction);
            let fire_at = if work_completed >= target {
                segment_start
            } else {
                segment_start + target.saturating_sub(work_completed)
            };
            let event = self
                .queue
                .schedule(fire_at, Event::ProgressTrigger { index });
            self.triggers[index].state = TriggerState::Armed { event, task };
        }
    }

    fn unarm_triggers(&mut self, task: TaskId) {
        for trigger in &mut self.triggers {
            if let TriggerState::Armed {
                event,
                task: armed_task,
            } = trigger.state
            {
                if armed_task == task {
                    self.queue.cancel(event);
                    trigger.state = TriggerState::Waiting;
                }
            }
        }
    }

    fn handle_progress_trigger(&mut self, index: usize, now: SimTime) {
        let (task, fraction) = match &self.triggers[index].state {
            TriggerState::Armed { task, .. } => (*task, self.triggers[index].fraction),
            _ => return,
        };
        self.triggers[index].state = TriggerState::Fired;
        self.refresh_views();
        let actions = {
            let ctx = SchedulerContext {
                now,
                jobs: &self.jobs,
                nodes: &self.views,
                racks: &self.rack_views,
                topology: self.namenode.topology(),
                totals: self.totals,
                speculation: self.config.speculation,
                delay: Some(&self.delay),
                shuffle: Some(&self.shuffle),
                reliability: Some(&self.reliability),
            };
            self.scheduler.on_progress_trigger(&ctx, task, fraction)
        };
        self.apply_actions(actions, now);
    }
}

/// Rebuilds one node view from its tracker's current state.
fn fill_view(view: &mut NodeView, tt: &TaskTracker) {
    view.free_map_slots = tt.free_map_slots();
    view.free_reduce_slots = tt.free_reduce_slots();
    view.running.clear();
    view.suspended.clear();
    if !tt.is_reachable() {
        // A torn-down partition victim advertises nothing: its attempts are
        // written off master-side even though they still run node-side.
        return;
    }
    for a in tt.attempts() {
        match a.state {
            AttemptState::Running => view.running.push(a.task),
            AttemptState::Suspended => view.suspended.push(a.task),
            _ => {}
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("now", &self.queue.now())
            .field("nodes", &self.trackers.len())
            .field("jobs", &self.jobs.len())
            .field("scheduler", &self.scheduler.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::TaskProfile;
    use crate::scheduler::FifoScheduler;
    use mrp_sim::MIB;

    fn single_node_cluster() -> Cluster {
        Cluster::new(
            ClusterConfig::paper_single_node(),
            Box::new(FifoScheduler::new()),
        )
    }

    #[test]
    fn single_map_only_job_runs_to_completion() {
        let mut c = single_node_cluster();
        c.create_input_file("/input", 512 * MIB).unwrap();
        c.submit_job(JobSpec::map_only("solo", "/input"));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete());
        let sojourn = report.sojourn_secs("solo").unwrap();
        assert!(
            (70.0..100.0).contains(&sojourn),
            "a 512MB map-only job should take ~80-90s, got {sojourn}"
        );
        assert_eq!(
            report.total_swap_out_bytes(),
            0,
            "no paging for a single light job"
        );
        assert_eq!(report.jobs[0].tasks[0].attempts, 1);
        assert!(c.events_processed() > 0);
    }

    #[test]
    fn two_jobs_on_one_slot_run_sequentially_fifo() {
        let mut c = single_node_cluster();
        c.create_input_file("/a", 512 * MIB).unwrap();
        c.create_input_file("/b", 512 * MIB).unwrap();
        c.submit_job(JobSpec::map_only("first", "/a"));
        c.submit_job_at(JobSpec::map_only("second", "/b"), SimTime::from_secs(1));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete());
        let first = report.sojourn_secs("first").unwrap();
        let second = report.sojourn_secs("second").unwrap();
        assert!(
            second > first + 40.0,
            "the second job has to wait for the slot"
        );
        let makespan = report.makespan_secs().unwrap();
        assert!(
            (150.0..220.0).contains(&makespan),
            "two ~85s tasks back to back, got {makespan}"
        );
    }

    #[test]
    fn synthetic_jobs_do_not_need_dfs_files() {
        let mut c = single_node_cluster();
        c.submit_job(JobSpec::synthetic("synt", 1, 64 * MIB));
        c.run(SimTime::from_secs(600));
        assert!(c.report().all_jobs_complete());
    }

    #[test]
    fn job_with_reduce_tasks_completes() {
        let mut c = Cluster::new(
            ClusterConfig::small_cluster(2, 1, 1),
            Box::new(FifoScheduler::new()),
        );
        c.create_input_file("/in", 256 * MIB).unwrap();
        c.submit_job(JobSpec::map_only("mr", "/in").with_reduces(1));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete());
        // 2 maps (128 MB blocks) + 1 reduce.
        assert_eq!(report.jobs[0].tasks.len(), 3);
    }

    #[test]
    fn memory_hungry_tasks_swap_under_contention() {
        let mut c = Cluster::new(
            {
                let mut cfg = ClusterConfig::paper_single_node();
                cfg.nodes[0].map_slots = 2;
                cfg
            },
            Box::new(FifoScheduler::new()),
        );
        c.create_input_file("/a", 512 * MIB).unwrap();
        c.create_input_file("/b", 512 * MIB).unwrap();
        c.submit_job(
            JobSpec::map_only("hog-a", "/a").with_profile(TaskProfile::memory_hungry(2048 * MIB)),
        );
        c.submit_job(
            JobSpec::map_only("hog-b", "/b").with_profile(TaskProfile::memory_hungry(2048 * MIB)),
        );
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete());
        assert!(
            report.total_swap_out_bytes() > 0,
            "two 2GB tasks on a 4GB node must page"
        );
    }

    #[test]
    fn trace_records_the_schedule() {
        let mut c = single_node_cluster();
        c.create_input_file("/input", 512 * MIB).unwrap();
        c.submit_job(JobSpec::map_only("traced", "/input"));
        c.run(SimTime::from_secs(3_600));
        let kinds: Vec<TraceKind> = c.trace().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&TraceKind::JobSubmitted));
        assert!(kinds.contains(&TraceKind::Launched));
        assert!(kinds.contains(&TraceKind::Completed));
        assert!(kinds.contains(&TraceKind::JobCompleted));
        assert!(c.trace().iter().all(|e| !e.to_line().is_empty()));
    }

    #[test]
    fn trace_level_off_records_nothing_but_produces_the_same_report() {
        let run = |trace_level| {
            let mut cfg = ClusterConfig::paper_single_node();
            cfg.trace_level = trace_level;
            let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
            c.create_input_file("/input", 512 * MIB).unwrap();
            c.submit_job(JobSpec::map_only("job", "/input"));
            c.run(SimTime::from_secs(3_600));
            (c.trace().len(), c.report())
        };
        let (traced_len, traced_report) = run(TraceLevel::Schedule);
        let (off_len, off_report) = run(TraceLevel::Off);
        assert!(traced_len > 0);
        assert_eq!(off_len, 0, "TraceLevel::Off must record nothing");
        assert_eq!(
            traced_report, off_report,
            "tracing must not alter the simulation"
        );
    }

    #[test]
    fn run_with_no_jobs_returns_immediately() {
        let mut c = single_node_cluster();
        let end = c.run(SimTime::from_secs(100));
        assert_eq!(end, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "does not exist in the simulated HDFS")]
    fn missing_input_file_panics_at_submission() {
        let mut c = single_node_cluster();
        c.submit_job(JobSpec::map_only("broken", "/nope"));
        c.run(SimTime::from_secs(10));
    }

    #[test]
    fn multi_rack_cluster_completes_and_records_locality() {
        let mut cfg = ClusterConfig::racked_cluster(2, 2, 1, 1);
        cfg.dfs_replication = 2;
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        assert_eq!(c.namenode().topology().rack_count(), 2);
        assert_eq!(c.rack_views().len(), 2);
        // Write the input from a node in rack 1; replicas then prefer to
        // span racks, so launches land in every locality bucket over time.
        c.create_input_file_from("/in", 512 * MIB, Some(NodeId(3)))
            .unwrap();
        c.submit_job(JobSpec::map_only("racked", "/in"));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete());
        // 4 x 128 MB blocks -> 4 map launches, all recorded.
        assert_eq!(report.locality.total(), 4);
        assert_eq!(c.locality_stats(), report.locality);
        // With everything idle again, the maintained rack counters must add
        // back up to the configured slots.
        let total_free: u32 = c.rack_views().iter().map(|r| r.free_map_slots).sum();
        assert_eq!(total_free, 4);
        for rv in c.rack_views() {
            assert_eq!(rv.nodes, 2);
        }
    }

    #[test]
    fn full_refresh_mode_matches_sharded_mode() {
        let run = |mode| {
            let mut cfg = ClusterConfig::racked_cluster(2, 2, 1, 1);
            cfg.refresh_mode = mode;
            let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
            c.create_input_file("/a", 512 * MIB).unwrap();
            c.submit_job(JobSpec::map_only("a", "/a"));
            c.submit_job_at(JobSpec::synthetic("b", 6, 64 * MIB), SimTime::from_secs(15));
            c.run(SimTime::from_secs(3_600));
            (c.report(), c.events_processed())
        };
        let sharded = run(crate::config::RefreshMode::Sharded);
        let full = run(crate::config::RefreshMode::Full);
        assert_eq!(sharded, full, "refresh sharding must not change outcomes");
    }

    #[test]
    fn node_failure_reschedules_tasks_and_the_job_still_completes() {
        let mut cfg = ClusterConfig::small_cluster(2, 1, 1);
        cfg.faults.events.push(crate::config::FaultEvent {
            at: SimTime::from_secs(30),
            kind: crate::config::FaultKind::Kill { node: NodeId(1) },
        });
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        c.create_input_file("/in", 512 * MIB).unwrap();
        c.submit_job(JobSpec::map_only("churn", "/in"));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete(), "survivor node finishes the job");
        assert_eq!(report.faults.node_failures, 1);
        assert!(
            report.faults.attempts_lost >= 1,
            "node 1 was running a task at t=30: {:?}",
            report.faults
        );
        assert!(report.faults.attempts_lost >= report.faults.re_executed_tasks);
        assert!(!c.node_is_alive(NodeId(1)));
        assert!(!c.namenode().is_live(NodeId(1)));
        // The re-executed task needed a second attempt.
        let max_attempts = report.jobs[0]
            .tasks
            .iter()
            .map(|t| t.attempts)
            .max()
            .unwrap();
        assert!(max_attempts >= 2);
        let kinds: Vec<TraceKind> = c.trace().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&TraceKind::NodeFailed));
    }

    #[test]
    fn failed_node_rejoins_and_takes_work_again() {
        let mut cfg = ClusterConfig::small_cluster(2, 1, 1);
        cfg.faults.events.push(crate::config::FaultEvent {
            at: SimTime::from_secs(10),
            kind: crate::config::FaultKind::Kill { node: NodeId(1) },
        });
        cfg.faults.events.push(crate::config::FaultEvent {
            at: SimTime::from_secs(40),
            kind: crate::config::FaultKind::Rejoin { node: NodeId(1) },
        });
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        c.create_input_file("/in", 512 * MIB).unwrap();
        c.submit_job(JobSpec::map_only("rejoin", "/in"));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete());
        assert_eq!(report.faults.node_failures, 1);
        assert_eq!(report.faults.node_rejoins, 1);
        assert!(c.node_is_alive(NodeId(1)));
        assert!(c.namenode().is_live(NodeId(1)));
        // Both nodes active again at the end: total free map slots add up.
        let total_free: u32 = c.rack_views().iter().map(|r| r.free_map_slots).sum();
        assert_eq!(total_free, 2);
    }

    #[test]
    fn decommission_drains_replicas_and_counts_separately() {
        let mut cfg = ClusterConfig::small_cluster(4, 1, 1);
        cfg.faults.events.push(crate::config::FaultEvent {
            at: SimTime::from_secs(5),
            kind: crate::config::FaultKind::Decommission { node: NodeId(0) },
        });
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        // Written from node 0, replication 3: node 0 holds a replica of
        // every block, so decommissioning it forces re-replication.
        c.create_input_file("/in", 512 * MIB).unwrap();
        c.submit_job(JobSpec::map_only("drain", "/in"));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete());
        assert_eq!(report.faults.node_decommissions, 1);
        assert_eq!(report.faults.node_failures, 0);
        assert!(
            report.faults.re_replicated_blocks >= 1,
            "node 0 held first replicas: {:?}",
            report.faults
        );
        assert_eq!(
            report.faults.lost_blocks, 0,
            "decommission never loses blocks"
        );
    }

    #[test]
    fn rack_outage_fails_every_member_and_rack_rejoin_restores_them() {
        let mut cfg = ClusterConfig::racked_cluster(2, 2, 1, 1);
        cfg.faults.events.push(crate::config::FaultEvent {
            at: SimTime::from_secs(20),
            kind: crate::config::FaultKind::RackOutage { rack: RackId(1) },
        });
        cfg.faults.events.push(crate::config::FaultEvent {
            at: SimTime::from_secs(50),
            kind: crate::config::FaultKind::RackRejoin { rack: RackId(1) },
        });
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        c.submit_job(JobSpec::synthetic("outage", 8, 128 * MIB));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete());
        assert_eq!(report.faults.node_failures, 2, "both rack members fail");
        assert_eq!(report.faults.node_rejoins, 2);
        assert!(c.node_is_alive(NodeId(2)) && c.node_is_alive(NodeId(3)));
    }

    #[test]
    fn lost_map_outputs_stall_reduces_and_reexecute_maps() {
        // Fault-tolerant shuffle on: killing a node after its map committed
        // destroys the node-local output; the affected map re-executes, the
        // reduces stall in Shuffle with backoff instead of failing, and the
        // job still completes.
        let mut cfg = ClusterConfig::racked_cluster(2, 2, 1, 1);
        cfg.shuffle = crate::config::ShuffleConfig::fault_tolerant();
        cfg.faults.events.push(crate::config::FaultEvent {
            at: SimTime::from_secs(30),
            kind: crate::config::FaultKind::Kill { node: NodeId(3) },
        });
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        c.submit_job(JobSpec::synthetic("mr", 4, 128 * MIB).with_reduces(2));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete(), "{:?}", report.faults);
        assert!(
            report.faults.lost_map_outputs >= 1,
            "node 3 held a committed map output at t=30: {:?}",
            report.faults
        );
        assert!(
            report.faults.shuffle_refetches >= 1,
            "reduces must have waited on missing outputs: {:?}",
            report.faults
        );
        assert!(report.faults.re_executed_tasks >= report.faults.lost_map_outputs);
        let kinds: Vec<TraceKind> = c.trace().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&TraceKind::MapOutputLost));
        // The registry retires with the job.
        assert!(!c.shuffle_tracker().tracked(JobId(1)));
    }

    #[test]
    fn decommission_drains_map_outputs_without_reexecution() {
        // A graceful decommission migrates the leaving node's map outputs to
        // a live node — no map output is lost and no completed map restarts,
        // mirroring the NameNode's graceful block drain.
        let mut cfg = ClusterConfig::racked_cluster(2, 2, 1, 1);
        cfg.shuffle = crate::config::ShuffleConfig::fault_tolerant();
        cfg.faults.events.push(crate::config::FaultEvent {
            at: SimTime::from_secs(30),
            kind: crate::config::FaultKind::Decommission { node: NodeId(3) },
        });
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        c.submit_job(JobSpec::synthetic("drain", 4, 128 * MIB).with_reduces(2));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete());
        assert_eq!(report.faults.lost_map_outputs, 0);
        assert!(
            report.faults.map_outputs_migrated >= 1,
            "node 3 held a committed map output at t=30: {:?}",
            report.faults
        );
        // Every map committed exactly once: the drain made re-execution
        // unnecessary.
        for task in report.jobs[0]
            .tasks
            .iter()
            .filter(|t| t.id.kind == TaskKind::Map)
        {
            assert_eq!(task.attempts, 1, "map {:?} restarted", task.id);
        }
    }

    #[test]
    fn crashes_feed_the_reliability_predictor_but_decommissions_do_not() {
        let run = |kind: crate::config::FaultKind| {
            let mut cfg = ClusterConfig::racked_cluster(2, 2, 1, 1);
            cfg.reliability = crate::config::ReliabilityConfig::predictive();
            cfg.faults.events.push(crate::config::FaultEvent {
                at: SimTime::from_secs(10),
                kind,
            });
            let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
            c.submit_job(JobSpec::synthetic("r", 8, 128 * MIB));
            c.run(SimTime::from_secs(60));
            c
        };
        let crashed = run(crate::config::FaultKind::Kill { node: NodeId(1) });
        assert!(crashed
            .reliability_tracker()
            .flaky(NodeId(1), RackId(0), SimTime::from_secs(11)));
        let drained = run(crate::config::FaultKind::Decommission { node: NodeId(1) });
        assert_eq!(
            drained
                .reliability_tracker()
                .score(NodeId(1), RackId(0), SimTime::from_secs(11)),
            0.0,
            "an operator action is not evidence of flakiness"
        );
    }

    #[test]
    fn detector_defers_kill_until_missed_heartbeat_timeout() {
        // Detector on, node 1 killed at t=30. Heartbeats come every 3s and
        // suspicion needs 3 missed ones, so the master keeps believing in
        // the dead node — slots occupied, no teardown — until the timeout
        // anchored on the last delivered heartbeat expires.
        let mut cfg = ClusterConfig::small_cluster(2, 1, 1);
        cfg.detector = crate::config::DetectorConfig::enabled();
        cfg.faults.events.push(crate::config::FaultEvent {
            at: SimTime::from_secs(30),
            kind: crate::config::FaultKind::Kill { node: NodeId(1) },
        });
        let timeout = cfg.detector.timeout(cfg.heartbeat_interval);
        let interval = cfg.heartbeat_interval;
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        c.create_input_file("/in", 512 * MIB).unwrap();
        c.submit_job(JobSpec::map_only("late-news", "/in"));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete(), "{:?}", report.faults);
        assert_eq!(report.faults.nodes_suspected, 1);
        assert_eq!(report.faults.failures_detected, 1);
        assert_eq!(report.faults.node_failures, 1);
        let suspected_at = c
            .trace()
            .iter()
            .find(|e| e.kind == TraceKind::NodeSuspected)
            .map(|e| e.at)
            .expect("suspicion trace");
        let failed_at = c
            .trace()
            .iter()
            .find(|e| e.kind == TraceKind::NodeFailed)
            .map(|e| e.at)
            .expect("teardown trace");
        // Zero confirmation grace: suspicion is confirmation.
        assert_eq!(suspected_at, failed_at);
        let killed_at = SimTime::from_secs(30);
        assert!(
            failed_at > killed_at,
            "the kill must be observed strictly after it struck"
        );
        assert!(
            failed_at <= killed_at + timeout,
            "detection lag is bounded by the timeout: failed at {failed_at:?}"
        );
        // The last heartbeat landed at most one interval before the kill.
        assert!(failed_at >= killed_at + timeout.saturating_sub(interval));
        let lag = report.faults.detection_lag_secs_max;
        assert!(
            (lag - (failed_at - killed_at).as_secs_f64()).abs() < 1e-9,
            "lag accounting matches the trace: {lag}"
        );
        assert!(report.faults.detection_lag_secs_sum >= lag);
    }

    #[test]
    fn healed_partition_recontributes_work_without_duplicate_commits() {
        // Node 3 is cut off at t=30 with the detector on: the master tears
        // it down after the timeout and re-runs its work, while the node
        // keeps executing behind the partition. The heal at t=60 drains its
        // buffered completions through first-commit-wins reconciliation.
        let mut cfg = ClusterConfig::racked_cluster(2, 2, 1, 1);
        cfg.detector = crate::config::DetectorConfig::enabled();
        cfg.shuffle = crate::config::ShuffleConfig::fault_tolerant();
        cfg.faults.events.push(crate::config::FaultEvent {
            at: SimTime::from_secs(30),
            kind: crate::config::FaultKind::Partition { node: NodeId(3) },
        });
        cfg.faults.events.push(crate::config::FaultEvent {
            at: SimTime::from_secs(60),
            kind: crate::config::FaultKind::PartitionHeal { node: NodeId(3) },
        });
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        c.submit_job(JobSpec::synthetic("split-brain", 12, 128 * MIB));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete(), "{:?}", report.faults);
        assert_eq!(report.faults.partitions, 1);
        assert_eq!(report.faults.partition_heals, 1);
        // A partition teardown is not a crash.
        assert_eq!(report.faults.node_failures, 0);
        assert_eq!(report.faults.nodes_suspected, 1);
        assert_eq!(report.faults.failures_detected, 1);
        // The node was mid-task when cut off, so the heal reconciles at
        // least one completion (commit or discard) — and never commits any
        // task twice.
        assert!(
            report.faults.reconciled_commits + report.faults.reconciled_discards >= 1,
            "{:?}",
            report.faults
        );
        assert_eq!(report.faults.duplicate_commits, 0);
        assert!(c.node_is_alive(NodeId(3)));
        for task in &report.jobs[0].tasks {
            assert!((task.progress - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn partition_healed_before_timeout_never_penalizes_the_node() {
        // The heal lands before the suspicion timer fires: the master never
        // learns anything was wrong, so no teardown, no detection, and —
        // the satellite pin — no reliability-score penalty.
        let mut cfg = ClusterConfig::racked_cluster(2, 2, 1, 1);
        cfg.detector = crate::config::DetectorConfig::enabled();
        cfg.reliability = crate::config::ReliabilityConfig::predictive();
        cfg.faults.events.push(crate::config::FaultEvent {
            at: SimTime::from_secs(10),
            kind: crate::config::FaultKind::Partition { node: NodeId(1) },
        });
        cfg.faults.events.push(crate::config::FaultEvent {
            at: SimTime::from_secs(12),
            kind: crate::config::FaultKind::PartitionHeal { node: NodeId(1) },
        });
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        c.submit_job(JobSpec::synthetic("blip", 8, 128 * MIB));
        c.run(SimTime::from_secs(3_600));
        let report = c.report();
        assert!(report.all_jobs_complete(), "{:?}", report.faults);
        assert_eq!(report.faults.partitions, 1);
        assert_eq!(report.faults.partition_heals, 1);
        assert_eq!(report.faults.nodes_suspected, 0, "timer went stale");
        assert_eq!(report.faults.failures_detected, 0);
        assert_eq!(report.faults.node_failures, 0);
        assert_eq!(report.faults.duplicate_commits, 0);
        assert_eq!(
            c.reliability_tracker()
                .score(NodeId(1), RackId(0), SimTime::from_secs(13)),
            0.0,
            "a heal before the timeout leaves the failure score untouched"
        );
    }

    #[test]
    fn gray_failure_stretches_new_launches_and_heals() {
        // A slow disk triples the I/O-bound segments of everything node 1
        // launches while degraded — no crash, no teardown, just a straggler.
        let run = |gray: bool| {
            let mut cfg = ClusterConfig::small_cluster(2, 1, 1);
            cfg.reliability = crate::config::ReliabilityConfig::predictive();
            if gray {
                cfg.faults.events.push(crate::config::FaultEvent {
                    at: SimTime::from_secs(5),
                    kind: crate::config::FaultKind::Gray {
                        node: NodeId(1),
                        slow_disk: 3.0,
                        slow_net: 1.0,
                    },
                });
            }
            let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
            c.submit_job(JobSpec::synthetic("sick-disk", 8, 128 * MIB));
            c.run(SimTime::from_secs(24 * 3_600));
            c
        };
        let healthy = run(false).report();
        let gray = run(true);
        let report = gray.report();
        assert!(report.all_jobs_complete());
        assert_eq!(report.faults.gray_failures, 1);
        assert_eq!(report.faults.node_failures, 0);
        assert!(
            report.makespan_secs().unwrap() > healthy.makespan_secs().unwrap(),
            "a degraded node must slow the job down: {} vs {}",
            report.makespan_secs().unwrap(),
            healthy.makespan_secs().unwrap()
        );
        assert!(
            gray.reliability_tracker()
                .score(NodeId(1), RackId(0), SimTime::from_secs(6))
                > 0.0,
            "gray failures feed the placement predictor"
        );
        // A heal restores full speed for later launches.
        let mut cfg = ClusterConfig::small_cluster(2, 1, 1);
        cfg.faults.events.push(crate::config::FaultEvent {
            at: SimTime::from_secs(5),
            kind: crate::config::FaultKind::Gray {
                node: NodeId(1),
                slow_disk: 3.0,
                slow_net: 2.0,
            },
        });
        cfg.faults.events.push(crate::config::FaultEvent {
            at: SimTime::from_secs(6),
            kind: crate::config::FaultKind::GrayHeal { node: NodeId(1) },
        });
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        c.submit_job(JobSpec::synthetic("recovered", 8, 128 * MIB));
        c.run(SimTime::from_secs(24 * 3_600));
        let healed = c.report();
        assert!(healed.all_jobs_complete());
        assert_eq!(healed.faults.gray_heals, 1);
    }

    #[test]
    fn random_mtbf_churn_is_deterministic_and_survivable() {
        let run = || {
            let mut cfg = ClusterConfig::racked_cluster(2, 3, 1, 1);
            cfg.faults.random = Some(crate::config::RandomFaults {
                rack_mtbf_secs: 25.0,
                mean_recovery_secs: Some(20.0),
                horizon: SimTime::from_secs(600),
                seed: 0xFA11,
            });
            let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
            c.submit_job(JobSpec::synthetic("churny", 24, 128 * MIB));
            c.run(SimTime::from_secs(24 * 3_600));
            (c.events_processed(), c.report())
        };
        let (events_a, report_a) = run();
        let (events_b, report_b) = run();
        assert!(report_a.all_jobs_complete());
        assert!(
            report_a.faults.node_failures >= 2,
            "a 60s-per-rack MTBF over a multi-minute run must strike: {:?}",
            report_a.faults
        );
        assert_eq!(events_a, events_b);
        assert_eq!(
            report_a, report_b,
            "fault injection must stay deterministic"
        );
    }

    #[test]
    fn unrecoverable_allocation_failure_keeps_counters_consistent() {
        // Pinned regression test for `force_kill_after_failure` and the
        // allocation-failure path: a task whose allocation can never succeed
        // (8 GB of state on a 3 GB node with 64 MB of swap) is OOM-killed at
        // the end of every setup phase and rescheduled, forever. The
        // maintained per-job per-kind counters and the cluster-wide
        // PendingTotals must survive this loop without drifting.
        let mut cfg = ClusterConfig::paper_single_node();
        cfg.nodes[0].os.memory = mrp_simos::MemoryConfig {
            total_ram: 3 * 1024 * MIB,
            os_reserve: 512 * MIB,
            swap_capacity: 64 * MIB,
            ..Default::default()
        };
        let mut c = Cluster::new(cfg, Box::new(FifoScheduler::new()));
        c.submit_job(
            JobSpec::synthetic("doomed", 1, 64 * MIB)
                .with_profile(TaskProfile::memory_hungry(8 * 1024 * MIB)),
        );
        c.run(SimTime::from_secs(60));
        let report = c.report();
        assert!(!report.all_jobs_complete(), "the job can never finish");
        let job = c.jobs().values().next().unwrap();
        assert!(
            job.tasks[0].attempts_made >= 2,
            "the task must have been retried, got {}",
            job.tasks[0].attempts_made
        );
        assert_eq!(job.tasks[0].state, TaskState::Pending);
        // The incrementally maintained counters match a recount.
        let mut fresh = job.clone();
        fresh.recount_task_states();
        assert_eq!(
            (
                job.schedulable_maps,
                job.schedulable_reduces,
                job.suspended_count,
                job.occupying_count,
                job.speculative_live
            ),
            (
                fresh.schedulable_maps,
                fresh.schedulable_reduces,
                fresh.suspended_count,
                fresh.occupying_count,
                fresh.speculative_live
            ),
            "maintained counters drifted across the kill-after-failure loop"
        );
        assert_eq!(c.pending_totals(), PendingTotals::from_jobs(c.jobs()));
        assert!(report.nodes[0].oom_kills >= 1);
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let run = || {
            let mut c = single_node_cluster();
            c.create_input_file("/a", 512 * MIB).unwrap();
            c.create_input_file("/b", 256 * MIB).unwrap();
            c.submit_job(JobSpec::map_only("j1", "/a"));
            c.submit_job_at(JobSpec::map_only("j2", "/b"), SimTime::from_secs(20));
            c.run(SimTime::from_secs(3_600));
            c.report()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }
}
