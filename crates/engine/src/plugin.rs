//! Plugin points for action-pipeline schedulers.
//!
//! The Volcano/kube-batch lineage structures a scheduling round as a fixed
//! sequence of *actions* (`allocate`, `preempt`, `reclaim`, `backfill`)
//! whose decisions are delegated to *plugin functions*. This module defines
//! the plugin vocabulary the engine exposes to such pipelines: job-ordering
//! ([`JobOrder`]), victim selection ([`TaskOrderFn`] over
//! [`PreemptableTask`]s produced by a [`PreemptableSetFn`]), node scoring
//! ([`NodeScoreFn`]), and multi-tenant share accounting ([`TenantLedger`]).
//! The pipeline itself — and the concrete plugin bundles that reproduce the
//! FIFO/FAIR/HFSP policies — lives in the `mrp-preempt` crate, next to the
//! preemption primitives it dispatches.
//!
//! Everything here is policy-side vocabulary: the JobTracker never
//! consults these types on its own, it only hands policies the
//! [`SchedulerContext`] they read. The engine's default
//! [`FifoScheduler`](crate::FifoScheduler) is itself a [`JobOrder`]
//! ([`FifoJobOrder`](crate::FifoJobOrder)) over
//! [`fill_node`](crate::fill_node).

use crate::job::{JobId, TaskId, TaskKind};
use crate::scheduler::SchedulerContext;
use mrp_dfs::NodeId;
use mrp_sim::{SimDuration, SimTime};

/// A running task a preempt/reclaim action may evict, with the attributes
/// victim-selection plugins rank by.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PreemptableTask {
    /// The candidate task.
    pub task: TaskId,
    /// Its last reported progress in `[0, 1]`.
    pub progress: f64,
    /// Approximate resident memory of the attempt (state memory plus the
    /// base task footprint) — what a suspension would page out.
    pub memory_bytes: u64,
}

/// Job-ordering plugin: decides which jobs an `allocate` action serves, and
/// in what order, each time a node offers slots.
///
/// `refresh` may keep internal caches (the HFSP bundle refreshes its
/// size-based order at most once per simulated second); returning `false`
/// skips the allocation round for this node entirely, caches untouched.
///
/// ```
/// use mrp_engine::{JobId, JobOrder, NodeId, SchedulerContext};
///
/// /// Plain submission order, skipping finished jobs.
/// struct SubmissionOrder;
///
/// impl JobOrder for SubmissionOrder {
///     fn refresh(
///         &mut self,
///         ctx: &SchedulerContext<'_>,
///         _node: NodeId,
///         order: &mut Vec<JobId>,
///     ) -> bool {
///         order.clear();
///         order.extend(ctx.jobs.values().filter(|j| !j.is_finished()).map(|j| j.id));
///         true
///     }
/// }
/// ```
pub trait JobOrder {
    /// Rebuilds `order` (the jobs to serve, first to last) for a round on
    /// `node`. Return `false` to skip the round without touching `order`.
    fn refresh(&mut self, ctx: &SchedulerContext<'_>, node: NodeId, order: &mut Vec<JobId>)
        -> bool;

    /// Notifies the plugin of a job submission (cache invalidation hook).
    fn job_submitted(&mut self, _job: JobId) {}

    /// Notifies the plugin of a job completion (cache invalidation hook).
    fn job_finished(&mut self, _job: JobId) {}
}

/// Boxed [`JobOrder`] — the form action pipelines store.
pub type JobOrderFn = Box<dyn JobOrder>;

/// Victim-selection plugin: given the preemptable tasks of one job, picks up
/// to `take` victims, best-to-evict first. The FAIR/HFSP bundles wrap their
/// `EvictionPolicy` (and its seeded RNG) in one of these.
pub type TaskOrderFn =
    Box<dyn FnMut(&SchedulerContext<'_>, &[PreemptableTask], usize) -> Vec<TaskId>>;

/// Node-scoring plugin: ranks `node` as a backfill target for `job`. A
/// negative score vetoes the node; among non-negative scores, higher is
/// better. The default multi-tenant bundle scores every node `0` and leans
/// on the engine's placement vetoes instead.
pub type NodeScoreFn = Box<dyn FnMut(&SchedulerContext<'_>, JobId, NodeId) -> i64>;

/// Preemptable-set plugin: enumerates the tasks of `job` an eviction may
/// target (the FAIR/HFSP bundles list the job's `Running` tasks; a gentler
/// plugin could exclude tasks past a progress threshold).
pub type PreemptableSetFn = Box<dyn FnMut(&SchedulerContext<'_>, JobId) -> Vec<PreemptableTask>>;

/// Per-tenant share statistics summarized from a [`TenantLedger`] at the
/// end of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TenantShareStats {
    /// The tenant.
    pub tenant: u32,
    /// Its configured quota: `weight / Σ weights`.
    pub quota: f64,
    /// Time-weighted mean dominant share over steady-state time.
    pub mean_dominant_share: f64,
    /// Time-weighted mean of `max(0, dominant_share - quota)` over
    /// steady-state time where some *other* tenant had unmet demand past
    /// the reclaim grace period — the DRF fairness-gate quantity. Exceeding
    /// quota while nobody else wants the capacity is work conservation, not
    /// unfairness, so uncontended time never accrues excess; shortfalls
    /// briefer than a reclaim round are scheduling latency, not contention.
    pub mean_excess_over_quota: f64,
    /// Dominant share at the last observation.
    pub final_dominant_share: f64,
}

/// Dominant-resource-fairness accounting over (map slots, reduce slots),
/// shared between a reclaim action and the experiment harness.
///
/// A tenant's *dominant share* is the larger of its map-slot and
/// reduce-slot usage fractions (DRF over the two slot resources); its
/// *quota* is `weight / Σ weights`. [`TenantLedger::observe`] snapshots
/// usage and pending demand from a [`SchedulerContext`] and integrates the
/// shares over simulated time, so the end-of-run [`TenantLedger::summary`]
/// is a time-weighted account rather than a point sample. Best-effort jobs
/// ([`crate::JobSpec::best_effort`]) are invisible to the ledger: they are
/// charged to nobody and create no demand.
///
/// ```
/// use mrp_engine::TenantLedger;
/// use mrp_sim::SimTime;
///
/// let ledger = TenantLedger::new(vec![1.0, 3.0], 16, 8, SimTime::from_secs(60));
/// assert_eq!(ledger.tenants(), 2);
/// assert!((ledger.quota(0) - 0.25).abs() < 1e-12);
/// assert!((ledger.quota(1) - 0.75).abs() < 1e-12);
/// ```
#[derive(Debug)]
pub struct TenantLedger {
    weights: Vec<f64>,
    weight_sum: f64,
    total_map_slots: u32,
    total_reduce_slots: u32,
    steady_after: SimTime,
    last_observed: Option<SimTime>,
    usage_maps: Vec<u32>,
    usage_reduces: Vec<u32>,
    demand_maps: Vec<u32>,
    demand_reduces: Vec<u32>,
    steady_secs: f64,
    share_secs: Vec<f64>,
    contended_secs: Vec<f64>,
    excess_secs: Vec<f64>,
    /// When each tenant's current uninterrupted starvation began (`None`
    /// while not starved). Drives [`TenantLedger::chronically_starved`].
    starved_since: Vec<Option<SimTime>>,
}

/// Starvation shorter than this is the scheduler's designed response
/// latency — a reclaim round fires once per simulated second, plus a
/// heartbeat to deliver the eviction — not unfairness. Contention (and so
/// excess-over-quota) accrues only while some tenant has been starved
/// longer than this grace continuously.
const STARVATION_GRACE: SimDuration = SimDuration::from_secs(2);

impl TenantLedger {
    /// Creates a ledger for `weights.len()` tenants over a cluster with the
    /// given slot totals. Time before `steady_after` is warm-up: observed
    /// for current usage but excluded from the integrated statistics.
    ///
    /// # Panics
    /// Panics when `weights` is empty or contains a non-positive weight.
    pub fn new(
        weights: Vec<f64>,
        total_map_slots: u32,
        total_reduce_slots: u32,
        steady_after: SimTime,
    ) -> Self {
        assert!(!weights.is_empty(), "a tenant ledger needs >= 1 tenant");
        assert!(
            weights.iter().all(|w| *w > 0.0),
            "tenant weights must be positive"
        );
        let n = weights.len();
        let weight_sum = weights.iter().sum();
        TenantLedger {
            weights,
            weight_sum,
            total_map_slots: total_map_slots.max(1),
            total_reduce_slots: total_reduce_slots.max(1),
            steady_after,
            last_observed: None,
            usage_maps: vec![0; n],
            usage_reduces: vec![0; n],
            demand_maps: vec![0; n],
            demand_reduces: vec![0; n],
            steady_secs: 0.0,
            share_secs: vec![0.0; n],
            contended_secs: vec![0.0; n],
            excess_secs: vec![0.0; n],
            starved_since: vec![None; n],
        }
    }

    /// Number of tenants tracked.
    pub fn tenants(&self) -> usize {
        self.weights.len()
    }

    /// The tenant a job is charged to, clamping out-of-range ids to the
    /// last tenant so a mis-tagged workload cannot panic the ledger.
    pub fn tenant_of(&self, tenant: u32) -> usize {
        (tenant as usize).min(self.weights.len() - 1)
    }

    /// A tenant's quota: `weight / Σ weights`.
    pub fn quota(&self, tenant: usize) -> f64 {
        self.weights[tenant] / self.weight_sum
    }

    /// Map slots the quota entitles `tenant` to (rounded down, min 0).
    pub fn quota_map_slots(&self, tenant: usize) -> u32 {
        (self.quota(tenant) * f64::from(self.total_map_slots)).floor() as u32
    }

    /// Reduce slots the quota entitles `tenant` to.
    pub fn quota_reduce_slots(&self, tenant: usize) -> u32 {
        (self.quota(tenant) * f64::from(self.total_reduce_slots)).floor() as u32
    }

    /// Map slots `tenant` occupied at the last observation.
    pub fn usage_maps(&self, tenant: usize) -> u32 {
        self.usage_maps[tenant]
    }

    /// Reduce slots `tenant` occupied at the last observation.
    pub fn usage_reduces(&self, tenant: usize) -> u32 {
        self.usage_reduces[tenant]
    }

    /// Schedulable map tasks `tenant` had pending at the last observation.
    pub fn demand_maps(&self, tenant: usize) -> u32 {
        self.demand_maps[tenant]
    }

    /// Schedulable reduce tasks `tenant` had pending at the last
    /// observation.
    pub fn demand_reduces(&self, tenant: usize) -> u32 {
        self.demand_reduces[tenant]
    }

    /// True when `tenant` had unmet demand at the last observation: pending
    /// work of a kind it is below quota for.
    pub fn starved(&self, tenant: usize) -> bool {
        (self.demand_maps[tenant] > 0 && self.usage_maps[tenant] < self.quota_map_slots(tenant))
            || (self.demand_reduces[tenant] > 0
                && self.usage_reduces[tenant] < self.quota_reduce_slots(tenant))
    }

    /// A tenant's dominant share at the last observation: the larger of its
    /// map-slot and reduce-slot usage fractions.
    pub fn dominant_share(&self, tenant: usize) -> f64 {
        let maps = f64::from(self.usage_maps[tenant]) / f64::from(self.total_map_slots);
        let reduces = f64::from(self.usage_reduces[tenant]) / f64::from(self.total_reduce_slots);
        maps.max(reduces)
    }

    /// Takes a snapshot of per-tenant usage and demand from `ctx`,
    /// integrating the *previous* snapshot over the elapsed simulated time
    /// first (piecewise-constant integration, so calling it on every
    /// scheduling round is exact, not sampled).
    pub fn observe(&mut self, ctx: &SchedulerContext<'_>) {
        if let Some(last) = self.last_observed {
            if ctx.now > last {
                let overlap_start = last.max(self.steady_after);
                if ctx.now > overlap_start {
                    let dt = (ctx.now - overlap_start).as_secs_f64();
                    self.steady_secs += dt;
                    // Contention begins `STARVATION_GRACE` after a tenant's
                    // starvation does, so a starved tenant `s` contends over
                    // the suffix `[starved_since[s] + grace, now]` of this
                    // interval. Track the earliest such start and its
                    // holder (plus the runner-up) so each tenant can take
                    // the minimum over the *other* tenants without
                    // allocating.
                    let mut best: Option<(SimTime, usize)> = None;
                    let mut second: Option<SimTime> = None;
                    for s in 0..self.tenants() {
                        let Some(since) = self.starved_since[s] else {
                            continue;
                        };
                        let from = (since + STARVATION_GRACE).max(overlap_start);
                        match best {
                            None => best = Some((from, s)),
                            Some((b, _)) if from < b => {
                                second = Some(b);
                                best = Some((from, s));
                            }
                            Some(_) => {
                                if second.is_none_or(|sc| from < sc) {
                                    second = Some(from);
                                }
                            }
                        }
                    }
                    for t in 0..self.tenants() {
                        let share = self.dominant_share(t);
                        self.share_secs[t] += share * dt;
                        let other_from = match best {
                            Some((_, holder)) if holder == t => second,
                            Some((from, _)) => Some(from),
                            None => None,
                        };
                        if let Some(from) = other_from {
                            if ctx.now > from {
                                let dt_c = (ctx.now - from).as_secs_f64();
                                self.contended_secs[t] += dt_c;
                                self.excess_secs[t] += (share - self.quota(t)).max(0.0) * dt_c;
                            }
                        }
                    }
                }
            }
        }
        self.last_observed = Some(ctx.now);

        self.usage_maps.fill(0);
        self.usage_reduces.fill(0);
        self.demand_maps.fill(0);
        self.demand_reduces.fill(0);
        for job in ctx.jobs.values() {
            if job.is_finished() || job.spec.best_effort {
                continue;
            }
            let t = self.tenant_of(job.spec.tenant);
            self.demand_maps[t] += job.schedulable_maps;
            self.demand_reduces[t] += job.schedulable_reduces;
        }
        for view in ctx.nodes {
            for tid in &view.running {
                let Some(job) = ctx.jobs.get(&tid.job) else {
                    continue;
                };
                if job.spec.best_effort {
                    continue;
                }
                let t = self.tenant_of(job.spec.tenant);
                match tid.kind {
                    TaskKind::Map => self.usage_maps[t] += 1,
                    TaskKind::Reduce => self.usage_reduces[t] += 1,
                }
            }
        }
        for t in 0..self.tenants() {
            if self.starved(t) {
                self.starved_since[t].get_or_insert(ctx.now);
            } else {
                self.starved_since[t] = None;
            }
        }
    }

    /// Time-weighted mean of `max(0, dominant_share - quota)` for `tenant`
    /// over steady-state time where another tenant had unmet demand past
    /// the reclaim grace period. Zero when no such time was observed.
    pub fn mean_excess_over_quota(&self, tenant: usize) -> f64 {
        if self.contended_secs[tenant] > 0.0 {
            self.excess_secs[tenant] / self.contended_secs[tenant]
        } else {
            0.0
        }
    }

    /// End-of-run per-tenant summary, in tenant order.
    pub fn summary(&self) -> Vec<TenantShareStats> {
        (0..self.tenants())
            .map(|t| TenantShareStats {
                tenant: t as u32,
                quota: self.quota(t),
                mean_dominant_share: if self.steady_secs > 0.0 {
                    self.share_secs[t] / self.steady_secs
                } else {
                    0.0
                },
                mean_excess_over_quota: self.mean_excess_over_quota(t),
                final_dominant_share: self.dominant_share(t),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, JobRuntime, JobSpec, JobTable, TaskRuntime, TaskState};
    use crate::scheduler::{NodeView, PendingTotals};
    use crate::SpeculationConfig;
    use mrp_dfs::Topology;

    fn make_job(id: u32, tenant: u32, best_effort: bool, maps: u32, running: u32) -> JobRuntime {
        let mut spec = JobSpec::synthetic(format!("j{id}"), maps, 1024).with_tenant(tenant);
        if best_effort {
            spec = spec.with_best_effort();
        }
        let mut tasks: Vec<TaskRuntime> = (0..maps)
            .map(|i| {
                TaskRuntime::new(
                    TaskId {
                        job: JobId(id),
                        kind: TaskKind::Map,
                        index: i,
                    },
                    1024,
                    vec![],
                )
            })
            .collect();
        for t in tasks.iter_mut().take(running as usize) {
            t.set_state(TaskState::Running);
            t.node = Some(NodeId(0));
        }
        let mut job = JobRuntime {
            id: JobId(id),
            spec,
            submitted_at: SimTime::ZERO,
            completed_at: None,
            tasks,
            schedulable_maps: 0,
            schedulable_reduces: 0,
            suspended_count: 0,
            occupying_count: 0,
            speculative_live: 0,
        };
        job.recount_task_states();
        job
    }

    fn ctx_at<'a>(
        now: SimTime,
        jobs: &'a JobTable,
        nodes: &'a [NodeView],
        topology: &'a Topology,
    ) -> SchedulerContext<'a> {
        SchedulerContext {
            now,
            jobs,
            nodes,
            racks: &[],
            topology,
            totals: PendingTotals::from_jobs(jobs),
            speculation: SpeculationConfig::default(),
            delay: None,
            shuffle: None,
            reliability: None,
        }
    }

    fn running_view(jobs: &JobTable) -> NodeView {
        let mut running = Vec::new();
        for job in jobs.values() {
            for t in &job.tasks {
                if t.state == TaskState::Running {
                    running.push(t.id);
                }
            }
        }
        NodeView {
            id: NodeId(0),
            free_map_slots: 0,
            free_reduce_slots: 0,
            running,
            suspended: vec![],
        }
    }

    #[test]
    fn quotas_follow_weights() {
        let ledger = TenantLedger::new(vec![1.0, 1.0, 2.0], 8, 4, SimTime::ZERO);
        assert_eq!(ledger.tenants(), 3);
        assert!((ledger.quota(0) - 0.25).abs() < 1e-12);
        assert!((ledger.quota(2) - 0.5).abs() < 1e-12);
        assert_eq!(ledger.quota_map_slots(2), 4);
        assert_eq!(ledger.quota_reduce_slots(2), 2);
        // Out-of-range tenant tags clamp instead of panicking.
        assert_eq!(ledger.tenant_of(17), 2);
    }

    #[test]
    fn excess_accrues_only_under_contention() {
        let topology = Topology::single_rack(1);
        let mut ledger = TenantLedger::new(vec![1.0, 1.0], 4, 1, SimTime::ZERO);

        // Tenant 0 uses the whole cluster; tenant 1 has no demand yet.
        let mut jobs = JobTable::new();
        jobs.insert(JobId(1), make_job(1, 0, false, 4, 4));
        let nodes = vec![running_view(&jobs)];
        ledger.observe(&ctx_at(SimTime::ZERO, &jobs, &nodes, &topology));
        ledger.observe(&ctx_at(SimTime::from_secs(100), &jobs, &nodes, &topology));
        assert!((ledger.dominant_share(0) - 1.0).abs() < 1e-12);
        // Nobody else was starved: work conservation, not unfairness.
        assert_eq!(ledger.mean_excess_over_quota(0), 0.0);

        // Tenant 1 arrives with pending work it cannot place.
        jobs.insert(JobId(2), make_job(2, 1, false, 4, 0));
        ledger.observe(&ctx_at(SimTime::from_secs(100), &jobs, &nodes, &topology));
        assert!(ledger.starved(1));
        ledger.observe(&ctx_at(SimTime::from_secs(200), &jobs, &nodes, &topology));
        // 100s uncontended at share 1.0 + 100s contended at excess 0.5.
        assert!((ledger.mean_excess_over_quota(0) - 0.5).abs() < 1e-12);
        let stats = ledger.summary();
        assert_eq!(stats.len(), 2);
        assert!((stats[0].mean_dominant_share - 1.0).abs() < 1e-12);
        assert_eq!(stats[1].mean_excess_over_quota, 0.0);
    }

    #[test]
    fn best_effort_jobs_are_invisible() {
        let topology = Topology::single_rack(1);
        let mut ledger = TenantLedger::new(vec![1.0, 1.0], 4, 1, SimTime::ZERO);
        let mut jobs = JobTable::new();
        jobs.insert(JobId(1), make_job(1, 0, true, 4, 2));
        let nodes = vec![running_view(&jobs)];
        ledger.observe(&ctx_at(SimTime::ZERO, &jobs, &nodes, &topology));
        assert_eq!(ledger.usage_maps(0), 0);
        assert_eq!(ledger.demand_maps(0), 0);
        assert!(!ledger.starved(0));
    }

    #[test]
    fn warmup_time_is_excluded() {
        let topology = Topology::single_rack(1);
        let mut ledger = TenantLedger::new(vec![1.0, 1.0], 4, 1, SimTime::from_secs(50));
        let mut jobs = JobTable::new();
        jobs.insert(JobId(1), make_job(1, 0, false, 4, 4));
        jobs.insert(JobId(2), make_job(2, 1, false, 4, 0));
        let nodes = vec![running_view(&jobs)];
        ledger.observe(&ctx_at(SimTime::ZERO, &jobs, &nodes, &topology));
        ledger.observe(&ctx_at(SimTime::from_secs(100), &jobs, &nodes, &topology));
        // Only the 50s past steady_after count.
        assert!((ledger.steady_secs - 50.0).abs() < 1e-12);
        assert!((ledger.mean_excess_over_quota(0) - 0.5).abs() < 1e-12);
    }
}
