//! The Volcano-style scheduling-action pipeline.
//!
//! A [`SchedulerPolicy`] built from this module is a *composition of
//! actions* — [`Allocate`], [`Preempt`], [`Reclaim`], [`Backfill`] —
//! parameterized by the engine's plugin functions ([`mrp_engine::JobOrder`],
//! [`mrp_engine::TaskOrderFn`], [`mrp_engine::NodeScoreFn`],
//! [`mrp_engine::PreemptableSetFn`], [`TenantLedger`]). Each JobTracker
//! event is dispatched through the actions in order over the same immutable
//! [`SchedulerContext`], concatenating their action outputs: a fill, then
//! preemption.
//!
//! Every bundle allocates through the engine's one slot-filling function,
//! [`fill_node`], and differs only in the job order it hands it:
//! [`ActionPipeline::fifo`] under [`FifoJobOrder`] (the same order and fill
//! as [`mrp_engine::FifoScheduler`]), [`ActionPipeline::fair`] under
//! [`FairJobOrder`] and [`ActionPipeline::hfsp`] under [`HfspJobOrder`].
//! The preempt actions draw victims through `EvictionPolicy::pick` on
//! seeded RNG streams, so every bundle is deterministic; the determinism
//! suites pin each one on fixed seeds.
//!
//! On top of these, [`ActionPipeline::multi_tenant`] composes the scenario
//! family the paper never touched: DRF dominant-share allocation over
//! tenants, quota [`Reclaim`] evicting over-quota tenants via kill *or*
//! OS-assisted suspend (the paper's trade-off as a plugin knob), and
//! [`Backfill`] of best-effort jobs into leftover capacity.

use crate::eviction::{EvictionCandidate, EvictionPolicy};
use crate::primitive::PreemptionPrimitive;
use crate::schedulers::candidates_of;
use mrp_engine::{
    fill_node, FifoJobOrder, JobId, JobOrder, JobOrderFn, JobRuntime, LocalityIndex, NodeId,
    NodeScoreFn, PreemptableSetFn, PreemptableTask, SchedulerAction, SchedulerContext,
    SchedulerPolicy, TaskId, TaskKind, TaskOrderFn, TaskState, TenantLedger,
};
use mrp_sim::{SimDuration, SimRng, SimTime};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// One stage of an [`ActionPipeline`]. Actions receive every
/// [`SchedulerPolicy`] hook with the accumulated output of the actions
/// before them, so a later action (e.g. [`Backfill`]) can account for slots
/// an earlier one already claimed this round.
pub trait Action {
    /// The action's name, for reports and traces.
    fn name(&self) -> &'static str;

    /// A node heartbeated with capacity; append launches/evictions to `out`.
    fn on_heartbeat(
        &mut self,
        ctx: &SchedulerContext<'_>,
        node: NodeId,
        out: &mut Vec<SchedulerAction>,
    );

    /// A job was submitted.
    fn on_job_submitted(
        &mut self,
        _ctx: &SchedulerContext<'_>,
        _job: JobId,
        _out: &mut Vec<SchedulerAction>,
    ) {
    }

    /// A job completed (cache-eviction hook).
    fn on_job_finished(&mut self, _ctx: &SchedulerContext<'_>, _job: JobId) {}
}

/// Remaining virtual size of a job in bytes (HFSP's ordering metric):
/// the input bytes of its unfinished tasks scaled by reported progress.
/// Exposed for custom size-based [`JobOrder`] plugins.
pub fn remaining_size(job: &JobRuntime) -> u64 {
    job.tasks
        .iter()
        .filter(|t| !t.state.is_terminal())
        .map(|t| ((1.0 - t.progress).max(0.0) * t.input_bytes as f64) as u64)
        .sum()
}

/// The default preemptable-set plugin: a job's `Running` tasks, in task
/// order, with the base-footprint-plus-state memory estimate.
pub fn running_tasks_preemptable() -> PreemptableSetFn {
    Box::new(|ctx, job| {
        ctx.jobs
            .get(&job)
            .map(|j| {
                candidates_of(j)
                    .into_iter()
                    .map(|c| PreemptableTask {
                        task: c.task,
                        progress: c.progress,
                        memory_bytes: c.memory_bytes,
                    })
                    .collect()
            })
            .unwrap_or_default()
    })
}

/// Wraps an [`EvictionPolicy`] (and its seeded RNG) as a victim-selection
/// plugin. The RNG is drawn only inside `pick`, so the victim stream is a
/// pure function of the seed and the candidates offered.
pub fn eviction_select(eviction: EvictionPolicy, seed: u64) -> TaskOrderFn {
    let mut rng = SimRng::new(seed);
    Box::new(move |_ctx, tasks, take| {
        let candidates: Vec<EvictionCandidate> = tasks
            .iter()
            .map(|t| EvictionCandidate {
                task: t.task,
                progress: t.progress,
                memory_bytes: t.memory_bytes,
            })
            .collect();
        eviction.pick(&candidates, take, &mut rng)
    })
}

/// FAIR's job-ordering plugin: jobs with launchable or resumable work,
/// most-starved (fewest occupied slots) first, then submission order.
#[derive(Default)]
pub struct FairJobOrder {
    scratch: Vec<(u32, SimTime, JobId)>,
}

impl JobOrder for FairJobOrder {
    fn refresh(
        &mut self,
        ctx: &SchedulerContext<'_>,
        _node: NodeId,
        order: &mut Vec<JobId>,
    ) -> bool {
        self.scratch.clear();
        self.scratch.extend(
            ctx.jobs
                .values()
                .filter(|j| !j.is_finished())
                // Jobs with nothing to launch or resume contribute nothing
                // to `fill_node`; this order is rebuilt per heartbeat, so
                // the filter is exact (no staleness).
                .filter(|j| j.schedulable_count() > 0 || j.suspended_count > 0)
                .map(|j| (j.occupying_count, j.submitted_at, j.id)),
        );
        self.scratch.sort_unstable();
        order.clear();
        order.extend(self.scratch.iter().map(|(_, _, id)| *id));
        true
    }
}

/// HFSP's job-ordering plugin: smallest remaining size first, cached for up
/// to one simulated second. The zero-free-slot gate runs *before* the cache
/// refresh, so the O(jobs x tasks) size estimate never runs for a heartbeat
/// from a node without a free slot.
#[derive(Default)]
pub struct HfspJobOrder {
    scratch: Vec<(u64, JobId)>,
    /// Virtual second the cached order was computed in; invalidated on job
    /// arrival/completion.
    stamp: Option<u64>,
}

impl JobOrder for HfspJobOrder {
    fn refresh(
        &mut self,
        ctx: &SchedulerContext<'_>,
        node: NodeId,
        order: &mut Vec<JobId>,
    ) -> bool {
        // Skip the O(jobs x tasks) size estimation entirely when this node
        // has nothing to hand out — the common case at cluster scale.
        let Some(view) = ctx.node(node) else {
            return false;
        };
        if view.free_map_slots == 0 && view.free_reduce_slots == 0 {
            return false;
        }
        let bucket = ctx.now.as_micros() / 1_000_000;
        if self.stamp == Some(bucket) {
            return true;
        }
        self.stamp = Some(bucket);
        self.scratch.clear();
        self.scratch.extend(
            ctx.jobs
                .iter()
                .filter(|(_, j)| !j.is_finished())
                // Fully-launched jobs have nothing for `fill_node` to hand
                // out; dropping them keeps the fill loop proportional to
                // jobs with actual pending work.
                .filter(|(_, j)| j.schedulable_count() > 0 || j.suspended_count > 0)
                .map(|(id, j)| (remaining_size(j), *id)),
        );
        self.scratch.sort_unstable();
        order.clear();
        order.extend(self.scratch.iter().map(|(_, id)| *id));
        true
    }

    fn job_submitted(&mut self, _job: JobId) {
        self.stamp = None; // a new job invalidates the cached order
    }

    fn job_finished(&mut self, _job: JobId) {
        self.stamp = None; // a finished job invalidates the cached order
    }
}

/// DRF's job-ordering plugin: jobs of the tenant with the lowest dominant
/// share first (ties by submission order), best-effort jobs excluded — they
/// only launch through [`Backfill`]. Also the pipeline stage that feeds the
/// shared [`TenantLedger`] its usage observations.
pub struct DrfJobOrder {
    ledger: Rc<RefCell<TenantLedger>>,
    scratch: Vec<(u64, SimTime, JobId)>,
    /// Virtual second of the cached order and ledger observation. Shares
    /// and quota drift move on task timescales, so one refresh per
    /// simulated second bounds the O(jobs) scans the way the HFSP order
    /// cache bounds sorts — and keeps the per-heartbeat cost flat.
    stamp: Option<u64>,
    /// Membership changed since the cache was built (job arrived or
    /// finished): refresh immediately instead of waiting out the second.
    dirty: bool,
}

impl DrfJobOrder {
    /// Creates the plugin around a shared ledger.
    pub fn new(ledger: Rc<RefCell<TenantLedger>>) -> Self {
        DrfJobOrder {
            ledger,
            scratch: Vec::new(),
            stamp: None,
            dirty: false,
        }
    }
}

impl JobOrder for DrfJobOrder {
    fn refresh(
        &mut self,
        ctx: &SchedulerContext<'_>,
        node: NodeId,
        order: &mut Vec<JobId>,
    ) -> bool {
        // Refresh policy, two cadences. A heartbeat that can actually hand
        // out capacity (free slots, or suspended work to resume here) gets
        // a *fresh* observation and order: launching on stale shares sends
        // every freed slot to a head tenant that may already be back at
        // quota, which Reclaim then has to undo — a suspend/resume churn
        // cycle per slot. Saturated heartbeats can do nothing, so they only
        // keep the ledger current once per simulated second for Reclaim
        // (running after Allocate on that same cadence) and for the
        // time-integrated share statistics.
        // "Can place" mirrors `fill_node`'s own early-exit: a free slot
        // only counts when pending work of its kind exists somewhere (the
        // always-free reduce slots of a map-only workload must not defeat
        // the cache).
        let can_place = ctx.node(node).is_some_and(|view| {
            view.free_map_slots > 0
                && (ctx.totals.schedulable_maps > 0
                    || ctx.speculation.enabled
                    || view.suspended.iter().any(|t| t.kind == TaskKind::Map))
                || view.free_reduce_slots > 0
                    && (ctx.totals.schedulable_reduces > 0
                        || view.suspended.iter().any(|t| t.kind == TaskKind::Reduce))
        });
        let bucket = ctx.now.as_micros() / 1_000_000;
        if !can_place && self.stamp == Some(bucket) && !self.dirty {
            return false;
        }
        self.stamp = Some(bucket);
        self.dirty = false;
        let mut ledger = self.ledger.borrow_mut();
        // Piecewise-constant integration at every refresh keeps the
        // ledger's time-weighted shares accurate to the refresh cadence.
        ledger.observe(ctx);
        if !can_place {
            // The order is only consumed by `fill_node`, which this
            // heartbeat cannot use; the next placing heartbeat rebuilds it.
            return false;
        }
        self.scratch.clear();
        for j in ctx.jobs.values() {
            if j.is_finished() || j.spec.best_effort {
                continue;
            }
            if j.schedulable_count() == 0 && j.suspended_count == 0 {
                continue;
            }
            let tenant = ledger.tenant_of(j.spec.tenant);
            // Weighted DRF: rank by dominant share *relative to quota*, so
            // free capacity fills tenants proportionally to their weights
            // instead of equalizing raw shares (progressive filling of
            // s_i / w_i). Fixed-point key keeps the sort total and
            // deterministic.
            let share_key = (ledger.dominant_share(tenant) / ledger.quota(tenant) * 1e9) as u64;
            self.scratch.push((share_key, j.submitted_at, j.id));
        }
        self.scratch.sort_unstable();
        order.clear();
        order.extend(self.scratch.iter().map(|(_, _, id)| *id));
        true
    }

    fn job_submitted(&mut self, _job: JobId) {
        self.dirty = true; // new demand must be visible to this round
    }

    fn job_finished(&mut self, _job: JobId) {
        self.dirty = true; // freed share should reorder tenants promptly
    }
}

/// The `allocate` action: fills a heartbeating node's free slots with
/// pending (or suspended) work through the engine's [`fill_node`], serving
/// jobs in the order a [`JobOrder`] plugin ranks them.
pub struct Allocate {
    job_order: JobOrderFn,
    order: Vec<JobId>,
    locality: LocalityIndex,
}

impl Allocate {
    /// Allocation under a job-ordering plugin (FIFO, FAIR, HFSP and DRF
    /// differ only in this order).
    pub fn new(job_order: JobOrderFn) -> Self {
        Allocate {
            job_order,
            order: Vec::new(),
            locality: LocalityIndex::default(),
        }
    }
}

impl Action for Allocate {
    fn name(&self) -> &'static str {
        "allocate"
    }

    fn on_heartbeat(
        &mut self,
        ctx: &SchedulerContext<'_>,
        node: NodeId,
        out: &mut Vec<SchedulerAction>,
    ) {
        if self.job_order.refresh(ctx, node, &mut self.order) {
            out.extend(fill_node(ctx, node, &self.order, &mut self.locality));
        }
    }

    fn on_job_submitted(
        &mut self,
        _ctx: &SchedulerContext<'_>,
        job: JobId,
        _out: &mut Vec<SchedulerAction>,
    ) {
        self.job_order.job_submitted(job);
    }

    fn on_job_finished(&mut self, _ctx: &SchedulerContext<'_>, job: JobId) {
        self.job_order.job_finished(job);
        self.locality.forget(job);
    }
}

enum PreemptTrigger {
    /// FAIR's starvation deficit: preempt when a job has sat below its fair
    /// share past the timeout.
    FairShare {
        total_map_slots: usize,
        timeout: SimDuration,
        starved_since: HashMap<JobId, SimTime>,
    },
    /// HFSP's arrival trigger: preempt larger running jobs the moment a
    /// smaller job arrives and free slots cannot cover its demand.
    SizeOnSubmit,
}

/// The `preempt` action: evicts running tasks of other jobs through the
/// configured [`PreemptionPrimitive`], victims enumerated by a
/// [`PreemptableSetFn`] and chosen by a [`TaskOrderFn`].
pub struct Preempt {
    primitive: PreemptionPrimitive,
    preemptable: PreemptableSetFn,
    select: TaskOrderFn,
    trigger: PreemptTrigger,
}

impl Preempt {
    /// FAIR's preemption: deficit-triggered, victims from over-share jobs.
    pub fn fair_share(
        primitive: PreemptionPrimitive,
        eviction: EvictionPolicy,
        total_map_slots: usize,
        timeout: SimDuration,
    ) -> Self {
        Preempt {
            primitive,
            preemptable: running_tasks_preemptable(),
            select: eviction_select(eviction, 0xFA1),
            trigger: PreemptTrigger::FairShare {
                total_map_slots: total_map_slots.max(1),
                timeout,
                starved_since: HashMap::new(),
            },
        }
    }

    /// HFSP's preemption: arrival-triggered, victims from strictly larger
    /// jobs.
    pub fn size_on_submit(primitive: PreemptionPrimitive, eviction: EvictionPolicy) -> Self {
        Preempt {
            primitive,
            preemptable: running_tasks_preemptable(),
            select: eviction_select(eviction, 0x45F5),
            trigger: PreemptTrigger::SizeOnSubmit,
        }
    }

    /// Picks up to `take` victims of `job` and appends their evictions,
    /// returning how many were actually claimed.
    fn evict_from(
        &mut self,
        ctx: &SchedulerContext<'_>,
        job: JobId,
        take: usize,
        out: &mut Vec<SchedulerAction>,
    ) -> usize {
        let candidates = (self.preemptable)(ctx, job);
        let victims = (self.select)(ctx, &candidates, take);
        let mut claimed = 0;
        for v in victims {
            if let Some(a) = self.primitive.preempt_action(v) {
                out.push(a);
                claimed += 1;
            }
        }
        claimed
    }
}

impl Action for Preempt {
    fn name(&self) -> &'static str {
        "preempt"
    }

    fn on_heartbeat(
        &mut self,
        ctx: &SchedulerContext<'_>,
        _node: NodeId,
        out: &mut Vec<SchedulerAction>,
    ) {
        let PreemptTrigger::FairShare {
            total_map_slots,
            timeout,
            ..
        } = &self.trigger
        else {
            return;
        };
        let (total_map_slots, timeout) = (*total_map_slots, *timeout);
        // Deficit tracking is O(1) per job via the engine-maintained
        // counters: no task-list scans, no candidate Vecs until a victim
        // job is actually chosen.
        let incomplete = ctx.jobs.values().filter(|j| !j.is_finished()).count();
        let share = total_map_slots
            .checked_div(incomplete)
            .map_or(total_map_slots, |s| s.max(1));

        // Track starvation times and find jobs with a legitimate claim. A
        // job voluntarily declining slots under delay scheduling
        // (`delay_gated`) has no claim: preempting victims to free slots it
        // would decline again is pure churn, and its bounded wait ends (by
        // local launch or escalation) within the configured delay.
        let mut claims: usize = 0;
        for job in ctx.jobs.values().filter(|j| !j.is_finished()) {
            let wants_more =
                job.suspended_count > 0 || (job.schedulable_count() > 0 && !ctx.delay_gated(job));
            let running = job.occupying_count as usize;
            let starving = wants_more && running < share;
            let PreemptTrigger::FairShare { starved_since, .. } = &mut self.trigger else {
                unreachable!("checked above");
            };
            if starving {
                let since = *starved_since.entry(job.id).or_insert(ctx.now);
                if ctx.now - since >= timeout {
                    claims += share - running;
                }
            } else {
                starved_since.remove(&job.id);
            }
        }
        // No-deficit early return: nothing has starved past the timeout, so
        // the (allocating, sorting) victim-selection phase never runs.
        if claims == 0 {
            return;
        }

        // Victims come from jobs above their share, most-over-share first.
        let mut over_share: Vec<(u32, JobId)> = ctx
            .jobs
            .values()
            .filter(|j| !j.is_finished())
            .filter(|j| j.occupying_count as usize > share)
            .map(|j| (j.occupying_count, j.id))
            .collect();
        over_share.sort_by_key(|(occupying, _)| std::cmp::Reverse(*occupying));
        for (occupying, job) in over_share {
            if claims == 0 {
                break;
            }
            let surplus = occupying as usize - share;
            let take = surplus.min(claims);
            claims = claims.saturating_sub(self.evict_from(ctx, job, take, out));
        }
    }

    fn on_job_submitted(
        &mut self,
        ctx: &SchedulerContext<'_>,
        job: JobId,
        out: &mut Vec<SchedulerAction>,
    ) {
        if !matches!(self.trigger, PreemptTrigger::SizeOnSubmit) {
            return;
        }
        let Some(new_job) = ctx.jobs.get(&job) else {
            return;
        };
        // Demand is the job's *map* demand: it is compared against free map
        // slots and satisfied by preempting map tasks below.
        let new_demand = new_job.schedulable_maps as usize;
        if new_demand == 0 {
            return;
        }
        // Cluster-wide capacity from the engine-maintained per-rack
        // counters: O(racks) per arrival.
        let free_slots = ctx.free_map_slots_total();
        if free_slots as usize >= new_demand {
            return;
        }
        let new_size = remaining_size(new_job);
        // Preempt tasks of strictly larger running jobs, largest first,
        // until the new job's demand could be satisfied. The O(1)
        // occupying-count filter runs before the O(tasks) size estimate.
        let mut needed = new_demand - free_slots as usize;
        let mut larger: Vec<(u64, JobId)> = ctx
            .jobs
            .values()
            .filter(|j| j.id != job && !j.is_finished())
            .filter(|j| j.occupying_count > 0)
            .map(|j| (remaining_size(j), j.id))
            .filter(|(size, _)| *size > new_size)
            .collect();
        larger.sort_by_key(|(size, _)| std::cmp::Reverse(*size));
        for (_, victim_job) in larger {
            if needed == 0 {
                break;
            }
            needed = needed.saturating_sub(self.evict_from(ctx, victim_job, needed, out));
        }
    }
}

/// The `reclaim` action: pulls tenants back toward their DRF quotas. Once
/// per simulated second it compares each tenant's slot usage against its
/// quota entitlement; when starved tenants' claims cannot be covered by
/// free slots, it evicts — best-effort jobs first, then the most over-quota
/// tenants (lowest-priority jobs first within a tenant) — through the
/// configured primitive. With `SuspendResume` that is the paper's
/// OS-assisted preemption (no work lost); with `Kill` it is the classic
/// Hadoop reclaim the paper argues against.
pub struct Reclaim {
    ledger: Rc<RefCell<TenantLedger>>,
    primitive: PreemptionPrimitive,
    select: TaskOrderFn,
    stamp: Option<u64>,
}

impl Reclaim {
    /// Creates the action around the pipeline's shared ledger.
    pub fn new(
        ledger: Rc<RefCell<TenantLedger>>,
        primitive: PreemptionPrimitive,
        select: TaskOrderFn,
    ) -> Self {
        Reclaim {
            ledger,
            primitive,
            select,
            stamp: None,
        }
    }

    /// Running tasks of `job` of the given kind, as preemptable candidates.
    fn candidates_of_kind(job: &JobRuntime, kind: TaskKind) -> Vec<PreemptableTask> {
        candidates_of(job)
            .into_iter()
            .filter(|c| c.task.kind == kind)
            .map(|c| PreemptableTask {
                task: c.task,
                progress: c.progress,
                memory_bytes: c.memory_bytes,
            })
            .collect()
    }
}

impl Action for Reclaim {
    fn name(&self) -> &'static str {
        "reclaim"
    }

    fn on_heartbeat(
        &mut self,
        ctx: &SchedulerContext<'_>,
        _node: NodeId,
        out: &mut Vec<SchedulerAction>,
    ) {
        // Quota drift moves on task timescales; once per simulated second
        // bounds eviction churn the way the HFSP order cache bounds sorts.
        let bucket = ctx.now.as_micros() / 1_000_000;
        if self.stamp == Some(bucket) {
            return;
        }
        self.stamp = Some(bucket);

        let ledger = self.ledger.clone();
        let ledger = ledger.borrow();
        for kind in [TaskKind::Map, TaskKind::Reduce] {
            // What quota entitles starved tenants to right now.
            let mut claims = 0usize;
            for t in 0..ledger.tenants() {
                let (usage, quota, demand) = match kind {
                    TaskKind::Map => (
                        ledger.usage_maps(t),
                        ledger.quota_map_slots(t),
                        ledger.demand_maps(t),
                    ),
                    TaskKind::Reduce => (
                        ledger.usage_reduces(t),
                        ledger.quota_reduce_slots(t),
                        ledger.demand_reduces(t),
                    ),
                };
                if demand > 0 && usage < quota {
                    claims += (quota - usage).min(demand) as usize;
                }
            }
            // Free slots serve claims without eviction.
            let free = match kind {
                TaskKind::Map => ctx.free_map_slots_total(),
                TaskKind::Reduce => ctx.free_reduce_slots_total(),
            };
            let mut claims = claims.saturating_sub(free as usize);
            if claims == 0 {
                continue;
            }

            // Best-effort jobs yield first: they run on borrowed capacity.
            for job in ctx.jobs.values() {
                if claims == 0 {
                    break;
                }
                if !job.spec.best_effort || job.is_finished() || job.occupying_count == 0 {
                    continue;
                }
                let candidates = Reclaim::candidates_of_kind(job, kind);
                if candidates.is_empty() {
                    continue;
                }
                for v in (self.select)(ctx, &candidates, claims) {
                    if let Some(a) = self.primitive.preempt_action(v) {
                        out.push(a);
                        claims = claims.saturating_sub(1);
                    }
                }
            }
            if claims == 0 {
                continue;
            }

            // Then over-quota tenants, most over first — capped at their
            // excess so reclaim never pushes a tenant *below* quota.
            let mut over: Vec<(u32, usize)> = (0..ledger.tenants())
                .filter_map(|t| {
                    let (usage, quota) = match kind {
                        TaskKind::Map => (ledger.usage_maps(t), ledger.quota_map_slots(t)),
                        TaskKind::Reduce => (ledger.usage_reduces(t), ledger.quota_reduce_slots(t)),
                    };
                    (usage > quota).then(|| (usage - quota, t))
                })
                .collect();
            over.sort_by_key(|(excess, t)| (std::cmp::Reverse(*excess), *t));
            for (excess, tenant) in over {
                if claims == 0 {
                    break;
                }
                let mut budget = (excess as usize).min(claims);
                // Lowest-priority, youngest jobs of the tenant yield first
                // (priority classes: a tenant's high-priority work is
                // reclaimed last).
                let mut jobs: Vec<(i32, std::cmp::Reverse<JobId>, JobId)> = ctx
                    .jobs
                    .values()
                    .filter(|j| {
                        !j.is_finished()
                            && !j.spec.best_effort
                            && ledger.tenant_of(j.spec.tenant) == tenant
                            && j.occupying_count > 0
                    })
                    .map(|j| (j.spec.priority, std::cmp::Reverse(j.id), j.id))
                    .collect();
                jobs.sort_unstable();
                for (_, _, job_id) in jobs {
                    if budget == 0 {
                        break;
                    }
                    let Some(job) = ctx.jobs.get(&job_id) else {
                        continue;
                    };
                    let candidates = Reclaim::candidates_of_kind(job, kind);
                    if candidates.is_empty() {
                        continue;
                    }
                    for v in (self.select)(ctx, &candidates, budget) {
                        if let Some(a) = self.primitive.preempt_action(v) {
                            out.push(a);
                            budget -= 1;
                            claims = claims.saturating_sub(1);
                        }
                    }
                }
            }
        }
    }
}

/// The `backfill` action: launches best-effort (scavenger-class) jobs into
/// whatever capacity is left after the actions before it — including slots
/// freed by suspension, the paper's key enabler: a suspended task's memory
/// pages out, its slot backfills, and no work is lost when the suspension
/// ends. Resumes its own suspended tasks first, scores candidate placements
/// through a [`NodeScoreFn`] (negative vetoes the node), and respects the
/// engine's placement vetoes for fresh launches.
pub struct Backfill {
    score: NodeScoreFn,
    /// Live best-effort jobs in submission order, maintained through the
    /// submit/finish hooks: a backfill round visits exactly these instead
    /// of scanning the whole job table, and a heartbeat with no scavenger
    /// work costs O(1).
    best_effort_alive: Vec<JobId>,
}

impl Backfill {
    /// Backfill with a node-scoring plugin.
    pub fn new(score: NodeScoreFn) -> Self {
        Backfill {
            score,
            best_effort_alive: Vec::new(),
        }
    }

    /// Backfill that scores every node equally (placement governed solely
    /// by the engine's vetoes).
    pub fn any_node() -> Self {
        Backfill::new(Box::new(|_, _, _| 0))
    }
}

impl Action for Backfill {
    fn name(&self) -> &'static str {
        "backfill"
    }

    fn on_heartbeat(
        &mut self,
        ctx: &SchedulerContext<'_>,
        node: NodeId,
        out: &mut Vec<SchedulerAction>,
    ) {
        if self.best_effort_alive.is_empty() {
            return;
        }
        let Some(view) = ctx.node(node) else {
            return;
        };
        // Slots the actions before us already claimed this round (actions
        // apply only after the whole round returns, so the view alone
        // over-counts).
        let mut free_map = view.free_map_slots as usize;
        let mut free_reduce = view.free_reduce_slots as usize;
        for a in out.iter() {
            let claimed_kind = match a {
                SchedulerAction::Launch { task, node: n }
                | SchedulerAction::LaunchSpeculative { task, node: n } => {
                    (*n == node).then_some(task.kind)
                }
                SchedulerAction::Resume { task } => ctx
                    .task(*task)
                    .filter(|t| t.node == Some(node))
                    .map(|t| t.id.kind),
                _ => None,
            };
            match claimed_kind {
                Some(TaskKind::Map) => free_map = free_map.saturating_sub(1),
                Some(TaskKind::Reduce) => free_reduce = free_reduce.saturating_sub(1),
                None => {}
            }
        }
        if free_map == 0 && free_reduce == 0 {
            return;
        }

        for job_id in &self.best_effort_alive {
            if free_map == 0 && free_reduce == 0 {
                break;
            }
            let Some(job) = ctx.jobs.get(job_id) else {
                continue;
            };
            if job.is_finished() {
                continue;
            }
            // O(1) skip on the engine-maintained counters: task lists are
            // only walked when a slot of a kind this job can use is free.
            let can_launch = (free_map > 0 && job.schedulable_maps > 0)
                || (free_reduce > 0 && job.schedulable_reduces > 0);
            if !can_launch && job.suspended_count == 0 {
                continue;
            }
            if (self.score)(ctx, job.id, node) < 0 {
                continue;
            }
            // Resume-first: this node already holds the suspended task's
            // paged-out state.
            if job.suspended_count > 0 {
                for t in &job.tasks {
                    let free = match t.id.kind {
                        TaskKind::Map => &mut free_map,
                        TaskKind::Reduce => &mut free_reduce,
                    };
                    if *free == 0 {
                        continue;
                    }
                    if t.state == TaskState::Suspended && t.node == Some(node) {
                        out.push(SchedulerAction::Resume { task: t.id });
                        *free -= 1;
                    }
                }
            }
            if job.schedulable_count() > 0 {
                for t in &job.tasks {
                    if !t.state.is_schedulable() {
                        continue;
                    }
                    let kind = t.id.kind;
                    let free = match kind {
                        TaskKind::Map => &mut free_map,
                        TaskKind::Reduce => &mut free_reduce,
                    };
                    if *free == 0 {
                        continue;
                    }
                    if ctx.reliability_avoid(node, kind) {
                        continue;
                    }
                    out.push(SchedulerAction::Launch { task: t.id, node });
                    *free -= 1;
                }
            }
        }
    }

    fn on_job_submitted(
        &mut self,
        ctx: &SchedulerContext<'_>,
        job: JobId,
        _out: &mut Vec<SchedulerAction>,
    ) {
        if ctx.jobs.get(&job).is_some_and(|j| j.spec.best_effort) {
            self.best_effort_alive.push(job);
        }
    }

    fn on_job_finished(&mut self, _ctx: &SchedulerContext<'_>, job: JobId) {
        self.best_effort_alive.retain(|id| *id != job);
    }
}

/// Configuration of the multi-tenant bundle
/// ([`ActionPipeline::multi_tenant`]).
pub struct MultiTenantConfig {
    /// Per-tenant weights; quota is `weight / Σ weights`.
    pub weights: Vec<f64>,
    /// Map slots in the cluster (DRF denominator).
    pub total_map_slots: u32,
    /// Reduce slots in the cluster (DRF denominator).
    pub total_reduce_slots: u32,
    /// Warm-up horizon excluded from the ledger's steady-state statistics.
    pub steady_after: SimTime,
    /// How reclaim evicts: `Kill` (work lost) or `SuspendResume` (the
    /// paper's OS-assisted primitive, work preserved).
    pub primitive: PreemptionPrimitive,
    /// Victim selection within a job.
    pub eviction: EvictionPolicy,
}

/// A [`SchedulerPolicy`] that is a composition of [`Action`]s dispatched in
/// order over the same immutable context, their outputs concatenated.
pub struct ActionPipeline {
    label: &'static str,
    actions: Vec<Box<dyn Action>>,
}

impl ActionPipeline {
    /// Composes a pipeline from actions, dispatched in the given order.
    pub fn new(label: &'static str, actions: Vec<Box<dyn Action>>) -> Self {
        ActionPipeline { label, actions }
    }

    /// FIFO as a plugin bundle: a single [`Allocate`] under
    /// [`FifoJobOrder`]. Byte-identical to [`mrp_engine::FifoScheduler`],
    /// which runs the same order over the same [`fill_node`].
    pub fn fifo() -> Self {
        ActionPipeline::new(
            "fifo",
            vec![Box::new(Allocate::new(Box::new(FifoJobOrder)))],
        )
    }

    /// FAIR as a plugin bundle: [`Allocate`] under [`FairJobOrder`], then
    /// deficit-triggered [`Preempt`].
    ///
    /// Every job is its own pool with an equal share of the cluster's
    /// `total_map_slots`. A job that has run fewer slots than its fair share
    /// for longer than `preemption_timeout` triggers preemption: tasks of
    /// over-share jobs are evicted with `primitive`, victims chosen by
    /// `eviction` (this is how the Hadoop FAIR scheduler warrants fairness,
    /// with kill replaced by suspend/resume).
    pub fn fair(
        primitive: PreemptionPrimitive,
        eviction: EvictionPolicy,
        total_map_slots: usize,
        preemption_timeout: SimDuration,
    ) -> Self {
        ActionPipeline::new(
            "fair",
            vec![
                Box::new(Allocate::new(Box::new(FairJobOrder::default()))),
                Box::new(Preempt::fair_share(
                    primitive,
                    eviction,
                    total_map_slots,
                    preemption_timeout,
                )),
            ],
        )
    }

    /// HFSP as a plugin bundle: [`Allocate`] under [`HfspJobOrder`], then
    /// arrival-triggered [`Preempt`] ([`crate::HfspScheduler`] is this
    /// bundle under its own name).
    pub fn hfsp(primitive: PreemptionPrimitive, eviction: EvictionPolicy) -> Self {
        ActionPipeline::new(
            "hfsp",
            vec![
                Box::new(Allocate::new(Box::new(HfspJobOrder::default()))),
                Box::new(Preempt::size_on_submit(primitive, eviction)),
            ],
        )
    }

    /// The multi-tenant bundle: DRF [`Allocate`], quota [`Reclaim`] (kill
    /// or suspend — the paper's trade-off as a knob), and best-effort
    /// [`Backfill`]. Returns the pipeline plus the shared [`TenantLedger`]
    /// for end-of-run share statistics.
    pub fn multi_tenant(config: MultiTenantConfig) -> (Self, Rc<RefCell<TenantLedger>>) {
        let ledger = Rc::new(RefCell::new(TenantLedger::new(
            config.weights,
            config.total_map_slots,
            config.total_reduce_slots,
            config.steady_after,
        )));
        let pipeline = ActionPipeline::new(
            "multi_tenant",
            vec![
                Box::new(Allocate::new(Box::new(DrfJobOrder::new(ledger.clone())))),
                Box::new(Reclaim::new(
                    ledger.clone(),
                    config.primitive,
                    eviction_select(config.eviction, 0xD2F),
                )),
                Box::new(Backfill::any_node()),
            ],
        );
        (pipeline, ledger)
    }
}

impl SchedulerPolicy for ActionPipeline {
    fn on_heartbeat(&mut self, ctx: &SchedulerContext<'_>, node: NodeId) -> Vec<SchedulerAction> {
        let mut out = Vec::new();
        for action in &mut self.actions {
            action.on_heartbeat(ctx, node, &mut out);
        }
        out
    }

    fn on_job_submitted(&mut self, ctx: &SchedulerContext<'_>, job: JobId) -> Vec<SchedulerAction> {
        let mut out = Vec::new();
        for action in &mut self.actions {
            action.on_job_submitted(ctx, job, &mut out);
        }
        out
    }

    fn on_job_finished(&mut self, ctx: &SchedulerContext<'_>, job: JobId) -> Vec<SchedulerAction> {
        for action in &mut self.actions {
            action.on_job_finished(ctx, job);
        }
        Vec::new()
    }

    fn on_task_finished(
        &mut self,
        _ctx: &SchedulerContext<'_>,
        _task: TaskId,
    ) -> Vec<SchedulerAction> {
        Vec::new()
    }

    fn name(&self) -> &str {
        self.label
    }
}
