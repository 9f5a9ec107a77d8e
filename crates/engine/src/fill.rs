//! The one slot-filling engine every scheduler shares.
//!
//! [`fill_node`] hands a heartbeating node's free slots to jobs in the order
//! a policy gives it. Each job first resumes its tasks suspended on the
//! node, then launches fresh tasks rack-aware (node-local, rack-local,
//! anything), delay- and reliability-gated; map slots left after every job
//! go to speculative backups. Policies differ only in the job order:
//! priority FIFO ([`FifoScheduler`](crate::FifoScheduler) over
//! [`FifoJobOrder`](crate::FifoJobOrder)), and the FAIR, HFSP and DRF
//! orders of the `mrp-preempt` action pipeline.

use crate::job::{JobId, JobRuntime, TaskId, TaskKind, TaskState};
use crate::scheduler::{NodeView, SchedulerAction, SchedulerContext};
use mrp_dfs::{Locality, NodeId};
use std::collections::HashMap;

/// A lazily-consumed list of candidate task positions (indices into
/// `JobRuntime::tasks`). Entries are skipped — and permanently consumed — when
/// their task is no longer schedulable by the time the cursor reaches them,
/// so each entry is visited at most once over the job's lifetime.
#[derive(Default)]
struct PendingList {
    items: Vec<u32>,
    cursor: usize,
}

impl PendingList {
    /// Next entry whose task is still schedulable and not already chosen in
    /// this round (a task picked from the node list may also sit on the rack
    /// list; the context's task states only change once the round's actions
    /// are applied, so the guard prevents double-launching).
    fn next_schedulable(&mut self, job: &JobRuntime, chosen: &[usize]) -> Option<usize> {
        while self.cursor < self.items.len() {
            let pos = self.items[self.cursor] as usize;
            self.cursor += 1;
            if chosen.contains(&pos) {
                continue;
            }
            if job.tasks.get(pos).is_some_and(|t| t.state.is_schedulable()) {
                return Some(pos);
            }
        }
        None
    }
}

/// Per-job rack-aware pending-task index, in the spirit of Hadoop's
/// `JobInProgress` non-running task caches: for every replica-holding node
/// (and its rack) a list of pending map tasks, plus a cursor for the
/// any-locality fallback scan. This is what keeps a free-slot heartbeat
/// O(launches) instead of O(job tasks): without it, every launch on a
/// 1000-task job re-scanned the whole task list per locality tier.
///
/// The lists are consume-once (see [`PendingList`]): a task killed after its
/// entry was consumed is simply no longer found *locally* — the fallback
/// scan, which rewinds when the job still reports schedulable work that the
/// cursor cannot see, guarantees it is found at all. Determinism holds
/// because the maps are only ever indexed by key, never iterated.
#[derive(Default)]
struct JobIndex {
    /// node id -> pending map tasks with a replica on that node.
    by_node: HashMap<u32, PendingList>,
    /// rack id -> pending map tasks with a replica in that rack.
    by_rack: HashMap<u32, PendingList>,
    /// Bit per node id: set while `by_node` *may* still hold unconsumed
    /// entries for that node, cleared once the node's list is exhausted. A
    /// delay-scheduling round visits many jobs that have nothing local on
    /// the heartbeating node; the bit test answers that in a dense read
    /// instead of a (SipHash) map lookup per job per heartbeat.
    node_bits: Vec<u64>,
    /// Same for rack ids over `by_rack`.
    rack_bits: Vec<u64>,
    /// First position of `tasks` that may still be schedulable; only ever
    /// advanced past non-schedulable tasks (and rewound after kills).
    cursor: usize,
}

#[inline]
fn test_bit(bits: &[u64], key: u32) -> bool {
    bits.get((key / 64) as usize)
        .is_some_and(|w| w & (1u64 << (key % 64)) != 0)
}

#[inline]
fn clear_bit(bits: &mut [u64], key: u32) {
    if let Some(w) = bits.get_mut((key / 64) as usize) {
        *w &= !(1u64 << (key % 64));
    }
}

fn bitset_of(keys: impl Iterator<Item = u32> + Clone) -> Vec<u64> {
    let max = keys.clone().max().map(|m| m as usize + 1).unwrap_or(0);
    let mut bits = vec![0u64; max.div_ceil(64)];
    for key in keys {
        bits[(key / 64) as usize] |= 1u64 << (key % 64);
    }
    bits
}

impl JobIndex {
    fn build(job: &JobRuntime, ctx: &SchedulerContext<'_>) -> Self {
        let mut index = JobIndex::default();
        let mut racks_seen: Vec<u32> = Vec::with_capacity(4);
        for (pos, t) in job.tasks.iter().enumerate() {
            racks_seen.clear();
            for holder in &t.preferred_nodes {
                index
                    .by_node
                    .entry(holder.0)
                    .or_default()
                    .items
                    .push(pos as u32);
                if let Some(rack) = ctx.topology.rack_of(*holder) {
                    if !racks_seen.contains(&rack.0) {
                        racks_seen.push(rack.0);
                        index
                            .by_rack
                            .entry(rack.0)
                            .or_default()
                            .items
                            .push(pos as u32);
                    }
                }
            }
        }
        index.node_bits = bitset_of(index.by_node.keys().copied());
        index.rack_bits = bitset_of(index.by_rack.keys().copied());
        index
    }
}

/// The fill state of one scheduler instance: the per-job indices, built
/// lazily per job and dropped by [`LocalityIndex::forget`] when the job
/// finishes, and the resume gate. Job ids are dense (sequential from 1), so
/// the table is a `Vec` indexed by `id - 1` — the per-job lookup on the
/// fill-loop hot path is a bounds check, not a hash.
pub struct LocalityIndex {
    jobs: Vec<Option<JobIndex>>,
    /// Reusable per-round buffer of task positions already chosen for launch
    /// from the current job (guards against double-launching a task that
    /// appears on several candidate lists).
    chosen: Vec<usize>,
    /// Reusable per-round buffer of speculative-launch candidates.
    spec_buf: Vec<TaskId>,
    /// Simulated second of the last speculation scan. The O(tail-job tasks)
    /// straggler scan runs at most once per simulated second cluster-wide:
    /// straggler rates move on task timescales, while free-slot heartbeats
    /// arrive hundreds of times per second at cluster scale.
    spec_stamp: Option<u64>,
    /// Whether [`fill_node`] gives free slots back to tasks suspended on the
    /// node. Policies that decide resumption themselves turn it off.
    resumes: bool,
}

impl Default for LocalityIndex {
    /// An empty index whose fills resume suspended tasks.
    fn default() -> Self {
        LocalityIndex {
            jobs: Vec::new(),
            chosen: Vec::new(),
            spec_buf: Vec::new(),
            spec_stamp: None,
            resumes: true,
        }
    }
}

impl LocalityIndex {
    /// An empty index whose fills never resume suspended tasks.
    pub fn non_resuming() -> Self {
        LocalityIndex {
            resumes: false,
            ..LocalityIndex::default()
        }
    }

    /// Drops a finished job's index.
    pub fn forget(&mut self, job: JobId) {
        if let Some(slot) = self.jobs.get_mut((job.0 as usize).wrapping_sub(1)) {
            *slot = None;
        }
    }

    /// The job's index, built on first touch.
    fn entry(&mut self, job: &JobRuntime, ctx: &SchedulerContext<'_>) -> &mut JobIndex {
        let idx = (job.id.0 as usize).saturating_sub(1);
        if idx >= self.jobs.len() {
            self.jobs.resize_with(idx + 1, || None);
        }
        self.jobs[idx].get_or_insert_with(|| JobIndex::build(job, ctx))
    }

    /// O(1) test, from the engine-maintained cluster totals, whether
    /// [`fill_node`] could use any free slot on `node`: pending work of a
    /// matching kind exists anywhere, a task suspended on the node may
    /// resume, or a free map slot may take a speculative backup. At
    /// 10k-node scale the overwhelming majority of heartbeats fail it (e.g.
    /// the always-free reduce slot of a map-only workload), so policies
    /// call it before any ordering work.
    pub fn can_fill(&self, ctx: &SchedulerContext<'_>, node: NodeId) -> bool {
        ctx.node(node).is_some_and(|view| self.usable(ctx, view))
    }

    fn usable(&self, ctx: &SchedulerContext<'_>, view: &NodeView) -> bool {
        let any_slot_free = view.free_map_slots > 0 || view.free_reduce_slots > 0;
        let can_launch_map = view.free_map_slots > 0 && ctx.totals.schedulable_maps > 0;
        let can_launch_reduce = view.free_reduce_slots > 0 && ctx.totals.schedulable_reduces > 0;
        let can_resume = self.resumes && any_slot_free && !view.suspended.is_empty();
        // Speculation (when enabled) inspects only tail-phase jobs, and only
        // when this node still has a free map slot after regular assignment
        // — Hadoop's trigger: a slot nothing pending can use.
        let can_speculate = ctx.speculation.enabled && view.free_map_slots > 0;
        can_launch_map || can_launch_reduce || can_resume || can_speculate
    }
}

/// Launches (and, unless the index is [`LocalityIndex::non_resuming`],
/// resumes) the tasks of jobs in the order produced by `ordered_jobs`,
/// filling free slots on `node`. Fresh launches are handed out rack-aware —
/// node-local tasks first, then rack-local, then anything — via the per-job
/// [`LocalityIndex`]. Map slots left over go to speculative backups of
/// stragglers (`ClusterConfig::speculation`).
///
/// With delay scheduling enabled (`ClusterConfig::delay`), a job whose
/// allowed locality level has not yet escalated *declines* the non-local
/// tiers: its rack list is left untouched and the fallback scan skips the
/// map region, the declined opportunity is recorded (which starts/continues
/// the job's wait clock), and the loop moves on so the next job in policy
/// order can use the slot. Jobs whose tasks have no placement preference are
/// never restricted, and reduces always launch anywhere. Liveness holds
/// because the allowed level is a pure function of elapsed wait: every
/// declining job reaches `OffRack` within the configured waits, even when
/// all its replica holders are dead.
pub fn fill_node(
    ctx: &SchedulerContext<'_>,
    node: NodeId,
    ordered_jobs: &[JobId],
    index: &mut LocalityIndex,
) -> Vec<SchedulerAction> {
    let Some(view) = ctx.node(node) else {
        return Vec::new();
    };
    // Hot-path early exit (see `LocalityIndex::can_fill`).
    if !index.usable(ctx, view) {
        return Vec::new();
    }
    let mut maps_unclaimed = ctx.totals.schedulable_maps;
    let mut reduces_unclaimed = ctx.totals.schedulable_reduces;
    let rack = ctx.topology.rack_of(node);
    let delay_on = ctx.delay_enabled();
    // Failure-aware placement: while this node's failure history marks it
    // flaky *and* capacity exists elsewhere, withhold fresh launches (and
    // speculative backups) from it. Resumes are never gated — the suspended
    // state already lives here.
    let avoid_map = ctx.reliability_avoid(node, TaskKind::Map);
    let avoid_reduce = ctx.reliability_avoid(node, TaskKind::Reduce);
    let mut free_map = view.free_map_slots;
    let mut free_reduce = view.free_reduce_slots;
    let mut resumable = if index.resumes {
        view.suspended.len()
    } else {
        0
    };
    let mut actions = Vec::new();
    // Bound on declining jobs visited per round. Without it, a round where
    // every backlogged job waits for locality scans the whole job order on
    // every heartbeat — O(jobs) of pure declines. Past the cap the slot
    // simply stays free until the next heartbeat (by which point waits have
    // escalated); capped-out jobs' clocks start a few heartbeats later,
    // which only shifts their bounded wait, never starves them.
    const MAX_DECLINES_PER_ROUND: usize = 64;
    let mut declines = 0usize;
    for job_id in ordered_jobs {
        // Stop as soon as the remaining slots provably cannot be used by
        // anything further down the list (per-kind: a free reduce slot must
        // not keep the loop scanning map-only jobs).
        let want_map = free_map > 0 && maps_unclaimed > 0;
        let want_reduce = free_reduce > 0 && reduces_unclaimed > 0;
        let want_resume = resumable > 0 && (free_map > 0 || free_reduce > 0);
        if !want_map && !want_reduce && !want_resume {
            break;
        }
        let Some(job) = ctx.jobs.get(job_id) else {
            continue;
        };
        // O(1) skip via the engine-maintained per-job counters: a job with
        // nothing this node could take costs one map lookup here, not a scan
        // of its (potentially huge) task list.
        let job_maps = free_map > 0 && job.schedulable_maps > 0;
        let job_reduces = free_reduce > 0 && job.schedulable_reduces > 0;
        let job_resumes = want_resume && job.suspended_count > 0;
        if !job_maps && !job_reduces && !job_resumes {
            continue;
        }
        // Resume the job's own suspended tasks before launching new ones: a
        // suspended task already holds memory on its node and finishing it
        // releases that memory soonest. The node view lists exactly the
        // tasks suspended *here*, so the match is O(suspended-on-node), not
        // O(job tasks). The view is attempt-level and may still list a task
        // whose JobTracker state moved on to MustResume/MustKill (a resume
        // that could not be delivered retries via the command path, not
        // here), so re-check the task state before spending a slot on a
        // Resume the engine would discard.
        if job_resumes {
            for &task in view.suspended.iter().filter(|t| t.job == *job_id) {
                if !ctx
                    .task(task)
                    .is_some_and(|t| t.state == TaskState::Suspended)
                {
                    continue;
                }
                let free = match task.kind {
                    TaskKind::Map => &mut free_map,
                    TaskKind::Reduce => &mut free_reduce,
                };
                if *free > 0 {
                    *free -= 1;
                    resumable -= 1;
                    actions.push(SchedulerAction::Resume { task });
                }
            }
        }
        if !job_maps && !job_reduces {
            continue;
        }
        // Delay scheduling: the loosest locality this job may launch maps at
        // right now, decided *before* any index work — at scale most
        // delayed rounds visit many declining jobs, and the decline path
        // must stay a few dense reads, not hash lookups. Jobs with no
        // replica preferences (synthetic input; tasks are maps-first, so
        // the first task tells) are never restricted, and neither is a job
        // with no schedulable maps at all: the gate only ever withholds map
        // launches, and treating a pure-reduce-phase job as restricted
        // would also suppress the tier-3 rewind below — stranding a reduce
        // killed back to pending behind the cursor forever, since a job
        // without schedulable maps never declines anything and so never
        // escalates.
        let prefers_local = job
            .tasks
            .first()
            .is_some_and(|t| !t.preferred_nodes.is_empty());
        let allowed = if delay_on && prefers_local && job.schedulable_maps > 0 {
            ctx.delay_allowed(*job_id)
        } else {
            Locality::OffRack
        };
        let maps_any = allowed == Locality::OffRack;
        let mut chosen = std::mem::take(&mut index.chosen);
        chosen.clear();
        let mut maps_chosen = 0usize;
        let job_index = index.entry(job, ctx);
        // Fast decline: the job is locality-restricted, has provably nothing
        // it may launch on this node (the replica bitsets say so), and no
        // reduce work to place — the whole visit collapses to recording the
        // skipped opportunity. This is the common case of a delayed round at
        // scale, so it must stay a handful of dense reads.
        if !maps_any && free_map > 0 && job.schedulable_maps > 0 && !job_reduces {
            let node_possible = test_bit(&job_index.node_bits, node.0);
            let rack_possible = allowed >= Locality::RackLocal
                && rack.is_some_and(|r| test_bit(&job_index.rack_bits, r.0));
            if !node_possible && !rack_possible {
                index.chosen = chosen;
                ctx.note_delay_skip(*job_id);
                declines += 1;
                if declines >= MAX_DECLINES_PER_ROUND {
                    break;
                }
                continue;
            }
        }
        // Tier 1: map tasks with a replica on this very node. The bit test
        // keeps the overwhelmingly common "nothing local here" answer off
        // the hash; an exhausted list clears its bit so it is never probed
        // again.
        let mut node_local_chosen = false;
        if free_map > 0 && !avoid_map && test_bit(&job_index.node_bits, node.0) {
            if let Some(list) = job_index.by_node.get_mut(&node.0) {
                while free_map > 0 {
                    let Some(pos) = list.next_schedulable(job, &chosen) else {
                        break;
                    };
                    free_map -= 1;
                    maps_unclaimed = maps_unclaimed.saturating_sub(1);
                    maps_chosen += 1;
                    node_local_chosen = true;
                    chosen.push(pos);
                    actions.push(SchedulerAction::Launch {
                        task: job.tasks[pos].id,
                        node,
                    });
                }
                if list.cursor >= list.items.len() {
                    clear_bit(&mut job_index.node_bits, node.0);
                }
            }
        }
        // Tier 2: map tasks with a replica somewhere in this node's rack —
        // skipped entirely (lists untouched) while the job's delay level is
        // still node-local-only.
        if free_map > 0 && !avoid_map && allowed >= Locality::RackLocal {
            if let Some(r) = rack.filter(|r| test_bit(&job_index.rack_bits, r.0)) {
                if let Some(list) = job_index.by_rack.get_mut(&r.0) {
                    while free_map > 0 {
                        let Some(pos) = list.next_schedulable(job, &chosen) else {
                            break;
                        };
                        free_map -= 1;
                        maps_unclaimed = maps_unclaimed.saturating_sub(1);
                        maps_chosen += 1;
                        chosen.push(pos);
                        actions.push(SchedulerAction::Launch {
                            task: job.tasks[pos].id,
                            node,
                        });
                    }
                    if list.cursor >= list.items.len() {
                        clear_bit(&mut job_index.rack_bits, r.0);
                    }
                }
            }
        }
        // Tier 3: anything still schedulable (off-rack maps, reduces, and
        // synthetic tasks, which have no locality preference at all), scanned
        // from the fallback cursor. The cursor only ever moves past
        // non-schedulable tasks, so the scan is O(new work) per heartbeat; a
        // rewind pass catches tasks re-made schedulable (kills) behind it.
        // Tier-3 maps are off-rack by construction (anything node- or
        // rack-local was reachable through the tier-1/2 lists), so the whole
        // map region is skipped while delay keeps the job below `OffRack`.
        // The one loss is a task re-made schedulable after its consume-once
        // list entries were spent (kill/reschedule): it stays invisible to
        // the local tiers and only launches once the job escalates to
        // `OffRack` — a wait bounded by the configured delay, never a
        // livelock.
        //
        // Rack-aware reduce placement: decline this node's reduce slots while
        // the rack holding most of the job's map-output bytes still has free
        // ones (the helper's free-slot check keeps the decline
        // starvation-free), or while the reliability predictor steers fresh
        // work away from the node.
        let decline_reduce = avoid_reduce || ctx.prefer_reduce_elsewhere(*job_id, node);
        for attempt in 0..2 {
            // Per-kind satisfaction: stop when every remaining slot kind is
            // either full or exhausted for this job, so a free reduce slot
            // never drags the scan across a map-only job's task list.
            // "Left" counts schedulable tasks of the job not yet *seen* by
            // this pass (already-chosen ones count as seen when reached).
            let mut maps_left = job.schedulable_maps as usize;
            let mut reduces_left = job.schedulable_reduces as usize;
            while job_index.cursor < job.tasks.len()
                && !job.tasks[job_index.cursor].state.is_schedulable()
            {
                job_index.cursor += 1;
            }
            let mut launched_any = false;
            let mut pos = job_index.cursor;
            // Tasks are laid out maps-first, then reduces (a JobRuntime
            // invariant). When no map slot is free — or delay scheduling
            // still withholds this job's off-rack launches — nothing in the
            // map region can launch, so jump straight to the reduce region
            // instead of dragging the scan across up to thousands of pending
            // maps on every reduce-slot heartbeat.
            if free_map == 0 || !maps_any || avoid_map {
                let map_region = job
                    .tasks
                    .len()
                    .saturating_sub(job.spec.reduce_tasks as usize);
                pos = pos.max(map_region);
                maps_left = 0;
            }
            while pos < job.tasks.len() {
                let maps_satisfied = free_map == 0 || maps_left == 0;
                let reduces_satisfied = free_reduce == 0 || reduces_left == 0;
                if maps_satisfied && reduces_satisfied {
                    break;
                }
                let t = &job.tasks[pos];
                if t.state.is_schedulable() {
                    let already_chosen = chosen.contains(&pos);
                    match t.id.kind {
                        TaskKind::Map => {
                            if !already_chosen && free_map > 0 {
                                free_map -= 1;
                                maps_unclaimed = maps_unclaimed.saturating_sub(1);
                                maps_chosen += 1;
                                launched_any = true;
                                chosen.push(pos);
                                actions.push(SchedulerAction::Launch { task: t.id, node });
                            }
                            maps_left = maps_left.saturating_sub(1);
                        }
                        TaskKind::Reduce => {
                            if !already_chosen && free_reduce > 0 && !decline_reduce {
                                free_reduce -= 1;
                                reduces_unclaimed = reduces_unclaimed.saturating_sub(1);
                                launched_any = true;
                                chosen.push(pos);
                                actions.push(SchedulerAction::Launch { task: t.id, node });
                            }
                            reduces_left = reduces_left.saturating_sub(1);
                        }
                    }
                }
                pos += 1;
            }
            // The job claims schedulable work the cursor cannot see (a task
            // behind it was killed back to pending): rewind once and retry.
            // A delay-declining job's unlaunched maps are *withheld*, not
            // invisible — rewinding for them would rescan every heartbeat.
            let invisible = !launched_any
                && attempt == 0
                && maps_any
                && job_index.cursor > 0
                && chosen.len() < job.schedulable_count() as usize;
            if !invisible {
                break;
            }
            job_index.cursor = 0;
        }
        index.chosen = chosen;
        // The job declined map launches it had slots for: record the skipped
        // opportunity so its wait clock runs and its allowed level escalates.
        // A round that launched a node-local map did NOT skip the
        // opportunity — the engine resets the wait on that launch anyway, so
        // noting a skip here would only mint a spurious zero-length entry in
        // the wait histogram.
        if !maps_any
            && !node_local_chosen
            && free_map > 0
            && (job.schedulable_maps as usize) > maps_chosen
        {
            ctx.note_delay_skip(*job_id);
            declines += 1;
            if declines >= MAX_DECLINES_PER_ROUND {
                break;
            }
        }
    }

    // Map slots still free after regular assignment: nothing pending can
    // use them, so offer them to stragglers as speculative backups. All
    // incomplete jobs are considered (not just `ordered_jobs`, which
    // policies prune to jobs with launchable/resumable work): a tail-phase
    // job whose tasks are all running or suspended is exactly the
    // speculation target.
    if ctx.speculation.enabled && free_map > 0 && !avoid_map {
        let second = ctx.now.as_micros() / 1_000_000;
        if index.spec_stamp != Some(second) {
            index.spec_stamp = Some(second);
            let mut candidates = std::mem::take(&mut index.spec_buf);
            for job in ctx.jobs.values() {
                if free_map == 0 {
                    break;
                }
                if job.is_finished() {
                    continue;
                }
                candidates.clear();
                ctx.push_speculative_candidates(job, node, free_map as usize, &mut candidates);
                for &task in &candidates {
                    free_map -= 1;
                    actions.push(SchedulerAction::LaunchSpeculative { task, node });
                }
            }
            candidates.clear();
            index.spec_buf = candidates;
        }
    }
    actions
}
