//! A timing decorator for any [`SchedulerPolicy`].
//!
//! It forwards every hook to the wrapped policy unchanged, times the call
//! with [`Instant`], and counts calls and the actions returned by kind. The
//! counters live behind an `Rc` so the harness can read them after the
//! cluster, which owns the policy, has run.

use mrp_engine::{JobId, NodeId, SchedulerAction, SchedulerContext, SchedulerPolicy, TaskId};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// What the decorator counted over one run.
#[derive(Clone, Debug, Default)]
pub struct PolicyStats {
    /// `on_heartbeat` calls.
    pub hb_calls: u64,
    /// `on_heartbeat` calls that returned at least one action.
    pub hb_useful: u64,
    /// Wall nanoseconds inside `on_heartbeat`.
    pub hb_nanos: u64,
    /// Calls of every other hook.
    pub other_calls: u64,
    /// Wall nanoseconds inside every other hook.
    pub other_nanos: u64,
    /// Returned `Launch` actions.
    pub launches: u64,
    /// Returned `LaunchSpeculative` actions.
    pub spec_launches: u64,
    /// Returned `Suspend` actions.
    pub suspends: u64,
    /// Returned `Resume` actions.
    pub resumes: u64,
    /// Returned `Kill` actions.
    pub kills: u64,
}

impl PolicyStats {
    /// Wall seconds inside all hooks.
    pub fn secs(&self) -> f64 {
        (self.hb_nanos + self.other_nanos) as f64 / 1e9
    }

    fn count(&mut self, actions: &[SchedulerAction]) {
        for action in actions {
            let counter = match action {
                SchedulerAction::SubmitJob(_) => continue,
                SchedulerAction::Launch { .. } => &mut self.launches,
                SchedulerAction::LaunchSpeculative { .. } => &mut self.spec_launches,
                SchedulerAction::Suspend { .. } => &mut self.suspends,
                SchedulerAction::Resume { .. } => &mut self.resumes,
                SchedulerAction::Kill { .. } => &mut self.kills,
            };
            *counter += 1;
        }
    }
}

/// Wraps a policy, timing and counting every hook.
pub struct TimedPolicy {
    inner: Box<dyn SchedulerPolicy>,
    stats: Rc<RefCell<PolicyStats>>,
}

impl TimedPolicy {
    /// Wraps `inner`; the returned handle reads the counters after the run.
    pub fn wrap(inner: Box<dyn SchedulerPolicy>) -> (Self, Rc<RefCell<PolicyStats>>) {
        let stats = Rc::new(RefCell::new(PolicyStats::default()));
        let policy = TimedPolicy {
            inner,
            stats: Rc::clone(&stats),
        };
        (policy, stats)
    }

    fn other(
        &mut self,
        hook: impl FnOnce(&mut dyn SchedulerPolicy) -> Vec<SchedulerAction>,
    ) -> Vec<SchedulerAction> {
        let start = Instant::now();
        let actions = hook(self.inner.as_mut());
        let nanos = start.elapsed().as_nanos() as u64;
        let mut stats = self.stats.borrow_mut();
        stats.other_calls += 1;
        stats.other_nanos += nanos;
        stats.count(&actions);
        actions
    }
}

impl SchedulerPolicy for TimedPolicy {
    fn on_heartbeat(&mut self, ctx: &SchedulerContext<'_>, node: NodeId) -> Vec<SchedulerAction> {
        let start = Instant::now();
        let actions = self.inner.on_heartbeat(ctx, node);
        let nanos = start.elapsed().as_nanos() as u64;
        let mut stats = self.stats.borrow_mut();
        stats.hb_calls += 1;
        stats.hb_nanos += nanos;
        stats.hb_useful += u64::from(!actions.is_empty());
        stats.count(&actions);
        actions
    }

    fn on_job_submitted(&mut self, ctx: &SchedulerContext<'_>, job: JobId) -> Vec<SchedulerAction> {
        self.other(|p| p.on_job_submitted(ctx, job))
    }

    fn on_task_finished(
        &mut self,
        ctx: &SchedulerContext<'_>,
        task: TaskId,
    ) -> Vec<SchedulerAction> {
        self.other(|p| p.on_task_finished(ctx, task))
    }

    fn on_job_finished(&mut self, ctx: &SchedulerContext<'_>, job: JobId) -> Vec<SchedulerAction> {
        self.other(|p| p.on_job_finished(ctx, job))
    }

    fn on_progress_trigger(
        &mut self,
        ctx: &SchedulerContext<'_>,
        task: TaskId,
        fraction: f64,
    ) -> Vec<SchedulerAction> {
        self.other(|p| p.on_progress_trigger(ctx, task, fraction))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}
