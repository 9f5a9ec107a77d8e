//! Engine-side observability state: the cluster's metrics registry, the
//! virtual-time series sampler, the event-loop profiler and the span trace.
//!
//! The cluster owns at most one [`ObsState`], boxed behind an `Option` that
//! is `None` unless [`ObsConfig`](crate::ObsConfig) is enabled — the
//! default-off path pays one pointer-null check per recording site and
//! allocates nothing. When enabled the layer stays *passive*: the sampler is
//! polled from the event loop rather than scheduling events, spans only copy
//! ids and timestamps, and the profiler only reads the wall clock, so an
//! observed run computes byte-identical reports and event counts to an
//! unobserved one.
//!
//! Data flow: `cluster.rs` hot paths call the `note_*`/`span_*` recorders
//! here; [`Cluster::observability`](crate::Cluster::observability) exposes
//! the accumulated state; and the exporters in `mrp_preempt::obs_export`
//! (the core crate sits *above* the engine) turn it into Chrome
//! `trace_event` JSON, series JSON and the profiler table.

use crate::config::ObsConfig;
use crate::job::AttemptId;
use mrp_dfs::NodeId;
use mrp_sim::{
    HistogramId, LoopProfiler, MetricsRegistry, ProfileReport, SimTime, TimeSeriesSampler,
};
use std::collections::HashMap;
use std::time::Instant;

/// Event-kind names, indexed by the discriminant the cluster's run loop
/// passes to `ObsState::note_event`. Index 0 is the heartbeat wheel (the
/// computed periodic heartbeats that never touch the event queue); the rest
/// mirror the `Event` enum.
pub const EVENT_KINDS: [&str; 8] = [
    "heartbeat_wheel",
    "job_arrival",
    "heartbeat_oob",
    "phase_done",
    "cleanup_done",
    "progress_trigger",
    "fault",
    "detector",
];

/// Scheduler-action names, indexed by the discriminant `apply_actions`
/// passes to `ObsState::record_actions`; mirrors `SchedulerAction`.
pub const ACTION_KINDS: [&str; 6] = [
    "submit_job",
    "launch",
    "launch_speculative",
    "suspend",
    "resume",
    "kill",
];

/// The column names of the sampled time series, in row-value order.
pub const SERIES_COLUMNS: [&str; 10] = [
    "schedulable_maps",
    "schedulable_reduces",
    "suspended_tasks",
    "free_map_slots",
    "free_reduce_slots",
    "swapped_bytes",
    "swap_backlog_bytes",
    "nodes_suspected",
    "incomplete_jobs",
    "events_processed",
];

/// What a span measures. The four families cover the windows the paper's
/// analysis cares about: where attempts ran, how long suspensions held
/// state on disk, how long reduces stalled re-fetching lost map output, and
/// how long nodes sat behind a partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// One execution attempt, launch to completion/kill/loss.
    Attempt,
    /// One suspend/resume cycle (`SIGTSTP` delivery to `SIGCONT` delivery,
    /// or to the kill/loss that ended it).
    SuspendCycle,
    /// A reduce stalled in its shuffle phase re-fetching lost map outputs
    /// (first retry to the fetch completing).
    ShuffleStall,
    /// A node behind a network partition (strike to heal).
    Partition,
}

impl SpanKind {
    /// Chrome-trace category string.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Attempt => "attempt",
            SpanKind::SuspendCycle => "suspend",
            SpanKind::ShuffleStall => "shuffle_stall",
            SpanKind::Partition => "partition",
        }
    }
}

/// Identity of an open span; closing uses the same key that opened it.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SpanKey {
    Attempt(AttemptId),
    Suspend(AttemptId),
    Shuffle(AttemptId),
    Partition(NodeId),
}

impl SpanKey {
    fn kind(self) -> SpanKind {
        match self {
            SpanKey::Attempt(_) => SpanKind::Attempt,
            SpanKey::Suspend(_) => SpanKind::SuspendCycle,
            SpanKey::Shuffle(_) => SpanKind::ShuffleStall,
            SpanKey::Partition(_) => SpanKind::Partition,
        }
    }
}

/// One recorded span: a named virtual-time window on a node's lane.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Span family.
    pub kind: SpanKind,
    /// Human-readable name (`attempt_0001_m_000003_0`, `node-17`, ...).
    pub name: String,
    /// Node the span happened on — the Chrome-trace thread lane.
    pub node: NodeId,
    /// Virtual begin timestamp.
    pub begin: SimTime,
    /// Virtual end timestamp; `None` while still open (the exporter clamps
    /// open spans to the run's final time).
    pub end: Option<SimTime>,
}

/// The observability state owned by an observed cluster.
pub struct ObsState {
    cfg: ObsConfig,
    registry: MetricsRegistry,
    profiler: Option<LoopProfiler>,
    sampler: Option<TimeSeriesSampler>,
    spans: Vec<Span>,
    open: HashMap<SpanKey, usize>,
    dropped_spans: u64,
    // Registry handles for the per-family duration histograms, recorded
    // when a span closes (micros of virtual time).
    hist_attempt: HistogramId,
    hist_suspend: HistogramId,
    hist_shuffle: HistogramId,
    hist_partition: HistogramId,
}

impl ObsState {
    pub(crate) fn new(cfg: ObsConfig) -> Self {
        let mut registry = MetricsRegistry::new();
        let hist_attempt = registry.histogram("attempt_duration_us");
        let hist_suspend = registry.histogram("suspend_cycle_us");
        let hist_shuffle = registry.histogram("shuffle_stall_us");
        let hist_partition = registry.histogram("partition_window_us");
        ObsState {
            cfg,
            registry,
            profiler: cfg
                .profile
                .then(|| LoopProfiler::new(&EVENT_KINDS, &ACTION_KINDS)),
            sampler: cfg.series.then(|| {
                TimeSeriesSampler::new(
                    cfg.sample_interval,
                    SERIES_COLUMNS.iter().map(|c| c.to_string()).collect(),
                )
            }),
            spans: Vec::new(),
            open: HashMap::new(),
            dropped_spans: 0,
            hist_attempt,
            hist_suspend,
            hist_shuffle,
            hist_partition,
        }
    }

    /// The configuration this state was built from.
    pub fn config(&self) -> ObsConfig {
        self.cfg
    }

    /// The metrics registry (duration histograms per span family, plus
    /// whatever callers register themselves).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Mutable registry access, for harnesses that record custom metrics.
    pub fn registry_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.registry
    }

    /// The sampled time series, when series sampling is on.
    pub fn series(&self) -> Option<&TimeSeriesSampler> {
        self.sampler.as_ref()
    }

    /// All recorded spans, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans dropped after [`ObsConfig::max_spans`] was reached.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }

    /// Snapshot of the event-loop profile, when profiling is on.
    pub fn profile(&self) -> Option<ProfileReport> {
        self.profiler.as_ref().map(|p| p.report())
    }

    // ----- recorders called from cluster.rs ---------------------------------

    #[inline]
    pub(crate) fn loop_begin(&mut self) {
        if let Some(p) = self.profiler.as_mut() {
            p.begin_loop();
        }
    }

    #[inline]
    pub(crate) fn loop_end(&mut self) {
        if let Some(p) = self.profiler.as_mut() {
            p.end_loop();
        }
    }

    #[inline]
    pub(crate) fn note_event(&mut self, kind: usize) {
        if let Some(p) = self.profiler.as_mut() {
            p.note(kind);
        }
    }

    #[inline]
    pub(crate) fn action_timer(&mut self) -> Option<Instant> {
        self.profiler.as_mut().and_then(|p| p.action_timer())
    }

    #[inline]
    pub(crate) fn record_actions(&mut self, per_kind: &[u32], timer: Option<Instant>) {
        if let Some(p) = self.profiler.as_mut() {
            p.record_actions(per_kind, timer);
        }
    }

    #[inline]
    pub(crate) fn series_due(&self, now: SimTime) -> bool {
        self.sampler.as_ref().is_some_and(|s| s.due(now))
    }

    pub(crate) fn record_series(&mut self, now: SimTime, values: Vec<u64>) {
        if let Some(s) = self.sampler.as_mut() {
            s.record(now, values);
        }
    }

    /// Opens a span. A begin on a key that is already open is ignored (the
    /// first begin wins — matches the engine's first-commit-wins flavor and
    /// keeps the trace balanced).
    pub(crate) fn span_begin(&mut self, key: SpanKey, node: NodeId, name: String, at: SimTime) {
        if !self.cfg.spans || self.open.contains_key(&key) {
            return;
        }
        if self.spans.len() >= self.cfg.max_spans {
            self.dropped_spans += 1;
            return;
        }
        self.open.insert(key, self.spans.len());
        self.spans.push(Span {
            kind: key.kind(),
            name,
            node,
            begin: at,
            end: None,
        });
    }

    /// Closes a span; a no-op when the key is not open (the span was never
    /// begun, was dropped at the cap, or was already closed by an earlier
    /// teardown path).
    pub(crate) fn span_end(&mut self, key: SpanKey, at: SimTime) {
        if !self.cfg.spans {
            return;
        }
        let Some(idx) = self.open.remove(&key) else {
            return;
        };
        let span = &mut self.spans[idx];
        let end = at.max(span.begin);
        span.end = Some(end);
        let micros = end.as_micros() - span.begin.as_micros();
        let hist = match span.kind {
            SpanKind::Attempt => self.hist_attempt,
            SpanKind::SuspendCycle => self.hist_suspend,
            SpanKind::ShuffleStall => self.hist_shuffle,
            SpanKind::Partition => self.hist_partition,
        };
        self.registry.observe(hist, micros);
    }

    /// Closes the spans an attempt may hold open — its suspend cycle, its
    /// shuffle stall and the attempt itself, in that order — however the
    /// attempt ended (commit, kill, node loss, OOM).
    pub(crate) fn end_attempt_spans(&mut self, attempt: AttemptId, at: SimTime) {
        self.span_end(SpanKey::Suspend(attempt), at);
        self.span_end(SpanKey::Shuffle(attempt), at);
        self.span_end(SpanKey::Attempt(attempt), at);
    }

    /// Number of spans still open (attempts running at `max_time`, unhealed
    /// partitions, ...). The exporter clamps these to the final time.
    pub fn open_spans(&self) -> usize {
        self.open.len()
    }
}
