//! The metric catalog, the output check, and the reduction of many runs to
//! one result line.

use crate::run::{median, Record, Variant};

/// End-to-end metrics `(name, unit)`, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 8] = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("report_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("pass_ratio", "ratio"),
    ("sim_makespan_s", "sim_s"),
    ("sim_sojourn_p50_s", "sim_s"),
    ("sim_sojourn_p90_s", "sim_s"),
];

/// Per-layer metrics `(name, unit)`, printed with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("workload.gen_s", "s"),
    ("workload.jobs", "count"),
    ("workload.tasks", "count"),
    ("dfs.create_s", "s"),
    ("dfs.files", "count"),
    ("dfs.blocks", "count"),
    ("dfs.re_replicated_blocks", "count"),
    ("dfs.lost_blocks", "count"),
    ("engine.new_s", "s"),
    ("engine.submit_s", "s"),
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.ns_per_event", "ns"),
    ("engine.self_s", "s"),
    ("engine.suspend_cycles", "count"),
    ("engine.wasted_work_s", "sim_s"),
    ("engine.node_failures", "count"),
    ("engine.attempts_lost", "count"),
    ("engine.re_executed_tasks", "count"),
    ("engine.spec_launched", "count"),
    ("engine.spec_won", "count"),
    ("engine.node_local_ratio", "ratio"),
    ("engine.trace_entries", "count"),
    ("policy.s", "s"),
    ("policy.share", "ratio"),
    ("policy.hb_calls", "count"),
    ("policy.ns_per_hb", "ns"),
    ("policy.other_calls", "count"),
    ("policy.hb_useful_ratio", "ratio"),
    ("policy.launches", "count"),
    ("policy.spec_launches", "count"),
    ("policy.suspends", "count"),
    ("policy.resumes", "count"),
    ("policy.kills", "count"),
    ("simos.swap_out_mib", "MiB"),
    ("simos.swap_in_mib", "MiB"),
    ("simos.swap_io_s", "sim_s"),
    ("simos.thrash_events", "count"),
    ("simos.oom_kills", "count"),
    ("obs.spans", "count"),
    ("obs.dropped_spans", "count"),
    ("obs.loop_overhead", "ratio"),
    ("obs.trace_kib", "KiB"),
    ("obs.export_s", "s"),
    ("trace.overhead", "ratio"),
];

/// One child run: which variant of which trace, and what it measured or
/// why it failed.
pub struct Attempt {
    /// The run's variant.
    pub variant: Variant,
    /// Index of the trace within the workload run.
    pub trace: usize,
    /// The record, or why there is none.
    pub result: Result<Record, String>,
}

/// The reduced result of one benchmark invocation.
#[derive(Debug)]
pub struct Outcome {
    /// Runs made.
    pub attempted: usize,
    /// Runs that failed the output check.
    pub failed: usize,
    /// `(name, unit, value)` in catalog order.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    /// The one-line JSON result.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The passing records of one invocation, grouped by variant and trace.
///
/// A run passes when it finished, completed every job, and its fingerprint
/// equals the first successful run of the same trace — traced and obs-off
/// runs included, so the decorator and the observability layer are both
/// checked to leave the simulation unchanged at full scale.
struct Passed<'a> {
    traces: usize,
    records: Vec<(Variant, usize, &'a Record)>,
}

impl<'a> Passed<'a> {
    /// Applies the output check to every attempt.
    fn check(attempts: &'a [Attempt]) -> Self {
        let traces = attempts.iter().map(|a| a.trace + 1).max().unwrap_or(0);
        let reference: Vec<Option<u64>> = (0..traces)
            .map(|t| {
                attempts
                    .iter()
                    .filter(|a| a.trace == t)
                    .find_map(|a| a.result.as_ref().ok().filter(|r| r.complete))
                    .map(|r| r.fingerprint)
            })
            .collect();
        let records = attempts
            .iter()
            .filter_map(|a| {
                let r = a.result.as_ref().ok()?;
                (r.complete && Some(r.fingerprint) == reference[a.trace])
                    .then_some((a.variant, a.trace, r))
            })
            .collect();
        Passed { traces, records }
    }

    /// The passing records of one variant, by trace.
    fn by_trace(&self, variant: Variant) -> Vec<Vec<&'a Record>> {
        let mut out = vec![Vec::new(); self.traces];
        for &(v, t, r) in &self.records {
            if v == variant {
                out[t].push(r);
            }
        }
        out
    }
}

/// Per-trace medians of a value over one variant's repeated runs.
struct Series<'a>(Vec<Vec<&'a Record>>);

impl Series<'_> {
    /// The per-trace medians of `f`, for traces with a passing run.
    fn medians(&self, f: impl Fn(&Record) -> f64) -> Vec<f64> {
        self.0
            .iter()
            .filter(|runs| !runs.is_empty())
            .map(|runs| median(runs.iter().map(|r| f(r)).collect()))
            .collect()
    }

    /// The sum over traces of per-trace medians of `f`.
    fn total(&self, f: impl Fn(&Record) -> f64) -> f64 {
        self.medians(f).iter().sum()
    }

    /// The sum over traces of a named value.
    fn sum(&self, name: &str) -> f64 {
        self.total(|r| r.get(name))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Reduces the untraced runs to the end-to-end metrics.
///
/// Host seconds are totals over the run's traces of each trace's median.
/// Peak RSS is the mean over traces: a trace's peak steps up where its
/// tables outgrow their capacity, so the largest would jump from seed to
/// seed. Simulated outcomes are the median over traces, because a few
/// traces carry far heavier tails than the rest.
pub fn end_to_end(attempts: &[Attempt]) -> Outcome {
    let passed = Passed::check(attempts);
    let plain = Series(passed.by_trace(Variant::Plain));
    let value = |name: &str| -> f64 {
        match name {
            "pass_ratio" => ratio(passed.records.len() as f64, attempts.len() as f64),
            "peak_rss_mib" => {
                let peaks = plain.medians(|r| r.get(name));
                ratio(peaks.iter().sum(), peaks.len() as f64)
            }
            "sim_makespan_s" | "sim_sojourn_p50_s" | "sim_sojourn_p90_s" => {
                median(plain.medians(|r| r.get(name)))
            }
            _ => plain.sum(name),
        }
    };
    Outcome {
        attempted: attempts.len(),
        failed: attempts.len() - passed.records.len(),
        metrics: END_TO_END
            .iter()
            .map(|&(name, unit)| (name, unit, value(name)))
            .collect(),
    }
}

/// Reduces a traced invocation (untraced, traced and, for observed
/// workloads, obs-off runs) to the per-layer metrics: counts and host
/// seconds are totals over the run's traces, ratios are taken of totals.
pub fn per_layer(attempts: &[Attempt], observed: bool) -> Outcome {
    let passed = Passed::check(attempts);
    let plain = Series(passed.by_trace(Variant::Plain));
    let traced = Series(passed.by_trace(Variant::Traced));
    let obs_off = Series(passed.by_trace(Variant::ObsOff));
    let plain_run = plain.sum("run_s");
    let traced_run = traced.sum("run_s");
    let events = traced.sum("engine.events");
    let value = |name: &str| -> f64 {
        match name {
            "engine.events_per_s" => ratio(events, plain_run),
            "engine.ns_per_event" => ratio(plain_run * 1e9, events),
            "engine.self_s" => traced.total(|r| r.get("run_s") - r.get("policy.s")),
            "engine.node_local_ratio" => ratio(
                traced.sum("engine.node_local"),
                traced.sum("engine.map_launches"),
            ),
            "policy.share" => ratio(traced.sum("policy.s"), traced_run),
            "policy.ns_per_hb" => ratio(
                traced.sum("policy.hb_s") * 1e9,
                traced.sum("policy.hb_calls"),
            ),
            "policy.hb_useful_ratio" => ratio(
                traced.sum("policy.hb_useful"),
                traced.sum("policy.hb_calls"),
            ),
            "obs.loop_overhead" if observed => ratio(plain_run, obs_off.sum("run_s")),
            "obs.loop_overhead" => 1.0,
            "trace.overhead" => ratio(traced_run, plain_run),
            _ => traced.sum(name),
        }
    };
    Outcome {
        attempted: attempts.len(),
        failed: attempts.len() - passed.records.len(),
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, value(name)))
            .collect(),
    }
}
