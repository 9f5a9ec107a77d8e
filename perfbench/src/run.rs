//! One measured run of one workload trace: set-up, `Cluster::run`, report
//! and export, each timed from outside through the layers' public
//! functions.

use crate::timing::{PolicyStats, TimedPolicy};
use crate::workloads::{Shape, Workload, HORIZON};
use mrp_engine::{Cluster, ClusterReport, NodeId, ObsConfig, ObsState};
use mrp_preempt::obs_export::{chrome_trace_json, series_json};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// Set-up and report are short next to `Cluster::run`, so a run repeats
/// each at least this many times and reports the median...
const MIN_REPEATS: usize = 3;
/// ...and keeps repeating until the repeats add up to this many seconds...
const MIN_REPEAT_SECS: f64 = 0.1;
/// ...or it has made this many.
const MAX_REPEATS: usize = 1_000;

/// Calls `f`, which returns the seconds it measured, until `secs` holds
/// as many measurements as [`MIN_REPEATS`], [`MIN_REPEAT_SECS`] and
/// [`MAX_REPEATS`] ask for.
fn repeat(secs: &mut Vec<f64>, mut f: impl FnMut() -> f64) {
    while secs.len() < MIN_REPEATS
        || (secs.iter().sum::<f64>() < MIN_REPEAT_SECS && secs.len() < MAX_REPEATS)
    {
        secs.push(f());
    }
}

/// Peak resident set of this process so far, from `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// How one run is made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// The workload as defined: no decorator.
    Plain,
    /// The policy wrapped in the timing decorator.
    Traced,
    /// The workload with the observability layer switched off.
    ObsOff,
}

impl Variant {
    /// The variant's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Variant::Plain => "plain",
            Variant::Traced => "traced",
            Variant::ObsOff => "obs-off",
        }
    }

    /// Looks a variant up by name.
    pub fn parse(name: &str) -> Option<Variant> {
        [Variant::Plain, Variant::Traced, Variant::ObsOff]
            .into_iter()
            .find(|v| v.name() == name)
    }
}

/// What one run measured: a report fingerprint, whether every job
/// completed, and named values (seconds, counts, MiB).
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Hash of the event count and the report's per-job, per-task and
    /// per-node outcomes; equal fingerprints mean equal simulated runs.
    pub fingerprint: u64,
    /// Whether every submitted job completed.
    pub complete: bool,
    /// Measured values by name.
    pub values: BTreeMap<String, f64>,
}

impl Record {
    /// A named value; every run of a variant records the same names.
    pub fn get(&self, name: &str) -> f64 {
        *self
            .values
            .get(name)
            .unwrap_or_else(|| panic!("run record lacks {name}"))
    }

    /// Renders the record as `name value` lines.
    pub fn to_lines(&self) -> String {
        let mut out = format!(
            "fingerprint {}\ncomplete {}\n",
            self.fingerprint, self.complete
        );
        for (name, value) in &self.values {
            out.push_str(&format!("{name} {value}\n"));
        }
        out
    }

    /// Parses the output of [`Record::to_lines`].
    pub fn from_lines(text: &str) -> Result<Record, String> {
        fn parse<T: std::str::FromStr>(line: &str, text: &str) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("malformed value in {line:?}"))
        }
        let mut fingerprint = None;
        let mut complete = None;
        let mut values = BTreeMap::new();
        for line in text.lines() {
            let (name, value) = line
                .split_once(' ')
                .ok_or_else(|| format!("malformed record line {line:?}"))?;
            match name {
                "fingerprint" => fingerprint = Some(parse(line, value)?),
                "complete" => complete = Some(parse(line, value)?),
                _ => {
                    values.insert(name.to_string(), parse(line, value)?);
                }
            }
        }
        Ok(Record {
            fingerprint: fingerprint.ok_or("record lacks a fingerprint")?,
            complete: complete.ok_or("record lacks completion")?,
            values,
        })
    }
}

/// A cluster ready to run, with the time each set-up step took.
pub struct SetUp {
    /// The cluster, inputs created and jobs submitted.
    pub cluster: Cluster,
    /// The timing decorator's counters, for a traced run.
    pub policy_stats: Option<Rc<RefCell<PolicyStats>>>,
    /// DFS input files created.
    pub files: usize,
    /// DFS blocks those files hold.
    pub blocks: usize,
    /// Jobs submitted.
    pub jobs: usize,
    /// Seconds in `Cluster::new`, generation, DFS input creation and
    /// submission.
    pub times: [f64; 4],
}

/// Builds the cluster for one trace of a workload in the given variant,
/// creates its DFS inputs and submits its jobs, timing each step.
pub fn set_up(workload: Workload, shape: Shape, seed: u64, variant: Variant) -> SetUp {
    let mut config = workload.config(shape, seed);
    if variant == Variant::ObsOff {
        config.obs = ObsConfig::default();
    }
    let (policy, policy_stats) = if variant == Variant::Traced {
        let (policy, stats) = TimedPolicy::wrap(workload.policy());
        (Box::new(policy) as _, Some(stats))
    } else {
        (workload.policy(), None)
    };
    let nodes = config.node_count() as u64;

    let start = Instant::now();
    let mut cluster = Cluster::new(config, policy);
    let new_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let inputs = workload.generate(shape, seed);
    let gen_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    for (i, (path, bytes)) in inputs.files.iter().enumerate() {
        let writer = NodeId(((i as u64 * 37) % nodes) as u32);
        cluster
            .create_input_file_from(path, *bytes, Some(writer))
            .expect("workload input paths are unique");
    }
    let create_s = start.elapsed().as_secs_f64();

    let blocks = inputs
        .files
        .iter()
        .filter_map(|(path, _)| cluster.namenode().lookup(path))
        .map(|file| file.blocks.len())
        .sum();
    let jobs = inputs.jobs.len();
    let start = Instant::now();
    for job in inputs.jobs {
        cluster.submit_job_at(job.spec, job.arrival);
    }
    let submit_s = start.elapsed().as_secs_f64();

    SetUp {
        cluster,
        policy_stats,
        files: inputs.files.len(),
        blocks,
        jobs,
        times: [new_s, gen_s, create_s, submit_s],
    }
}

/// The median of `values` (0 for none).
pub(crate) fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The value at quantile `q` of sorted `values` by the nearest-rank rule
/// (0 for an empty slice).
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What the report step produced.
struct Reported {
    report: ClusterReport,
    export_s: f64,
    trace_bytes: usize,
}

/// `Cluster::report`, plus the Chrome-trace and series export to strings
/// when the run was observed.
fn report_and_export(cluster: &Cluster, obs: Option<&ObsState>) -> Reported {
    let report = cluster.report();
    let mut export_s = 0.0;
    let mut trace_bytes = 0;
    if let Some(obs) = obs {
        let export = Instant::now();
        let trace = chrome_trace_json(obs.spans(), report.finished_at).pretty();
        let series = obs.series().map(|s| series_json(s).pretty());
        export_s = export.elapsed().as_secs_f64();
        trace_bytes = std::hint::black_box(trace).len();
        std::hint::black_box(series);
    }
    Reported {
        report,
        export_s,
        trace_bytes,
    }
}

/// Runs one workload trace and measures it.
///
/// The cluster is set up once and run; the report step is then repeated,
/// and the peak RSS read, before further set-ups are timed (and dropped)
/// so that they cannot raise the run's peak.
pub fn run_once(workload: Workload, shape: Shape, seed: u64, variant: Variant) -> Record {
    let SetUp {
        mut cluster,
        policy_stats,
        files,
        blocks,
        jobs,
        times,
    } = set_up(workload, shape, seed, variant);

    let start = Instant::now();
    cluster.run(HORIZON);
    let run_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let obs = cluster.take_observability();
    let take_s = start.elapsed().as_secs_f64();
    let mut report_secs = Vec::new();
    let mut export_secs = Vec::new();
    let mut reported = None;
    repeat(&mut report_secs, || {
        drop(reported.take());
        let start = Instant::now();
        let r = report_and_export(&cluster, obs.as_deref());
        let took = start.elapsed().as_secs_f64();
        export_secs.push(r.export_s);
        reported = Some(r);
        took
    });
    let Reported {
        report,
        trace_bytes,
        ..
    } = reported.expect("the report step ran");
    let peak_rss = peak_rss_mib();

    let mut sojourns: Vec<f64> = report.jobs.iter().filter_map(|j| j.sojourn_secs).collect();
    sojourns.sort_by(f64::total_cmp);
    let tasks = report.jobs.iter().map(|j| j.tasks.len()).sum::<usize>();
    let suspend_cycles: u64 = report
        .jobs
        .iter()
        .flat_map(|j| &j.tasks)
        .map(|t| u64::from(t.suspend_cycles))
        .sum();
    let faults = &report.faults;
    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    let events = cluster.events_processed();

    let mut values = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };
    put("peak_rss_mib", peak_rss);
    put("run_s", run_s);
    put("report_s", take_s + median(report_secs));
    put("obs.export_s", median(export_secs));
    put(
        "sim_makespan_s",
        report
            .makespan_secs()
            .unwrap_or(report.finished_at.as_secs_f64()),
    );
    put("sim_sojourn_p50_s", nearest_rank(&sojourns, 0.50));
    put("sim_sojourn_p90_s", nearest_rank(&sojourns, 0.90));
    put("workload.jobs", jobs as f64);
    put("workload.tasks", tasks as f64);
    put("dfs.files", files as f64);
    put("dfs.blocks", blocks as f64);
    put(
        "dfs.re_replicated_blocks",
        faults.re_replicated_blocks as f64,
    );
    put("dfs.lost_blocks", faults.lost_blocks as f64);
    put("engine.events", events as f64);
    put("engine.suspend_cycles", suspend_cycles as f64);
    put("engine.wasted_work_s", report.total_wasted_work_secs());
    put("engine.node_failures", faults.node_failures as f64);
    put("engine.attempts_lost", faults.attempts_lost as f64);
    put("engine.re_executed_tasks", faults.re_executed_tasks as f64);
    put("engine.spec_launched", faults.speculative_launched as f64);
    put("engine.spec_won", faults.speculative_won as f64);
    put("engine.node_local", report.locality.node_local as f64);
    put("engine.map_launches", report.locality.total() as f64);
    put("engine.trace_entries", cluster.trace().len() as f64);
    put("simos.swap_out_mib", mib(report.total_swap_out_bytes()));
    put("simos.swap_in_mib", mib(report.total_swap_in_bytes()));
    put("simos.swap_io_s", report.total_swap_io_secs());
    put(
        "simos.thrash_events",
        report.nodes.iter().map(|n| n.thrash_events).sum::<u64>() as f64,
    );
    put(
        "simos.oom_kills",
        report.nodes.iter().map(|n| n.oom_kills).sum::<u64>() as f64,
    );
    put(
        "obs.spans",
        obs.as_ref().map_or(0, |o| o.spans().len()) as f64,
    );
    put(
        "obs.dropped_spans",
        obs.as_ref().map_or(0, |o| o.dropped_spans()) as f64,
    );
    put("obs.trace_kib", trace_bytes as f64 / 1024.0);
    if let Some(stats) = policy_stats {
        let s = stats.borrow();
        put("policy.s", s.secs());
        put("policy.hb_calls", s.hb_calls as f64);
        put("policy.hb_useful", s.hb_useful as f64);
        put("policy.hb_s", s.hb_nanos as f64 / 1e9);
        put("policy.other_calls", s.other_calls as f64);
        put("policy.launches", s.launches as f64);
        put("policy.spec_launches", s.spec_launches as f64);
        put("policy.suspends", s.suspends as f64);
        put("policy.resumes", s.resumes as f64);
        put("policy.kills", s.kills as f64);
    }
    let mut record = Record {
        fingerprint: fingerprint(events, &report),
        complete: report.all_jobs_complete(),
        values,
    };
    drop((cluster, obs, report));

    let mut step_secs = vec![times];
    let mut setup_secs = vec![times.iter().sum()];
    repeat(&mut setup_secs, || {
        let again = set_up(workload, shape, seed, variant);
        step_secs.push(again.times);
        again.times.iter().sum()
    });
    let step = |i: usize| median(step_secs.iter().map(|t| t[i]).collect());
    for (name, value) in [
        ("engine.new_s", step(0)),
        ("workload.gen_s", step(1)),
        ("dfs.create_s", step(2)),
        ("engine.submit_s", step(3)),
        ("setup_s", median(setup_secs)),
    ] {
        record.values.insert(name.to_string(), value);
    }
    record
}

/// FNV-1a over the event count and every job, task and node outcome.
pub fn fingerprint(events: u64, report: &ClusterReport) -> u64 {
    let mut hash = Fnv::default();
    hash.u64(events);
    let time = |t: Option<mrp_sim::SimTime>| t.map_or(u64::MAX, |t| t.as_micros());
    for job in &report.jobs {
        hash.u64(time(job.completed_at));
        for task in &job.tasks {
            hash.u64(time(task.finished_at));
            hash.u64(u64::from(task.attempts));
            hash.u64(u64::from(task.suspend_cycles));
            hash.u64(task.wasted_work_secs.to_bits());
            hash.u64(task.paged_out_bytes);
            hash.u64(task.paged_in_bytes);
        }
    }
    for node in &report.nodes {
        hash.u64(node.swap_out_bytes);
        hash.u64(node.swap_in_bytes);
        hash.u64(node.oom_kills);
        hash.u64(node.thrash_events);
        hash.u64(node.swap_io_secs.to_bits());
    }
    hash.bytes(format!("{:?}{:?}", report.locality, report.faults).as_bytes());
    hash.u64(report.finished_at.as_micros());
    hash.0
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}
