//! A SWIM-like multi-job workload scheduled by the preemptive FAIR scheduler
//! and the size-based HFSP scheduler, with suspend/resume vs. kill.
//!
//! ```text
//! cargo run --example multi_job_fair [jobs] [seed]
//! ```

use hadoop_os_preempt::prelude::*;
use mrp_engine::SchedulerPolicy;
use mrp_preempt::EvictionPolicy;

fn run(
    workload: &[mrp_workload::TraceJob],
    scheduler: Box<dyn SchedulerPolicy>,
    nodes: u32,
) -> ClusterReport {
    let mut cluster = Cluster::new(ClusterConfig::small_cluster(nodes, 2, 1), scheduler);
    for job in workload {
        cluster.submit_job_at(job.spec.clone(), job.arrival);
    }
    cluster.run(SimTime::from_secs(7 * 24 * 3_600));
    cluster.report()
}

fn mean_sojourn(report: &ClusterReport, high_priority: bool) -> f64 {
    let sojourns: Vec<f64> = report
        .jobs
        .iter()
        .filter(|j| (j.priority > 0) == high_priority)
        .filter_map(|j| j.sojourn_secs)
        .collect();
    if sojourns.is_empty() {
        return f64::NAN;
    }
    sojourns.iter().sum::<f64>() / sojourns.len() as f64
}

fn main() {
    let jobs: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(15);
    let seed: u64 = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(42);
    let config = SwimConfig {
        jobs,
        ..SwimConfig::default()
    };
    let workload = SwimGenerator::new(config, seed).generate();
    let summary = mrp_workload::summarize(&workload);
    println!(
        "workload: {} jobs, {} map tasks, {:.1} GiB of input, {} high-priority, {} memory-hungry\n",
        summary.jobs,
        summary.tasks,
        summary.total_bytes as f64 / GIB as f64,
        summary.high_priority_jobs,
        summary.stateful_jobs,
    );

    let nodes = 4;
    let schedulers: Vec<(&str, Box<dyn SchedulerPolicy>)> = vec![
        (
            "fair + suspend",
            Box::new(ActionPipeline::fair(
                PreemptionPrimitive::SuspendResume,
                EvictionPolicy::ClosestToCompletion,
                (nodes * 2) as usize,
                SimDuration::from_secs(15),
            )),
        ),
        (
            "fair + kill",
            Box::new(ActionPipeline::fair(
                PreemptionPrimitive::Kill,
                EvictionPolicy::LeastProgress,
                (nodes * 2) as usize,
                SimDuration::from_secs(15),
            )),
        ),
        (
            "hfsp + suspend",
            Box::new(HfspScheduler::new(
                PreemptionPrimitive::SuspendResume,
                EvictionPolicy::ClosestToCompletion,
            )),
        ),
        (
            "hfsp + kill",
            Box::new(HfspScheduler::new(
                PreemptionPrimitive::Kill,
                EvictionPolicy::LeastProgress,
            )),
        ),
    ];

    println!(
        "{:<16} {:>14} {:>14} {:>12} {:>12}",
        "scheduler", "hi-pri sojourn", "lo-pri sojourn", "makespan", "wasted work"
    );
    for (name, scheduler) in schedulers {
        let report = run(&workload, scheduler, nodes);
        println!(
            "{:<16} {:>13.1}s {:>13.1}s {:>11.1}s {:>11.1}s",
            name,
            mean_sojourn(&report, true),
            mean_sojourn(&report, false),
            report.makespan_secs().unwrap_or(f64::NAN),
            report.total_wasted_work_secs(),
        );
    }
}
