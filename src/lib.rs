//! # hadoop-os-preempt
//!
//! A full reproduction of **"OS-Assisted Task Preemption for Hadoop"**
//! (Pastorelli, Dell'Amico, Michiardi — ICDCS 2014) as a Rust workspace:
//! a discrete-event Hadoop-1 substrate (JobTracker, TaskTrackers, heartbeats,
//! HDFS, a per-node OS model with demand paging), the paper's suspend/resume
//! preemption primitive next to the `wait` and `kill` baselines, the
//! trigger-driven dummy scheduler used in the evaluation, preemptive
//! FAIR/HFSP schedulers, a real-OS `SIGTSTP`/`SIGCONT` prototype, and an
//! experiment harness that regenerates every figure.
//!
//! This facade crate re-exports the workspace so applications can depend on a
//! single package:
//!
//! ```
//! use hadoop_os_preempt::prelude::*;
//!
//! let high = JobSpec::map_only("th", "/input/th-512mb").with_priority(10);
//! let plan = DummyPlan::paper_scenario(PreemptionPrimitive::SuspendResume, "tl", high, 0.5);
//! let scheduler = DummyScheduler::new(plan);
//! let triggers = scheduler.required_triggers();
//! let mut cluster = Cluster::new(ClusterConfig::paper_single_node(), Box::new(scheduler));
//! for (path, len) in mrp_workload::two_job_input_files() {
//!     cluster.create_input_file(&path, len).unwrap();
//! }
//! for (job, task, fraction) in triggers {
//!     cluster.add_progress_trigger(&job, task, fraction);
//! }
//! cluster.submit_job(JobSpec::map_only("tl", "/input/tl-512mb"));
//! cluster.run(SimTime::from_secs(3_600));
//! assert!(cluster.report().all_jobs_complete());
//! ```

#![warn(missing_docs)]

pub use mrp_dfs;
pub use mrp_engine;
pub use mrp_experiments;
pub use mrp_oschild;
pub use mrp_preempt;
pub use mrp_sim;
pub use mrp_simos;
pub use mrp_workload;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use mrp_engine::{
        Cluster, ClusterConfig, ClusterReport, FifoScheduler, JobSpec, ObsConfig, SchedulerPolicy,
        TaskProfile,
    };
    pub use mrp_experiments::{run_figure, run_scenario, Figure, ScenarioConfig};
    pub use mrp_preempt::{
        ActionPipeline, DummyPlan, DummyScheduler, EvictionPolicy, HfspScheduler, NatjamModel,
        PreemptionPrimitive,
    };
    pub use mrp_sim::{SimDuration, SimTime, GIB, MIB};
    pub use mrp_workload::{two_job_input_files, two_job_scenario, SwimConfig, SwimGenerator};
}
