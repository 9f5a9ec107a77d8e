//! Outside-in benchmark of the MapReduce preemption simulator.
//!
//! Each workload run is timed around calls into the layers' public
//! functions (`Cluster::new`/`run`/`report`, `SwimGenerator::generate`,
//! `create_input_file_from`, `submit_job_at`, the `SchedulerPolicy` hooks
//! and the `obs_export` functions); counts come from `ClusterReport` and
//! `ObsState`. Nothing is recorded inside the program. See `README.md` for
//! the metric catalog.

pub mod run;
pub mod summary;
pub mod timing;
pub mod workloads;
