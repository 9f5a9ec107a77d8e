//! The benchmark's three workloads: cluster shape, scheduling policy and
//! seeded inputs.
//!
//! Every input is a pure function of the seed, so one `--seed` always
//! replays the same trace. The default seeds are the ones the shapes were
//! tuned on; any other seed runs to completion too.

use mrp_engine::{
    ClusterConfig, FaultEvent, FaultKind, FaultPlan, JobSpec, NodeId, ObsConfig, RackId,
    RandomFaults, SchedulerPolicy, SpeculationConfig, SwapConfig, TaskProfile, TraceLevel,
};
use mrp_experiments::PriorityPreemptingScheduler;
use mrp_preempt::{EvictionPolicy, HfspScheduler, PreemptionPrimitive};
use mrp_sim::{SimRng, SimTime, GIB, MIB};
use mrp_workload::{dfs_backed, SwimConfig, SwimGenerator, TraceJob};

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 10,000 nodes, a 2,400-job SWIM trace, HFSP suspend/resume.
    Swim10kHfsp,
    /// 1,000 churning nodes, a 300-job SWIM trace, the paper's priority
    /// preemption.
    PrioChurn1k,
    /// Memory-hungry batch work suspended through the block swap device,
    /// with every recording path on.
    SwapPressureObs,
}

/// Full benchmark scale, or a seconds-long shape for self-checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// The measured shape.
    Full,
    /// A shrunken shape of the same workload.
    Small,
}

/// What the harness feeds the cluster before `Cluster::run`.
pub struct Inputs {
    /// Jobs and their arrival times.
    pub jobs: Vec<TraceJob>,
    /// DFS input files `(path, bytes)` the jobs read.
    pub files: Vec<(String, u64)>,
}

/// Virtual-time horizon of every run; all workloads drain long before it.
pub const HORIZON: SimTime = SimTime::from_secs(24 * 3_600);

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::Swim10kHfsp,
        Workload::PrioChurn1k,
        Workload::SwapPressureObs,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Swim10kHfsp => "swim10k_hfsp",
            Workload::PrioChurn1k => "prio_churn1k",
            Workload::SwapPressureObs => "swap_pressure_obs",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed the shape was tuned on.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Swim10kHfsp => 0x5717,
            Workload::PrioChurn1k => 0xFA17,
            Workload::SwapPressureObs => 11,
        }
    }

    /// How many independent traces one run of the workload measures. One
    /// trace's makespan and tail turn on a few large jobs and failures, and
    /// its host time on how far its queues back up (and, for
    /// `swim10k_hfsp`'s report, on the allocator's mode), so a run averages
    /// over several to keep seed-to-seed spread small. The counts are as
    /// many as fit about one `--seconds 40` run: more traces average the
    /// trace-to-trace spread, where repeating a trace would not.
    pub fn traces(self, shape: Shape) -> usize {
        match (self, shape) {
            (_, Shape::Small) => 2,
            (Workload::Swim10kHfsp, Shape::Full) => 16,
            (Workload::PrioChurn1k, Shape::Full) => 20,
            (Workload::SwapPressureObs, Shape::Full) => 12,
        }
    }

    /// The seed of trace `i` of a run with `seed`; trace 0 uses `seed`
    /// itself.
    pub fn trace_seed(seed: u64, i: usize) -> u64 {
        seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Whether the workload runs with the observability layer on.
    pub fn observed(self) -> bool {
        self == Workload::SwapPressureObs
    }

    /// The cluster configuration for this workload and seed.
    pub fn config(self, shape: Shape, seed: u64) -> ClusterConfig {
        match self {
            Workload::Swim10kHfsp => {
                let (racks, per_rack) = match shape {
                    Shape::Full => (100, 100),
                    Shape::Small => (8, 8),
                };
                ClusterConfig::racked_cluster(racks, per_rack, 2, 1)
                    .with_trace_level(TraceLevel::Off)
            }
            Workload::PrioChurn1k => {
                let (racks, per_rack, mtbf) = match shape {
                    Shape::Full => (50, 20, 90.0),
                    Shape::Small => (10, 10, 60.0),
                };
                let last_rack = RackId(racks - 1);
                let faults = FaultPlan {
                    random: Some(RandomFaults {
                        rack_mtbf_secs: mtbf,
                        mean_recovery_secs: Some(45.0),
                        horizon: SimTime::from_secs(600),
                        seed: seed ^ 0xDEAD,
                    }),
                    events: vec![
                        FaultEvent {
                            at: SimTime::from_secs(45),
                            kind: FaultKind::RackOutage { rack: last_rack },
                        },
                        FaultEvent {
                            at: SimTime::from_secs(90),
                            kind: FaultKind::RackRejoin { rack: last_rack },
                        },
                        FaultEvent {
                            at: SimTime::from_secs(30),
                            kind: FaultKind::Decommission { node: NodeId(0) },
                        },
                    ],
                };
                ClusterConfig::racked_cluster(racks, per_rack, 2, 1)
                    .with_trace_level(TraceLevel::Off)
                    .with_faults(faults)
                    .with_speculation(SpeculationConfig::enabled())
            }
            Workload::SwapPressureObs => {
                let nodes = match shape {
                    Shape::Full => 256,
                    Shape::Small => 8,
                };
                let mut cfg = ClusterConfig::small_cluster(nodes, 2, 1)
                    .with_trace_level(TraceLevel::Schedule)
                    .with_seed(seed)
                    .with_swap(SwapConfig::enabled())
                    .with_obs(ObsConfig::full());
                for node in &mut cfg.nodes {
                    node.os.memory.total_ram = 3 * GIB;
                    node.os.memory.swap_capacity = 16 * GIB;
                }
                cfg
            }
        }
    }

    /// The scheduling policy the workload plugs in.
    pub fn policy(self) -> Box<dyn SchedulerPolicy> {
        let (primitive, eviction) = (
            PreemptionPrimitive::SuspendResume,
            EvictionPolicy::ClosestToCompletion,
        );
        match self {
            Workload::Swim10kHfsp | Workload::SwapPressureObs => {
                Box::new(HfspScheduler::new(primitive, eviction))
            }
            Workload::PrioChurn1k => {
                Box::new(PriorityPreemptingScheduler::new(primitive, eviction))
            }
        }
    }

    /// Generates the workload's inputs from the seed.
    pub fn generate(self, shape: Shape, seed: u64) -> Inputs {
        match self {
            Workload::Swim10kHfsp => {
                let (jobs, min, max, gap) = match shape {
                    Shape::Full => (2_400, GIB, 128 * GIB, 0.06),
                    Shape::Small => (60, 256 * MIB, 8 * GIB, 0.4),
                };
                let swim = SwimConfig {
                    jobs,
                    mean_interarrival_secs: gap,
                    size_shape: 0.9,
                    min_job_bytes: min,
                    max_job_bytes: max,
                    bytes_per_task: 128 * MIB,
                    stateful_fraction: 0.05,
                    stateful_memory: GIB,
                    high_priority_fraction: 0.25,
                    ..SwimConfig::default()
                };
                swim_inputs(swim, seed, "/swim")
            }
            Workload::PrioChurn1k => {
                let (jobs, gap) = match shape {
                    Shape::Full => (300, 0.3),
                    Shape::Small => (60, 2.2),
                };
                let swim = SwimConfig {
                    jobs,
                    mean_interarrival_secs: gap,
                    size_shape: 0.9,
                    min_job_bytes: 512 * MIB,
                    max_job_bytes: 24 * GIB,
                    bytes_per_task: 128 * MIB,
                    stateful_fraction: 0.1,
                    stateful_memory: GIB,
                    high_priority_fraction: 0.25,
                    slow_fraction: 0.15,
                    slow_parse_rate_bytes_per_sec: 1.6 * MIB as f64,
                    slow_max_tasks: 8,
                    ..SwimConfig::default()
                };
                swim_inputs(swim, seed, "/churn")
            }
            Workload::SwapPressureObs => {
                let (batch_jobs, batch_tasks, small_jobs) = match shape {
                    Shape::Full => (96, 48, 576),
                    Shape::Small => (4, 12, 24),
                };
                let mut jobs = Vec::with_capacity(batch_jobs + small_jobs);
                for j in 0..batch_jobs {
                    jobs.push(TraceJob {
                        arrival: SimTime::from_secs(j as u64),
                        spec: JobSpec::synthetic(format!("batch-{j:03}"), batch_tasks, 512 * MIB)
                            .with_profile(TaskProfile::memory_hungry(1536 * MIB)),
                    });
                }
                // Small queue-jumpers arrive as an open-loop Poisson stream,
                // one per second on average, from t = 45 s.
                let mut rng = SimRng::new(seed);
                let mut clock = 45.0;
                for j in 0..small_jobs {
                    jobs.push(TraceJob {
                        arrival: SimTime::from_secs_f64(clock),
                        spec: JobSpec::synthetic(format!("small-{j:03}"), 8, 64 * MIB),
                    });
                    clock += rng.exponential(1.0);
                }
                Inputs {
                    jobs,
                    files: Vec::new(),
                }
            }
        }
    }
}

/// A SWIM trace backed by one DFS input file per job.
fn swim_inputs(swim: SwimConfig, seed: u64, dir: &str) -> Inputs {
    let trace = SwimGenerator::new(swim, seed).generate();
    let (jobs, files) = dfs_backed(&trace, dir);
    Inputs { jobs, files }
}
