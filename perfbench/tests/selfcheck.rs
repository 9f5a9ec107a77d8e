//! Self-checks of the benchmark on the small shape of every workload: the
//! timing decorator and the observability layer leave the simulation
//! unchanged, any seed runs to completion, the command prints a complete
//! result line, and the metric catalog matches `BENCHMARK.json`.

use mrp_engine::ClusterReport;
use mrp_preempt::json::Json;
use perfbench::run::{set_up, Record, Variant};
use perfbench::summary::{end_to_end, Attempt, END_TO_END, PER_LAYER};
use perfbench::workloads::{Shape, Workload, HORIZON};
use std::process::Command;

fn simulate(workload: Workload, seed: u64, variant: Variant) -> (ClusterReport, u64) {
    let mut s = set_up(workload, Shape::Small, seed, variant);
    s.cluster.run(HORIZON);
    (s.cluster.report(), s.cluster.events_processed())
}

#[test]
fn timing_decorator_is_transparent() {
    for workload in Workload::ALL {
        let (plain, plain_events) = simulate(workload, workload.default_seed(), Variant::Plain);
        let (traced, traced_events) = simulate(workload, workload.default_seed(), Variant::Traced);
        assert!(plain.all_jobs_complete(), "{}", workload.name());
        assert_eq!(plain_events, traced_events, "{}", workload.name());
        assert_eq!(plain, traced, "{}", workload.name());
    }
}

#[test]
fn observability_does_not_change_the_run() {
    let workload = Workload::SwapPressureObs;
    let seed = workload.default_seed();
    let (observed, observed_events) = simulate(workload, seed, Variant::Plain);
    let (unobserved, unobserved_events) = simulate(workload, seed, Variant::ObsOff);
    assert_eq!(observed_events, unobserved_events);
    assert_eq!(observed, unobserved);
}

#[test]
fn any_seed_runs_to_completion() {
    for workload in Workload::ALL {
        for seed in [1, 2, 0xDEAD_BEEF] {
            let (report, _) = simulate(workload, Workload::trace_seed(seed, 1), Variant::Plain);
            assert!(
                report.all_jobs_complete(),
                "{} seed {seed}",
                workload.name()
            );
        }
    }
}

#[test]
fn record_round_trips_through_text() {
    let record = perfbench::run::run_once(Workload::PrioChurn1k, Shape::Small, 7, Variant::Traced);
    assert_eq!(Record::from_lines(&record.to_lines()), Ok(record));
}

#[test]
fn output_check_fails_crashed_and_diverging_runs() {
    let good = perfbench::run::run_once(Workload::PrioChurn1k, Shape::Small, 3, Variant::Plain);
    let mut diverging = good.clone();
    diverging.fingerprint ^= 1;
    let attempt = |trace, result| Attempt {
        variant: Variant::Plain,
        trace,
        result,
    };
    let attempts = [
        attempt(0, Ok(good.clone())),
        attempt(0, Err("run exited with signal 6".to_string())),
        attempt(0, Ok(diverging)),
        attempt(0, Ok(good)),
    ];
    let outcome = end_to_end(&attempts);
    assert_eq!((outcome.attempted, outcome.failed), (4, 2));
    assert!(outcome.json_line().starts_with("{\"correct\": false, "));
    let pass_ratio = outcome.metrics.iter().find(|m| m.0 == "pass_ratio");
    assert_eq!(pass_ratio.map(|m| m.2), Some(0.5));
}

/// Runs the benchmark command on a small shape and returns its result line.
fn run_command(workload: Workload, trace: bool) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload.name(),
            "--seed",
            "5",
            "--seconds",
            "1",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--shape", "small"])
        .output()
        .expect("the benchmark starts");
    assert!(output.status.success(), "{}", workload.name());
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    Json::parse(last).expect("the result line is JSON")
}

#[test]
fn smoke_every_workload_end_to_end_and_traced() {
    for workload in Workload::ALL {
        for (trace, catalog) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let result = run_command(workload, trace);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            let metrics = result.get("metrics").expect("metrics");
            for &(name, unit) in catalog {
                let metric = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{} lacks {name}", workload.name()));
                assert_eq!(metric.get("unit").and_then(Json::as_str), Some(unit));
                let value = metric.get("value").and_then(Json::as_f64).expect("a value");
                assert!(value.is_finite(), "{name}");
                if !trace {
                    assert!(value > 0.0, "{} {name} is {value}", workload.name());
                }
            }
        }
    }
}

#[test]
fn catalog_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_arr)
            .expect("a metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let catalog = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), catalog(&END_TO_END));
    assert_eq!(listed("per_layer"), catalog(&PER_LAYER));
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("a workload list")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, names);
}
