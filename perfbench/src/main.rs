//! The benchmark command.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--shape small]
//! ```
//!
//! Runs the workload in child processes (one run per process, so each has
//! its own peak RSS and a panic fails only that run) until `--seconds` have
//! passed, checks every run's output, and prints one JSON result line last.
//! `--trace 0` reports the end-to-end metrics from undecorated runs;
//! `--trace 1` alternates undecorated runs with runs whose policy is wrapped
//! in the timing decorator (and, for the observed workload, runs with
//! observability off) and reports the per-layer metrics.

use perfbench::run::{run_once, Record, Variant};
use perfbench::summary::{self, Attempt};
use perfbench::workloads::{Shape, Workload};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    shape: Shape,
    /// Set in a child process: run once in this variant and print the record.
    worker: Option<Variant>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut shape = Shape::Full;
    let mut worker = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = Some(parse_u64(&value()?)?),
            "--seconds" => seconds = parse_u64(&value()?)?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--shape" => {
                shape = match value()?.as_str() {
                    "full" => Shape::Full,
                    "small" => Shape::Small,
                    other => return Err(format!("unknown shape {other}")),
                }
            }
            "--worker" => {
                let name = value()?;
                worker = Some(Variant::parse(&name).ok_or(format!("unknown variant {name}"))?);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
        shape,
        worker,
    })
}

fn parse_u64(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|e| format!("bad number {text}: {e}"))
}

/// Runs one measured run of trace `trace` in a child process.
fn spawn(args: &Args, variant: Variant, trace: usize) -> Attempt {
    let seed = Workload::trace_seed(args.seed, trace);
    let result = (|| {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
        let shape = match args.shape {
            Shape::Full => "full",
            Shape::Small => "small",
        };
        let output = Command::new(exe)
            .args(["--workload", args.workload.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--shape", shape])
            .args(["--worker", variant.name()])
            .output()
            .map_err(|e| format!("cannot start run: {e}"))?;
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        if !output.status.success() {
            return Err(format!("run exited with {}", output.status));
        }
        Record::from_lines(&String::from_utf8_lossy(&output.stdout))
    })();
    match &result {
        Ok(r) => eprintln!(
            "{} trace {trace} {:>7}: run_s {:.4} setup_s {:.4} report_s {:.4} events {} \
             fingerprint {:016x}",
            args.workload.name(),
            variant.name(),
            r.get("run_s"),
            r.get("setup_s"),
            r.get("report_s"),
            r.get("engine.events"),
            r.fingerprint
        ),
        Err(e) => eprintln!(
            "{} trace {trace} {:>7}: FAILED: {e}",
            args.workload.name(),
            variant.name()
        ),
    }
    Attempt {
        variant,
        trace,
        result,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(variant) = args.worker {
        let record = run_once(args.workload, args.shape, args.seed, variant);
        print!("{}", record.to_lines());
        return ExitCode::SUCCESS;
    }

    let variants: &[Variant] = match (args.trace, args.workload.observed()) {
        (false, _) => &[Variant::Plain],
        (true, false) => &[Variant::Plain, Variant::Traced],
        (true, true) => &[Variant::Plain, Variant::Traced, Variant::ObsOff],
    };
    // Rounds run every trace once in every variant; another round starts
    // only if it fits the budget at the pace of the last one.
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut attempts = Vec::new();
    loop {
        let round = Instant::now();
        for trace in 0..args.workload.traces(args.shape) {
            for &variant in variants {
                attempts.push(spawn(&args, variant, trace));
            }
        }
        if start.elapsed() + round.elapsed() > budget {
            break;
        }
    }
    let outcome = if args.trace {
        summary::per_layer(&attempts, args.workload.observed())
    } else {
        summary::end_to_end(&attempts)
    };
    for (name, unit, value) in &outcome.metrics {
        println!("{name:<26} {value:>16.6} {unit}");
    }
    println!("{}", outcome.json_line());
    ExitCode::SUCCESS
}
