//! Command-line entry point of the pipeline benchmark.
//!
//! ```text
//! c2-pipeline-bench --workload NAME --seed N --seconds S --trace 0|1
//!     [--cli PATH] [--work-dir DIR] [--commit SHA] [--rustc VERSION]
//! ```
//!
//! Run from the repository root: every workload is derived from
//! `examples/scenarios/paper_scale.json`.
//!
//! Prints a `meta:` line (seed, host parallelism, threads/workers,
//! commit, rustc), one `metric:` line per metric, any failed checks on
//! stderr, and as the last line of stdout the JSON result. Exits 1 when
//! a check failed, 2 on a usage or pipeline error.

use std::path::PathBuf;
use std::process::ExitCode;

use c2_pipeline_bench::{median, run, Options, WorkloadKind};

/// The scenario every workload is derived from, relative to the
/// repository root.
const SCENARIO: &str = "examples/scenarios/paper_scale.json";

const USAGE: &str = "usage: c2-pipeline-bench --workload \
    <paper_scale|paper_scale_warm|fft_phase|paper_scale_screen> --seed N \
    --seconds S --trace 0|1 [--cli PATH] [--work-dir DIR] [--commit SHA] \
    [--rustc VERSION]";

struct Args {
    opts: Options,
    commit: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut cli = None;
    let mut work_dir = PathBuf::from(".bench_work");
    let mut commit = "unknown".to_string();
    let mut rustc = "unknown".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(WorkloadKind::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v:?}")),
                }
            }
            "--cli" => cli = Some(PathBuf::from(value()?)),
            "--work-dir" => work_dir = PathBuf::from(value()?),
            "--commit" => commit = value()?,
            "--rustc" => rustc = value()?,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let text =
        std::fs::read_to_string(SCENARIO).map_err(|e| format!("cannot read {SCENARIO}: {e}"))?;
    let base = c2_config::Scenario::from_json(&text).map_err(|e| format!("{SCENARIO}: {e}"))?;
    Ok(Args {
        opts: Options {
            workload,
            seed,
            seconds,
            trace,
            base,
            work_dir: work_dir.join(format!("{}-{}", workload.name(), std::process::id())),
            cli,
            fault: None,
            probe_exe: std::env::current_exe()
                .map_err(|e| format!("cannot locate this benchmark's binary: {e}"))?,
        },
        commit,
        rustc,
    })
}

/// `--rss-probe SCENARIO --fluid-seed N --journal PATH [--cache PATH]`:
/// one design run, then print this process's peak RSS.
fn rss_probe(args: &[String]) -> Result<f64, String> {
    let mut fluid_seed = None;
    let mut journal = None;
    let mut cache = None;
    let scenario = PathBuf::from(args.first().ok_or("--rss-probe needs a scenario")?);
    let mut it = args[1..].iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--fluid-seed" => {
                fluid_seed = Some(value.parse().map_err(|e| format!("--fluid-seed: {e}"))?)
            }
            "--journal" => journal = Some(PathBuf::from(value)),
            "--cache" => cache = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown probe argument {flag:?}")),
        }
    }
    c2_pipeline_bench::rss_probe(
        &scenario,
        fluid_seed.ok_or("--fluid-seed is required")?,
        cache,
        &journal.ok_or("--journal is required")?,
    )?;
    c2_pipeline_bench::peak_rss_mb()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--rss-probe") {
        return match rss_probe(&argv[1..]) {
            Ok(mb) => {
                println!("peak_rss_mb: {mb}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let opts = &args.opts;
    let result = run(opts);
    // The scratch directory holds only this run's journals and caches;
    // its parent goes too once no other run is using it.
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    if let Some(parent) = opts.work_dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "meta: workload={} seed={} inputs={:?} phase_seed={} trace={} nproc={} threads={} \
         workers={} reps={} commit={} rustc={:?}",
        opts.workload.name(),
        opts.seed,
        outcome.seeds,
        opts.base.oracle.phase.seed,
        u8::from(opts.trace),
        nproc,
        outcome.threads,
        outcome.workers,
        outcome.reps,
        args.commit,
        args.rustc
    );
    for (name, v) in [
        ("sweep_s", &outcome.sweep_samples),
        ("setup_s", &outcome.setup_samples),
    ] {
        if let (Some(lo), Some(hi)) = (
            v.iter().copied().reduce(f64::min),
            v.iter().copied().reduce(f64::max),
        ) {
            println!(
                "samples: {name} n={} min={lo} median={} max={hi}",
                v.len(),
                median(v)
            );
        }
    }
    for m in &outcome.metrics {
        println!("metric: {} = {} {}", m.name, m.value, m.unit);
    }
    for f in &outcome.failures {
        eprintln!("check failed: {f}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
