//! `c2bound-tool` — the paper's "automatic tool to find an
//! application-specific optimal architecture" (§I contribution 3), as a
//! command-line program.
//!
//! ```text
//! c2bound-tool characterize <tmm|spmv|stencil|fft|fluidanimate> [size]
//! c2bound-tool optimize [f_seq] [f_mem] [g-exponent] [area] [shared]
//! c2bound-tool aps <tmm|spmv|stencil|fft|fluidanimate> [size]
//! c2bound-tool scaling [f_mem]
//! c2bound-tool table1
//! c2bound-tool trace <workload> [size]          # dump a #c2trace file to stdout
//! c2bound-tool characterize-file <path>         # characterize a #c2trace file
//! c2bound-tool multiobjective [weight]          # energy/perf trade-off (SS VII)
//! c2bound-tool adaptive                         # phase-adaptive reconfiguration (SS V)
//! c2bound-tool run (<workload> [size] | --scenario FILE) [--workers N]
//!               [--deadline-ms D] [--max-attempts K] [--journal PATH]
//!               [--resume] [--metrics-out PATH] [--sync POLICY]
//!               [--checkpoint-every N] [--chaos SPEC] [--oracle-mode MODE]
//!               [--backend cpu-cmp|gpu-sm] [--roofline-out PATH]
//! c2bound-tool serve [--addr HOST:PORT] [--dir PATH] [--scenario FILE]
//!               [--cache PATH] [--resume] [--drain-on-idle]
//!               [--executors N] [--queue-depth N] [--budget N]
//! c2bound-tool submit --addr HOST:PORT --scenario FILE [--tenant NAME] [--wait]
//! c2bound-tool status --addr HOST:PORT [JOB]    # daemon job table / one job
//! c2bound-tool shutdown --addr HOST:PORT [--wait]
//! c2bound-tool journal compact <PATH>           # repair + shrink a resume journal
//! c2bound-tool scenario init [--backend cpu-cmp|gpu-sm] [PATH]
//! c2bound-tool scenario validate <PATH>         # parse + validate, print fingerprint
//! c2bound-tool scenario show <PATH>             # canonical render + fingerprint
//! c2bound-tool roofline <FILE>                  # render a --roofline-out report
//! c2bound-tool obs-report <metrics.json> [--prom|--json]
//! ```
//!
//! `run` drives the APS refinement sweep through the supervised job
//! engine (`c2-runner`): deterministic shards, per-attempt deadlines, retry
//! with backoff, circuit breaking, and — with `--journal` — a
//! flushed-per-outcome checkpoint file that `--resume` picks up
//! idempotently after a crash. `--metrics-out` records a clock-free
//! observability report (metrics + tick-ordered trace, see DESIGN.md
//! §7); `obs-report` pretty-prints or re-exports such a report.
//!
//! `run --scenario` executes a declarative scenario file (DESIGN.md
//! §8): every knob — workload, chip, model constants, design space,
//! budget, solver tolerances, runner policy — comes from the document,
//! and the scenario fingerprint is bound into the resume journal so a
//! checkpoint can only be resumed against the scenario that wrote it.
//! The positional form is the same pipeline over the built-in defaults
//! (tiny sweep space) and writes fingerprint-free journals. Command-line
//! flags override the scenario's runner section in both forms.
//! `--cache` requires the sharded engine (`--threads N`, N >= 1); on
//! the positional form, cache entries are keyed by the fingerprint of
//! the internally assembled scenario, so a shared cache file can never
//! serve one workload's or size's results to another.
//!
//! `--oracle-mode phase` (or a scenario `oracle` section) switches the
//! per-point oracle to the phase-clustered fast path (DESIGN.md §13):
//! phase detection runs once per workload, every design point then
//! simulates only one representative interval per phase, and the
//! detected summary is memoized in the evaluation cache so repeated
//! invocations skip re-clustering. Phase mode is an estimator — its
//! journals and caches are fingerprint-isolated from full-mode runs.
//!
//! `--backend gpu-sm` (or a scenario `backend` section, DESIGN.md §14)
//! swaps the C-AMAT/Eq. 10 pricing core for the GPU streaming-
//! multiprocessor analytical backend: the same axes reinterpreted as
//! (SM count, FP32 lanes per SM, occupancy target), priced by
//! `Φ_SM = θ·C_fp32·(1+m_FMA)` against a bandwidth roof. Backend
//! identity is bound into journal headers and cache addresses, so a
//! cpu-cmp checkpoint or cache entry can never be resumed or served
//! under gpu-sm (or vice versa). The phase oracle is C-AMAT-specific
//! and is rejected with any non-CPU backend. `--roofline-out PATH`
//! (either backend, `run` or served jobs via the scenario's
//! `observability.roofline_out`) writes every evaluated candidate's
//! (operational intensity, ceilings, attained bound, limiting ceiling)
//! as deterministic JSON; `roofline` renders such a file as an ASCII
//! log-log chart plus a per-candidate table.
//!
//! Durability knobs: `--sync never|on-checkpoint|always` picks the
//! fsync policy, `--checkpoint-every N` the journal checkpoint cadence
//! (0 disables), and `--chaos "crash-at=7,torn=3"` arms deterministic
//! storage fault injection (keys: `crash-at`, `torn`, `enospc-at`,
//! `short-at`, `seed`; write indices are 1-based) — the crash-matrix
//! harness in a flag, for rehearsing crash/resume in the field.
//! `journal compact` repairs and shrinks an interrupted journal in
//! place (torn tail, duplicate records, stale checkpoints).
//!
//! `serve` turns the same engine into a supervised multi-tenant
//! daemon (DESIGN.md §12): a hand-rolled HTTP/1.1 listener with
//! per-tenant admission breakers, bounded-queue load shedding with
//! deterministic `Retry-After`, durable per-job artifacts, and
//! graceful drain on SIGTERM or `/shutdown`. `submit`, `status`, and
//! `shutdown` are the matching clients. Every admitted job runs the
//! identical pipeline as one-shot `run --scenario`, so its journal and
//! metrics are byte-identical to the command-line run.
//!
//! Everything is computed live: `characterize` and `aps` run the
//! cycle-level simulator; `optimize` solves Eq. 13.

use c2_bound::dse::{simulate_point, DesignPoint, Oracle};
use c2_bound::optimize::optimize;
use c2_bound::report::{fmt_num, Table};
use c2_bound::scaling::ScalingStudy;
use c2_bound::{
    aps_from_scenario, gpu_sweep_from_scenario, roofline_json, roofline_points, scale_function,
    BackendSweep, C2BoundModel, Ceiling, ExactReason, GpuSmBackend, PhaseOracle, PhasePlan,
    PhaseSummary, ProgramProfile,
};
use c2_config::{BackendKind, BackendSpec, LawKind, OracleMode, Scenario, SpaceSpec};
use c2_sim::area::{AreaModel, SiliconBudget};
use c2_sim::ChipConfig;
use c2_speedup::scale::ScaleFunction;
use c2_workloads::{characterize, Characterization, Workload, WorkloadTrace};

/// `println!` for command output. A reader that closed the pipe early
/// (`run … | head -1`) has all it wants: the line is dropped and the
/// command carries on, so a sweep still finishes its journal and
/// metrics and exits with its own status. Any other stdout error ends
/// the process with a one-line message instead of a panic.
macro_rules! outln {
    ($($arg:tt)*) => {
        write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `print!` with [`outln!`]'s handling of a closed stdout.
macro_rules! out {
    ($($arg:tt)*) => {
        write_stdout(format_args!($($arg)*))
    };
}

fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            eprintln!("error: cannot write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// The usage text, verbatim. A golden test pins it so the help a user
/// actually sees is reviewed like any other interface change.
const USAGE: &str = "usage:\n  c2bound-tool characterize <tmm|spmv|stencil|fft|fluidanimate> [size]\n  \
     c2bound-tool optimize [f_seq] [f_mem] [g_exponent] [total_area] [shared_area]\n  \
     c2bound-tool aps <workload> [size]\n  c2bound-tool scaling [f_mem]\n  \
     c2bound-tool table1\n  c2bound-tool trace <workload> [size]\n  \
     c2bound-tool characterize-file <path>\n  c2bound-tool multiobjective [weight]\n  \
     c2bound-tool adaptive\n  \
     c2bound-tool run (<workload> [size] | --scenario FILE) [--workers N] [--threads N] \
     [--deadline-ms D] [--max-attempts K] [--journal PATH] [--resume] [--cache PATH] \
     [--metrics-out PATH] [--sync never|on-checkpoint|always] [--checkpoint-every N] \
     [--chaos crash-at=N,torn=K,enospc-at=N,short-at=N,seed=S] [--oracle-mode full|phase] \
     [--backend cpu-cmp|gpu-sm] [--law sun-ni|amdahl|memory-wall|usl] [--screen] \
     [--roofline-out PATH]\n  \
     c2bound-tool serve [--addr HOST:PORT] [--dir PATH] [--scenario FILE] [--cache PATH] \
     [--resume] [--drain-on-idle] [--executors N] [--queue-depth N] [--budget N]\n  \
     c2bound-tool submit --addr HOST:PORT --scenario FILE [--tenant NAME] [--wait] [--poll-ms N]\n  \
     c2bound-tool status --addr HOST:PORT [JOB]\n  \
     c2bound-tool shutdown --addr HOST:PORT [--wait]\n  \
     c2bound-tool journal compact <PATH>\n  \
     c2bound-tool scenario init [--backend cpu-cmp|gpu-sm] [--law sun-ni|amdahl|memory-wall|usl] \
     [PATH] | validate <PATH> | show <PATH>\n  \
     c2bound-tool roofline <FILE>\n  \
     c2bound-tool obs-report <metrics.json> [--prom|--json]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

/// Parse a value that is actually present on the command line. A
/// malformed value is a one-line error and a nonzero exit — never a
/// silently substituted default.
fn parse_arg<T: std::str::FromStr>(raw: &str, name: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("error: invalid {name}: {raw:?}");
        std::process::exit(2);
    })
}

/// Positional argument `i`: absent means `default`; present but
/// unparsable is an error (see `parse_arg`).
fn parse_or<T: std::str::FromStr>(args: &[String], i: usize, name: &str, default: T) -> T {
    match args.get(i) {
        None => default,
        Some(raw) => parse_arg(raw, name),
    }
}

fn workload_by_name(name: &str, size: u64) -> Option<Box<dyn Workload>> {
    c2_workloads::workload_from_spec(&c2_config::WorkloadSpec {
        name: name.to_string(),
        size,
    })
}

fn characterize_workload(w: &dyn Workload) -> (WorkloadTrace, Characterization, ChipConfig) {
    let chip = ChipConfig::default_single_core();
    let trace = w.generate();
    let ch = characterize(&trace, &chip).expect("characterization failed");
    (trace, ch, chip)
}

/// The positional commands run the default scenario with only the
/// workload (and, for sweeps, the fast tiny space) overridden — the
/// same pipeline as `run --scenario`, same constants, no drift.
fn positional_scenario(name: &str, size: u64, tiny_space: bool) -> Scenario {
    let mut sc = Scenario::default();
    sc.workload.name = name.to_string();
    sc.workload.size = size;
    if tiny_space {
        sc.space = SpaceSpec::tiny();
    }
    // Positional arguments get the same range checks a scenario file
    // gets: `run stencil 0` must die with a typed error here, not
    // reach the engine and publish an empty journal or cache.
    if let Err(e) = sc.validate() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    sc
}

/// Read, parse, and validate a scenario file, or exit with a one-line
/// typed error.
fn load_scenario(path: &str) -> Scenario {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {path}: {e}");
        std::process::exit(1);
    });
    Scenario::from_json(&text).unwrap_or_else(|e| {
        eprintln!("error: {path}: {e}");
        std::process::exit(1);
    })
}

fn cmd_characterize(args: &[String]) {
    let name = args.first().map(String::as_str).unwrap_or_else(|| usage());
    let size = parse_or(args, 1, "size", 32u64);
    let Some(w) = workload_by_name(name, size) else {
        usage()
    };
    let (trace, ch, _) = characterize_workload(w.as_ref());
    let mut t = Table::new(vec!["parameter", "value"]);
    t.row(vec!["workload".to_string(), w.name().to_string()]);
    t.row(vec![
        "instructions".to_string(),
        ch.instruction_count.to_string(),
    ]);
    t.row(vec![
        "accesses".to_string(),
        trace.combined().len().to_string(),
    ]);
    t.row(vec!["f_mem".to_string(), fmt_num(ch.f_mem)]);
    t.row(vec!["f_seq".to_string(), fmt_num(ch.f_seq)]);
    t.row(vec!["L1 miss rate".to_string(), fmt_num(ch.l1_miss_rate)]);
    t.row(vec!["L2 miss rate".to_string(), fmt_num(ch.l2_miss_rate)]);
    t.row(vec!["C-AMAT".to_string(), fmt_num(ch.camat_value())]);
    t.row(vec![
        "C = AMAT/C-AMAT".to_string(),
        fmt_num(ch.concurrency()),
    ]);
    t.row(vec![
        "footprint (bytes)".to_string(),
        ch.footprint_bytes.to_string(),
    ]);
    t.row(vec!["IPC".to_string(), fmt_num(ch.ipc)]);
    let g = w
        .complexity()
        .scale_function()
        .map(|g| g.label())
        .unwrap_or_else(|| "derived numerically".to_string());
    t.row(vec!["g(N)".to_string(), g]);
    outln!("{}", t.render());
}

fn cmd_optimize(args: &[String]) {
    let f_seq = parse_or(args, 0, "f_seq", 0.05f64);
    let f_mem = parse_or(args, 1, "f_mem", 0.3f64);
    let g_exp = parse_or(args, 2, "g_exponent", 1.5f64);
    let area = parse_or(args, 3, "total_area", 400.0f64);
    let shared = parse_or(args, 4, "shared_area", 40.0f64);
    let mut model = C2BoundModel::example_big_data();
    model.program =
        ProgramProfile::new(1e9, f_seq, f_mem, 0.1, ScaleFunction::Power(g_exp)).expect("profile");
    model.budget = SiliconBudget::new(area, shared).expect("budget");
    let d = optimize(&model).expect("optimization");
    outln!(
        "case: {:?} (g(N) {} O(N))",
        d.case,
        if model.program.g.is_at_least_linear() {
            ">="
        } else {
            "<"
        }
    );
    let mut t = Table::new(vec!["variable", "value"]);
    t.row(vec!["N (cores)".to_string(), fmt_num(d.vars.n)]);
    t.row(vec!["A0 core area (mm2)".to_string(), fmt_num(d.vars.a0)]);
    t.row(vec!["A1 L1 area (mm2)".to_string(), fmt_num(d.vars.a1)]);
    t.row(vec!["A2 L2 area (mm2)".to_string(), fmt_num(d.vars.a2)]);
    t.row(vec!["CPI (cycles/instr)".to_string(), fmt_num(d.cpi)]);
    t.row(vec!["concurrency C".to_string(), fmt_num(d.concurrency)]);
    t.row(vec![
        "execution time (cycles)".to_string(),
        fmt_num(d.execution_time),
    ]);
    t.row(vec!["throughput W/T".to_string(), fmt_num(d.throughput)]);
    outln!("{}", t.render());
}

fn cmd_aps(args: &[String]) {
    let name = args.first().map(String::as_str).unwrap_or_else(|| usage());
    let size = parse_or(args, 1, "size", 24u64);
    let sc = positional_scenario(name, size, true);
    let Some(w) = c2_workloads::workload_from_spec(&sc.workload) else {
        usage()
    };
    let chip = ChipConfig::from_spec(&sc.chip).expect("default chip spec");
    let trace = w.generate();
    let ch = characterize(&trace, &chip).expect("characterization failed");
    let g = scale_function(&sc, w.as_ref());
    let aps = aps_from_scenario(&sc, &ch, &chip, g).expect("scenario model");
    let area = aps.model.area;
    let budget = aps.model.budget;
    outln!(
        "APS over a {}-point space; refining {} microarchitecture points with real simulations...",
        aps.space.size(),
        aps.space.issue().len() * aps.space.rob().len()
    );
    let outcome = aps
        .run(|p: &DesignPoint| {
            simulate_point(p, &trace, &area, &budget)
                .map_err(|e| c2_bound::Error::Simulation(e.to_string()))
        })
        .expect("APS");
    outln!(
        "chosen: N = {}, A0 = {} mm2, L1 = {} mm2, L2 = {} mm2, issue = {}, ROB = {}",
        outcome.chosen.n,
        fmt_num(outcome.chosen.a0),
        fmt_num(outcome.chosen.a1),
        fmt_num(outcome.chosen.a2),
        outcome.chosen.issue_width,
        outcome.chosen.rob_size
    );
    outln!(
        "simulations used: {}; best simulated time: {} cycles; calibrated model error: {}%",
        outcome.simulations,
        fmt_num(outcome.best_time),
        fmt_num(100.0 * outcome.prediction_error)
    );
    let log = &outcome.refinement;
    outln!(
        "refinement: {}/{} points simulated ({} retried, {} skipped, {} oracle calls, degradation: {:?})",
        log.succeeded,
        log.attempted,
        log.retried,
        log.skipped.len(),
        log.oracle_calls,
        log.degradation
    );
}

/// Parse `--chaos "crash-at=7,torn=3,seed=42"` into a fault plan.
/// Keys mirror the scenario's `runner.chaos` section; write indices
/// are 1-based (the plan itself rejects 0).
fn parse_chaos(raw: &str) -> c2_runner::ChaosPlan {
    let mut plan = c2_runner::ChaosPlan::default();
    for part in raw.split(',').filter(|p| !p.is_empty()) {
        let Some((key, value)) = part.split_once('=') else {
            eprintln!("error: invalid --chaos item {part:?} (expected key=value)");
            std::process::exit(2);
        };
        let n: u64 = parse_arg(value, "--chaos value");
        match key {
            "crash-at" => plan.crash_at_write = Some(n),
            "torn" => plan.torn_bytes = Some(n),
            "enospc-at" => plan.enospc_at_write = Some(n),
            "short-at" => plan.short_write_at = Some(n),
            "seed" => plan.seed = n,
            _ => {
                eprintln!(
                    "error: unknown --chaos key {key:?} \
                     (crash-at|torn|enospc-at|short-at|seed)"
                );
                std::process::exit(2);
            }
        }
    }
    if plan.is_none() {
        eprintln!("error: --chaos injects nothing; give at least one fault");
        std::process::exit(2);
    }
    plan
}

/// `run`: the APS refinement sweep on the supervised engine, with an
/// optional checkpoint journal and idempotent resume. The sweep is
/// described either positionally (workload + size over the built-in
/// defaults) or by a declarative scenario file; flags override the
/// scenario's runner policy in both forms.
#[allow(clippy::too_many_lines)]
/// Run the supervised sweep for `cmd_run`, dispatching between full
/// enumeration and surrogate screening on the scenario's `screen`
/// block. Screening prints its own accounting line; its operational
/// telemetry (the `SCREEN_*` counters) is deliberately not folded
/// into `--metrics-out`, which golden tests bit-compare.
fn run_supervised(
    runner: &c2_runner::SweepRunner,
    sc: &Scenario,
    sweep: &dyn BackendSweep,
    pricer: &Pricer<'_>,
    journal: Option<&std::path::Path>,
    resume: bool,
    recorder: &c2_obs::Recorder,
) -> c2_runner::RunSummary {
    if sc.screen.enabled {
        let screen_cfg = c2_runner::ScreenConfig::from_scenario(sc).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        let (summary, report) = runner
            .run_screened(
                sweep,
                &screen_cfg,
                || pricer.clone(),
                journal,
                resume,
                recorder,
                &c2_obs::NullSink,
            )
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
        outln!(
            "screen report: {} true evaluations of {} candidates \
             ({} screened out, {} resumed) in {} rounds; \
             final committee spread {}{}",
            report.true_evaluations,
            report.plan_jobs,
            report.screened_out,
            report.resumed,
            report.rounds,
            fmt_num(report.final_spread),
            if report.converged { " (converged)" } else { "" }
        );
        summary
    } else {
        runner
            .run_aps_observed(sweep, || pricer.clone(), journal, resume, recorder)
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            })
    }
}

fn cmd_run(args: &[String]) {
    let mut scenario_path: Option<String> = None;
    let mut name: Option<String> = None;
    let mut size: Option<u64> = None;
    let mut workers: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut cache: Option<std::path::PathBuf> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut max_attempts: Option<usize> = None;
    let mut journal: Option<std::path::PathBuf> = None;
    let mut metrics_out: Option<std::path::PathBuf> = None;
    let mut sync: Option<c2_runner::SyncPolicy> = None;
    let mut checkpoint_every: Option<usize> = None;
    let mut chaos: Option<c2_runner::ChaosPlan> = None;
    let mut oracle_mode: Option<OracleMode> = None;
    let mut backend: Option<BackendKind> = None;
    let mut law: Option<LawKind> = None;
    let mut screen_flag = false;
    let mut roofline_out: Option<std::path::PathBuf> = None;
    let mut resume = false;
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        match arg.as_str() {
            "--scenario" => match rest.next() {
                Some(v) => scenario_path = Some(v.clone()),
                None => usage(),
            },
            "--workers" => match rest.next() {
                Some(v) => workers = Some(parse_arg(v, "--workers")),
                None => usage(),
            },
            "--threads" => match rest.next() {
                Some(v) => threads = Some(parse_arg(v, "--threads")),
                None => usage(),
            },
            "--cache" => match rest.next() {
                Some(v) => cache = Some(std::path::PathBuf::from(v)),
                None => usage(),
            },
            "--deadline-ms" => match rest.next() {
                Some(v) => deadline_ms = Some(parse_arg(v, "--deadline-ms")),
                None => usage(),
            },
            "--max-attempts" => match rest.next() {
                Some(v) => max_attempts = Some(parse_arg(v, "--max-attempts")),
                None => usage(),
            },
            "--journal" => match rest.next() {
                Some(v) => journal = Some(std::path::PathBuf::from(v)),
                None => usage(),
            },
            "--metrics-out" => match rest.next() {
                Some(v) => metrics_out = Some(std::path::PathBuf::from(v)),
                None => usage(),
            },
            "--sync" => match rest.next() {
                Some(v) => {
                    sync = Some(c2_runner::SyncPolicy::parse(v).unwrap_or_else(|| {
                        eprintln!("error: invalid --sync {v:?} (never|on-checkpoint|always)");
                        std::process::exit(2);
                    }));
                }
                None => usage(),
            },
            "--checkpoint-every" => match rest.next() {
                Some(v) => checkpoint_every = Some(parse_arg(v, "--checkpoint-every")),
                None => usage(),
            },
            "--chaos" => match rest.next() {
                Some(v) => chaos = Some(parse_chaos(v)),
                None => usage(),
            },
            "--oracle-mode" => match rest.next() {
                Some(v) => {
                    oracle_mode = Some(OracleMode::parse(v).unwrap_or_else(|| {
                        eprintln!("error: invalid --oracle-mode {v:?} (full|phase)");
                        std::process::exit(2);
                    }));
                }
                None => usage(),
            },
            "--backend" => match rest.next() {
                Some(v) => {
                    backend = Some(BackendKind::parse(v).unwrap_or_else(|| {
                        eprintln!("error: invalid --backend {v:?} (cpu-cmp|gpu-sm)");
                        std::process::exit(2);
                    }));
                }
                None => usage(),
            },
            "--roofline-out" => match rest.next() {
                Some(v) => roofline_out = Some(std::path::PathBuf::from(v)),
                None => usage(),
            },
            "--law" => match rest.next() {
                Some(v) => {
                    law = Some(LawKind::parse(v).unwrap_or_else(|| {
                        eprintln!("error: invalid --law {v:?} (sun-ni|amdahl|memory-wall|usl)");
                        std::process::exit(2);
                    }));
                }
                None => usage(),
            },
            "--screen" => screen_flag = true,
            "--resume" => resume = true,
            other if !other.starts_with('-') => {
                if name.is_none() {
                    name = Some(other.to_string());
                } else if size.is_none() {
                    size = Some(parse_arg(other, "size"));
                } else {
                    usage()
                }
            }
            _ => usage(),
        }
    }
    if resume && journal.is_none() {
        eprintln!("error: --resume requires --journal PATH");
        std::process::exit(2);
    }
    if let Some(path) = &journal {
        if path.exists() && !resume {
            eprintln!(
                "error: journal {} already exists; pass --resume to continue it or remove it first",
                path.display()
            );
            std::process::exit(2);
        }
    }
    // The scenario: loaded (and fingerprinted, binding the journal) or
    // assembled from the positional form, which keeps the historical
    // tiny sweep space and fingerprint-free journals.
    let (sc, fingerprint) = match &scenario_path {
        Some(path) => {
            if name.is_some() || size.is_some() {
                eprintln!("error: --scenario and a positional workload are mutually exclusive");
                std::process::exit(2);
            }
            let mut sc = load_scenario(path);
            // The overrides land before the fingerprint is taken, so a
            // phase-mode or gpu-sm run binds its mode and backend into
            // the journal, the cache identity, and the phase memo
            // address.
            if let Some(mode) = oracle_mode {
                sc.oracle.mode = mode;
            }
            if let Some(kind) = backend {
                sc.backend.kind = kind;
            }
            if let Some(l) = law {
                sc.speedup.law = l;
            }
            if screen_flag {
                sc.screen.enabled = true;
            }
            let fp = sc.fingerprint();
            (sc, Some(fp))
        }
        None => {
            let Some(name) = name else { usage() };
            let mut sc = positional_scenario(&name, size.unwrap_or(24), true);
            if let Some(mode) = oracle_mode {
                sc.oracle.mode = mode;
            }
            if let Some(kind) = backend {
                sc.backend.kind = kind;
            }
            if let Some(l) = law {
                sc.speedup.law = l;
            }
            if screen_flag {
                sc.screen.enabled = true;
            }
            (sc, None)
        }
    };
    // Scenario validation rejects a stored phase+gpu combination, but
    // the flag overrides can assemble one after validation ran — the
    // same typed rejection applies here (and again in the assembly
    // layer, for callers that bypass the CLI).
    if sc.backend.kind != BackendKind::CpuCmp && sc.oracle.mode == OracleMode::Phase {
        eprintln!(
            "error: the phase-clustered oracle requires the cpu-cmp backend \
             (phase windows are C-AMAT-specific)"
        );
        std::process::exit(2);
    }
    // Same three-layer pattern for screening: the scenario validator
    // rejects a stored phase+screen combination, this check catches
    // one assembled by flag overrides, and `ScreenConfig` rejects it
    // again for callers that bypass the CLI.
    if sc.screen.enabled && sc.oracle.mode == OracleMode::Phase {
        eprintln!(
            "error: surrogate screening requires the full oracle \
             (--screen is incompatible with --oracle-mode phase)"
        );
        std::process::exit(2);
    }
    let mut config = c2_runner::RunConfig::from_spec(&sc.runner).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if let Some(v) = workers {
        config.workers = v;
    }
    if let Some(v) = threads {
        config.threads = v;
    }
    if let Some(p) = cache {
        config.cache_path = Some(p);
    }
    if let Some(v) = deadline_ms {
        config.deadline_ms = v;
    }
    if let Some(v) = max_attempts {
        config.max_attempts = v;
    }
    if let Some(v) = sync {
        config.sync = v;
    }
    if let Some(v) = checkpoint_every {
        config.checkpoint_every = v;
    }
    if let Some(p) = chaos {
        config.chaos = Some(p);
    }
    match fingerprint {
        Some(fp) => config = config.with_scenario(fp),
        // The positional path keeps fingerprint-free journals for
        // byte-compatibility, but the evaluation cache still needs
        // real run identity (workload, size, model): bind the
        // assembled scenario's fingerprint into cache addresses only,
        // so one cache file shared across positional invocations can
        // never serve one workload's simulated times to another.
        None => config.cache_fingerprint = Some(sc.fingerprint()),
    }
    if metrics_out.is_none() {
        metrics_out = sc
            .observability
            .metrics_out
            .as_ref()
            .map(std::path::PathBuf::from);
    }
    if roofline_out.is_none() {
        roofline_out = sc
            .observability
            .roofline_out
            .as_ref()
            .map(std::path::PathBuf::from);
    }
    outln!(
        "supervised sweep: {}, {} attempts/job{}{}{}",
        match config.deadline_ms {
            0 => format!("{} sharded threads", config.parallelism()),
            d => format!("{} sharded threads, deadline {d} ms", config.parallelism()),
        },
        config.max_attempts,
        match (&journal, resume) {
            (Some(p), true) => format!(", resuming journal {}", p.display()),
            (Some(p), false) => format!(", journaling to {}", p.display()),
            (None, _) => String::new(),
        },
        match &config.cache_path {
            Some(p) => format!(", cache {}", p.display()),
            None => String::new(),
        },
        if config.chaos.is_some() {
            ", chaos armed"
        } else {
            ""
        }
    );
    let recorder = c2_obs::Recorder::new();
    let summary = match sc.backend.kind {
        // The GPU-SM analytical backend needs no workload trace or
        // characterization: the whole pricing core is closed-form, so
        // the pipeline is scenario → backend → supervised sweep.
        BackendKind::GpuSm => {
            let sweep = gpu_sweep_from_scenario(&sc).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            });
            let pricer = Pricer::Gpu(&sweep);
            let runner = c2_runner::SweepRunner::new(config).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            });
            let summary = run_supervised(
                &runner,
                &sc,
                &sweep,
                &pricer,
                journal.as_deref(),
                resume,
                &recorder,
            );
            write_roofline_or_die(&sweep, &summary, fingerprint, roofline_out.as_deref());
            summary
        }
        BackendKind::CpuCmp => {
            let Some(w) = c2_workloads::workload_from_spec(&sc.workload) else {
                eprintln!("error: unknown workload {:?}", sc.workload.name);
                std::process::exit(2);
            };
            let chip = ChipConfig::from_spec(&sc.chip).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            });
            let trace = w.generate();
            let ch = characterize(&trace, &chip).expect("characterization failed");
            let g = scale_function(&sc, w.as_ref());
            let aps = aps_from_scenario(&sc, &ch, &chip, g).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            });
            let area = aps.model.area;
            let budget = aps.model.budget;
            let phase_oracle = match sc.oracle.mode {
                OracleMode::Full => None,
                OracleMode::Phase => {
                    let oracle = phase_oracle_for(
                        &sc,
                        &trace,
                        area,
                        budget,
                        config.cache_path.as_deref(),
                        &c2_obs::NullSink,
                    )
                    .unwrap_or_else(|e| {
                        eprintln!("error: {e}");
                        std::process::exit(1);
                    });
                    let plan = oracle.plan();
                    let fallback = match plan.exact_reason() {
                        None => String::new(),
                        Some(ExactReason::TooShort) => {
                            " (trace too short to cluster; exact fallback)".to_string()
                        }
                        Some(ExactReason::OverBudget(fraction)) => format!(
                            " (windows would simulate {:.1}% of the trace; exact fallback)",
                            100.0 * fraction
                        ),
                    };
                    outln!(
                        "oracle: phase mode, {} phases, {:.1}% of the trace per evaluation{fallback}",
                        plan.phase_count(),
                        100.0 * plan.simulated_fraction(),
                    );
                    Some(oracle)
                }
            };
            let pricer = match &phase_oracle {
                None => Pricer::Full {
                    trace: &trace,
                    area: &area,
                    budget: &budget,
                },
                Some(oracle) => Pricer::Phase(oracle),
            };
            let runner = c2_runner::SweepRunner::new(config).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            });
            let summary = run_supervised(
                &runner,
                &sc,
                &aps,
                &pricer,
                journal.as_deref(),
                resume,
                &recorder,
            );
            write_roofline_or_die(&aps, &summary, fingerprint, roofline_out.as_deref());
            summary
        }
    };
    if let Some(path) = &metrics_out {
        let report = recorder.report();
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("error: cannot write metrics to {}: {e}", path.display());
            std::process::exit(1);
        }
        outln!(
            "metrics: wrote {} events and the metric registry to {}",
            report.events.len(),
            path.display()
        );
    }
    let r = &summary.report;
    outln!(
        "run report: {} attempted = {} succeeded + {} skipped + {} backfilled \
         ({} resumed, {} retried, {} oracle calls, {} cache hits, {} timeouts, \
         {} short-circuited, {} quarantined, {} breaker trips)",
        r.attempted,
        r.succeeded,
        r.skipped,
        r.backfilled,
        r.resumed,
        r.retried,
        r.oracle_calls,
        r.cache_hits,
        r.timeouts,
        r.short_circuited,
        r.quarantined,
        r.breaker_trips
    );
    let Some(outcome) = summary.outcome else {
        outln!("run did not complete; resume with --journal/--resume");
        return;
    };
    match sc.backend.kind {
        BackendKind::CpuCmp => outln!(
            "chosen: N = {}, A0 = {} mm2, L1 = {} mm2, L2 = {} mm2, issue = {}, ROB = {}",
            outcome.chosen.n,
            fmt_num(outcome.chosen.a0),
            fmt_num(outcome.chosen.a1),
            fmt_num(outcome.chosen.a2),
            outcome.chosen.issue_width,
            outcome.chosen.rob_size
        ),
        // Same axes, GPU-SM vocabulary (DESIGN.md §14).
        BackendKind::GpuSm => outln!(
            "chosen: SMs = {}, FP32 lanes/SM = {}, occupancy target = {}%, \
             SM area = {} mm2 (L1 {} / L2 {})",
            outcome.chosen.n,
            outcome.chosen.issue_width,
            outcome.chosen.rob_size,
            fmt_num(outcome.chosen.a0),
            fmt_num(outcome.chosen.a1),
            fmt_num(outcome.chosen.a2)
        ),
    }
    outln!(
        "best simulated time: {} cycles; calibrated model error: {}%; degradation: {:?}",
        fmt_num(outcome.best_time),
        fmt_num(100.0 * outcome.prediction_error),
        outcome.refinement.degradation
    );
}

/// `journal`: maintain resume journals. `compact` repairs and shrinks
/// an interrupted journal in place — dropping a torn trailing line,
/// duplicate records, and all but the newest checkpoint per shard —
/// and reports what it did. Safe to run any number of times; a
/// compacted journal resumes identically to the original.
fn cmd_journal(args: &[String]) {
    match args.first().map(String::as_str) {
        Some("compact") => {
            let path = args.get(1).unwrap_or_else(|| usage());
            let stats =
                c2_runner::journal::compact(std::path::Path::new(path)).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                });
            outln!(
                "compacted {path}: kept {} records and {} checkpoints \
                 (dropped {} duplicate records, {} stale checkpoints{})",
                stats.records,
                stats.checkpoints_kept,
                stats.duplicates_dropped,
                stats.checkpoints_dropped,
                if stats.torn_tail_dropped {
                    ", one torn tail"
                } else {
                    ""
                }
            );
        }
        _ => usage(),
    }
}

/// `scenario`: manage declarative scenario files. `init` emits the
/// canonical defaults, `validate` parses and range-checks a file, and
/// `show` prints the canonical rendering plus the fingerprint that a
/// journaled `run --scenario` binds into its checkpoints.
fn cmd_scenario(args: &[String]) {
    match args.first().map(String::as_str) {
        Some("init") => {
            let mut kind = BackendKind::CpuCmp;
            let mut law: Option<LawKind> = None;
            let mut path: Option<&String> = None;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--backend" => match it.next() {
                        Some(v) => {
                            kind = BackendKind::parse(v).unwrap_or_else(|| {
                                eprintln!("error: invalid --backend {v:?} (cpu-cmp|gpu-sm)");
                                std::process::exit(2);
                            });
                        }
                        None => usage(),
                    },
                    "--law" => match it.next() {
                        Some(v) => {
                            law = Some(LawKind::parse(v).unwrap_or_else(|| {
                                eprintln!(
                                    "error: invalid --law {v:?} (sun-ni|amdahl|memory-wall|usl)"
                                );
                                std::process::exit(2);
                            }));
                        }
                        None => usage(),
                    },
                    other if !other.starts_with('-') && path.is_none() => path = Some(arg),
                    _ => usage(),
                }
            }
            let mut sc = match kind {
                BackendKind::CpuCmp => Scenario::default(),
                // The gpu-sm starter swaps in the reinterpreted axes
                // (SM count, FP32 lanes/SM, occupancy target) so the
                // emitted document sweeps a meaningful GPU space out
                // of the box.
                BackendKind::GpuSm => Scenario {
                    backend: BackendSpec {
                        kind: BackendKind::GpuSm,
                        ..BackendSpec::default()
                    },
                    space: SpaceSpec::gpu_sm(),
                    ..Scenario::default()
                },
            };
            if let Some(l) = law {
                sc.speedup.law = l;
            }
            match path {
                None => out!("{}", sc.render_pretty()),
                Some(path) => {
                    if let Err(e) = std::fs::write(path, sc.render_pretty()) {
                        eprintln!("error: cannot write {path}: {e}");
                        std::process::exit(1);
                    }
                    outln!("wrote {path} (fingerprint {})", sc.fingerprint_hex());
                }
            }
        }
        Some("validate") => {
            let path = args.get(1).unwrap_or_else(|| usage());
            let sc = load_scenario(path);
            outln!("ok: {path} (fingerprint {})", sc.fingerprint_hex());
        }
        Some("show") => {
            let path = args.get(1).unwrap_or_else(|| usage());
            let sc = load_scenario(path);
            out!("{}", sc.render_pretty());
            outln!("fingerprint: {}", sc.fingerprint_hex());
        }
        _ => usage(),
    }
}

/// `obs-report`: summarize (or re-export) a metrics report produced by
/// `run --metrics-out`.
fn cmd_obs_report(args: &[String]) {
    let path = args.first().unwrap_or_else(|| usage());
    let mode = args.get(1).map(String::as_str);
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        std::process::exit(1);
    });
    let report = c2_obs::Report::from_json(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    });
    match mode {
        Some("--prom") => out!("{}", report.to_prometheus()),
        Some("--json") => out!("{}", report.to_json()),
        Some(_) => usage(),
        None => {
            let reg = &report.registry;
            let mut t = Table::new(vec!["metric", "kind", "value"]);
            for (name, value) in reg.counters() {
                t.row(vec![
                    name.to_string(),
                    "counter".to_string(),
                    value.to_string(),
                ]);
            }
            for (name, value) in reg.gauges() {
                t.row(vec![name.to_string(), "gauge".to_string(), fmt_num(value)]);
            }
            for (name, hist) in reg.histograms() {
                t.row(vec![
                    name.to_string(),
                    "histogram".to_string(),
                    format!(
                        "{} observations / {} buckets",
                        hist.count(),
                        hist.counts().len()
                    ),
                ]);
            }
            outln!("{}", t.render());
            let mut scopes: std::collections::BTreeMap<&str, u64> =
                std::collections::BTreeMap::new();
            for ev in &report.events {
                *scopes.entry(ev.scope.as_str()).or_insert(0) += 1;
            }
            let by_scope: Vec<String> = scopes
                .iter()
                .map(|(scope, n)| format!("{n} {scope}"))
                .collect();
            outln!(
                "trace: {} events ({})",
                report.events.len(),
                by_scope.join(", ")
            );
        }
    }
}

/// One parsed candidate from a roofline report.
struct RooflineRow {
    seq: u64,
    n: u64,
    issue: u64,
    rob: u64,
    oi: f64,
    compute: f64,
    bandwidth: f64,
    bound: f64,
    attained: Option<f64>,
    limiting: String,
}

/// `roofline`: render a `--roofline-out` report as an ASCII log-log
/// chart — attained bound versus operational intensity, every
/// candidate labeled with its limiting ceiling — plus a per-candidate
/// table. Pure presentation: the numbers come verbatim from the file.
#[allow(clippy::too_many_lines)]
fn cmd_roofline(args: &[String]) {
    let path = args.first().unwrap_or_else(|| usage());
    if args.len() > 1 {
        usage();
    }
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        std::process::exit(1);
    });
    let doc = c2_config::Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    });
    let get = |obj: &[(String, c2_config::Json)], key: &str| -> c2_config::Json {
        obj.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| {
                eprintln!("error: {path} is not a roofline report (missing {key:?})");
                std::process::exit(1)
            })
    };
    let Some(top) = doc.as_obj() else {
        eprintln!("error: {path} is not a roofline report (top level is not an object)");
        std::process::exit(1);
    };
    if get(top, "c2roofline").as_u64() != Some(1) {
        eprintln!("error: {path}: unsupported roofline report version");
        std::process::exit(1);
    }
    let backend = get(top, "backend").as_str().unwrap_or("?").to_string();
    let fingerprint = get(top, "fingerprint")
        .as_str()
        .map_or_else(|| "unbound".to_string(), str::to_string);
    let Some(raw_points) = get(top, "points").as_arr().map(<[c2_config::Json]>::to_vec) else {
        eprintln!("error: {path} is not a roofline report (points is not an array)");
        std::process::exit(1);
    };
    let mut rows: Vec<RooflineRow> = Vec::with_capacity(raw_points.len());
    for raw in &raw_points {
        let Some(obj) = raw.as_obj() else {
            eprintln!("error: {path}: a roofline point is not an object");
            std::process::exit(1);
        };
        let point = get(obj, "point");
        let Some(p) = point.as_obj() else {
            eprintln!("error: {path}: a roofline point carries no design point");
            std::process::exit(1);
        };
        rows.push(RooflineRow {
            seq: get(obj, "seq").as_u64().unwrap_or(0),
            n: get(p, "n").as_u64().unwrap_or(0),
            issue: get(p, "issue").as_u64().unwrap_or(0),
            rob: get(p, "rob").as_u64().unwrap_or(0),
            oi: get(obj, "operational_intensity")
                .as_f64()
                .unwrap_or(f64::NAN),
            compute: get(obj, "compute_ceiling").as_f64().unwrap_or(f64::NAN),
            bandwidth: get(obj, "bandwidth_ceiling").as_f64().unwrap_or(f64::NAN),
            bound: get(obj, "bound").as_f64().unwrap_or(f64::NAN),
            attained: get(obj, "attained").as_f64(),
            limiting: get(obj, "limiting").as_str().unwrap_or("?").to_string(),
        });
    }
    let compute_limited = rows.iter().filter(|r| r.limiting == "compute").count();
    outln!(
        "roofline: {} backend, {} candidates ({} compute-limited, {} bandwidth-limited), \
         fingerprint {}",
        backend,
        rows.len(),
        compute_limited,
        rows.len() - compute_limited,
        fingerprint
    );
    // The chart plots each candidate's attained bound at its
    // operational intensity on log-log axes: 'C' = the compute ceiling
    // binds, 'B' = the bandwidth roof binds. Non-finite points are
    // listed in the table but cannot be charted.
    let chartable: Vec<&RooflineRow> = rows
        .iter()
        .filter(|r| r.oi.is_finite() && r.oi > 0.0 && r.bound.is_finite() && r.bound > 0.0)
        .collect();
    if chartable.is_empty() {
        outln!("(no finite candidates to chart)");
    } else {
        const W: usize = 64;
        const H: usize = 16;
        let span = |lo: f64, hi: f64| -> (f64, f64) {
            // A degenerate axis (every candidate at one OI — common
            // for gpu-sm, whose intensity is a workload constant) gets
            // padded so the lone column sits mid-chart.
            if hi - lo < 1e-9 {
                (lo - 0.602, hi + 0.602)
            } else {
                (lo - 0.05 * (hi - lo), hi + 0.05 * (hi - lo))
            }
        };
        let xs: Vec<f64> = chartable.iter().map(|r| r.oi.log10()).collect();
        let ys: Vec<f64> = chartable.iter().map(|r| r.bound.log10()).collect();
        let (x_lo, x_hi) = span(
            xs.iter().copied().fold(f64::INFINITY, f64::min),
            xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        );
        let (y_lo, y_hi) = span(
            ys.iter().copied().fold(f64::INFINITY, f64::min),
            ys.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        );
        let col = |x: f64| (((x - x_lo) / (x_hi - x_lo)) * (W - 1) as f64).round() as usize;
        let row =
            |y: f64| (H - 1) - (((y - y_lo) / (y_hi - y_lo)) * (H - 1) as f64).round() as usize;
        let mut grid = vec![vec![' '; W]; H];
        for r in &chartable {
            let (c, l) = (col(r.oi.log10()), row(r.bound.log10()));
            grid[l][c] = if r.limiting == "compute" { 'C' } else { 'B' };
        }
        for (i, line) in grid.iter().enumerate() {
            let label = if i == 0 {
                format!("{:.3e}", 10f64.powf(y_hi))
            } else if i == H - 1 {
                format!("{:.3e}", 10f64.powf(y_lo))
            } else {
                String::new()
            };
            outln!("{label:>10} |{}", line.iter().collect::<String>());
        }
        outln!("{:>10} +{}", "", "-".repeat(W));
        outln!(
            "{:>10}  {:<w$}{:>w2$}",
            "OI (F/B):",
            format!("{:.3e}", 10f64.powf(x_lo)),
            format!("{:.3e}", 10f64.powf(x_hi)),
            w = W / 2,
            w2 = W - W / 2
        );
    }
    let mut t = Table::new(vec![
        "seq",
        "n",
        "issue",
        "rob",
        "OI (F/B)",
        "compute",
        "bandwidth",
        "bound",
        "attained",
        "limiting",
    ]);
    for r in &rows {
        t.row(vec![
            r.seq.to_string(),
            r.n.to_string(),
            r.issue.to_string(),
            r.rob.to_string(),
            fmt_num(r.oi),
            fmt_num(r.compute),
            fmt_num(r.bandwidth),
            fmt_num(r.bound),
            r.attained.map_or_else(|| "-".to_string(), fmt_num),
            r.limiting.clone(),
        ]);
    }
    outln!("{}", t.render());
}

fn cmd_scaling(args: &[String]) {
    let f_mem = parse_or(args, 0, "f_mem", 0.3f64);
    let study = ScalingStudy::paper_figs_8_to_11(f_mem).expect("study");
    let ns = [1.0, 4.0, 16.0, 64.0, 256.0, 1000.0];
    let mut t = Table::new(vec!["N", "W", "T(C=1)", "T(C=8)", "W/T(C=1)", "W/T(C=8)"]);
    let c1 = study.sweep(&ns, 1.0).expect("sweep");
    let c8 = study.sweep(&ns, 8.0).expect("sweep");
    for i in 0..ns.len() {
        t.row(vec![
            fmt_num(ns[i]),
            fmt_num(c1[i].problem_size),
            fmt_num(c1[i].time),
            fmt_num(c8[i].time),
            fmt_num(c1[i].throughput),
            fmt_num(c8[i].throughput),
        ]);
    }
    outln!("{}", t.render());
}

fn cmd_table1() {
    let workloads: Vec<(Box<dyn Workload>, &str)> = vec![
        (
            Box::new(c2_workloads::tmm::TiledMatMul::new(64, 8, 0)),
            "N^{3/2}",
        ),
        (Box::new(c2_workloads::spmv::BandSpmv::new(256, 2, 0)), "N"),
        (
            Box::new(c2_workloads::stencil::Stencil2D::new(32, 32, 2, 0)),
            "N",
        ),
        (Box::new(c2_workloads::fft::Fft::new(1024, 0)), "2N"),
    ];
    let mut t = Table::new(vec!["application", "paper g(N)", "derived g(16)"]);
    for (w, paper) in &workloads {
        let g = w
            .complexity()
            .derive_g(4096.0, 16.0)
            .map(fmt_num)
            .unwrap_or_else(|e| e.to_string());
        t.row(vec![w.name().to_string(), paper.to_string(), g]);
    }
    outln!("{}", t.render());
}

fn cmd_trace(args: &[String]) {
    let name = args.first().map(String::as_str).unwrap_or_else(|| usage());
    let size = parse_or(args, 1, "size", 32u64);
    let Some(w) = workload_by_name(name, size) else {
        usage()
    };
    let trace = w.generate().combined();
    let stdout = std::io::stdout();
    // A closed pipe (e.g. `| head`) is a normal way to consume a dump.
    if let Err(e) = c2_trace::io::write_trace(&trace, stdout.lock()) {
        if e.kind() != std::io::ErrorKind::BrokenPipe {
            panic!("write trace: {e}");
        }
    }
}

fn cmd_characterize_file(args: &[String]) {
    let path = args.first().unwrap_or_else(|| usage());
    let file = std::fs::File::open(path).unwrap_or_else(|e| {
        eprintln!("cannot open {path}: {e}");
        std::process::exit(1);
    });
    let trace = c2_trace::io::read_trace(std::io::BufReader::new(file)).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(1);
    });
    let chip = ChipConfig::default_single_core();
    // A raw trace file carries no serial/parallel split; report f_seq = 0
    // and let the user supply it to `optimize` separately.
    let ch = c2_workloads::characterize::characterize_trace(&trace, 0.0, &chip)
        .expect("characterization failed");
    let mut t = Table::new(vec!["parameter", "value"]);
    t.row(vec!["file".to_string(), path.to_string()]);
    t.row(vec![
        "instructions".to_string(),
        ch.instruction_count.to_string(),
    ]);
    t.row(vec!["f_mem".to_string(), fmt_num(ch.f_mem)]);
    t.row(vec!["L1 miss rate".to_string(), fmt_num(ch.l1_miss_rate)]);
    t.row(vec!["C-AMAT".to_string(), fmt_num(ch.camat_value())]);
    t.row(vec!["C".to_string(), fmt_num(ch.concurrency())]);
    t.row(vec!["IPC".to_string(), fmt_num(ch.ipc)]);
    outln!("{}", t.render());
}

fn cmd_multiobjective(args: &[String]) {
    use c2_bound::energy::{MultiObjective, PowerModel};
    let weight = parse_or(args, 0, "weight", 0.5f64);
    let mut base = C2BoundModel::example_big_data();
    base.program =
        ProgramProfile::new(1e9, 0.15, 0.3, 0.1, ScaleFunction::Power(0.5)).expect("profile");
    let power = PowerModel::default();
    let clock = 3e9;
    let mo = MultiObjective::new(base.clone(), power, weight, clock).expect("objective");
    let v = mo.optimize().expect("optimize");
    let mut t = Table::new(vec!["metric", "value"]);
    t.row(vec!["performance weight w".to_string(), fmt_num(weight)]);
    t.row(vec!["N (cores)".to_string(), fmt_num(v.n)]);
    t.row(vec![
        "per-core area (mm2)".to_string(),
        fmt_num(v.per_core()),
    ]);
    t.row(vec![
        "time (s)".to_string(),
        fmt_num(base.execution_time(&v) / clock),
    ]);
    t.row(vec![
        "energy (J)".to_string(),
        fmt_num(power.energy(&base, &v, clock)),
    ]);
    t.row(vec![
        "power (W)".to_string(),
        fmt_num(power.average_power(&base, &v)),
    ]);
    t.row(vec![
        "EDP (J*s)".to_string(),
        fmt_num(power.edp(&base, &v, clock)),
    ]);
    outln!("{}", t.render());
}

fn cmd_adaptive() {
    use c2_bound::adaptive::AdaptiveDse;
    use c2_trace::synthetic::{
        MixedPhaseGenerator, PointerChaseGenerator, StridedGenerator, TraceGenerator,
    };
    let trace = MixedPhaseGenerator::new(
        vec![
            Box::new(StridedGenerator::new(0, 64, 4000).compute_per_access(6)),
            Box::new(PointerChaseGenerator::new(1 << 30, 1 << 15, 4000, 5).compute_per_access(1)),
        ],
        3,
    )
    .generate();
    let mut template = C2BoundModel::example_big_data();
    template.program =
        ProgramProfile::new(1e9, 0.1, 0.3, 0.1, ScaleFunction::Power(0.5)).expect("profile");
    let mut dse = AdaptiveDse::new(template);
    dse.phase_config = c2_trace::PhaseConfig {
        interval_len: 4000,
        clusters: 2,
        ..c2_trace::PhaseConfig::default()
    };
    let plan = dse.plan(&trace).expect("adaptive plan");
    let mut t = Table::new(vec!["phase", "weight", "f_mem", "C", "N*", "CPI"]);
    for p in &plan.phases {
        t.row(vec![
            p.phase.to_string(),
            fmt_num(p.weight),
            fmt_num(p.f_mem),
            fmt_num(p.concurrency),
            fmt_num(p.design.vars.n),
            fmt_num(p.design.cpi),
        ]);
    }
    outln!("{}", t.render());
    outln!(
        "transitions: {}; reconfiguration gain: {}%",
        plan.transitions,
        fmt_num(100.0 * plan.improvement())
    );
}

/// The per-design-point oracle shared by one-shot `run` and the serve
/// executor, selected by the scenario's `oracle.mode`: `full`
/// simulates the whole workload at every point; `phase` prices each
/// point through the phase-clustered estimator (DESIGN.md §13). One
/// enum serves both paths so they cannot drift — a served phase job
/// and a command-line phase run execute the identical oracle.
#[derive(Clone)]
enum Pricer<'a> {
    Full {
        trace: &'a WorkloadTrace,
        area: &'a AreaModel,
        budget: &'a SiliconBudget,
    },
    Phase(&'a PhaseOracle),
    /// The GPU-SM measurement oracle: the analytical bound priced at
    /// the *achieved* occupancy (DESIGN.md §14), so the sweep's
    /// refinement stage has a deterministic "measured" surface to
    /// calibrate against, exactly like the CPU simulator does.
    Gpu(&'a GpuSmBackend),
}

impl Oracle for Pricer<'_> {
    fn evaluate(&mut self, _key: u64, p: &DesignPoint) -> c2_bound::Result<f64> {
        match self {
            Pricer::Full {
                trace,
                area,
                budget,
            } => simulate_point(p, trace, area, budget)
                .map_err(|e| c2_bound::Error::Simulation(e.to_string())),
            Pricer::Phase(oracle) => oracle.price(p),
            Pricer::Gpu(backend) => backend.measure(p),
        }
    }
}

/// Decompose a finished sweep into Roofline points, account for them
/// on the ops sink, and write the deterministic JSON report. Shared by
/// one-shot `run` and the serve executor so a served job's roofline is
/// byte-identical to the command-line run's.
fn emit_roofline(
    sweep: &dyn BackendSweep,
    summary: &c2_runner::RunSummary,
    fingerprint: Option<u64>,
    path: &std::path::Path,
    ops: &dyn c2_obs::MetricsSink,
) -> std::io::Result<usize> {
    let points = roofline_points(sweep, &summary.plan, &summary.results);
    let compute = points
        .iter()
        .filter(|p| p.limiting == Ceiling::Compute)
        .count();
    ops.counter_add(c2_obs::names::ROOFLINE_POINTS_TOTAL, points.len() as u64);
    ops.counter_add(c2_obs::names::ROOFLINE_COMPUTE_BOUND_TOTAL, compute as u64);
    ops.counter_add(
        c2_obs::names::ROOFLINE_BANDWIDTH_BOUND_TOTAL,
        (points.len() - compute) as u64,
    );
    std::fs::write(path, roofline_json(sweep.identity(), fingerprint, &points))?;
    Ok(points.len())
}

/// `run`'s roofline emission: a no-op without a destination (flag or
/// scenario `observability.roofline_out`); an IO failure is fatal,
/// like a failed `--metrics-out` write.
fn write_roofline_or_die(
    sweep: &dyn BackendSweep,
    summary: &c2_runner::RunSummary,
    fingerprint: Option<u64>,
    path: Option<&std::path::Path>,
) {
    let Some(path) = path else { return };
    match emit_roofline(sweep, summary, fingerprint, path, &c2_obs::NullSink) {
        Ok(n) => outln!(
            "roofline: wrote {n} candidate points ({} backend) to {}",
            sweep.identity(),
            path.display()
        ),
        Err(e) => {
            eprintln!("error: cannot write roofline to {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Cache address of a scenario's memoized phase summary:
/// `cache_key(scenario_fingerprint, PHASE_MEMO_SALT)`. The fingerprint
/// already binds the workload, its size, and every `oracle.phase` knob
/// (phase mode renders the section semantically), so a memo can only
/// hit for the exact detection it stores; the salt keeps the address
/// disjoint from every job entry's (identity, content-key) space.
const PHASE_MEMO_SALT: u64 = 0x6332_5048_4153_4531; // "c2PHASE1"

/// Build the phase-clustered oracle for a scenario: reuse the phase
/// summary memoized in the evaluation cache when present and still
/// consistent with the workload, otherwise run `PhaseDetector` once
/// and memoize the result for the next invocation. `oracle_phase_*`
/// telemetry goes to `ops` — never the main sink, because memo-hit vs
/// fresh-detection legitimately differs between a first and a repeat
/// run of the same scenario.
fn phase_oracle_for(
    sc: &Scenario,
    workload: &WorkloadTrace,
    area: AreaModel,
    budget: SiliconBudget,
    cache_path: Option<&std::path::Path>,
    ops: &dyn c2_obs::MetricsSink,
) -> c2_bound::Result<PhaseOracle> {
    let config = c2_trace::PhaseConfig {
        interval_len: sc.oracle.phase.interval_len as usize,
        clusters: sc.oracle.phase.clusters as usize,
        seed: sc.oracle.phase.seed,
        ..c2_trace::PhaseConfig::default()
    };
    let memo_key = c2_runner::cache_key(sc.fingerprint(), PHASE_MEMO_SALT);
    let memoized: Option<PhasePlan> = cache_path.and_then(|path| {
        let loaded = c2_runner::cache::load(&c2_runner::storage::DISK, path).ok()?;
        let record = loaded.phases.get(&memo_key)?;
        let summary = PhaseSummary {
            labels: record.labels.iter().map(|&l| l as usize).collect(),
            representatives: record.representatives.iter().map(|&r| r as usize).collect(),
            interval_len: record.interval_len as usize,
        };
        // A corrupted or stale record fails the plan's consistency
        // validation and falls through to a fresh detection.
        PhasePlan::from_summary(workload, summary).ok()
    });
    let plan = match memoized {
        Some(plan) => {
            ops.counter_add(c2_obs::names::ORACLE_PHASE_MEMO_HITS_TOTAL, 1);
            plan
        }
        None => {
            let plan = PhasePlan::detect(workload, &config)?;
            ops.counter_add(c2_obs::names::ORACLE_PHASE_DETECTIONS_TOTAL, 1);
            if let Some(path) = cache_path {
                let s = plan.summary();
                let record = c2_runner::PhaseRecord {
                    interval_len: s.interval_len as u64,
                    labels: s.labels.iter().map(|&l| l as u64).collect(),
                    representatives: s.representatives.iter().map(|&r| r as u64).collect(),
                };
                // Memoization is an optimization; a failed append is
                // ops telemetry, never fatal.
                if c2_runner::cache::append_phase(path, memo_key, &record).is_err() {
                    ops.counter_add(c2_obs::names::ENGINE_STORAGE_FAULTS_TOTAL, 1);
                }
            }
            plan
        }
    };
    ops.gauge_set(c2_obs::names::ORACLE_PHASE_COUNT, plan.phase_count() as f64);
    ops.gauge_set(
        c2_obs::names::ORACLE_PHASE_SIMULATED_PERMILLE,
        (plan.simulated_fraction() * 1000.0).round(),
    );
    Ok(PhaseOracle::new(plan, area, budget))
}

/// The real DSE pipeline as a [`c2_runner::ScenarioExecutor`]: the
/// daemon hands it an admitted scenario and it runs the exact same
/// workload → characterize → APS → `SweepRunner` path as one-shot
/// `run --scenario`, which is what makes a served job's journal and
/// metrics byte-identical to the command-line run.
struct PipelineExecutor;

impl c2_runner::ScenarioExecutor for PipelineExecutor {
    fn execute(
        &self,
        sc: &Scenario,
        config: c2_runner::RunConfig,
        journal: &std::path::Path,
        resume: bool,
        sink: &dyn c2_obs::MetricsSink,
        ops: &dyn c2_obs::MetricsSink,
    ) -> c2_runner::Result<c2_runner::RunSummary> {
        let sim_err = |what: &str, e: String| {
            c2_runner::Error::Core(c2_bound::Error::Simulation(format!("{what}: {e}")))
        };
        // The GPU-SM branch mirrors one-shot `run --backend gpu-sm`:
        // no trace, no characterization, closed-form pricing.
        if sc.backend.kind == c2_config::BackendKind::GpuSm {
            let sweep = gpu_sweep_from_scenario(sc).map_err(c2_runner::Error::Core)?;
            let pricer = Pricer::Gpu(&sweep);
            let runner = c2_runner::SweepRunner::new(config)?;
            let summary = if sc.screen.enabled {
                let screen_cfg = c2_runner::ScreenConfig::from_scenario(sc)?;
                runner
                    .run_screened(
                        &sweep,
                        &screen_cfg,
                        || pricer.clone(),
                        Some(journal),
                        resume,
                        sink,
                        ops,
                    )?
                    .0
            } else {
                runner.run_aps_full(&sweep, || pricer.clone(), Some(journal), resume, sink, ops)?
            };
            ops.counter_add(
                c2_obs::names::BACKEND_GPU_SM_POINTS_TOTAL,
                summary.results.len() as u64,
            );
            if let Some(out) = &sc.observability.roofline_out {
                emit_roofline(
                    &sweep,
                    &summary,
                    Some(sc.fingerprint()),
                    std::path::Path::new(out),
                    ops,
                )
                .map_err(|e| sim_err("roofline", e.to_string()))?;
            }
            return Ok(summary);
        }
        let w = c2_workloads::workload_from_spec(&sc.workload).ok_or(
            c2_runner::Error::InvalidConfig("unknown workload in admitted scenario"),
        )?;
        let chip = ChipConfig::from_spec(&sc.chip).map_err(|e| sim_err("chip", e.to_string()))?;
        let trace = w.generate();
        let ch = characterize(&trace, &chip).map_err(|e| sim_err("characterize", e.to_string()))?;
        let g = scale_function(sc, w.as_ref());
        let aps = aps_from_scenario(sc, &ch, &chip, g)?;
        let area = aps.model.area;
        let budget = aps.model.budget;
        let phase_oracle = match sc.oracle.mode {
            OracleMode::Full => None,
            OracleMode::Phase => Some(
                phase_oracle_for(sc, &trace, area, budget, config.cache_path.as_deref(), ops)
                    .map_err(c2_runner::Error::Core)?,
            ),
        };
        let pricer = match &phase_oracle {
            None => Pricer::Full {
                trace: &trace,
                area: &area,
                budget: &budget,
            },
            Some(oracle) => Pricer::Phase(oracle),
        };
        let runner = c2_runner::SweepRunner::new(config)?;
        let summary = if sc.screen.enabled {
            let screen_cfg = c2_runner::ScreenConfig::from_scenario(sc)?;
            runner
                .run_screened(
                    &aps,
                    &screen_cfg,
                    || pricer.clone(),
                    Some(journal),
                    resume,
                    sink,
                    ops,
                )?
                .0
        } else {
            runner.run_aps_full(&aps, || pricer.clone(), Some(journal), resume, sink, ops)?
        };
        ops.counter_add(
            c2_obs::names::BACKEND_CPU_CMP_POINTS_TOTAL,
            summary.results.len() as u64,
        );
        if let Some(out) = &sc.observability.roofline_out {
            emit_roofline(
                &aps,
                &summary,
                Some(sc.fingerprint()),
                std::path::Path::new(out),
                ops,
            )
            .map_err(|e| sim_err("roofline", e.to_string()))?;
        }
        Ok(summary)
    }
}

/// `serve`: the supervised DSE-as-a-service daemon (DESIGN.md §12).
/// Policy comes from the `serve` section of `--scenario` (defaults
/// otherwise), with `--executors`/`--queue-depth`/`--budget` as
/// command-line overrides. Prints `serving on <addr>` once the
/// listener is bound, runs until drained (SIGTERM, `/shutdown`, or
/// `--drain-on-idle`), and exits 0 with a drain summary.
fn cmd_serve(args: &[String]) {
    let mut addr = "127.0.0.1:0".to_string();
    let mut dir = std::path::PathBuf::from("serve-jobs");
    let mut scenario_path: Option<String> = None;
    let mut cache: Option<std::path::PathBuf> = None;
    let mut resume = false;
    let mut drain_on_idle = false;
    let mut executors: Option<usize> = None;
    let mut queue_depth: Option<usize> = None;
    let mut budget: Option<usize> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("error: {name} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--dir" => dir = std::path::PathBuf::from(value("--dir")),
            "--scenario" => scenario_path = Some(value("--scenario")),
            "--cache" => cache = Some(std::path::PathBuf::from(value("--cache"))),
            "--resume" => resume = true,
            "--drain-on-idle" => drain_on_idle = true,
            "--executors" => executors = Some(parse_arg(&value("--executors"), "--executors")),
            "--queue-depth" => {
                queue_depth = Some(parse_arg(&value("--queue-depth"), "--queue-depth"));
            }
            "--budget" => budget = Some(parse_arg(&value("--budget"), "--budget")),
            _ => usage(),
        }
    }
    let spec = match &scenario_path {
        Some(path) => load_scenario(path).serve,
        None => c2_config::ServeSpec::default(),
    };
    let mut policy = c2_runner::ServePolicy::from_spec(&spec).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if let Some(v) = executors {
        policy.executors = v;
    }
    if let Some(v) = queue_depth {
        policy.queue_depth = v;
    }
    if let Some(v) = budget {
        policy.per_client_budget = v;
    }
    if let Err(e) = policy.validate() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let options = c2_runner::ServeOptions {
        addr,
        dir,
        cache_path: cache,
        policy,
        resume,
        drain_on_idle,
        watch_sigterm: true,
    };
    let mut daemon = c2_runner::Daemon::bind(options).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    // Flushed eagerly: scripts parse this line from a pipe to learn
    // the ephemeral port before the daemon blocks in accept.
    outln!("serving on {}", daemon.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let report = daemon.run(&PipelineExecutor).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    outln!(
        "drained: {} admitted ({} resumed), {} completed, {} failed, {} quarantined, \
         {} shed, {} pending for --resume",
        report.admitted,
        report.resumed,
        report.completed,
        report.failed,
        report.quarantined,
        report.shed,
        report.pending_at_drain
    );
}

/// One HTTP exchange with a serve daemon, or a one-line error exit.
fn daemon_call(
    addr: &str,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> (u16, Vec<(String, String)>, Vec<u8>) {
    c2_runner::serve::protocol::http_call(addr, method, target, headers, body, 10_000)
        .unwrap_or_else(|e| {
            eprintln!("error: {method} {target} on {addr}: {e}");
            std::process::exit(1);
        })
}

/// `submit`: send a scenario file to a serve daemon. Prints the
/// daemon's JSON response; with `--wait`, polls the job until it
/// reaches a terminal state and exits nonzero unless it completed.
fn cmd_submit(args: &[String]) {
    let mut addr: Option<String> = None;
    let mut scenario_path: Option<String> = None;
    let mut tenant = "anonymous".to_string();
    let mut wait = false;
    let mut poll_ms: u64 = 100;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().cloned().unwrap_or_else(|| {
                eprintln!("error: {name} requires a value");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--addr" => addr = Some(value("--addr")),
            "--scenario" => scenario_path = Some(value("--scenario")),
            "--tenant" => tenant = value("--tenant"),
            "--wait" => wait = true,
            "--poll-ms" => poll_ms = parse_arg(&value("--poll-ms"), "--poll-ms"),
            _ => usage(),
        }
    }
    let (Some(addr), Some(scenario_path)) = (addr, scenario_path) else {
        eprintln!("error: submit requires --addr and --scenario");
        std::process::exit(2);
    };
    // Sent verbatim: the daemon is the validation authority, so its
    // 422 body reports exactly what a local `scenario validate` would.
    let body = std::fs::read(&scenario_path).unwrap_or_else(|e| {
        eprintln!("error: cannot read {scenario_path}: {e}");
        std::process::exit(1);
    });
    let (status, headers, response) = daemon_call(
        &addr,
        "POST",
        "/submit",
        &[("X-Tenant", &tenant), ("Content-Type", "application/json")],
        &body,
    );
    let text = String::from_utf8_lossy(&response);
    if status != 202 {
        let retry = headers
            .iter()
            .find(|(k, _)| k == "retry-after")
            .map(|(_, v)| format!(" (retry after {v} s)"))
            .unwrap_or_default();
        eprintln!(
            "error: submission rejected with {status}{retry}: {}",
            text.trim()
        );
        std::process::exit(1);
    }
    out!("{text}");
    if !wait {
        return;
    }
    let job = c2_config::Json::parse(&text)
        .ok()
        .and_then(|doc| {
            doc.as_obj()
                .and_then(|pairs| pairs.iter().find(|(k, _)| k == "job").cloned())
        })
        .and_then(|(_, v)| v.as_str().map(str::to_string))
        .unwrap_or_else(|| {
            eprintln!("error: daemon's 202 response carried no job id");
            std::process::exit(1);
        });
    loop {
        let (status, _, response) = daemon_call(&addr, "GET", &format!("/status/{job}"), &[], b"");
        if status != 200 {
            eprintln!("error: status poll for {job} returned {status}");
            std::process::exit(1);
        }
        let text = String::from_utf8_lossy(&response);
        let state = c2_config::Json::parse(&text)
            .ok()
            .and_then(|doc| {
                doc.as_obj()
                    .and_then(|pairs| pairs.iter().find(|(k, _)| k == "state").cloned())
            })
            .and_then(|(_, v)| v.as_str().map(str::to_string))
            .unwrap_or_default();
        match state.as_str() {
            "completed" => {
                out!("{text}");
                return;
            }
            "failed" | "quarantined" => {
                eprint!("{text}");
                std::process::exit(1);
            }
            _ => std::thread::sleep(std::time::Duration::from_millis(poll_ms)),
        }
    }
}

/// `status`: print a daemon's job table, or one job's detail.
fn cmd_status(args: &[String]) {
    let mut addr: Option<String> = None;
    let mut job: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                addr = Some(it.next().cloned().unwrap_or_else(|| {
                    eprintln!("error: --addr requires a value");
                    std::process::exit(2);
                }));
            }
            other if !other.starts_with('-') && job.is_none() => job = Some(other.to_string()),
            _ => usage(),
        }
    }
    let Some(addr) = addr else {
        eprintln!("error: status requires --addr");
        std::process::exit(2);
    };
    let target = match &job {
        Some(id) => format!("/status/{id}"),
        None => "/status".to_string(),
    };
    let (status, _, response) = daemon_call(&addr, "GET", &target, &[], b"");
    out!("{}", String::from_utf8_lossy(&response));
    if status != 200 {
        std::process::exit(1);
    }
}

/// `shutdown`: ask a daemon to drain. With `--wait`, blocks until the
/// daemon's socket stops answering (i.e. the process exited).
fn cmd_shutdown(args: &[String]) {
    let mut addr: Option<String> = None;
    let mut wait = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                addr = Some(it.next().cloned().unwrap_or_else(|| {
                    eprintln!("error: --addr requires a value");
                    std::process::exit(2);
                }));
            }
            "--wait" => wait = true,
            _ => usage(),
        }
    }
    let Some(addr) = addr else {
        eprintln!("error: shutdown requires --addr");
        std::process::exit(2);
    };
    let (status, _, response) = daemon_call(&addr, "POST", "/shutdown", &[], b"");
    out!("{}", String::from_utf8_lossy(&response));
    if status != 200 {
        std::process::exit(1);
    }
    if wait {
        // Poll until the daemon stops answering — i.e. the drain
        // finished and the listener closed.
        while c2_runner::serve::protocol::http_call(&addr, "GET", "/status", &[], b"", 2_000)
            .is_ok()
        {
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("characterize") => cmd_characterize(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("characterize-file") => cmd_characterize_file(&args[1..]),
        Some("optimize") => cmd_optimize(&args[1..]),
        Some("aps") => cmd_aps(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        Some("shutdown") => cmd_shutdown(&args[1..]),
        Some("journal") => cmd_journal(&args[1..]),
        Some("scenario") => cmd_scenario(&args[1..]),
        Some("roofline") => cmd_roofline(&args[1..]),
        Some("obs-report") => cmd_obs_report(&args[1..]),
        Some("scaling") => cmd_scaling(&args[1..]),
        Some("table1") => cmd_table1(),
        Some("multiobjective") => cmd_multiobjective(&args[1..]),
        Some("adaptive") => cmd_adaptive(),
        Some(other) => {
            // An unrecognized subcommand is an explicit error on
            // stderr plus the usage text — never a silent fallthrough.
            eprintln!("error: unknown subcommand {other:?}");
            usage()
        }
        None => usage(),
    }
}
