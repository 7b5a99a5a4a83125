//! Real-pipeline benchmark of the C²-Bound design loop.
//!
//! Each workload runs the public library calls `c2bound-tool run
//! --scenario` makes, in the same order: workload generation →
//! characterization (C-AMAT through the HCD/MCD detector) → model build
//! (`scale_function` → `aps_from_scenario`, plus `PhasePlan::detect` in
//! phase mode) → the supervised refinement sweep
//! (`SweepRunner::run_aps_observed` or `run_screened`, journaled),
//! pricing through `simulate_point` or `PhaseOracle::price`.
//!
//! End-to-end repetitions run with tracing off. With tracing on, the
//! oracle is wrapped in a span recorder, untraced repetitions are
//! interleaved so the tracing overhead can be reported, and extra calls
//! off the timed path (`Aps::plan`, `Aps::assemble`, `per_core_traces`
//! and `Simulator::run` per priced point) split the sweep by layer.
//!
//! Every repetition is checked: the run completed, its ledger is
//! consistent, and its chosen design and journal match those of the
//! first repetition of the same input. Once per invocation, at the
//! default seeds, the benchmark's journal and chosen design are
//! compared with the `c2bound-tool run` binary's on the same scenario.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Mutex;
use std::time::Instant;

use c2_bound::dse::{chip_config_for, simulate_point, DesignPoint, Oracle};
use c2_bound::report::fmt_num;
use c2_bound::{
    aps_from_scenario, scale_function, Aps, ApsPlan, PhaseOracle, PhasePlan, PointOutcome,
    RefinementJob,
};
use c2_config::{OracleMode, Scenario};
use c2_runner::{RunConfig, RunSummary, ScreenConfig, ScreenReport, SweepRunner};
use c2_sim::area::{AreaModel, SiliconBudget};
use c2_sim::{ChipConfig, Simulator};
use c2_workloads::fluidanimate::FluidAnimate;
use c2_workloads::{characterize, Workload, WorkloadTrace};

/// Errors are reported as one line of text and end the run.
pub type Result<T> = std::result::Result<T, String>;

/// The fluidanimate generator seed `workload_from_spec` uses.
pub const DEFAULT_FLUID_SEED: u64 = 1;

/// Sharded-engine threads of the warm-cache workload (the host has two
/// cores; every workload stays within two threads or workers).
pub const WARM_THREADS: u64 = 2;

/// Fewest measured repetitions per run, whatever `--seconds` says.
pub const MIN_REPS: usize = 3;

/// Extra set-ups timed after each untraced repetition. A set-up takes
/// a few milliseconds and single-thread speed on a shared host drifts
/// within a run, so `setup_s` is the median of many samples spread over
/// the whole run rather than of a burst at one end.
pub const SETUP_SAMPLES_PER_REP: usize = 7;

/// The benchmark's workloads, all derived from the checked-in
/// `paper_scale.json` scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// The scenario as checked in: fluidanimate 100, legacy pool with
    /// two workers, full oracle.
    PaperScale,
    /// The same scenario on the sharded engine against an evaluation
    /// cache warmed by one untimed run: every job is a cache read.
    PaperScaleWarm,
    /// Paper-scale axes on fft 256 with the phase-clustered oracle.
    FftPhase,
    /// paper_scale with surrogate screening enabled.
    PaperScaleScreen,
}

impl WorkloadKind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadKind; 4] = [
        WorkloadKind::PaperScale,
        WorkloadKind::PaperScaleWarm,
        WorkloadKind::FftPhase,
        WorkloadKind::PaperScaleScreen,
    ];

    /// Look a workload up by its benchmark name.
    pub fn parse(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::PaperScale => "paper_scale",
            WorkloadKind::PaperScaleWarm => "paper_scale_warm",
            WorkloadKind::FftPhase => "fft_phase",
            WorkloadKind::PaperScaleScreen => "paper_scale_screen",
        }
    }

    /// The workload's scenario, derived from `base` (the checked-in
    /// paper_scale scenario).
    pub fn scenario(self, base: &Scenario) -> Scenario {
        let mut sc = base.clone();
        match self {
            WorkloadKind::PaperScale => {}
            WorkloadKind::PaperScaleWarm => sc.runner.threads = WARM_THREADS,
            WorkloadKind::FftPhase => {
                sc.workload.name = "fft".to_string();
                sc.workload.size = 256;
                sc.oracle.mode = OracleMode::Phase;
            }
            WorkloadKind::PaperScaleScreen => sc.screen.enabled = true,
        }
        sc
    }

    /// Whether the sweep runs against a pre-warmed evaluation cache.
    pub fn warm_cache(self) -> bool {
        self == WorkloadKind::PaperScaleWarm
    }

    /// Distinct workload inputs one run cycles through: 4 traces for
    /// the fluidanimate workloads, whose generator is seeded and whose
    /// sweep cost varies with the generated trace, so a run's median
    /// does not follow a single trace; 1 for fft, which has no seeded
    /// input.
    pub fn inputs_per_run(self) -> usize {
        match self {
            WorkloadKind::FftPhase => 1,
            _ => 4,
        }
    }
}

/// The workload seeds of one input. Input offset 0 reproduces the
/// checked-in values; offset `o` shifts the fluidanimate generator and
/// screening committee seeds by `o`. The phase k-means seed always stays
/// at the scenario's value: it moves fft_phase's simulated share of the
/// trace between 109% and 131%, and with it the work per evaluation, so
/// varying it would measure a different amount of work on every seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds {
    /// fluidanimate particle generator (`FluidAnimate::new`).
    pub fluid: u64,
    /// Screening committee (`screen.seed`).
    pub screen: u64,
}

impl Seeds {
    /// The seeds of input offset `o` over the scenario's defaults.
    pub fn for_offset(base: &Scenario, o: u64) -> Seeds {
        Seeds {
            fluid: DEFAULT_FLUID_SEED.wrapping_add(o),
            screen: base.screen.seed.wrapping_add(o),
        }
    }
}

/// Injected mismatches that prove the run's checks are live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Flip one byte of the second repetition's journal before it is
    /// compared with the first's.
    CorruptJournal,
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: WorkloadKind,
    /// Benchmark seed: run `n` measures the inputs at offsets
    /// `n·k .. n·k + k`, `k` = [`WorkloadKind::inputs_per_run`] (see
    /// [`Seeds`]).
    pub seed: u64,
    /// Measurement time in seconds.
    pub seconds: f64,
    /// Report the per-layer metrics of a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// The scenario every workload is derived from.
    pub base: Scenario,
    /// Scratch directory for journals, caches and scenario files.
    pub work_dir: PathBuf,
    /// The `c2bound-tool` binary for the production-path check; `None`
    /// skips the check.
    pub cli: Option<PathBuf>,
    /// Injected mismatch, for testing the checks.
    pub fault: Option<Fault>,
    /// This benchmark's binary, re-run as a fresh process to measure
    /// the peak memory of one design run (see [`rss_probe`]).
    pub probe_exe: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one invocation.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Sweep jobs attempted across the measured repetitions.
    pub attempted: u64,
    /// Of those, jobs that ended skipped, backfilled or quarantined.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Measured repetitions (untraced and traced).
    pub reps: usize,
    /// Sharded-engine threads of the measured sweep (0 = legacy pool).
    pub threads: usize,
    /// Legacy-pool workers of the measured sweep.
    pub workers: usize,
    /// Sweep seconds of every measured repetition, in order.
    pub sweep_samples: Vec<f64>,
    /// Set-up seconds behind `setup_s`, in order (empty when traced).
    pub setup_samples: Vec<f64>,
    /// The workload seeds of every input the run measured.
    pub seeds: Vec<Seeds>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its value and unit.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON (non-finite values cannot be written; they
/// are reported as 0 and would already have failed a check).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Set-up timings of one repetition, in seconds.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    generate: f64,
    characterize: f64,
    model_build: f64,
    detect: f64,
}

/// Everything the sweep needs: the trace, the APS model and, in phase
/// mode, the phase oracle.
struct Setup {
    trace: WorkloadTrace,
    aps: Aps,
    phase: Option<PhaseOracle>,
    times: SetupTimes,
}

/// The fluidanimate generator `workload_from_spec` builds for `sc`
/// (12-cell grid edge, one step), with the particle seed `fluid_seed`.
/// [`fluid_copy_failures`] checks that the two agree at the default seed.
fn fluid_copy(sc: &Scenario, fluid_seed: u64) -> Result<FluidAnimate> {
    let size = usize::try_from(sc.workload.size).map_err(|e| format!("workload size: {e}"))?;
    Ok(FluidAnimate::new(size.max(100), 12, 1, fluid_seed))
}

fn workload_from_spec(sc: &Scenario) -> Result<Box<dyn Workload>> {
    c2_workloads::workload_from_spec(&sc.workload)
        .ok_or_else(|| format!("unknown workload {:?}", sc.workload.name))
}

/// The workload generator for `sc` at fluidanimate seed `fluid_seed`.
fn make_workload(sc: &Scenario, fluid_seed: u64) -> Result<Box<dyn Workload>> {
    if sc.workload.name == "fluidanimate" && fluid_seed != DEFAULT_FLUID_SEED {
        return Ok(Box::new(fluid_copy(sc, fluid_seed)?));
    }
    workload_from_spec(sc)
}

/// Check that [`fluid_copy`] at the default seed is the generator
/// `workload_from_spec` builds (same name, complexity and trace), so the
/// measured fluidanimate inputs differ from the production one only in
/// their seed. Returns failure lines; none for other workloads.
fn fluid_copy_failures(sc: &Scenario) -> Result<Vec<String>> {
    if sc.workload.name != "fluidanimate" {
        return Ok(Vec::new());
    }
    let spec = workload_from_spec(sc)?;
    let copy = fluid_copy(sc, DEFAULT_FLUID_SEED)?;
    let same = spec.name() == copy.name()
        && spec.complexity() == copy.complexity()
        && spec.generate() == copy.generate();
    Ok(if same {
        Vec::new()
    } else {
        vec!["seeded fluidanimate generator differs from workload_from_spec's".to_string()]
    })
}

/// Generate, characterize and build the model, timing each step.
fn setup(sc: &Scenario, fluid_seed: u64) -> Result<Setup> {
    let w = make_workload(sc, fluid_seed)?;
    let chip = ChipConfig::from_spec(&sc.chip).map_err(|e| format!("chip: {e}"))?;
    let t0 = Instant::now();
    let trace = w.generate();
    let t1 = Instant::now();
    let ch = characterize(&trace, &chip).map_err(|e| format!("characterize: {e}"))?;
    let t2 = Instant::now();
    let g = scale_function(sc, w.as_ref());
    let aps = aps_from_scenario(sc, &ch, &chip, g).map_err(|e| format!("model: {e}"))?;
    let t3 = Instant::now();
    let phase = match sc.oracle.mode {
        OracleMode::Full => None,
        OracleMode::Phase => {
            let config = c2_trace::PhaseConfig {
                interval_len: sc.oracle.phase.interval_len as usize,
                clusters: sc.oracle.phase.clusters as usize,
                seed: sc.oracle.phase.seed,
                ..c2_trace::PhaseConfig::default()
            };
            let plan = PhasePlan::detect(&trace, &config).map_err(|e| format!("phase: {e}"))?;
            Some(PhaseOracle::new(plan, aps.model.area, aps.model.budget))
        }
    };
    let t4 = Instant::now();
    Ok(Setup {
        trace,
        aps,
        phase,
        times: SetupTimes {
            generate: (t1 - t0).as_secs_f64(),
            characterize: (t2 - t1).as_secs_f64(),
            model_build: (t3 - t2).as_secs_f64(),
            detect: (t4 - t3).as_secs_f64(),
        },
    })
}

/// The oracle `c2bound-tool run` prices with.
#[derive(Clone)]
enum Pricer<'a> {
    Full {
        trace: &'a WorkloadTrace,
        area: &'a AreaModel,
        budget: &'a SiliconBudget,
    },
    Phase(&'a PhaseOracle),
}

/// One oracle call's wall-clock interval.
#[derive(Debug, Clone, Copy)]
struct Span {
    start: Instant,
    end: Instant,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// The pricer, recording a span per call when a log is attached.
struct Spanned<'a> {
    pricer: Pricer<'a>,
    log: Option<&'a Mutex<Vec<Span>>>,
}

impl Oracle for Spanned<'_> {
    fn evaluate(&mut self, _key: u64, p: &DesignPoint) -> c2_bound::Result<f64> {
        let start = self.log.map(|_| Instant::now());
        let result = match &self.pricer {
            Pricer::Full {
                trace,
                area,
                budget,
            } => simulate_point(p, trace, area, budget)
                .map_err(|e| c2_bound::Error::Simulation(e.to_string())),
            Pricer::Phase(oracle) => oracle.price(p),
        };
        if let (Some(log), Some(start)) = (self.log, start) {
            let end = Instant::now();
            log.lock()
                .expect("span log poisoned by a panicking oracle")
                .push(Span { start, end });
        }
        result
    }
}

/// One sweep's results and timings.
struct SweepOut {
    summary: RunSummary,
    screen: Option<ScreenReport>,
    wall: f64,
    spans: Vec<Span>,
}

/// The runner configuration `c2bound-tool run --scenario` builds:
/// the scenario's runner section, the cache path, then the scenario
/// fingerprint bound into the journal.
fn run_config(sc: &Scenario, cache: Option<PathBuf>) -> Result<RunConfig> {
    let mut config = RunConfig::from_spec(&sc.runner).map_err(|e| format!("runner: {e}"))?;
    config.cache_path = cache;
    Ok(config.with_scenario(sc.fingerprint()))
}

/// Run the supervised sweep into `journal` (removed first).
fn sweep(
    sc: &Scenario,
    setup: &Setup,
    config: &RunConfig,
    journal: &Path,
    traced: bool,
) -> Result<SweepOut> {
    remove_if_present(journal)?;
    let log = Mutex::new(Vec::new());
    let log_ref = traced.then_some(&log);
    let area = setup.aps.model.area;
    let budget = setup.aps.model.budget;
    let pricer = match &setup.phase {
        None => Pricer::Full {
            trace: &setup.trace,
            area: &area,
            budget: &budget,
        },
        Some(oracle) => Pricer::Phase(oracle),
    };
    let make_oracle = || Spanned {
        pricer: pricer.clone(),
        log: log_ref,
    };
    let recorder = c2_obs::Recorder::new();
    let start = Instant::now();
    let runner = SweepRunner::new(config.clone()).map_err(|e| format!("runner: {e}"))?;
    let (summary, screen) = if sc.screen.enabled {
        let screen_cfg = ScreenConfig::from_scenario(sc).map_err(|e| format!("screen: {e}"))?;
        let (summary, report) = runner
            .run_screened(
                &setup.aps,
                &screen_cfg,
                make_oracle,
                Some(journal),
                false,
                &recorder,
                &c2_obs::NullSink,
            )
            .map_err(|e| format!("screened sweep: {e}"))?;
        (summary, Some(report))
    } else {
        let summary = runner
            .run_aps_observed(&setup.aps, make_oracle, Some(journal), false, &recorder)
            .map_err(|e| format!("sweep: {e}"))?;
        (summary, None)
    };
    let wall = start.elapsed().as_secs_f64();
    let spans = log.into_inner().expect("span log poisoned");
    Ok(SweepOut {
        summary,
        screen,
        wall,
        spans,
    })
}

fn remove_if_present(path: &Path) -> Result<()> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot remove {}: {e}", path.display())),
    }
}

/// The `chosen:` line `c2bound-tool run` prints for a CPU design.
fn chosen_line(p: &DesignPoint) -> String {
    format!(
        "chosen: N = {}, A0 = {} mm2, L1 = {} mm2, L2 = {} mm2, issue = {}, ROB = {}",
        p.n,
        fmt_num(p.a0),
        fmt_num(p.a1),
        fmt_num(p.a2),
        p.issue_width,
        p.rob_size
    )
}

/// A journal in comparable form. The sharded engine and the screening
/// loop write records in `seq` order; the legacy pool appends them in
/// completion order, so for it the records (after the header) are
/// compared as a sorted set of lines.
pub fn canonical_journal(bytes: &[u8], ordered: bool) -> Vec<u8> {
    if ordered {
        return bytes.to_vec();
    }
    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    if lines.len() > 1 {
        lines[1..].sort_unstable();
    }
    lines.join(&b'\n')
}

/// Whether the sweep writes its journal in `seq` order.
fn journal_ordered(sc: &Scenario, config: &RunConfig) -> bool {
    config.threads > 0 || sc.screen.enabled
}

/// Check one finished sweep's ledger; returns failure lines.
fn ledger_failures(out: &SweepOut, what: &str) -> Vec<String> {
    let r = &out.summary.report;
    let mut failures = Vec::new();
    if !r.completed {
        failures.push(format!("{what}: run did not complete"));
    }
    if !r.consistent() {
        failures.push(format!(
            "{what}: inconsistent ledger: {} attempted != {} succeeded + {} skipped + {} backfilled",
            r.attempted, r.succeeded, r.skipped, r.backfilled
        ));
    }
    if out.summary.outcome.is_none() {
        failures.push(format!("{what}: no assembled outcome"));
    }
    failures
}

/// Run `c2bound-tool run --scenario` and return its stdout.
fn run_cli(cli: &Path, scenario: &Path, journal: &Path, cache: Option<&Path>) -> Result<String> {
    let mut cmd = Command::new(cli);
    cmd.arg("run")
        .arg("--scenario")
        .arg(scenario)
        .arg("--journal")
        .arg(journal);
    if let Some(cache) = cache {
        cmd.arg("--cache").arg(cache);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", cli.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{} run failed ({}): {}",
            cli.display(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// `c2bound-tool run --scenario` on `sc`: its journal and its `chosen:`
/// line. On the warm workload a first run warms the cache.
fn cli_reference(
    kind: WorkloadKind,
    sc: &Scenario,
    cli: &Path,
    dir: &Path,
) -> Result<(Vec<u8>, String)> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let scenario_path = dir.join("scenario.json");
    std::fs::write(&scenario_path, sc.render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", scenario_path.display()))?;
    let cache = kind.warm_cache().then(|| dir.join("cli-cache.jsonl"));
    if let Some(cache) = &cache {
        run_cli(
            cli,
            &scenario_path,
            &dir.join("cli-prime.jsonl"),
            Some(cache),
        )?;
    }
    let journal = dir.join("cli.jsonl");
    let stdout = run_cli(cli, &scenario_path, &journal, cache.as_deref())?;
    let chosen = stdout
        .lines()
        .find(|l| l.starts_with("chosen: "))
        .ok_or("c2bound-tool printed no chosen design")?
        .to_string();
    let bytes =
        std::fs::read(&journal).map_err(|e| format!("cannot read {}: {e}", journal.display()))?;
    Ok((bytes, chosen))
}

/// The benchmark's own run of the default input `sc` (canonical journal
/// and chosen design), for the production-path check when no measured
/// input is the default one.
fn bench_reference(
    kind: WorkloadKind,
    sc: &Scenario,
    dir: &Path,
    failures: &mut Vec<String>,
) -> Result<(Vec<u8>, DesignPoint)> {
    let cache = kind.warm_cache().then(|| dir.join("drv-cache.jsonl"));
    let config = run_config(sc, cache)?;
    let s = setup(sc, DEFAULT_FLUID_SEED)?;
    if kind.warm_cache() {
        sweep(sc, &s, &config, &dir.join("drv-prime.jsonl"), false)?;
    }
    let journal = dir.join("drv.jsonl");
    let out = sweep(sc, &s, &config, &journal, false)?;
    failures.extend(ledger_failures(&out, "production check"));
    let bytes =
        std::fs::read(&journal).map_err(|e| format!("cannot read {}: {e}", journal.display()))?;
    let chosen = out
        .summary
        .outcome
        .ok_or("production check: no chosen design")?
        .chosen;
    Ok((
        canonical_journal(&bytes, journal_ordered(sc, &config)),
        chosen,
    ))
}

/// Median of a sample (0 for an empty one).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linear-interpolated percentile `q` in `[0, 1]` (0 for an empty
/// sample).
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Total length of the union of spans (time at least one oracle call
/// was running).
fn union_secs(spans: &[Span]) -> f64 {
    let mut sorted = spans.to_vec();
    sorted.sort_by_key(|s| s.start);
    let mut total = 0.0;
    let mut current: Option<Span> = None;
    for s in sorted {
        match &mut current {
            Some(c) if s.start <= c.end => {
                if s.end > c.end {
                    c.end = s.end;
                }
            }
            _ => {
                if let Some(c) = current {
                    total += c.secs();
                }
                current = Some(s);
            }
        }
    }
    total + current.map_or(0.0, |c| c.secs())
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One design run (set-up and sweep) of the scenario in `scenario`,
/// in this process; the caller reads the peak RSS afterwards. This is
/// the body of the fresh process [`probe_peak_rss`] starts: the peak of
/// a process that ran many repetitions depends on how the allocator
/// reused memory across them, not only on one design run.
pub fn rss_probe(
    scenario: &Path,
    fluid_seed: u64,
    cache: Option<PathBuf>,
    journal: &Path,
) -> Result<()> {
    let text = std::fs::read_to_string(scenario)
        .map_err(|e| format!("cannot read {}: {e}", scenario.display()))?;
    let sc = Scenario::from_json(&text).map_err(|e| format!("{}: {e}", scenario.display()))?;
    let config = run_config(&sc, cache)?;
    let s = setup(&sc, fluid_seed)?;
    let out = sweep(&sc, &s, &config, journal, false)?;
    match ledger_failures(&out, "memory probe").first() {
        Some(f) => Err(f.clone()),
        None => Ok(()),
    }
}

/// Peak RSS in MB of one design run of `sc` in a fresh process.
fn probe_peak_rss(
    exe: &Path,
    sc: &Scenario,
    fluid_seed: u64,
    cache: Option<&Path>,
    dir: &Path,
) -> Result<f64> {
    let scenario = dir.join("probe-scenario.json");
    std::fs::write(&scenario, sc.render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", scenario.display()))?;
    let mut cmd = Command::new(exe);
    // glibc raises its mmap threshold each time a large block is freed,
    // after which whether freed simulator state stays resident depends
    // on thread timing (fresh processes of one run read 72 or 94 MB).
    // Pinning the threshold at glibc's default of 128 KiB keeps large
    // blocks out of the heap so the peak follows live memory.
    cmd.env("MALLOC_MMAP_THRESHOLD_", "131072")
        .arg("--rss-probe")
        .arg(&scenario)
        .arg("--fluid-seed")
        .arg(fluid_seed.to_string())
        .arg("--journal")
        .arg(dir.join("probe.jsonl"));
    if let Some(cache) = cache {
        cmd.arg("--cache").arg(cache);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "memory probe failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("peak_rss_mb: "))
        .and_then(|v| v.trim().parse().ok())
        .ok_or_else(|| format!("memory probe printed no peak: {stdout:?}"))
}

/// One measured repetition.
struct Rep {
    input: usize,
    traced: bool,
    setup: SetupTimes,
    setup_s: f64,
    sweep_s: f64,
    design_s: f64,
    out: SweepOut,
}

/// Per-point split of the simulator's cost, from calls off the timed
/// path. All zero when the sweep simulated nothing.
#[derive(Debug, Default)]
struct SimSplit {
    split_s: f64,
    engine_s: f64,
    cycles: u64,
    core_cycles: f64,
    instructions: u64,
}

/// Redo the simulator work of every point the sweep's oracle priced.
///
/// Full mode re-runs `per_core_traces` and `Simulator::run` on the whole
/// trace. Phase mode times `PhaseOracle::estimate` as the engine figure:
/// its window slices are private, so the trace split and the simulated
/// cycles cannot be read apart and those figures read 0. A sweep served
/// from the evaluation cache simulated nothing and reads 0 throughout.
fn sim_split(setup: &Setup, summary: &RunSummary) -> Result<SimSplit> {
    let mut split = SimSplit::default();
    let hits = summary.report.cache_hits;
    if hits >= summary.results.len() {
        return Ok(split);
    }
    if hits > 0 {
        // Which results came from the cache is not recorded, so a
        // partly cached sweep cannot be split.
        return Err(format!(
            "simulator split: {hits} of {} results were cache hits",
            summary.results.len()
        ));
    }
    let area = setup.aps.model.area;
    let budget = setup.aps.model.budget;
    for (seq, _) in &summary.results {
        let point = summary
            .plan
            .jobs
            .get(*seq)
            .ok_or_else(|| format!("result for unknown job {seq}"))?
            .point;
        if let Some(oracle) = &setup.phase {
            let t0 = Instant::now();
            std::hint::black_box(
                oracle
                    .estimate(&point)
                    .map_err(|e| format!("estimate: {e}"))?,
            );
            split.engine_s += t0.elapsed().as_secs_f64();
            continue;
        }
        let config = chip_config_for(&point, &area, &budget).map_err(|e| format!("chip: {e}"))?;
        let t0 = Instant::now();
        let traces = setup.trace.per_core_traces(point.n);
        let t1 = Instant::now();
        let result = Simulator::new(config)
            .run(&traces)
            .map_err(|e| format!("simulate: {e}"))?;
        let t2 = Instant::now();
        split.split_s += (t1 - t0).as_secs_f64();
        split.engine_s += (t2 - t1).as_secs_f64();
        split.cycles += result.total_cycles;
        split.core_cycles += result.total_cycles as f64 * point.n as f64;
        split.instructions += result.total_instructions();
    }
    Ok(split)
}

/// Median over repetitions of a per-repetition quantity.
fn med_of<'a>(reps: impl Iterator<Item = &'a Rep>, f: impl Fn(&Rep) -> f64) -> f64 {
    let v: Vec<f64> = reps.map(f).collect();
    median(&v)
}

/// One workload input of a run: its seeds, scenario and runner
/// configuration, and the first repetition's journal and choice that
/// later repetitions must reproduce.
struct Input {
    seeds: Seeds,
    sc: Scenario,
    config: RunConfig,
    first: Option<(Vec<u8>, DesignPoint)>,
}

impl Input {
    fn setup(&self) -> Result<Setup> {
        setup(&self.sc, self.seeds.fluid)
    }
}

/// Run one benchmark invocation.
pub fn run(opts: &Options) -> Result<Outcome> {
    let kind = opts.workload;
    let default_sc = kind.scenario(&opts.base);
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.work_dir.display()))?;

    let mut failures = fluid_copy_failures(&default_sc)?;
    let production_dir = opts.work_dir.join("production");
    let cli_ref = match &opts.cli {
        Some(cli) => Some(cli_reference(kind, &default_sc, cli, &production_dir)?),
        None => None,
    };

    let k = kind.inputs_per_run();
    let mut inputs = Vec::with_capacity(k);
    for j in 0..k {
        let offset = opts.seed.wrapping_mul(k as u64).wrapping_add(j as u64);
        let seeds = Seeds::for_offset(&opts.base, offset);
        let mut sc = default_sc.clone();
        sc.screen.seed = seeds.screen;
        // The cache is bound to the scenario, not to the generator seed,
        // so every input warms a cache of its own.
        let cache = kind
            .warm_cache()
            .then(|| opts.work_dir.join(format!("cache-{j}.jsonl")));
        let config = run_config(&sc, cache)?;
        let input = Input {
            seeds,
            sc,
            config,
            first: None,
        };
        if kind.warm_cache() {
            let s = input.setup()?;
            let prime = sweep(
                &input.sc,
                &s,
                &input.config,
                &opts.work_dir.join("prime.jsonl"),
                false,
            )?;
            failures.extend(ledger_failures(&prime, &format!("cache warm-up {j}")));
        }
        inputs.push(input);
    }

    // Measured repetitions cycle through the inputs in rounds. A traced
    // run alternates untraced and traced rounds so both see the same
    // inputs and machine conditions.
    let min_rounds = MIN_REPS.div_ceil(k).max(2) * if opts.trace { 2 } else { 1 };
    let journal = opts.work_dir.join("journal.jsonl");
    let mut reps: Vec<Rep> = Vec::new();
    let mut extra_setups: Vec<f64> = Vec::new();
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(opts.seconds);
    loop {
        let j = reps.len() % k;
        let round = reps.len() / k;
        let traced = opts.trace && round % 2 == 1;
        let input = &mut inputs[j];
        let t0 = Instant::now();
        let s = input.setup()?;
        let t1 = Instant::now();
        let out = sweep(&input.sc, &s, &input.config, &journal, traced)?;
        let t2 = Instant::now();

        let what = format!("repetition {} (input {j})", reps.len());
        failures.extend(ledger_failures(&out, &what));
        if opts.fault == Some(Fault::CorruptJournal) && round == 1 {
            let mut bytes = std::fs::read(&journal).map_err(|e| e.to_string())?;
            if let Some(b) = bytes.last_mut() {
                *b ^= 0x20;
            }
            std::fs::write(&journal, bytes).map_err(|e| e.to_string())?;
        }
        let bytes = std::fs::read(&journal)
            .map_err(|e| format!("cannot read {}: {e}", journal.display()))?;
        let bytes = canonical_journal(&bytes, journal_ordered(&input.sc, &input.config));
        if let Some(outcome) = &out.summary.outcome {
            match &input.first {
                None => input.first = Some((bytes, outcome.chosen)),
                Some((first_journal, chosen)) => {
                    if *first_journal != bytes {
                        failures.push(format!("{what}: journal differs from the input's first"));
                    }
                    if *chosen != outcome.chosen {
                        failures.push(format!(
                            "{what}: chose {:?}, the input's first repetition chose {:?}",
                            chosen_line(&outcome.chosen),
                            chosen_line(chosen)
                        ));
                    }
                }
            }
        }
        reps.push(Rep {
            input: j,
            traced,
            setup: s.times,
            setup_s: (t1 - t0).as_secs_f64(),
            sweep_s: (t2 - t1).as_secs_f64(),
            design_s: (t2 - t0).as_secs_f64(),
            out,
        });
        if !opts.trace {
            for _ in 0..SETUP_SAMPLES_PER_REP {
                let t0 = Instant::now();
                std::hint::black_box(inputs[j].setup()?);
                extra_setups.push(t0.elapsed().as_secs_f64());
            }
        }
        if reps.len().is_multiple_of(k)
            && reps.len() / k >= min_rounds
            && Instant::now() >= deadline
        {
            break;
        }
    }

    // Production-path check: the default input's journal and choice
    // must match `c2bound-tool run`'s. The first measured input is the
    // default one when its scenario and its trace are the checked-in
    // ones; otherwise the benchmark runs the default input once more.
    if let Some((cli_journal, cli_chosen)) = &cli_ref {
        let first = &inputs[0];
        let is_default = first.sc.fingerprint() == default_sc.fingerprint()
            && (default_sc.workload.name != "fluidanimate"
                || first.seeds.fluid == DEFAULT_FLUID_SEED);
        let (journal, chosen) = match (&first.first, is_default) {
            (Some(reference), true) => reference.clone(),
            _ => bench_reference(kind, &default_sc, &production_dir, &mut failures)?,
        };
        if canonical_journal(cli_journal, journal_ordered(&first.sc, &first.config)) != journal {
            failures.push("production check: journal differs from c2bound-tool's".to_string());
        }
        if chosen_line(&chosen) != *cli_chosen {
            failures.push(format!(
                "production check: chose {:?}, c2bound-tool {cli_chosen:?}",
                chosen_line(&chosen)
            ));
        }
    }

    let attempted = reps
        .iter()
        .map(|r| r.out.summary.report.attempted as u64)
        .sum();
    let failed = reps
        .iter()
        .map(|r| {
            let x = &r.out.summary.report;
            (x.skipped + x.backfilled + x.quarantined) as u64
        })
        .sum();

    let mut setup_samples: Vec<f64> = Vec::new();
    let metrics = if opts.trace {
        layer_metrics(&inputs, &reps, &journal)?
    } else {
        setup_samples = reps.iter().map(|r| r.setup_s).collect();
        setup_samples.extend(extra_setups);
        // Each input's chosen design judged in exact simulated cycles,
        // off the timed path (phase and screened picks included).
        let mut chosen_cycles = Vec::with_capacity(k);
        for input in &inputs {
            let (_, chosen) = input.first.as_ref().ok_or("no chosen design")?;
            let s = input.setup()?;
            let (area, budget) = (s.aps.model.area, s.aps.model.budget);
            chosen_cycles.push(
                simulate_point(chosen, &s.trace, &area, &budget)
                    .map_err(|e| format!("re-pricing the chosen design: {e}"))?,
            );
        }
        let probe = &inputs[0];
        vec![
            metric("setup_s", median(&setup_samples), "s"),
            metric("sweep_s", med_of(reps.iter(), |r| r.sweep_s), "s"),
            metric("time_to_design_s", med_of(reps.iter(), |r| r.design_s), "s"),
            metric(
                "peak_rss_mb",
                probe_peak_rss(
                    &opts.probe_exe,
                    &probe.sc,
                    probe.seeds.fluid,
                    probe.config.cache_path.as_deref(),
                    &opts.work_dir,
                )?,
                "MB",
            ),
            metric("chosen_cycles", median(&chosen_cycles), "cycles"),
        ]
    };

    Ok(Outcome {
        correct: failures.is_empty(),
        attempted,
        failed,
        metrics,
        failures,
        reps: reps.len(),
        threads: inputs[0].config.threads,
        workers: inputs[0].config.workers,
        sweep_samples: reps.iter().map(|r| r.sweep_s).collect(),
        setup_samples,
        seeds: inputs.iter().map(|i| i.seeds).collect(),
    })
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The plan and results `Aps::assemble` folds. A screened sweep
/// evaluates a subset of the plan and assembles from that subset alone,
/// renumbered densely, as `run_screened` does.
fn assemble_inputs(summary: &RunSummary) -> (ApsPlan, Vec<(usize, PointOutcome)>) {
    if summary.results.len() == summary.plan.jobs.len() {
        return (summary.plan.clone(), summary.results.clone());
    }
    let plan = ApsPlan {
        analytic: summary.plan.analytic.clone(),
        skeleton: summary.plan.skeleton,
        jobs: summary
            .results
            .iter()
            .enumerate()
            .map(|(dense, (seq, _))| RefinementJob {
                seq: dense,
                index: summary.plan.jobs[*seq].index,
                point: summary.plan.jobs[*seq].point,
            })
            .collect(),
    };
    let results = summary
        .results
        .iter()
        .enumerate()
        .map(|(dense, (_, o))| (dense, o.clone()))
        .collect();
    (plan, results)
}

/// Timed calls repeated this many times; the median is reported.
const LAYER_CALL_REPS: usize = 3;

fn median_timed<T>(mut f: impl FnMut() -> Result<T>) -> Result<f64> {
    let mut v = Vec::with_capacity(LAYER_CALL_REPS);
    for _ in 0..LAYER_CALL_REPS {
        let t0 = Instant::now();
        std::hint::black_box(f()?);
        v.push(t0.elapsed().as_secs_f64());
    }
    Ok(median(&v))
}

/// The per-layer metrics of a traced run.
fn layer_metrics(inputs: &[Input], reps: &[Rep], journal: &Path) -> Result<Vec<Metric>> {
    let traced = || reps.iter().filter(|r| r.traced);
    let untraced_sweep = med_of(reps.iter().filter(|r| !r.traced), |r| r.sweep_s);
    let traced_sweep = med_of(traced(), |r| r.sweep_s);
    let last_rep = reps
        .iter()
        .rev()
        .find(|r| r.traced)
        .ok_or("no traced repetition")?;
    let last = &last_rep.out;
    let config = &inputs[last_rep.input].config;
    let s = &inputs[last_rep.input].setup()?;
    let summary = &last.summary;
    let outcome = summary.outcome.as_ref().ok_or("no outcome")?;
    let report = &summary.report;

    // Off the timed path: the analysis stage and the fold on their own.
    let plan_s = median_timed(|| s.aps.plan().map_err(|e| format!("plan: {e}")))?;
    let policy = config.resilience_policy();
    let (plan, results) = assemble_inputs(summary);
    let assemble_s = median_timed(|| {
        s.aps
            .assemble(&plan, &results, &policy)
            .map_err(|e| format!("assemble: {e}"))
    })?;
    let split = sim_split(s, summary)?;

    let parallelism = if config.threads > 0 {
        config.threads
    } else {
        config.workers.max(1)
    } as f64;
    let eval: Vec<f64> = traced()
        .flat_map(|r| r.out.spans.iter().map(Span::secs))
        .collect();
    let busy = med_of(traced(), |r| r.out.spans.iter().map(Span::secs).sum());
    let busy_frac = med_of(traced(), |r| {
        r.out.spans.iter().map(Span::secs).sum::<f64>() / (parallelism * r.out.wall)
    });
    let idle = med_of(traced(), |r| {
        parallelism * r.out.wall - r.out.spans.iter().map(Span::secs).sum::<f64>()
    });
    let outside_oracle = med_of(traced(), |r| r.out.wall - union_secs(&r.out.spans));
    let phase = s.phase.as_ref();
    let phase_prices: &[f64] = if phase.is_some() { &eval } else { &[] };
    let screen = last.screen.as_ref();
    let journal_bytes = std::fs::metadata(journal)
        .map_err(|e| format!("cannot stat {}: {e}", journal.display()))?
        .len();
    let accesses = s.trace.serial.accesses().len() + s.trace.parallel.accesses().len();

    Ok(vec![
        metric(
            "workloads.generate_s",
            med_of(reps.iter(), |r| r.setup.generate),
            "s",
        ),
        metric(
            "workloads.characterize_s",
            med_of(reps.iter(), |r| r.setup.characterize),
            "s",
        ),
        metric("workloads.trace_accesses", accesses as f64, "count"),
        metric(
            "core.model_build_s",
            med_of(reps.iter(), |r| r.setup.model_build),
            "s",
        ),
        metric("core.plan_s", plan_s, "s"),
        metric("core.assemble_s", assemble_s, "s"),
        metric("core.plan_jobs", summary.plan.jobs.len() as f64, "count"),
        metric(
            "core.model_error_pct",
            100.0 * outcome.prediction_error,
            "%",
        ),
        metric("sim.eval_s.p50", percentile(&eval, 0.5), "s"),
        metric("sim.eval_s.p90", percentile(&eval, 0.9), "s"),
        metric("sim.eval_samples", eval.len() as f64, "count"),
        metric("sim.busy_s", busy, "s"),
        metric("sim.split_s", split.split_s, "s"),
        metric("sim.engine_s", split.engine_s, "s"),
        metric("sim.cycles_simulated", split.cycles as f64, "count"),
        metric(
            "sim.minstr_per_s",
            ratio(split.instructions as f64 / 1e6, split.engine_s),
            "Minstr/s",
        ),
        metric(
            "sim.ns_per_core_cycle",
            ratio(split.engine_s * 1e9, split.core_cycles),
            "ns",
        ),
        metric(
            "phase.detect_s",
            med_of(reps.iter(), |r| r.setup.detect),
            "s",
        ),
        metric(
            "phase.simulated_frac",
            phase.map_or(1.0, |o| o.plan().simulated_fraction()),
            "ratio",
        ),
        metric("phase.price_s.p50", percentile(phase_prices, 0.5), "s"),
        metric("phase.price_s.p90", percentile(phase_prices, 0.9), "s"),
        metric(
            "runner.overhead_s",
            (outside_oracle - plan_s - assemble_s).max(0.0),
            "s",
        ),
        metric("runner.busy_frac", busy_frac, "ratio"),
        metric("runner.worker_idle_s", idle, "s"),
        metric("runner.cache_hits", report.cache_hits as f64, "count"),
        metric("runner.journal_bytes", journal_bytes as f64, "bytes"),
        metric("runner.retries", report.retried as f64, "count"),
        metric(
            "screen.surrogate_s",
            if screen.is_some() {
                outside_oracle
            } else {
                0.0
            },
            "s",
        ),
        metric(
            "screen.true_evals",
            screen.map_or(0.0, |r| r.true_evaluations as f64),
            "count",
        ),
        metric(
            "screen.rounds",
            screen.map_or(0.0, |r| r.rounds as f64),
            "count",
        ),
        metric(
            "screen.final_spread",
            screen.map_or(0.0, |r| r.final_spread),
            "ln-time",
        ),
        metric(
            "true_evals",
            report.oracle_calls.saturating_sub(report.cache_hits) as f64,
            "count",
        ),
        metric(
            "jobs_failed_frac",
            ratio(
                (report.skipped + report.backfilled + report.quarantined) as f64,
                report.attempted as f64,
            ),
            "ratio",
        ),
        metric(
            "trace.overhead_frac",
            ratio(traced_sweep - untraced_sweep, untraced_sweep),
            "ratio",
        ),
    ])
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
