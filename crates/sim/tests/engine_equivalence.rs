//! Bit-for-bit pin of the chip engine's observable output.
//!
//! Every field a [`SimResult`] exposes — each core's [`PerCoreStats`]
//! (f64s printed as their IEEE-754 bits), the three [`LayerStats`], the
//! DRAM row-hit rate, writebacks and prefetches — is rendered for a
//! matrix of workloads, core counts and core shapes, plus runs that
//! exercise the prefetcher, every simulator fault, zero NoC latencies
//! and one-entry DRAM queue and L2 MSHR file, and compared byte for byte
//! against `tests/golden/engine_equivalence.txt`.
//!
//! The golden was captured from the lock-step engine that stepped every
//! core every cycle; the five event-queue and retry runs at the end were
//! added later, captured from the heap-scheduled engine before the event
//! wheel replaced its heap. Any later change to how the engine schedules
//! its work must reproduce it exactly. Regenerate (only for an intended
//! change of simulated behaviour) with
//! `UPDATE_GOLDEN=1 cargo test -p c2-sim --test engine_equivalence`.

use std::fmt::Write as _;
use std::path::PathBuf;

use c2_config::WorkloadSpec;
use c2_sim::{
    AreaModel, ChipConfig, CycleWindow, DramSpike, FaultPlan, LayerStats, PerCoreStats,
    SiliconBudget, SimResult, Simulator,
};
use c2_trace::synthetic::{RandomGenerator, StridedGenerator, TraceGenerator};
use c2_trace::Trace;
use c2_workloads::{workload_from_spec, WorkloadTrace};

const GOLDEN: &str = "tests/golden/engine_equivalence.txt";

const CORE_COUNTS: [usize; 4] = [1, 8, 64, 512];
const SHAPES: [(usize, usize); 3] = [(1, 16), (4, 128), (16, 256)];

fn workload(name: &str, size: u64) -> WorkloadTrace {
    let spec = WorkloadSpec {
        name: name.into(),
        size,
    };
    workload_from_spec(&spec)
        .expect("known workload")
        .generate()
}

/// Override the core shape the way the DSE does for a design point:
/// the L1's MSHR file and ports follow the issue width.
fn shaped(mut config: ChipConfig, issue: usize, rob: usize) -> ChipConfig {
    config.core.issue_width = issue;
    config.core.rob_size = rob;
    config.l1.mshr_entries = (2 * issue).max(4);
    config.l1.ports = (issue / 2).max(1);
    config
}

fn fmt_layer(out: &mut String, name: &str, l: &LayerStats) {
    writeln!(
        out,
        "{name} accesses={} hits={} misses={} active={}",
        l.accesses, l.hits, l.misses, l.active_cycles
    )
    .unwrap();
}

fn fmt_core(out: &mut String, i: usize, c: &PerCoreStats) {
    let m = &c.camat;
    writeln!(
        out,
        "core {i} {} {} {} {} {} {} {} {} | {} {} {} {:x} {:x} {:x} {:x} {:x} {} {} {}",
        c.instructions,
        c.finished_at,
        c.accesses,
        c.l1_misses,
        c.rob_stalls,
        c.mem_stalls,
        c.mem_active_cycles,
        c.overlap_cycles,
        m.accesses,
        m.misses,
        m.pure_misses,
        m.hit_time.to_bits(),
        m.hit_concurrency.to_bits(),
        m.pure_miss_concurrency.to_bits(),
        m.avg_miss_penalty.to_bits(),
        m.pure_avg_miss_penalty.to_bits(),
        m.memory_active_cycles,
        m.hit_active_cycles,
        m.pure_miss_cycles,
    )
    .unwrap();
}

fn render(out: &mut String, label: &str, config: ChipConfig, traces: &[Trace]) {
    writeln!(out, "== {label}").unwrap();
    match Simulator::new(config).run(traces) {
        Ok(r) => fmt_result(out, &r),
        Err(e) => writeln!(out, "error {e:?}").unwrap(),
    }
}

fn fmt_result(out: &mut String, r: &SimResult) {
    writeln!(
        out,
        "total_cycles={} writebacks={} prefetches={} dram_row_hit_rate={:x}",
        r.total_cycles,
        r.writebacks,
        r.prefetches,
        r.dram_row_hit_rate.to_bits()
    )
    .unwrap();
    fmt_layer(out, "l1_layer", &r.l1_layer);
    fmt_layer(out, "l2_layer", &r.l2_layer);
    fmt_layer(out, "dram_layer", &r.dram_layer);
    for (i, c) in r.cores.iter().enumerate() {
        fmt_core(out, i, c);
    }
}

fn single_core(fault: FaultPlan, prefetch: bool) -> ChipConfig {
    let mut config = ChipConfig::default_single_core();
    config.fault = fault;
    config.l1.next_line_prefetch = prefetch;
    config
}

fn render_all() -> String {
    let mut out = String::from(
        "# core lines: index instructions finished_at accesses l1_misses rob_stalls \
         mem_stalls mem_active_cycles overlap_cycles | camat: accesses misses pure_misses \
         hit_time hit_concurrency pure_miss_concurrency avg_miss_penalty \
         pure_avg_miss_penalty (f64 bits, hex) memory_active_cycles hit_active_cycles \
         pure_miss_cycles\n",
    );

    // The workload x core-count x core-shape matrix on the default chip.
    for (name, size) in [("fluidanimate", 100), ("fft", 256)] {
        let w = workload(name, size);
        for n in CORE_COUNTS {
            let traces = w.per_core_traces(n);
            for (issue, rob) in SHAPES {
                let config = shaped(ChipConfig::default_multi_core(n), issue, rob);
                let label = format!("{name}/{size} n={n} issue={issue} rob={rob}");
                render(&mut out, &label, config, &traces);
            }
        }
    }

    // A paper_scale area-model point: N = 512 with a 64 MiB, 16-way L2.
    let fluid = workload("fluidanimate", 100);
    let budget = SiliconBudget::new(400.0, 40.0).unwrap();
    let area = AreaModel::default();
    let config = area.chip_config(&budget, 512, 0.5, 0.05, 0.1).unwrap();
    assert_eq!(
        config.l2.size_bytes,
        64 << 20,
        "the point must pin a 64 MiB L2"
    );
    let config = shaped(config, 4, 128);
    render(
        &mut out,
        "area-model fluidanimate/100 n=512 a0=0.5 a1=0.05 a2=0.1 issue=4 rob=128",
        config,
        &fluid.per_core_traces(512),
    );

    // Multi-core runs with the prefetcher and an MSHR-starvation window.
    let mut config = shaped(ChipConfig::default_multi_core(8), 4, 128);
    config.l1.next_line_prefetch = true;
    render(
        &mut out,
        "fluidanimate/100 n=8 issue=4 rob=128 next_line_prefetch",
        config,
        &fluid.per_core_traces(8),
    );
    let mut config = shaped(ChipConfig::default_multi_core(64), 4, 128);
    config.fault.mshr_starvation = Some(CycleWindow::new(200, 2_000));
    render(
        &mut out,
        "fluidanimate/100 n=64 issue=4 rob=128 mshr_starvation=200..2000",
        config,
        &fluid.per_core_traces(64),
    );

    // Tiny caches: L1 and L2 evictions, dirty victims and writebacks.
    let mut config = shaped(ChipConfig::default_multi_core(8), 4, 128);
    config.l1.size_bytes = 4 * 1024;
    config.l2.size_bytes = 64 * 1024;
    let mixed: Vec<Trace> = (0..8)
        .map(|i| {
            RandomGenerator::new(i << 20, 1 << 20, 800, i)
                .write_fraction(0.5)
                .generate()
        })
        .collect();
    render(
        &mut out,
        "random 50% writes n=8 issue=4 rob=128 l1=4KiB l2=64KiB",
        config,
        &mixed,
    );
    let writes = RandomGenerator::new(0, 8 << 20, 3000, 9)
        .write_fraction(1.0)
        .generate();
    let mut config = single_core(FaultPlan::default(), false);
    config.l2.size_bytes = 64 * 1024;
    render(
        &mut out,
        "single random writes l2=64KiB",
        config,
        std::slice::from_ref(&writes),
    );

    // Single-core runs: prefetcher and each simulator fault.
    let random = RandomGenerator::new(0, 1 << 20, 3000, 42).generate();
    let stream = StridedGenerator::new(0, 64, 3000)
        .compute_per_access(1)
        .generate();
    render(
        &mut out,
        "single random next_line_prefetch",
        single_core(FaultPlan::default(), true),
        std::slice::from_ref(&random),
    );
    render(
        &mut out,
        "single stream next_line_prefetch",
        single_core(FaultPlan::default(), true),
        std::slice::from_ref(&stream),
    );
    let spike = FaultPlan {
        dram_spike: Some(DramSpike {
            window: CycleWindow::new(100, 5_000),
            extra: 77,
        }),
        ..FaultPlan::default()
    };
    render(
        &mut out,
        "single random dram_spike=100..5000+77",
        single_core(spike, false),
        std::slice::from_ref(&random),
    );
    let starve = FaultPlan {
        mshr_starvation: Some(CycleWindow::new(2_000, 4_000)),
        ..FaultPlan::default()
    };
    render(
        &mut out,
        "single random mshr_starvation=2000..4000",
        single_core(starve, false),
        std::slice::from_ref(&random),
    );
    let fail = FaultPlan {
        fail_at_request: Some(100),
        ..FaultPlan::default()
    };
    render(
        &mut out,
        "single random fail_at_request=100",
        single_core(fail, false),
        std::slice::from_ref(&random),
    );

    // Event-queue and retry-list edge paths. Zero NoC latencies schedule
    // events for the cycle whose events are being processed (an L1 miss
    // sends its NoC hop, a prefetch its L2 request, an L2 hit its fill,
    // all due the same cycle).
    let mut config = shaped(ChipConfig::default_multi_core(8), 4, 128);
    config.noc.l1_l2_latency = 0;
    config.noc.l2_mem_latency = 0;
    config.l1.next_line_prefetch = true;
    render(
        &mut out,
        "fluidanimate/100 n=8 issue=4 rob=128 noc=0/0 next_line_prefetch",
        config,
        &fluid.per_core_traces(8),
    );
    let mut config = single_core(FaultPlan::default(), false);
    config.noc.l1_l2_latency = 0;
    config.noc.l2_mem_latency = 0;
    render(
        &mut out,
        "single random noc=0/0",
        config,
        std::slice::from_ref(&random),
    );
    // A one-entry DRAM queue: misses wait on the per-cycle DRAM retry.
    let mut config = shaped(ChipConfig::default_multi_core(8), 4, 128);
    config.dram.queue_depth = 1;
    render(
        &mut out,
        "fluidanimate/100 n=8 issue=4 rob=128 dram.queue_depth=1",
        config,
        &fluid.per_core_traces(8),
    );
    // A one-entry L2 MSHR file: misses wait on the L2 retry list.
    let mut config = shaped(ChipConfig::default_multi_core(8), 4, 128);
    config.l2.mshr_entries = 1;
    render(
        &mut out,
        "fluidanimate/100 n=8 issue=4 rob=128 l2.mshr_entries=1",
        config,
        &fluid.per_core_traces(8),
    );
    // Write-heavy traces under the prefetcher on small caches: dirty
    // fills, prefetch merges and writebacks on eight cores.
    let mut config = shaped(ChipConfig::default_multi_core(8), 4, 128);
    config.l1.size_bytes = 4 * 1024;
    config.l2.size_bytes = 128 * 1024;
    config.l1.next_line_prefetch = true;
    let write_heavy: Vec<Trace> = (0..8)
        .map(|i| {
            StridedGenerator::new(i << 20, 16, 2000)
                .compute_per_access(4)
                .write_every(1)
                .generate()
        })
        .collect();
    render(
        &mut out,
        "stream all writes n=8 issue=4 rob=128 l1=4KiB l2=128KiB next_line_prefetch",
        config,
        &write_heavy,
    );
    out
}

#[test]
fn engine_output_is_bit_identical_to_the_lock_step_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let actual = render_all();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    if let Some((n, (want, got))) = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
    {
        // Name the run the first differing line belongs to.
        let run = expected
            .lines()
            .take(n + 1)
            .filter(|l| l.starts_with("== "))
            .last()
            .unwrap_or("(header)");
        panic!(
            "engine output drifted at {GOLDEN}:{} in run `{run}`\n  golden: {want}\n  actual: {got}",
            n + 1
        );
    }
    assert_eq!(
        expected.len(),
        actual.len(),
        "engine output drifted: {GOLDEN} and the run differ in length"
    );
}
