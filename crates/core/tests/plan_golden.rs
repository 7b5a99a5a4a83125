//! Bit-for-bit pin of the analytic plan (APS analysis stage, Fig 6).
//!
//! For twenty scenarios — `paper_scale.json` and `quick.json` over all
//! five workloads, the Amdahl / memory-wall / USL laws on fluidanimate
//! and fft, and `g_exponent` 0.5 / 0.8 on fluidanimate and spmv — the
//! plan's optimization case, the ladder rung that solved the final area
//! split, the snapped skeleton and the IEEE-754 bits of the continuous
//! optimum (`n`, `a0`, `a1`, `a2`, execution time) are rendered and
//! compared byte for byte against `tests/golden/plan_golden.txt`.
//!
//! A change to how the plan is solved must reproduce it exactly.
//! Regenerate (only for an intended change of the chosen design) with
//! `UPDATE_GOLDEN=1 cargo test -p c2-bound --test plan_golden`.

use std::fmt::Write as _;
use std::path::PathBuf;

use c2_bound::{aps_from_scenario, scale_function, ApsPlan};
use c2_config::{LawKind, Scenario};
use c2_sim::ChipConfig;
use c2_workloads::{characterize, workload_from_spec, Characterization, Workload};

const GOLDEN: &str = "tests/golden/plan_golden.txt";

const WORKLOADS: [&str; 5] = ["tmm", "spmv", "stencil", "fft", "fluidanimate"];

fn scenario(file: &str) -> Scenario {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/scenarios")
        .join(file);
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    Scenario::from_json(&text).expect("valid scenario")
}

fn with_workload(base: &Scenario, name: &str) -> Scenario {
    let mut sc = base.clone();
    sc.workload.name = name.into();
    sc
}

/// The characterized workload of `sc`, built the way the CLI builds it.
fn characterized(sc: &Scenario) -> (Box<dyn Workload>, Characterization, ChipConfig) {
    let w = workload_from_spec(&sc.workload).expect("known workload");
    let chip = ChipConfig::from_spec(&sc.chip).expect("chip spec");
    let ch = characterize(&w.generate(), &chip).expect("characterization");
    (w, ch, chip)
}

fn plan(sc: &Scenario, input: &(Box<dyn Workload>, Characterization, ChipConfig)) -> ApsPlan {
    let (w, ch, chip) = input;
    let g = scale_function(sc, w.as_ref());
    aps_from_scenario(sc, ch, chip, g)
        .expect("scenario model")
        .plan()
        .expect("plan")
}

fn render(out: &mut String, label: &str, p: &ApsPlan) {
    let a = &p.analytic;
    writeln!(
        out,
        "{label}: case={:?} split_solve={:?} skeleton={:?} n={:x} a0={:x} a1={:x} a2={:x} time={:x}",
        a.case,
        a.split_solve,
        p.skeleton,
        a.vars.n.to_bits(),
        a.vars.a0.to_bits(),
        a.vars.a1.to_bits(),
        a.vars.a2.to_bits(),
        a.execution_time.to_bits(),
    )
    .unwrap();
}

fn render_all() -> String {
    let mut out = String::new();
    let paper = scenario("paper_scale.json");
    let quick = scenario("quick.json");

    for (base_name, base) in [("paper_scale", &paper), ("quick", &quick)] {
        for name in WORKLOADS {
            let sc = with_workload(base, name);
            render(
                &mut out,
                &format!("{base_name}/{name}"),
                &plan(&sc, &characterized(&sc)),
            );
        }
    }

    let fluid = with_workload(&paper, "fluidanimate");
    let fft = with_workload(&paper, "fft");
    let spmv = with_workload(&paper, "spmv");
    let inputs = [
        ("fluidanimate", &fluid, characterized(&fluid)),
        ("fft", &fft, characterized(&fft)),
        ("spmv", &spmv, characterized(&spmv)),
    ];
    for (law_name, law) in [
        ("amdahl", LawKind::Amdahl),
        ("memory-wall", LawKind::MemoryWall),
        ("usl", LawKind::Usl),
    ] {
        for (name, base, input) in &inputs[..2] {
            let mut sc = (*base).clone();
            sc.speedup.law = law;
            render(
                &mut out,
                &format!("paper_scale/{name}/law={law_name}"),
                &plan(&sc, input),
            );
        }
    }
    for exp in [0.5, 0.8] {
        for (name, base, input) in [&inputs[0], &inputs[2]] {
            let mut sc = (*base).clone();
            sc.model.g_exponent = Some(exp);
            render(
                &mut out,
                &format!("paper_scale/{name}/g_exponent={exp}"),
                &plan(&sc, input),
            );
        }
    }
    out
}

#[test]
fn plan_is_bit_identical_to_the_golden() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let actual = render_all();
    assert_eq!(actual.lines().count(), 20, "twenty pinned plans");
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
    for (n, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(
            want,
            got,
            "plan drifted at {GOLDEN}:{}\n  golden: {want}\n  actual: {got}",
            n + 1
        );
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "plan golden and the run differ in length"
    );
}
