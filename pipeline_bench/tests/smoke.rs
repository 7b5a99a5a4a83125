//! The benchmark's own checks, on a shrunk scenario: every metric named
//! in `BENCHMARK.json` is emitted with its unit, and a mismatched output
//! makes the run fail its check.

use std::path::PathBuf;

use c2_config::{Json, Scenario, SpaceSpec};
use c2_pipeline_bench::{run, Fault, Options, Outcome, WorkloadKind};

/// paper_scale's pipeline on the tiny design space: the same workloads,
/// runner policy and oracle modes, at a fraction of the cost.
fn shrunk_base() -> Scenario {
    let text = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../examples/scenarios/paper_scale.json"
    ))
    .expect("paper_scale.json is checked in");
    let mut sc = Scenario::from_json(&text).expect("paper_scale.json parses");
    sc.space = SpaceSpec::tiny();
    sc
}

fn options(workload: WorkloadKind, trace: bool, tag: &str) -> Options {
    Options {
        workload,
        seed: 3,
        seconds: 0.01,
        trace,
        base: shrunk_base(),
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
            "{tag}-{}-{}",
            workload.name(),
            u8::from(trace)
        )),
        cli: None,
        fault: None,
        probe_exe: PathBuf::from(env!("CARGO_BIN_EXE_c2-pipeline-bench")),
    }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` list.
fn declared(list: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json is checked in");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(Json::as_arr)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn emitted(outcome: &Outcome) -> Vec<(String, String)> {
    outcome
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for kind in WorkloadKind::ALL {
        for trace in [false, true] {
            let outcome = run(&options(kind, trace, "smoke")).expect("benchmark run");
            assert!(
                outcome.correct,
                "{} trace={trace}: {:?}",
                kind.name(),
                outcome.failures
            );
            assert!(outcome.attempted > 0);
            assert_eq!(outcome.failed, 0);
            let want = if trace { &per_layer } else { &end_to_end };
            assert_eq!(&emitted(&outcome), want, "{} trace={trace}", kind.name());
            for m in &outcome.metrics {
                assert!(m.value.is_finite(), "{} {}", kind.name(), m.name);
            }
            if !trace {
                for m in &outcome.metrics {
                    assert!(m.value > 0.0, "{}: {} is 0", kind.name(), m.name);
                }
            }
            let json = outcome.to_json();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        }
    }
}

#[test]
fn a_corrupted_journal_fails_the_check() {
    let mut opts = options(WorkloadKind::PaperScale, false, "fault");
    opts.fault = Some(Fault::CorruptJournal);
    let outcome = run(&opts).expect("benchmark run");
    assert!(!outcome.correct);
    assert!(
        outcome
            .failures
            .iter()
            .any(|f| f.contains("journal differs from the input's first")),
        "{:?}",
        outcome.failures
    );
    assert!(outcome.to_json().starts_with("{\"correct\": false"));
}
