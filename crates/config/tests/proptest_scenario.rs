//! Property tests for the scenario layer's core contract:
//! `parse(render(s)) == s` for arbitrary valid scenarios, in both the
//! compact and the pretty rendering, with a fingerprint that survives
//! the round trip.

use c2_config::{
    BackoffSpec, BreakerSpec, BudgetSpec, CamatSpec, ChaosSpec, EvalCacheSpec, ModelSpec,
    RunnerSpec, Scenario, SolverSpec, SpaceSpec, WorkloadSpec,
};
use proptest::prelude::*;

fn workloads() -> impl Strategy<Value = WorkloadSpec> {
    ((0usize..5), (1u64..4096)).prop_map(|(i, size)| WorkloadSpec {
        name: ["tmm", "spmv", "stencil", "fft", "fluidanimate"][i].to_string(),
        size,
    })
}

fn camats() -> impl Strategy<Value = Option<CamatSpec>> {
    prop::option::of((
        0.5f64..8.0,
        1.0f64..8.0,
        0.0f64..1.0,
        0.0f64..200.0,
        1.0f64..16.0,
    ))
    .prop_map(|opt| {
        opt.map(|(h, ch, pmr, pamp, cm)| CamatSpec {
            hit_time: h,
            hit_concurrency: ch,
            pure_miss_rate: pmr,
            pure_avg_miss_penalty: pamp,
            pure_miss_concurrency: cm,
        })
    })
}

fn models() -> impl Strategy<Value = ModelSpec> {
    (
        (0.05f64..2.0, 0.05f64..2.0, 10.0f64..500.0, 0.0f64..0.99),
        prop::option::of(0.0f64..2.0),
        camats(),
    )
        .prop_map(|((l1a, l2a, dram, cap), g, camat)| ModelSpec {
            l1_alpha: l1a,
            l2_alpha: l2a,
            dram_latency: dram,
            overlap_cap: cap,
            g_exponent: g,
            camat,
        })
}

fn f64_axes() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.01f64..64.0, 1..6)
}

fn u64_axes() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(1u64..512, 1..6)
}

fn spaces() -> impl Strategy<Value = SpaceSpec> {
    (
        f64_axes(),
        f64_axes(),
        f64_axes(),
        u64_axes(),
        u64_axes(),
        u64_axes(),
    )
        .prop_map(|(a0, a1, a2, n, issue, rob)| SpaceSpec {
            a0,
            a1,
            a2,
            n,
            issue,
            rob,
        })
}

fn budgets() -> impl Strategy<Value = BudgetSpec> {
    (10.0f64..1000.0, 0.0f64..0.9).prop_map(|(total, frac)| BudgetSpec {
        total_area_mm2: total,
        shared_area_mm2: total * frac,
    })
}

fn solvers() -> impl Strategy<Value = SolverSpec> {
    ((1e-12f64..1e-4, 1u64..500), (1e-14f64..1e-6, 1u64..8000)).prop_map(
        |((ntol, nit), (mtol, mit))| SolverSpec {
            newton_tol: ntol,
            newton_max_iters: nit,
            nelder_tol: mtol,
            nelder_max_iters: mit,
        },
    )
}

fn runners() -> impl Strategy<Value = RunnerSpec> {
    (
        (1u64..8, 0u64..100_000, 1u64..20, 1u64..6, 1u64..128),
        (1u64..50, 1.0f64..4.0, 0.0f64..1.0),
        (1u64..10, 0u64..10, 1u64..5),
        0u64..2,
        (0u64..9, 0u64..2),
        (0usize..3, 0u64..200, 0u64..2, 1u64..10),
    )
        .prop_map(
            |(
                (workers, deadline, tick, attempts, cap),
                bo,
                br,
                fb,
                (threads, cached),
                (sync_idx, ckpt, chaos_on, chaos_val),
            )| {
                RunnerSpec {
                    workers,
                    threads,
                    deadline_ms: deadline,
                    watchdog_tick_ms: tick,
                    max_attempts: attempts,
                    queue_capacity: cap,
                    backoff: BackoffSpec {
                        base_ms: bo.0,
                        factor: bo.1,
                        cap_ms: bo.0 + 100,
                        jitter_frac: bo.2,
                    },
                    breaker: BreakerSpec {
                        trip_threshold: br.0,
                        cooldown: br.1,
                        probes: br.2,
                    },
                    cache: EvalCacheSpec {
                        enabled: cached == 1,
                        path: (cached == 1).then(|| "eval-cache.jsonl".to_string()),
                    },
                    analytic_fallback: fb == 1,
                    sync: ["never", "on-checkpoint", "always"][sync_idx].to_string(),
                    checkpoint_every: ckpt,
                    chaos: (chaos_on == 1).then_some(ChaosSpec {
                        crash_at_write: Some(chaos_val),
                        torn_bytes: Some(chaos_val / 2),
                        enospc_at_write: None,
                        short_write_at: None,
                        seed: chaos_val,
                    }),
                }
            },
        )
}

fn scenarios() -> impl Strategy<Value = Scenario> {
    (
        workloads(),
        models(),
        spaces(),
        budgets(),
        solvers(),
        runners(),
    )
        .prop_map(
            |(workload, model, space, budget, solver, runner)| Scenario {
                workload,
                model,
                space,
                budget,
                solver,
                runner,
                ..Scenario::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The compact canonical rendering parses back to the same value.
    #[test]
    fn compact_render_round_trips(s in scenarios()) {
        s.validate().expect("strategy yields valid scenarios");
        let parsed = Scenario::from_json(&s.render()).expect("canonical render must parse");
        prop_assert_eq!(&parsed, &s);
        prop_assert_eq!(parsed.fingerprint(), s.fingerprint());
    }

    /// The pretty rendering is semantically identical to the compact
    /// one: same parsed value, same fingerprint.
    #[test]
    fn pretty_render_round_trips(s in scenarios()) {
        let parsed = Scenario::from_json(&s.render_pretty()).expect("pretty render must parse");
        prop_assert_eq!(&parsed, &s);
        prop_assert_eq!(parsed.fingerprint(), s.fingerprint());
    }

    /// Rendering is a fixed point: parse → render reproduces the bytes.
    #[test]
    fn render_is_a_fixed_point(s in scenarios()) {
        let text = s.render();
        let reparsed = Scenario::from_json(&text).expect("canonical render must parse");
        prop_assert_eq!(reparsed.render(), text);
    }
}
