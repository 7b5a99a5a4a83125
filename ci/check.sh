#!/usr/bin/env bash
# Workspace gate: formatted, lint-clean (clippy, warnings denied) and
# all tests green. Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== rustfmt (check) =="
cargo fmt --check

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== tests =="
cargo test --workspace -q

echo "== runner engine integration tests =="
cargo test -q -p c2-runner --test engine_resume
cargo test -q -p c2-runner --test proptest_runner
cargo test -q -p c2-runner --test sharded_engine
cargo test -q -p c2-runner --test proptest_sharded
cargo test -q -p c2-runner --test serve_daemon
cargo test -q -p c2-runner --test proptest_serve

echo "== scenario files (validate + smoke run) =="
cargo build -q --bin c2bound-tool
for sc in examples/scenarios/*.json; do
    echo "-- validate ${sc}"
    cargo run -q --bin c2bound-tool -- scenario validate "${sc}" > /dev/null
done
smoke_dir="$(mktemp -d)"
trap 'rm -rf "${smoke_dir}"' EXIT
cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/quick.json \
    --metrics-out "${smoke_dir}/metrics.json" > /dev/null
test -s "${smoke_dir}/metrics.json"

echo "== sharded bit-identity (1 vs 4 threads, quick.json) =="
for t in 1 4; do
    cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/quick.json \
        --threads "${t}" \
        --journal "${smoke_dir}/journal-t${t}.jsonl" \
        --metrics-out "${smoke_dir}/metrics-t${t}.json" > /dev/null
done
cmp "${smoke_dir}/journal-t1.jsonl" "${smoke_dir}/journal-t4.jsonl"
cmp "${smoke_dir}/metrics-t1.json" "${smoke_dir}/metrics-t4.json"

echo "== crash matrix (library) =="
cargo test -q -p c2-runner --test crash_matrix

echo "== CLI crash/resume smoke (quick.json, three crash points) =="
# Kill the engine early (write 3: a record append), in the middle
# (write 12: checkpoint region), and at the very last write the run
# performs (write 20); resume each on honest storage and demand bytes
# identical to the clean run.
clean="${smoke_dir}/crash-clean"
cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/quick.json \
    --threads 2 --checkpoint-every 2 \
    --journal "${clean}.jsonl" --metrics-out "${clean}.json" > /dev/null
for n in 3 12 20; do
    out="${smoke_dir}/crash-n${n}"
    if cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/quick.json \
        --threads 2 --checkpoint-every 2 --chaos "crash-at=${n},seed=${n}" \
        --journal "${out}.jsonl" > /dev/null 2>&1; then
        echo "error: chaos crash-at=${n} did not fire" >&2
        exit 1
    fi
    cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/quick.json \
        --threads 2 --checkpoint-every 2 --resume \
        --journal "${out}.jsonl" --metrics-out "${out}.json" > /dev/null
    cmp "${clean}.jsonl" "${out}.jsonl"
    cmp "${clean}.json" "${out}.json"
done

echo "== serve daemon smoke (two tenants, drain mid-run, resume, bit-identity) =="
serve_dir="${smoke_dir}/serve-jobs"
serve_log="${smoke_dir}/serve.log"
variant="${smoke_dir}/quick-variant.json"
sed 's/"size": *16/"size": 12/' examples/scenarios/quick.json > "${variant}"
cargo run -q --bin c2bound-tool -- serve --addr 127.0.0.1:0 \
    --dir "${serve_dir}" --executors 1 > "${serve_log}" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr="$(sed -n 's/^serving on //p' "${serve_log}")"
    [ -n "${addr}" ] && break
    sleep 0.1
done
if [ -z "${addr}" ]; then
    echo "error: serve daemon never reported an address" >&2
    exit 1
fi
# Two concurrent clients, then a drain while their jobs are running or
# queued. The daemon must exit 0 (enforced by `wait` under `set -e`).
cargo run -q --bin c2bound-tool -- submit --addr "${addr}" --tenant a \
    --scenario examples/scenarios/quick.json > /dev/null &
client_a=$!
cargo run -q --bin c2bound-tool -- submit --addr "${addr}" --tenant b \
    --scenario "${variant}" > /dev/null &
client_b=$!
wait "${client_a}" "${client_b}"
cargo run -q --bin c2bound-tool -- shutdown --addr "${addr}" --wait > /dev/null
wait "${serve_pid}"
# Resume the backlog the drain left behind, then demand every job's
# artifacts match a one-shot run of its persisted scenario.
cargo run -q --bin c2bound-tool -- serve --dir "${serve_dir}" \
    --resume --drain-on-idle --executors 1 > /dev/null
for job in job0001 job0002; do
    grep -q '"state":"completed"' "${serve_dir}/${job}.outcome.json"
    cargo run -q --bin c2bound-tool -- run \
        --scenario "${serve_dir}/${job}.scenario.json" --threads 1 \
        --journal "${smoke_dir}/${job}.oneshot.jsonl" \
        --metrics-out "${smoke_dir}/${job}.oneshot.json" > /dev/null
    cmp "${serve_dir}/${job}.journal.jsonl" "${smoke_dir}/${job}.oneshot.jsonl"
    cmp "${serve_dir}/${job}.metrics.json" "${smoke_dir}/${job}.oneshot.json"
done

echo "== oracle-mode smoke (phase vs full, quick.json) =="
for mode in full phase; do
    cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/quick.json \
        --oracle-mode "${mode}" \
        --journal "${smoke_dir}/oracle-${mode}.jsonl" \
        --metrics-out "${smoke_dir}/oracle-${mode}.json" > /dev/null
    test -s "${smoke_dir}/oracle-${mode}.json"
done
# The two modes must never alias: the oracle mode is bound into the
# scenario fingerprint, which every journal record carries.
if cmp -s "${smoke_dir}/oracle-full.jsonl" "${smoke_dir}/oracle-phase.jsonl"; then
    echo "error: phase-mode journal must carry a distinct fingerprint" >&2
    exit 1
fi

echo "== model backends + roofline (gpu_sm.json, DESIGN.md SS14) =="
# The checked-in GPU scenario (validated by the loop above) runs
# end-to-end with a roofline report + metrics, and the roofline bytes
# match the pinned golden.
cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/gpu_sm.json \
    --threads 1 \
    --roofline-out "${smoke_dir}/gpu-roofline.json" \
    --metrics-out "${smoke_dir}/gpu-metrics.json" > /dev/null
test -s "${smoke_dir}/gpu-metrics.json"
cmp tests/golden/gpu_sm_roofline.json "${smoke_dir}/gpu-roofline.json"
cargo run -q --bin c2bound-tool -- roofline "${smoke_dir}/gpu-roofline.json" > /dev/null
# GPU sweeps are deterministic across the sharded engine's thread
# counts: 1 vs 4 threads must be bit-identical (journal + roofline).
for t in 1 4; do
    cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/gpu_sm.json \
        --threads "${t}" \
        --journal "${smoke_dir}/gpu-journal-t${t}.jsonl" \
        --roofline-out "${smoke_dir}/gpu-roofline-t${t}.json" > /dev/null
done
cmp "${smoke_dir}/gpu-journal-t1.jsonl" "${smoke_dir}/gpu-journal-t4.jsonl"
cmp "${smoke_dir}/gpu-roofline-t1.json" "${smoke_dir}/gpu-roofline-t4.json"
# A served gpu job emits the identical roofline: `roofline_out` is an
# operational (non-semantic) key, so the scenario fingerprint — and
# therefore the report bytes — match the one-shot golden exactly.
gpu_variant="${smoke_dir}/gpu-serve-scenario.json"
sed "s|\"roofline_out\": null|\"roofline_out\": \"${smoke_dir}/serve-roofline.json\"|" \
    examples/scenarios/gpu_sm.json > "${gpu_variant}"
gpu_serve_log="${smoke_dir}/gpu-serve.log"
cargo run -q --bin c2bound-tool -- serve --addr 127.0.0.1:0 \
    --dir "${smoke_dir}/gpu-serve-jobs" --executors 1 > "${gpu_serve_log}" &
gpu_serve_pid=$!
gpu_addr=""
for _ in $(seq 1 100); do
    gpu_addr="$(sed -n 's/^serving on //p' "${gpu_serve_log}")"
    [ -n "${gpu_addr}" ] && break
    sleep 0.1
done
if [ -z "${gpu_addr}" ]; then
    echo "error: gpu serve daemon never reported an address" >&2
    exit 1
fi
cargo run -q --bin c2bound-tool -- submit --addr "${gpu_addr}" --tenant gpu \
    --scenario "${gpu_variant}" --wait > /dev/null
cargo run -q --bin c2bound-tool -- shutdown --addr "${gpu_addr}" --wait > /dev/null
wait "${gpu_serve_pid}"
cmp tests/golden/gpu_sm_roofline.json "${smoke_dir}/serve-roofline.json"

echo "== law validation harness (DESIGN.md SS15) =="
cargo test -q --test law_validation
cargo test -q -p c2-speedup
cargo test -q -p c2-runner --lib screen::

echo "== simulator cost model: engine equivalence (DESIGN.md SS16) =="
# The event-driven engine must reproduce the lock-step golden bit for
# bit, and every golden that runs the simulator must stay unchanged.
cargo test -q -p c2-sim --test engine_equivalence
cargo test -q -p c2-sim --test event_wheel
cargo test -q -p c2-sim -p c2-camat
# The per-request path stays heap-free and hash-free: events go through
# the event wheel, completions through ROB slots (DESIGN.md SS16).
if grep -nE 'BinaryHeap|HashSet|HashMap' crates/sim/src/chip.rs crates/sim/src/core.rs; then
    echo "error: chip.rs/core.rs must not use BinaryHeap, HashSet or HashMap" >&2
    exit 1
fi
cargo test -q --test phase_accuracy
cargo test -q --test law_validation

echo "== analytic plan: bounded KKT area split (DESIGN.md SS6) =="
# Twenty plans are pinned bit for bit (case, split rung, skeleton and
# the optimum's f64 bits); the solver tests cover the domain stop.
cargo test -q -p c2-bound --test plan_golden
cargo test -q -p c2-solver
# The area split makes one bounded KKT attempt and then falls back to
# the simplex; the restart cascade stays a library feature it must not
# call.
if grep -n 'solve_cascade' crates/core/src/optimize.rs; then
    echo "error: crates/core/src/optimize.rs must not call solve_cascade" >&2
    exit 1
fi

echo "== surrogate screening smoke (screened vs full, quick.json) =="
# A screened sweep must stay under the scenario's true-evaluation
# budget and still report a chosen design; the full run is the
# reference enumeration over the same document.
cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/quick.json \
    --threads 1 > "${smoke_dir}/screen-full.out"
cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/quick.json \
    --threads 1 --screen > "${smoke_dir}/screen-on.out"
grep -q "^chosen:" "${smoke_dir}/screen-full.out"
grep -q "^chosen:" "${smoke_dir}/screen-on.out"
grep -q "^screen report:" "${smoke_dir}/screen-on.out"
if grep -q "^screen report:" "${smoke_dir}/screen-full.out"; then
    echo "error: unscreened run printed a screen report" >&2
    exit 1
fi

echo "== screened bit-identity (1 vs 4 threads, quick.json) =="
for t in 1 4; do
    cargo run -q --bin c2bound-tool -- run --scenario examples/scenarios/quick.json \
        --threads "${t}" --screen \
        --journal "${smoke_dir}/screen-journal-t${t}.jsonl" > /dev/null
done
cmp "${smoke_dir}/screen-journal-t1.jsonl" "${smoke_dir}/screen-journal-t4.jsonl"
# Screening is bound into the journal identity: the screened and full
# journals over the same scenario must never alias.
if cmp -s "${smoke_dir}/journal-t1.jsonl" "${smoke_dir}/screen-journal-t1.jsonl"; then
    echo "error: screened journal must carry a distinct identity" >&2
    exit 1
fi

echo "== sweep benchmark smoke (archives BENCH_sweep.json) =="
cargo bench -q -p c2-bench --bench sweep_benches > /dev/null
test -s BENCH_sweep.json

echo "== scaling smoke (1 vs 8 threads + phase cut, archives BENCH_phase.json) =="
# The bench itself enforces the floors (>=5x at 8 threads, >=1.5x
# per-oracle cut) and refreshes the checked-in record.
cargo bench -q -p c2-bench --bench phase_benches > /dev/null
test -s BENCH_phase.json

echo "== examples (build + smoke run) =="
cargo build -q --examples
for ex in examples/*.rs; do
    name="$(basename "${ex%.rs}")"
    echo "-- ${name}"
    cargo run -q --example "${name}" > /dev/null
done

echo "OK"
