#!/usr/bin/env bash
# Local CI gate, staged: formatting, lints, tier-1 build+test, trace
# validation, cross-worker determinism, fault soak, and a perf-regression
# smoke against the committed bench baseline.
#
# Usage:
#   ./ci.sh                 run every stage (fail-fast, timing summary)
#   ./ci.sh --stage test    run one stage (repeatable: --stage fmt --stage test)
#   ./ci.sh --from analyze  run from a stage to the end of the list
#   ./ci.sh --list          list stages
#
# Every invocation writes results/ci_summary.json: one entry per executed
# stage with its name, wall seconds, and ok/FAILED status.
set -uo pipefail
cd "$(dirname "$0")"

ALL_STAGES=(fmt clippy doc build test kernel-equivalence diff-equivalence trace-validate analyze determinism fault-soak serve-soak watch bench-smoke)

stage_fmt() {
    cargo fmt --all -- --check
}

stage_clippy() {
    cargo clippy --offline --workspace --all-targets -- -D warnings
}

stage_doc() {
    # Rustdoc of the qoc crates with warnings (broken, ambiguous or
    # private intra-doc links) as errors. The vendored shims stay out:
    # their own docs do not build clean.
    local packages=(-p qoc)
    for manifest in crates/*/Cargo.toml; do
        packages+=(-p "$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -n 1)")
    done
    RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps "${packages[@]}"
}

stage_build() {
    cargo build --offline --release || return 1
    # The benchmark harness is a package of its own outside the workspace,
    # so the build above never compiles it: a library API change that
    # breaks it would pass every other stage. Same target dir as
    # perfbench/run.py; --locked fails a change that would rewrite its
    # Cargo.lock.
    CARGO_TARGET_DIR=.bench_build cargo build --offline --release --locked \
        --manifest-path perfbench/Cargo.toml
}

stage_test() {
    # Every workspace crate's unit and integration tests, not only the root
    # package's.
    cargo test --offline --release --workspace -q
}

stage_kernel_equivalence() {
    # Differential suite: specialized kernels and the fused pipeline vs the
    # generic dense-matrix oracle (≤ 1e-12), plus pinned analytic states,
    # the shot sampler's conditional binomials vs exact binomial and
    # multinomial pmfs (the qoc-sim unit tests, hence --lib), the compiled
    # noisy density program vs the dense per-gate Kraus oracle (≤ 1e-12;
    # trace 1, Hermitian, PSD) on random circuits and calibrations, its
    # forks bit for bit vs full runs at the shifted θ, the block-stepped 2q
    # superoperator pass bit for bit vs the full-index scan it replaced,
    # the fork lane states' `Lanes` arithmetic, which runs the one generic
    # set of passes, at 2, 4 and 8 lanes on every dispatch arm the host
    # runs (baseline everywhere, and AVX-512 where detected) bit for bit
    # vs single-state passes, and grouped forks at 2, 4 and 8 lanes on
    # those arms vs the shifted runs (the qoc-noise unit tests, hence --lib
    # again), and the paper's MNIST-4/jakarta forks grouped on each of
    # those arms vs the shifted runs (the root package's grouped_forks).
    # Release mode: the proptest cases are heavy and the kernels under test
    # are the ones production runs actually execute.
    cargo test --offline --release -p qoc-sim --lib \
        --test kernel_equivalence --test golden_states --test properties || return 1
    cargo test --offline --release -p qoc-noise --lib --test compiled_equivalence || return 1
    cargo test --offline --release -p qoc --test grouped_forks
}

stage_diff_equivalence() {
    # The engine's exact Jacobian on the noiseless backend (the hook's
    # forked answer, or the shifted jobs it declined) must agree to 1e-12
    # with the shifted jobs run one by one on random symbolic circuits, at
    # two circuits per gate occurrence, both must match finite differences
    # on decomposed gates, the noisy shifted jobs must reproduce goldens
    # captured from the shifted jobs (256 shots) at 1/2/8 workers, and so
    # must the fake device's forked answer on the four golden rows it forks
    # (its mode asserted "forked"), the fake device's forked answer to the
    # Jacobian hook must equal the shifted jobs bit for bit on random
    # circuits on fake santiago and jakarta, every fork's distribution
    # equal to its shifted run's (measured and in full, the full run a
    # state), and so must the noiseless backend's (exact, 64-shot and the
    # case's execution, 1/2/8 workers).
    cargo test --offline --release -p qoc-core --test diff_equivalence
}

stage_trace_validate() {
    QOC_LOG=debug QOC_TRACE_FILE=results/ci_trace.jsonl \
        cargo run --offline --release --example traced_training > /dev/null || return 1
    # qoc-analyze schema-checks every trace line (grad.health payloads
    # included, hence the debug-level run) and both record satellites,
    # gates on a manifest with nonzero circuit-run counters, and exits 2
    # when the trace or a satellite never appeared and 1 on a violation —
    # its stderr names the offending line either way.
    cargo run --offline --release -p qoc-bench --bin qoc-analyze -- \
        results/ci_trace.jsonl --quiet || return 1
    # Second leg: the run's step and eval records must be the committed
    # traced_training ones byte for byte: the example's seed is fixed, so a
    # difference is a behaviour change or a stale results/traced_training.*.
    local records
    for records in steps evals; do
        cmp "results/ci_trace.$records.jsonl" "results/traced_training.$records.jsonl" || return 1
    done
    # Third leg: a misspelt knob must stop the run before it trains, with
    # the error naming the knob that was meant.
    local err
    if err=$(QOC_WORKRS=1 cargo run --offline --release --example traced_training 2>&1 >/dev/null); then
        echo "trace-validate: traced_training ran with QOC_WORKRS set" >&2
        return 1
    fi
    if ! grep -q 'QOC_WORKERS' <<< "$err"; then
        echo "trace-validate: the QOC_WORKRS error does not name QOC_WORKERS:" >&2
        echo "$err" | tail -5 >&2
        return 1
    fi
}

stage_analyze() {
    # Offline analysis of a traced PGP run: qoc-analyze rebuilds the span
    # forest and exits 1 unless the trace has spans, the prune.efficacy
    # recall curve is present, the per-batch device-time deltas reconcile
    # with the manifest to the nanosecond, and the measured run savings is
    # within tolerance of the paper's r·w_p/(w_a+w_p).
    QOC_TRACE_FILE=results/ci_analyze.jsonl \
        cargo run --offline --release --example traced_training > /dev/null || return 1
    cargo run --offline --release -p qoc-bench --bin qoc-analyze -- \
        results/ci_analyze.jsonl --savings-tolerance 0.05 || return 1
    # The collapsed-stack artifact must be non-empty (flamegraph input).
    if ! [ -s results/ci_analyze.folded ]; then
        echo "analyze: results/ci_analyze.folded is missing or empty" >&2
        return 1
    fi
}

stage_determinism() {
    # The same training run must produce identical per-step and per-eval
    # records at any worker count: batched parameter-shift seeds every job
    # deterministically, so parallelism must never leak into results.
    QOC_WORKERS=1 QOC_TRACE_FILE=results/ci_det_w1.jsonl \
        cargo run --offline --release --example traced_training > /dev/null || return 1
    QOC_WORKERS=4 QOC_TRACE_FILE=results/ci_det_w4.jsonl \
        cargo run --offline --release --example traced_training > /dev/null || return 1
    local artifact
    for artifact in steps.jsonl evals.jsonl; do
        if ! diff "results/ci_det_w1.${artifact%.jsonl}.jsonl" \
                  "results/ci_det_w4.${artifact%.jsonl}.jsonl" > /dev/null; then
            echo "determinism: $artifact differs between QOC_WORKERS=1 and QOC_WORKERS=4:" >&2
            diff "results/ci_det_w1.${artifact%.jsonl}.jsonl" \
                 "results/ci_det_w4.${artifact%.jsonl}.jsonl" | head -10 >&2
            return 1
        fi
    done
    echo "determinism: step and eval records identical at 1 and 4 workers"
}

stage_fault_soak() {
    # Train under ≥ 10% transient failures (plus timeouts, latency spikes,
    # drift): must converge with every retry accounted for, zero panics.
    QOC_TRACE_FILE=results/ci_soak.jsonl \
        cargo run --offline --release -p qoc-bench --bin fault_soak
}

stage_serve_soak() {
    # Multi-tenant serving plane under fire: ~200 interleaved jobs across
    # 3 tenants on a pool of fault-injected fake devices, with admission
    # backpressure and mid-flight preemptions. Gates: zero give-ups, every
    # job bit-identical to a solo run, quotas respected, and the per-tenant
    # registry counters reconciled to the nanosecond. Report lands in
    # results/serve_soak.json.
    cargo run --offline --release -p qoc-bench --bin serve_soak -- --ci \
        --out results/serve_soak.json
}

stage_watch() {
    # The profiled run and the fault runs, gated on what qoc-analyze reads
    # from their traces. Leg 1: a clean traced run with the sampling
    # profiler must need no retries and keep the median per-parameter mean
    # gradient SNR at or above 0.05, both read from its analysis report;
    # then the profiler's Jacobian-phase share must reconcile with
    # qoc-analyze's trace-derived share within 15% relative. The run lasts
    # about 30 ms, so the profiler samples at 4999 Hz: at 97 Hz it took 1–3
    # samples, too few for the share to be measured rather than drawn.
    rm -f results/ci_watch.profile.folded
    QOC_PROFILE_HZ=4999 QOC_TRACE_FILE=results/ci_watch.jsonl \
        cargo run --offline --release --example traced_training > /dev/null || return 1
    if ! [ -s results/ci_watch.profile.folded ]; then
        echo "watch: results/ci_watch.profile.folded is missing or empty" >&2
        return 1
    fi
    cargo run --offline --release -p qoc-bench --bin qoc-analyze -- \
        results/ci_watch.jsonl --profile results/ci_watch.profile.folded \
        --profile-tolerance 0.15 --quiet || return 1
    python3 - results/ci_watch.analysis.json <<'PY' || return 1
import json, statistics, sys
report = json.load(open(sys.argv[1]))
snr = statistics.median(p["mean_snr"] for p in report["params"])
print(f"watch: clean run: {report['retries']} retries, median mean SNR {snr:.3g}")
if report["retries"] != 0:
    sys.exit("watch: the clean run needed retries")
if snr < 0.05:
    sys.exit(f"watch: median per-parameter mean SNR {snr} < 0.05")
PY
    # Leg 2: the same run under a fault plan with retries left enabled must
    # still finish, having retried. The plan has no drift and no permanent
    # faults, and a retry reruns the identical job, so the recovered run's
    # step and eval records must equal leg 1's byte for byte.
    QOC_FAULT_PLAN="seed=7,transient=0.2,timeout=0.05,max_failures=3" \
    QOC_TRACE_FILE=results/ci_watch_fault.jsonl \
        cargo run --offline --release --example traced_training > /dev/null || return 1
    cargo run --offline --release -p qoc-bench --bin qoc-analyze -- \
        results/ci_watch_fault.jsonl --quiet || return 1
    python3 - results/ci_watch_fault.analysis.json <<'PY' || return 1
import json, sys
retries = json.load(open(sys.argv[1]))["retries"]
print(f"watch: fault run: {retries} retries")
if retries == 0:
    sys.exit("watch: the fault plan caused no retries")
PY
    local artifact
    for artifact in steps evals; do
        if ! cmp "results/ci_watch.$artifact.jsonl" "results/ci_watch_fault.$artifact.jsonl"; then
            echo "watch: the recovered run's $artifact records differ from the clean run's" >&2
            return 1
        fi
    done
    echo "watch: recovered run's step and eval records equal the clean run's"
    # Leg 3: under a harsher plan with retries disabled the run must fail
    # and leave a non-empty emergency checkpoint. It writes no satellites,
    # so qoc-analyze passes its trace only if the trace holds the
    # train.abort event (else the satellites are missing inputs, exit 2).
    rm -f results/ci_watch_abort.ckpt results/ci_watch_abort.jsonl
    if QOC_FAULT_PLAN="seed=7,transient=0.2,timeout=0.05,max_failures=9" \
       QOC_MAX_RETRIES=0 QOC_CHECKPOINT_FILE=results/ci_watch_abort.ckpt \
       QOC_TRACE_FILE=results/ci_watch_abort.jsonl \
        cargo run --offline --release --example traced_training > /dev/null 2>&1; then
        echo "watch: the run without retries unexpectedly succeeded" >&2
        return 1
    fi
    if ! [ -s results/ci_watch_abort.ckpt ]; then
        echo "watch: emergency checkpoint results/ci_watch_abort.ckpt missing or empty" >&2
        return 1
    fi
    cargo run --offline --release -p qoc-bench --bin qoc-analyze -- \
        results/ci_watch_abort.jsonl --quiet
}

stage_bench_smoke() {
    # >25% regression vs a committed baseline fails (serial santiago
    # Jacobian and the noiseless MNIST-4 1024-shot Jacobian vs
    # BENCH_param_shift.json, fused QNN-4 state prep and 1024 shots of the
    # MNIST-4 read-out vs BENCH_gate_kernels.json, forked MNIST-4/jakarta
    # example gradient vs BENCH_density.json).
    cargo run --offline --release -p qoc-bench --bin bench_smoke
}

STAGE_NAMES=()
STAGE_TIMES=()
STAGE_RESULTS=()

print_summary() {
    [ ${#STAGE_NAMES[@]} -eq 0 ] && return
    echo
    echo "== stage summary =="
    local i
    for i in "${!STAGE_NAMES[@]}"; do
        printf '  %-16s %6ss  %s\n' \
            "${STAGE_NAMES[$i]}" "${STAGE_TIMES[$i]}" "${STAGE_RESULTS[$i]}"
    done
    # Slowest stages first — the budget to attack when CI feels sluggish.
    if [ ${#STAGE_NAMES[@]} -gt 1 ]; then
        echo
        echo "== slowest stages =="
        for i in "${!STAGE_NAMES[@]}"; do
            printf '%s\t%s\n' "${STAGE_TIMES[$i]}" "${STAGE_NAMES[$i]}"
        done | sort -rn | head -5 | while IFS=$'\t' read -r secs name; do
            printf '  %-16s %6ss\n' "$name" "$secs"
        done
    fi
    # Machine-readable twin of the table above, one object per executed
    # stage (names contain only [a-z-], so string interpolation is safe).
    mkdir -p results
    {
        echo '['
        for i in "${!STAGE_NAMES[@]}"; do
            local comma=','
            [ "$i" -eq $(( ${#STAGE_NAMES[@]} - 1 )) ] && comma=''
            printf '  {"stage": "%s", "seconds": %s, "status": "%s"}%s\n' \
                "${STAGE_NAMES[$i]}" "${STAGE_TIMES[$i]}" "${STAGE_RESULTS[$i]}" "$comma"
        done
        echo ']'
    } > results/ci_summary.json
}
trap print_summary EXIT

run_stage() {
    local name="$1" fn="stage_${1//-/_}" start elapsed
    echo "==> $name"
    mkdir -p results
    start=$(date +%s)
    if "$fn"; then
        elapsed=$(( $(date +%s) - start ))
        STAGE_NAMES+=("$name"); STAGE_TIMES+=("$elapsed")
        STAGE_RESULTS+=("ok")
    else
        elapsed=$(( $(date +%s) - start ))
        STAGE_NAMES+=("$name"); STAGE_TIMES+=("$elapsed")
        STAGE_RESULTS+=("FAILED")
        echo "ci.sh: stage $name failed (${elapsed}s)" >&2
        exit 1
    fi
}

SELECTED=()
FROM_STAGE=""
while [ $# -gt 0 ]; do
    case "$1" in
        --stage)
            [ $# -ge 2 ] || { echo "ci.sh: --stage needs a name" >&2; exit 64; }
            SELECTED+=("$2")
            shift 2
            ;;
        --from)
            [ $# -ge 2 ] || { echo "ci.sh: --from needs a stage name" >&2; exit 64; }
            FROM_STAGE="$2"
            shift 2
            ;;
        --list)
            printf '%s\n' "${ALL_STAGES[@]}"
            exit 0
            ;;
        *)
            echo "ci.sh: unknown argument $1 (try --list)" >&2
            exit 64
            ;;
    esac
done
if [ -n "$FROM_STAGE" ]; then
    if [ ${#SELECTED[@]} -gt 0 ]; then
        echo "ci.sh: --from and --stage are mutually exclusive" >&2
        exit 64
    fi
    found=0
    for stage in "${ALL_STAGES[@]}"; do
        [ "$stage" = "$FROM_STAGE" ] && found=1
        [ $found -eq 1 ] && SELECTED+=("$stage")
    done
    if [ $found -eq 0 ]; then
        echo "ci.sh: unknown stage $FROM_STAGE (try --list)" >&2
        exit 64
    fi
fi
[ ${#SELECTED[@]} -eq 0 ] && SELECTED=("${ALL_STAGES[@]}")

for stage in "${SELECTED[@]}"; do
    case " ${ALL_STAGES[*]} " in
        *" $stage "*) ;;
        *) echo "ci.sh: unknown stage $stage (try --list)" >&2; exit 64 ;;
    esac
done

for stage in "${SELECTED[@]}"; do
    run_stage "$stage"
done
echo
echo "CI OK"
