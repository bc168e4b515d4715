#!/bin/sh
# CI gate, run from the repository root; stops at the first failure.
# For each build flavour -- release, then asan-ubsan (Debug + ASan +
# UBSan) -- configure, build, run the tier-1 ctest suite once and drive
# the bench binaries end to end at tiny sizes. The release flavour
# builds the whole tree with -Werror. Then run the repository
# benchmark's smoke test. The label families (checkpoint, fault,
# serve, chaos, transformer, distill) are all inside tier1; select one
# with `ctest --test-dir build -L <family>`.
set -eu

cd "$(dirname "$0")/.."
tmp=$(mktemp -d /tmp/voyager_gate.XXXXXX)
trap 'rm -rf "$tmp"' EXIT

# smoke <bench> "<stat keys>" <args...>: run a bench binary of the
# current build, check its --stats_json document against the schema
# and require each listed stat in it. Tiny sizes prove the path runs;
# the performance claims live in the full bench runs.
smoke() {
    bench=$1
    keys=$2
    shift 2
    echo "== $build: $bench smoke $* =="
    "./$build/bench/$bench" "$@" --stats_json="$tmp/doc.json" >/dev/null
    python3 tools/check_stats_schema.py "$tmp/doc.json"
    for key in $keys; do
        grep -q "\"$key\"" "$tmp/doc.json"
    done
}

for preset in release asan-ubsan; do
    case $preset in
    release) build=build tests=tier1 werror=ON ;;
    *) build=build-asan tests=asan-tier1 werror=OFF ;;
    esac
    echo "== $preset: configure + build =="
    cmake --preset "$preset" -DVOYAGER_WERROR=$werror
    cmake --build --preset "$preset" -j1
    echo "== $preset: ctest -L tier1 =="
    ctest --preset "$tests" --output-on-failure

    # Int8 qgemm microkernel, activation quantization and LSTM pair
    # (DESIGN.md section 5.13) outside gtest. Capture first so the
    # bench's own exit status gates the pass.
    echo "== $build: bench_micro_nn qgemm smoke =="
    out=$("./$build/bench/bench_micro_nn" --op=qgemm \
        --benchmark_min_time=0.05 2>&1)
    for row in BM_QgemmNtVoyager BM_QuantizeActivations \
        BM_QuantizedLstmForward; do
        printf '%s\n' "$out" | grep -q "$row"
    done
    # LSTM forward/backward on the fused gate passes (section 5.20),
    # captured the same way.
    echo "== $build: bench_micro_nn lstm smoke =="
    out=$("./$build/bench/bench_micro_nn" --op=lstm \
        --benchmark_min_time=0.05 2>&1)
    printf '%s\n' "$out" | grep -q "BM_LstmForward"
    # Flat hash sweeps (section 5.15).
    smoke bench_micro_hash "micro_hash.isb.keys" \
        --n_vocab=4096 --n_isb=4096 --reps=1
    # Batched serving (section 5.16), including the closed serve.*
    # namespace.
    smoke bench_serve "serve.batch_size" --scale=tiny --tenants=2 \
        --requests=40 --serve_batches=1,4 --serve_train_samples=200
    # Overload resilience (section 5.19): the chaos ladder degrades
    # under the canned serve fault plan.
    smoke bench_serve "serve.degrade.rung fault.serve.stalls" \
        --scale=tiny --tenants=3 --requests=60 --serve_batches=4 \
        --serve_train_samples=200 --chaos --tenant_quota=12 \
        --queue_cap=24
    # Tabularized serving (section 5.18): teacher, distil, frontier.
    smoke bench_distill \
        "distill.frontier.b65536_h1.hit_rate distill.teacher.unified" \
        --scale=tiny --epochs=1 --passes=1 --distill_train_samples=300 \
        --max_samples=300 --distill_budgets=4096,65536 \
        --distill_backoffs=1

    # An invalid server config must fail fast with its message, not
    # spin forever (a timeout kill prints no message); bench_serve
    # catches the constructor's exception and prints it itself.
    echo "== $build: bench_serve --serve_batches=0 must fail =="
    if timeout 30 "./$build/bench/bench_serve" --scale=tiny \
        --tenants=1 --requests=10 --serve_train_samples=50 \
        --engines=fp32 --serve_batches=0 >/dev/null 2>"$tmp/err"; then
        echo "bench_serve accepted --serve_batches=0" >&2
        exit 1
    fi
    grep -q "max_batch must be > 0" "$tmp/err"
done

# Transformer workloads (section 5.17): rules plus Voyager at tiny
# scale; the neural result is bench_cache-keyed, so reruns are cheap.
# Release only: uncached training under ASan takes minutes.
build=build
smoke bench_transformer \
    "transformer.xf_decode.stream_group.acc prefetch.stream_group.fast_tracks" \
    --scale=tiny --epochs=2 --passes=1

echo "== perfbench smoke =="
python3 perfbench/smoke_test.py

echo "all gates passed"
