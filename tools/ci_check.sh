#!/usr/bin/env bash
# CI gate: build and test the tree four times — a plain Release build, a
# Debug build that runs a short list of suites with CBRAIN_DCHECK on, a
# ThreadSanitizer build that exercises the parallel sweep engine (the
# thread pool, the bench sweeps, CBrain::compare_policies fan-out, and
# the engine's shared compile cache + session pool), and an ASan+UBSan
# build that vets the fault-injection hooks, the spec-parser tests, and
# session-reuse lifetimes (test_engine runs in every leg via ctest).
#
# usage: tools/ci_check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc 2>/dev/null || echo 2)}"

run_suite() {
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

echo "=== Release build ==="
# The Release build is warning-free (-Wall -Wextra, GCC 12); -Werror keeps
# it that way.
run_suite build-ci-release -DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=-Werror

echo "=== SIMD backends: full suite under each supported backend ==="
# Every kernel backend must be bit-identical; the cheapest way to prove
# the suite doesn't silently depend on one is to run it under each by
# name. auto would pick only the best one, and plain avx2 is the fast
# path of every x86 host without AVX-VNNI. The CLI rejects an
# unsupported --simd with exit 2, which skips that backend here.
for backend in scalar avx2 avxvnni; do
  if ! ./build-ci-release/tools/cbrain_cli list --simd="$backend" \
    >/dev/null 2>&1; then
    echo "--- $backend: not supported on this build/CPU, skipped"
    continue
  fi
  echo "--- CBRAIN_SIMD=$backend"
  CBRAIN_SIMD="$backend" ctest --test-dir build-ci-release \
    --output-on-failure -j "$JOBS"
done

echo "=== Debug build: CBRAIN_DCHECK on ==="
# Every other leg defines NDEBUG, which compiles CBRAIN_DCHECK out: the
# Tensor3/Tensor4 at() bounds checks and the simulator's per-cycle
# invariants never run there. This leg keeps NDEBUG undefined (-O1 keeps
# it near a minute on 4 cores) and runs the suites that index host
# tensors hardest: the reference kernels, both simulator cross-checks,
# the modern layers, the multi-chip slice/scatter paths, and the SIMD
# kernels, their filter-sum checker and the batched functional tier.
cmake -B build-ci-debug -S . -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS_DEBUG=-O1 >/dev/null
DEBUG_TESTS=(test_tensor test_ref test_sim_dag test_sim_vs_ref
  test_modern_layers test_multichip test_simd test_batch)
cmake --build build-ci-debug -j "$JOBS" --target "${DEBUG_TESTS[@]}"
for t in "${DEBUG_TESTS[@]}"; do
  "./build-ci-debug/tests/$t"
done

echo "=== ThreadSanitizer build ==="
run_suite build-ci-tsan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCBRAIN_SANITIZE=thread
# The observability hot paths (per-thread tracer buffers, registry
# instruments, the engine's traced run_batches) are the newest concurrent
# code; run their suites explicitly under TSan so a ctest sharding or
# filter change can never silently drop them.
./build-ci-tsan/tests/test_engine
./build-ci-tsan/tests/test_obs
# A lone cycle-tier request fans out over the pool: a conv tile stages
# its band per channel pair and packs its weights per output block, runs
# the tile kernel per (block, pixel range) into its own sums, and, with
# no injector, runs each output row's epilogue in a row task (partials
# and DRAM stores of that row alone, store runs in its lane's scratch);
# FC lane-group dots run one task per group, reading weights in place
# from DRAM. Every hook and counter block stays on the caller.
# Race-check the conv fan-out under every scheme, band order, stride and
# din chunking (SimConvTile), then AlexNet, whose every conv and FC
# layer takes the fan-out, and mini_inception, whose stem conv stores
# each output to four consumer maps.
./build-ci-tsan/tests/test_sim_vs_ref --gtest_filter='SimConvTile.*'

./build-ci-tsan/tools/cbrain_cli serve-bench alexnet --requests=1 \
  --jobs="$JOBS" > /dev/null
./build-ci-tsan/tools/cbrain_cli serve-bench mini_inception --requests=1 \
  --jobs="$JOBS" > /dev/null

echo "=== AddressSanitizer+UBSan build ==="
run_suite build-ci-asan -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCBRAIN_SANITIZE=address
# The cycle tier's conv staging reads each band through its row and
# column strides and the tile kernel reads the staged planes past their
# rows: bounds-check both under every scheme and band order.
./build-ci-asan/tests/test_sim_vs_ref --gtest_filter='SimConvTile.*'
# Record labels are rendered, not stored: a barrier's label looks ahead
# to the record it guards and a conv tile's divides by its layer's group
# sizes. Render every record of every zoo net, and the ResNet-18 model
# timeline, under ASan+UBSan.
for net in alexnet googlenet vgg16 nin tiny_cnn scheme_mix mini_inception \
  lenet5 zfnet squeezenet resnet18 mobilenetv1; do
  ./build-ci-asan/tools/cbrain_cli disasm "$net" --max=-1 > /dev/null
done
./build-ci-asan/tools/cbrain_cli timeline resnet18 > /dev/null

echo "=== determinism: --jobs 1 vs --jobs N must print identical tables ==="
./build-ci-release/bench/bench_fig7_conv1 --jobs 1 > /tmp/cbrain_fig7_j1.txt
./build-ci-release/bench/bench_fig7_conv1 --jobs "$JOBS" \
  > /tmp/cbrain_fig7_jn.txt
diff /tmp/cbrain_fig7_j1.txt /tmp/cbrain_fig7_jn.txt
./build-ci-release/bench/bench_fault_campaign --jobs 1 \
  > /tmp/cbrain_fault_j1.txt
./build-ci-release/bench/bench_fault_campaign --jobs "$JOBS" \
  > /tmp/cbrain_fault_jn.txt
diff /tmp/cbrain_fault_j1.txt /tmp/cbrain_fault_jn.txt

echo "=== serve-bench: session pool vs per-call path (small net) ==="
# The serving path end-to-end: a weight-resident session pool must beat
# the rebuild-everything per-call loop and produce byte-identical
# outputs (--baseline verifies and fails otherwise). Also re-run under
# ASan to catch session-reuse lifetime bugs in the pooled fan-out.
./build-ci-release/tools/cbrain_cli serve-bench tiny_cnn \
  --requests=8 --jobs="$JOBS" --baseline
./build-ci-asan/tools/cbrain_cli serve-bench tiny_cnn \
  --requests=4 --jobs=2 --baseline

echo "=== observability: traces validate and are byte-deterministic ==="
# The cycle-domain trace is a pure function of (network, config, seed):
# two runs at different --jobs must produce identical bytes, and both the
# Chrome trace and the metrics dump must satisfy the structural contract
# (well-formed JSON, required fields, monotone span nesting per row).
./build-ci-release/tools/cbrain_cli simulate alexnet --jobs=1 \
  --trace-out=/tmp/cbrain_trace_j1.json > /dev/null
./build-ci-release/tools/cbrain_cli simulate alexnet --jobs="$JOBS" \
  --trace-out=/tmp/cbrain_trace_jn.json > /dev/null
diff /tmp/cbrain_trace_j1.json /tmp/cbrain_trace_jn.json
./build-ci-release/tools/cbrain_cli serve-bench tiny_cnn --requests=8 \
  --jobs="$JOBS" --metrics-out=/tmp/cbrain_metrics.json > /dev/null
# The analytical timeline exports the same span schema from model_network.
./build-ci-release/tools/cbrain_cli timeline resnet18 \
  --trace-out=/tmp/cbrain_timeline.json > /dev/null
if command -v python3 >/dev/null 2>&1; then
  python3 tools/validate_trace.py /tmp/cbrain_trace_j1.json
  python3 tools/validate_trace.py /tmp/cbrain_timeline.json
  python3 tools/validate_trace.py /tmp/cbrain_metrics.json --metrics
else
  echo "validate_trace skipped (no python3)"
fi

echo "=== cycle tier: scalar and auto SIMD backends print identical bytes ==="
# The cycle tier's conv value pass checks each six-output block's weights
# (after the fault hooks) against the filter-sum contract and runs the
# tile kernel when they pass, its exact twin when they do not; FC runs
# the exact dot. Either way the sums are exact, so counters, the cycle
# trace and fault campaigns (upsets land in the buffer words the pass
# reads, parity replays re-run it) must not depend on the backend. The
# weight-site campaign upsets enough weight words that some conv blocks
# break the contract and take the exact fallback.
for simd in scalar auto; do
  ./build-ci-release/tools/cbrain_cli simulate alexnet --simd="$simd" \
    --trace-out="/tmp/cbrain_trace_$simd.json" > "/tmp/cbrain_sim_$simd.txt"
  ./build-ci-release/tools/cbrain_cli fault-campaign scheme_mix \
    --policy=partition --events --simd="$simd" \
    > "/tmp/cbrain_fault_$simd.txt"
  ./build-ci-release/tools/cbrain_cli fault-campaign lenet5,scheme_mix \
    --site=weight --recovery=none,parity,ecc --rate=500,20000 --events \
    --simd="$simd" > "/tmp/cbrain_wfault_$simd.txt"
done
diff /tmp/cbrain_sim_scalar.txt /tmp/cbrain_sim_auto.txt
diff /tmp/cbrain_trace_scalar.json /tmp/cbrain_trace_auto.json
diff /tmp/cbrain_fault_scalar.txt /tmp/cbrain_fault_auto.txt
diff /tmp/cbrain_wfault_scalar.txt /tmp/cbrain_wfault_auto.txt

echo "=== every fault site: ASan+UBSan campaign matches the Release bytes ==="
# One strike loop serves every storage and transfer site, over int16
# words (SRAM reads, DRAM writes through the bulk row writer's per-word
# hook, DMA bursts) and int64 accumulator partials; the PE lanes latch
# their own stuck bit. Run every site under every recovery policy with
# the event log under ASan+UBSan (vets the in-place corruption, the
# burst runs, the replay queue and the row staging) and require the
# exact Release output: tables, fault addresses, bits and recovery
# outcomes.
for build in release asan; do
  "./build-ci-$build/tools/cbrain_cli" fault-campaign \
    tiny_cnn,lenet5,scheme_mix --site=input,weight,bias,accum,dram,dma,pe \
    --recovery=none,parity,ecc --rate=500,20000 --events \
    > "/tmp/cbrain_site_fault_$build.txt"
done
diff /tmp/cbrain_site_fault_release.txt /tmp/cbrain_site_fault_asan.txt
# The same grid at --jobs=1 (every point and its value pass serial) and
# at --jobs=N (points spread over the pool, each point's value pass
# inline under the nesting rule) must print the same bytes.
./build-ci-release/tools/cbrain_cli fault-campaign \
  tiny_cnn,lenet5,scheme_mix --site=input,weight,bias,accum,dram,dma,pe \
  --recovery=none,parity,ecc --rate=500,20000 --events --jobs=1 \
  > /tmp/cbrain_site_fault_j1.txt
./build-ci-release/tools/cbrain_cli fault-campaign \
  tiny_cnn,lenet5,scheme_mix --site=input,weight,bias,accum,dram,dma,pe \
  --recovery=none,parity,ecc --rate=500,20000 --events --jobs="$JOBS" \
  > /tmp/cbrain_site_fault_jn.txt
diff /tmp/cbrain_site_fault_j1.txt /tmp/cbrain_site_fault_jn.txt

echo "=== fidelity: functional tier cross-validated against the oracle ==="
# The two execution tiers must stay bit-identical (DESIGN.md §12). The
# cross-validation suite runs the whole zoo through both executors; run
# it under ASan+UBSan so the packed weights, the staged conv inputs and
# the tile kernel's flat-run reads past each plane's rows are vetted, not
# just compared. fidelity-check then diffs one net end-to-end through the
# release CLI (it exits non-zero on any output mismatch), and TSan
# covers the functional tier under the pooled run_batches fan-out, then
# both tiers through the one serving loop with the cross-tier and
# per-call byte checks (--baseline).
./build-ci-asan/tests/test_fidelity
./build-ci-release/tools/cbrain_cli fidelity-check scheme_mix
./build-ci-tsan/tools/cbrain_cli serve-bench tiny_cnn --requests=8 \
  --jobs="$JOBS" --fidelity=functional > /dev/null
./build-ci-tsan/tools/cbrain_cli serve-bench tiny_cnn --requests=7 \
  --jobs="$JOBS" --fidelity=both --baseline > /dev/null

echo "=== batched execution: identity under sanitizers + any-jobs digests ==="
# Batched multi-image inference stages every image of a layer and shares
# one packed weight tensor across them. A lone request fans its layer
# kernels (conv staging and tile tasks, FC row chunks, pool planes, LRN
# rows) out over the worker pool; concurrent requests run their layers
# inline. --baseline asserts the outputs are byte-identical to per-call
# Session::infer; TSan runs one AlexNet request so the layer fan-out is
# race-checked, and ASan vets the shared staging indexing and the ragged
# last batch.
# test_batch carries the bitwise-identity, bad-slot isolation, and
# steady-state-allocation tests. The release leg runs at --jobs=1 and
# --jobs=N: --baseline holds both to the per-call bytes, so the outputs
# are the same at any --jobs.
for jobs in 1 "$JOBS"; do
  ./build-ci-release/tools/cbrain_cli serve-bench tiny_cnn --requests=9 \
    --batch=4 --jobs="$jobs" --fidelity=functional --baseline
done
./build-ci-tsan/tools/cbrain_cli serve-bench alexnet --requests=1 \
  --jobs="$JOBS" --fidelity=functional --baseline > /dev/null
./build-ci-asan/tools/cbrain_cli serve-bench tiny_cnn --requests=6 \
  --batch=4 --jobs=2 --fidelity=functional --baseline
./build-ci-asan/tests/test_batch

echo "=== modern layers: dilated/depthwise/residual under sanitizers ==="
# The modern-layer paths are the newest arithmetic (dilated taps as
# phase-plane shifts, the per-plane depthwise paths and their exact
# twin, the eltwise adder-tree tile): run their three-tier identity suite
# under ASan+UBSan so the staging indexing and the widening adds are
# vetted, not just compared. The TSan leg serves ResNet-18 — a residual multi-consumer
# DAG — through the functional tier's pooled fan-out to race-check the
# depth-stacked operand staging under concurrent sessions.
./build-ci-asan/tests/test_modern_layers
./build-ci-tsan/tools/cbrain_cli serve-bench resnet18 --requests=2 \
  --jobs=2 --fidelity=functional > /dev/null

echo "=== depthwise: staged vector path under ASan+UBSan and both backends ==="
# The functional tier runs a depthwise layer whose filters pass the
# filter-sum contract by staging each plane with its zero padding and
# calling simd::dw_conv_s16 over it (DESIGN.md §12). Serve MobileNetV1 at
# batch 2 under ASan+UBSan — its 112x112 planes with their padding frame,
# its 7x7 planes computed 8 wide into slack columns — with --baseline
# holding the bytes to the per-call path; then cross-check it against
# the cycle tier (exit 1 on any output mismatch) under the scalar
# reference and the dispatched backend, which must print identical
# reports.
./build-ci-asan/tools/cbrain_cli serve-bench mobilenetv1 \
  --fidelity=functional --batch=2 --baseline
for simd in scalar auto; do
  ./build-ci-release/tools/cbrain_cli fidelity-check mobilenetv1 \
    --simd="$simd" > "/tmp/cbrain_fidelity_mbv1_$simd.txt"
done
diff /tmp/cbrain_fidelity_mbv1_scalar.txt /tmp/cbrain_fidelity_mbv1_auto.txt

echo "=== multi-chip: package identity + sanitizers + trace determinism ==="
# The multi-chip executor's contract is bit-identity with the single-chip
# oracle at any chip count, partition strategy and --jobs (DESIGN.md
# §16). test_multichip carries the identity/halo/verifier suites — run it
# under ASan+UBSan so the slice/scatter indexing and the piece-parameter
# copies are vetted. The TSan leg runs an N-chip serve-bench (piece
# fan-out via the shared pool) under the race detector, and the
# determinism diff pins the chip-partitioned trace: per-chip tracks,
# spans and interconnect meters must be byte-identical at any --jobs.
./build-ci-asan/tests/test_multichip
./build-ci-tsan/tools/cbrain_cli serve-bench tiny_cnn --requests=4 \
  --chips=2 --jobs=2 --fidelity=functional > /dev/null
./build-ci-release/tools/cbrain_cli serve-bench tiny_cnn --requests=6 \
  --chips=4 --partition=shard --fidelity=functional --baseline
./build-ci-release/tools/cbrain_cli simulate tiny_cnn --chips=4 \
  --partition=shard --jobs=1 \
  --trace-out=/tmp/cbrain_mc_trace_j1.json > /dev/null
./build-ci-release/tools/cbrain_cli simulate tiny_cnn --chips=4 \
  --partition=shard --jobs="$JOBS" \
  --trace-out=/tmp/cbrain_mc_trace_jn.json > /dev/null
diff /tmp/cbrain_mc_trace_j1.json /tmp/cbrain_mc_trace_jn.json

echo "=== oracle: price table matches the exhaustive search on the heavy nets ==="
# The oracle prices every conv layer from four whole-net trials
# (DESIGN.md §18). Tier-1 checks it against the old per-layer search on
# the light nets; this leg adds VGG-16, GoogLeNet, ZFNet, SqueezeNet,
# ResNet-18 and MobileNetV1, where the reference re-models each net four
# times per conv layer.
./build-ci-release/tests/test_oracle --gtest_also_run_disabled_tests \
  --gtest_filter='Oracle.DISABLED_PriceTableMatchesExhaustiveSearchLong'

echo "=== perfbench: every workload builds, runs and reports its metrics ==="
# The repository benchmark builds its own copy of src/ (Release, into
# .bench_build/). The smoke test runs each workload for a couple of ops
# with and without tracing and checks correctness and the metric set.
python3 perfbench/smoke_test.py

echo "=== perf harness: kernel + whole-net + serve throughput (informational) ==="
# Quick harness run diffed against the committed baseline. Wall-clock on
# shared CI hosts is noisy, so bench_compare never fails the gate; the
# table is for humans watching trends.
./build-ci-release/bench/bench_micro_kernels \
  --perf-json=/tmp/cbrain_bench_kernels.json --quick
if command -v python3 >/dev/null 2>&1 && [ -f BENCH_kernels.json ]; then
  python3 tools/bench_compare.py BENCH_kernels.json \
    /tmp/cbrain_bench_kernels.json || true
else
  echo "bench_compare skipped (no python3 or no committed baseline)"
fi
# The tier gap: both tiers serve the same warm requests at --jobs=1,
# batch 4, and serve-bench prints the functional/cycle throughput ratio
# (README, Serving). Informational like the diff above: the
# ratio is printed, never compared.
for net in alexnet resnet18; do
  echo "--- $net: functional vs cycle, warm, --jobs=1 --batch=4"
  ./build-ci-release/tools/cbrain_cli serve-bench "$net" --fidelity=both \
    --jobs=1 --batch=4 --requests=8 | grep -E "^(cycle|functional)" || true
done

echo "ci_check: all suites passed"
