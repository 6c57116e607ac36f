#!/usr/bin/env bash
# Canonical local CI gate: configure + build + ctest in Debug and Release.
# Run from anywhere; builds land in <repo>/build-ci-{debug,release}.
#
# Usage: tools/ci.sh [--werror] [extra cmake args...]
set -euo pipefail

repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

cmake_args=()
if [[ "${1:-}" == "--werror" ]]; then
  cmake_args+=(-DPIMECC_WERROR=ON)
  shift
fi
cmake_args+=("$@")

# Sanitizer stage: UBSan+ASan Debug build running the unit-label tests, so
# the shift-width / tail-word / gather-bounds classes of bug the SIMD
# kernels are hardened against (and out-of-range float-to-integer casts)
# abort CI instead of regressing silently.
# Skipped (with a notice) when the toolchain has no ASan runtime.
sanitize_dir="$repo/build-ci-sanitize"
if echo 'int main(){}' | c++ -x c++ -fsanitize=address,undefined,float-cast-overflow -o /dev/null - 2>/dev/null; then
  echo "==== [Sanitize] configure ===="
  cmake -B "$sanitize_dir" -S "$repo" -DCMAKE_BUILD_TYPE=Debug -DPIMECC_SANITIZE=ON \
    "${cmake_args[@]+"${cmake_args[@]}"}"
  echo "==== [Sanitize] build ===="
  cmake --build "$sanitize_dir" -j "$jobs"
  echo "==== [Sanitize] test (unit label) ===="
  ctest --test-dir "$sanitize_dir" -L unit --output-on-failure -j "$jobs"
else
  echo "==== toolchain lacks ASan/UBSan runtime; skipping sanitize stage ===="
fi

# ThreadSanitizer stage: races the executor's task queue, the fleet bulk
# operations, and the trial pools (the concurrency-label tests).  TSan can't
# coexist with ASan in one binary, so this is its own build tree.  Skipped
# (with a notice) when the toolchain has no TSan runtime.
tsan_dir="$repo/build-ci-tsan"
if echo 'int main(){}' | c++ -x c++ -fsanitize=thread -o /dev/null - 2>/dev/null; then
  echo "==== [TSan] configure ===="
  cmake -B "$tsan_dir" -S "$repo" -DCMAKE_BUILD_TYPE=Debug -DPIMECC_TSAN=ON \
    "${cmake_args[@]+"${cmake_args[@]}"}"
  echo "==== [TSan] build ===="
  cmake --build "$tsan_dir" -j "$jobs"
  echo "==== [TSan] test (concurrency label) ===="
  ctest --test-dir "$tsan_dir" -L concurrency --output-on-failure -j "$jobs"
  # The serve deadline/cancel/shutdown paths and the fleet quarantine
  # accounting race threads by design; run them under TSan explicitly.
  echo "==== [TSan] test (robustness label) ===="
  ctest --test-dir "$tsan_dir" -L robustness --output-on-failure -j "$jobs"
else
  echo "==== toolchain lacks TSan runtime; skipping tsan stage ===="
fi

# Compile-out stage: -DPIMECC_FORCE_SCALAR=ON (the `scalar` preset) builds
# the AVX2/AVX-512 units as stubs, so only the scalar kernel table exists.
# The environment-forced entries (*_forced_scalar) still compile the wide
# kernels in; this stage proves the product and its unit suites build and
# pass without them.
scalar_dir="$repo/build-ci-scalar"
echo "==== [Scalar build] configure ===="
cmake -B "$scalar_dir" -S "$repo" -DCMAKE_BUILD_TYPE=Release -DPIMECC_FORCE_SCALAR=ON \
  "${cmake_args[@]+"${cmake_args[@]}"}"
echo "==== [Scalar build] build ===="
cmake --build "$scalar_dir" -j "$jobs"
echo "==== [Scalar build] test (unit label) ===="
ctest --test-dir "$scalar_dir" -L unit --output-on-failure -j "$jobs"

release_dir=""
for config in Debug Release; do
  # tr, not ${config,,}: macOS ships bash 3.2 which lacks case expansion.
  build_dir="$repo/build-ci-$(tr '[:upper:]' '[:lower:]' <<<"$config")"
  if [[ "$config" == "Release" ]]; then release_dir="$build_dir"; fi
  echo "==== [$config] configure ===="
  cmake -B "$build_dir" -S "$repo" -DCMAKE_BUILD_TYPE="$config" "${cmake_args[@]+"${cmake_args[@]}"}"
  echo "==== [$config] build ===="
  cmake --build "$build_dir" -j "$jobs"
  echo "==== [$config] test ===="
  ctest --test-dir "$build_dir" -LE lint --output-on-failure -j "$jobs"
  # Fault-tolerance gate: the chaos-injection + crash-recovery suites
  # (torn-write checkpoint resume, serve admission/deadline/shutdown,
  # fleet quarantine accounting) must pass standalone in every config.
  echo "==== [$config] test (robustness label) ===="
  ctest --test-dir "$build_dir" -L robustness --output-on-failure -j "$jobs"
done

# Reachability stage: lint.product_reachable builds src/ and tools/ at -O0
# with one section per function, relinks pimecc with --gc-sections and a
# link map, and fails on an unreached product function that
# tools/product_reachable.txt does not list, or a listed one that is
# reached.  It runs once, from the Release tree; it skips itself (with a
# notice) without GNU ld, nm or c++filt.
echo "==== [Lint] product reachability ===="
ctest --test-dir "$release_dir" -L lint --output-on-failure

# Bench smoke runs, archived next to the Release build as
# BENCH_<name>.json (the committed BENCH_*.json files at the repo root are
# full-configuration runs; don't clobber them from CI).  Every smoke
# configuration runs its bench's cross-checks and exits non-zero on any
# divergence:
#   engine       throughput harness only
#   codec        fast-vs-reference codec differential
#   arch         fast-vs-reference machine differential (contents, check
#                state, cycle counters, reports)
#   reliability  sparse-vs-dense Monte Carlo counter equality and the
#                lifetime distribution gates
#   fleet        fleet-vs-flat Monte Carlo bit identity at every shard and
#                worker count, fleet-vs-single-crossbar scrub differential
#   serving      serve determinism at every batch size and lane count,
#                machine checkpoint continuation, chunked-lifetime resume
#   scenarios    1- vs 4-lane bit identity, zero-rate scrub accounting
#                against the lifetime engine, iid pin, stuck-at invariants
#   paper        every paper claim: Table I/II, Fig. 2/6, the false-positive
#                race, bursts, slope families, lifetime, Monte Carlo,
#                refresh + ECC and the ablation trends
# A missing binary (extra cmake args may disable the bench build) is
# skipped with a notice.
for bench in engine:bench_engine_throughput codec:bench_codec_throughput \
             arch:bench_arch_throughput reliability:bench_reliability_throughput \
             fleet:bench_fleet_throughput serving:bench_serving \
             scenarios:bench_scenarios paper:bench_paper; do
  name="${bench%%:*}"
  bin_name="${bench#*:}"
  bench_bin="$release_dir/bench/$bin_name"
  if [[ -n "$release_dir" && -x "$bench_bin" ]]; then
    echo "==== [Release] $bin_name (smoke) ===="
    "$bench_bin" --smoke --out="$release_dir/BENCH_$name.json"
    echo "archived $release_dir/BENCH_$name.json"
  else
    echo "==== $bin_name not built; skipping smoke bench ===="
  fi
done

# End-to-end benchmark self-test: every workload briefly, untraced and
# traced, with every correctness check on; non-zero exit on any failure.
echo "==== e2e_bench (smoke) ===="
(cd "$repo" && python3 e2e_bench/run.py --smoke)

echo "==== CI gate passed (Debug + Release) ===="
