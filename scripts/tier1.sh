#!/usr/bin/env bash
# Tier-1 verification: the default build + full test suite, followed by
# sanitized configurations — ASan+UBSan over the inference server and its
# substrate, then TSan over the concurrency-labelled suites (server
# executor threads, metrics sinks, the logger).
#
# Usage: scripts/tier1.sh [jobs]
#
# Set DB_COVERAGE=1 to append a gcov line-coverage stage: the full suite
# runs in an instrumented build (build-coverage/) and a per-module
# line-coverage summary is printed at the end.
set -euo pipefail
cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

echo "== tier-1: default build =="
cmake --preset default
cmake --build --preset default -j "${JOBS}"
ctest --preset default -j "${JOBS}"

echo "== tier-1: profile report byte-stability =="
# The deterministic-profiling contract: two invocations of the profile
# subcommand on the same zoo model must render byte-identical reports
# (text and JSON), and the lint stage's metric-name allowlist must match
# the tree.
PROFILE_TMP="$(mktemp -d)"
trap 'rm -rf "${PROFILE_TMP}"' EXIT
build/tools/deepburning profile Alexnet > "${PROFILE_TMP}/a.txt"
build/tools/deepburning profile Alexnet > "${PROFILE_TMP}/b.txt"
cmp "${PROFILE_TMP}/a.txt" "${PROFILE_TMP}/b.txt"
build/tools/deepburning profile Alexnet --json > "${PROFILE_TMP}/a.json"
build/tools/deepburning profile Alexnet --json > "${PROFILE_TMP}/b.json"
cmp "${PROFILE_TMP}/a.json" "${PROFILE_TMP}/b.json"
scripts/lint.sh --metrics-only

echo "== tier-1: Release (-O3) build + differential suite =="
# Every build type must compile warning-clean under -Werror: -O3 turns
# on diagnostics (-Wrestrict, -Wstringop-*) the RelWithDebInfo build
# never sees.  The cross-path differential suite then checks that the
# -O3 datapath stays bit-identical across its execution paths.
cmake --preset release
cmake --build --preset release -j "${JOBS}"
ctest --preset release -j "${JOBS}" -L differential
# Auto selects the widest kernel backend, so on an AVX-512 host the
# suite above never serves through the AVX2 conv tile (its two 4-channel
# passes); run it again with that backend forced.
if grep -qw avx2 /proc/cpuinfo; then
  DB_SIM_KERNEL=avx2 ctest --preset release -j "${JOBS}" -L differential
fi

echo "== tier-1: ASan+UBSan on the concurrent server and its substrate =="
# Also the conv kernels: Kernels.ConvTileMatchesBruteForce runs every
# backend's tile on exact-size buffers, so a load past the tile's
# declared extent is an ASan error, and FunctionalSim's exact-reference
# conv sweep runs the phase layout over strided, padded and grouped
# shapes.  The span LUT evaluation indexes its table with computed
# positions, so the ApproxLut suite (every 16-bit key of every
# function) runs here too, and the serving golden scenarios drive the
# plan summary (SummarizePlan) through every fault and cluster path.
# The design cache's disk loader parses bytes from outside the program
# (checksum, canonical text, the sized-config record), so its suites
# (DesignCache, DesignCacheVerify) run here too.  The DRAM image is a
# mapped file that replicas map copy-on-write once it is sealed, so the
# seal, remap and copy paths (MemoryImage, ReplicateSystem) run here as
# well.
cmake --preset asan
cmake --build --preset asan -j "${JOBS}" \
  --target serve_test trace_test common_test perf_model_test \
           system_sim_test obs_test kernels_test functional_sim_test \
           approx_lut_test serve_golden_test cluster_test analysis_test \
           memory_image_test
ctest --preset asan -j "${JOBS}" \
  -R 'Batcher|PlanServe|InferenceServer|PerfTrace|MathUtil|SystemContext|SystemSim|PerfModel|Metrics|Tracer|ScopedSpan|ChromeTrace|ExportPerfTrace|Kernels\.|FunctionalSim|ApproxLut\.|ServeGolden|DesignCache|ReplicateSystem|MemoryImage'

echo "== tier-1: UBSan on the static verifier and RTL checker =="
# The verifier's interval arithmetic (AGU footprints, memory-map overlap
# scans, fold partitions) is exactly where signed overflow and bad shifts
# would hide; pure UBSan runs it at near-native speed, including the
# seeded mutation sweep and the rtl.decl / per-block RTL checker cases.
# The CLI contract (cli_exit_codes) runs here too, against a UBSan
# deepburning binary: signed overflow in flag handling (such as an
# arrival cycle of requests x gap) aborts the run instead of passing
# with a wrapped value.  Shape inference and the prototxt frontend run
# here as well, so a conv or pooling extent that overflows int64 aborts
# instead of passing as a wrapped shape.  So do the simulator's exact-
# reference suites and kernels: a signed overflow in the Winograd route's
# integer input and weight transforms aborts here.
cmake --preset ubsan
cmake --build --preset ubsan -j "${JOBS}" \
  --target analysis_test rtl_test rtl_analysis_test deepburning \
           network_test network_def_test functional_sim_test kernels_test
ctest --preset ubsan -j "${JOBS}" \
  -R 'Diagnostics|Verifier|MutationSweep|DesignCacheVerify|BrokenRuleSweep|Lint\.|LintDesign\.|RtlDecl|EmitsLintCleanModule|^cli_exit_codes$|ShapeInference|NetworkDef|FunctionalSim\.|Kernels\.'

echo "== tier-1: UBSan on the RTL analysis suite (ctest -L rtl) =="
# The elaborator's bit-range bookkeeping and the width-inference
# arithmetic (slice bounds, literal rendering shifts, Tarjan indices)
# run the whole rtl-labelled suite under UBSan: the typed-AST printer
# goldens, the netlist elaborator and the rtl.* mutation sweep.
cmake --build --preset ubsan -j "${JOBS}" --target rtl_test rtl_analysis_test
ctest --preset ubsan -j "${JOBS}" -L rtl

echo "== tier-1: TSan on the thread-labelled suites (ctest -L threads) =="
cmake --preset tsan
cmake --build --preset tsan -j "${JOBS}" \
  --target serve_test obs_test common_test
ctest --preset tsan -j "${JOBS}" -L threads

echo "== tier-1: ASan fault campaign (ctest -L faults) =="
# The seeded fault-injection campaign (bit flips, transients, stalls)
# under ASan+UBSan: recovery paths (scrub-and-reload, retries, deadline
# expiry, shedding) must be memory-clean, not just correct.
cmake --build --preset asan -j "${JOBS}" --target fault_test
ctest --preset asan -j "${JOBS}" -L faults

echo "== tier-1: ASan cluster chaos campaign (ctest -L chaos) =="
# Cluster-level resilience under ASan+UBSan: replica crash re-dispatch
# and readmission, the health log derived from the plan, circuit
# breaking and hedging must keep every request accounted for (and
# bit-identical where kOk) while the recovery paths stay memory-clean.
cmake --build --preset asan -j "${JOBS}" --target chaos_test
ctest --preset asan -j "${JOBS}" -L chaos

echo "== tier-1: ASan DSE campaign (ctest -L dse) + tune byte-stability =="
# The design-space exploration contract under ASan+UBSan: the exhaustive
# cross-check (parallel pruned search == brute-force frontier on every
# zoo model), the Pareto property suite and the sweep grammar must be
# memory-clean.  Then the CLI smoke: the tune report must be
# byte-identical across reruns and across --jobs values, for MNIST and
# for NiN, the zoo model with the most fold segments per layer.
cmake --build --preset asan -j "${JOBS}" --target dse_test
ctest --preset asan -j "${JOBS}" -L dse
build/tools/deepburning tune MNIST --jobs 1 > "${PROFILE_TMP}/tune_a.txt"
build/tools/deepburning tune MNIST --jobs 8 > "${PROFILE_TMP}/tune_b.txt"
cmp "${PROFILE_TMP}/tune_a.txt" "${PROFILE_TMP}/tune_b.txt"
build/tools/deepburning tune MNIST --jobs 8 --json > "${PROFILE_TMP}/tune_a.json"
build/tools/deepburning tune MNIST --jobs 8 --json > "${PROFILE_TMP}/tune_b.json"
cmp "${PROFILE_TMP}/tune_a.json" "${PROFILE_TMP}/tune_b.json"
build/tools/deepburning tune NiN --jobs 1 > "${PROFILE_TMP}/nin_a.txt"
build/tools/deepburning tune NiN --jobs 8 > "${PROFILE_TMP}/nin_b.txt"
cmp "${PROFILE_TMP}/nin_a.txt" "${PROFILE_TMP}/nin_b.txt"
build/tools/deepburning tune NiN --jobs 1 --json > "${PROFILE_TMP}/nin_a.json"
build/tools/deepburning tune NiN --jobs 8 --json > "${PROFILE_TMP}/nin_b.json"
cmp "${PROFILE_TMP}/nin_a.json" "${PROFILE_TMP}/nin_b.json"
# A cold run fills the design cache; the warm run rebuilds the winner
# from the cached sizing and must write the same report byte for byte.
build/tools/deepburning tune MNIST --design-cache "${PROFILE_TMP}/dc" \
  --out "${PROFILE_TMP}/tune_cold.txt" > /dev/null
build/tools/deepburning tune MNIST --design-cache "${PROFILE_TMP}/dc" \
  --out "${PROFILE_TMP}/tune_warm.txt" > "${PROFILE_TMP}/tune_warm.log"
grep -q '^tune cache: reused' "${PROFILE_TMP}/tune_warm.log"
cmp "${PROFILE_TMP}/tune_cold.txt" "${PROFILE_TMP}/tune_warm.txt"

echo "== tier-1: bench smoke (perf-trajectory harness + diff tool) =="
# Minimal-run trajectory into a temp dir, then bench_diff.py over the
# committed snapshots: proves the harness runs, the JSON parses, and the
# regression gate works.  Smoke numbers are unwarmed, so the sim compare
# is parse-only (huge tolerance); the serve compare is simulated time
# and must hold to the default 10%.
scripts/bench.sh --smoke "${JOBS}"

if [[ "${DB_COVERAGE:-0}" == "1" ]]; then
  echo "== tier-1: gcov line coverage over the full suite =="
  cmake --preset coverage
  cmake --build --preset coverage -j "${JOBS}"
  ctest --preset coverage -j "${JOBS}"
  # Per-module summary: aggregate each src/<module>'s gcov line rates.
  # gcov writes its .gcov transcripts into the cwd; keep them out of the
  # tree.
  (
    cd build-coverage
    find . -name '*.gcda' -path '*src*' -print0 |
      xargs -0 gcov 2>/dev/null |
      awk '/^File .*\/src\// {
             file = $2; gsub(/'"'"'/, "", file)
             sub(/.*\/src\//, "", file); sub(/\/.*/, "", file)
           }
           /^Lines executed:/ && file != "" {
             split($0, a, ":"); split(a[2], b, "% of ")
             covered[file] += b[2] * b[1] / 100.0; total[file] += b[2]
             file = ""
           }
           END {
             printf "%-12s %10s %10s %8s\n",
                    "module", "lines", "covered", "rate"
             for (m in total)
               printf "%-12s %10d %10d %7.1f%%\n",
                      m, total[m], covered[m], 100.0 * covered[m] / total[m]
           }' | sort
    rm -f ./*.gcov
  )
fi

echo "tier-1 OK"
