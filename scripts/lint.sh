#!/usr/bin/env bash
# Two stages: a metric-name lint that always runs, then clang-tidy over
# the whole tree, driven by the default build's compile_commands.json
# and the checks in .clang-tidy (bugprone-*, performance-*,
# readability-identifier-naming).
#
# Usage: scripts/lint.sh [--metrics-only] [jobs]
#
# The toolchain image ships gcc only; when no clang-tidy binary is on
# PATH the script reports that and exits 0 so CI recipes can call it
# unconditionally — it gates, it does not fail, on the missing tool.
set -euo pipefail
cd "$(dirname "$0")/.."
METRICS_ONLY=0
if [[ "${1:-}" == "--metrics-only" ]]; then
  METRICS_ONLY=1
  shift
fi
JOBS="${1:-$(nproc)}"

# --- Metric-name lint -------------------------------------------------
# Every metric or time-series name emitted in src/ must appear in the
# checked-in allowlist, and every allowlisted name must still be
# emitted.  This catches accidental renames (which would silently break
# BENCH comparisons, dashboards and the serve_determinism gate) and
# stale allowlist entries alike.  Extraction: the first string literal
# handed to AddCounter/SetGauge/Observe/MergeHistogram/Append, with
# printf-style replica indices normalised to <n> and dynamic-suffix
# sites (a literal prefix ending in ".") normalised to <dynamic>.
ALLOWLIST="scripts/metric_allowlist.txt"
emitted="$(
  grep -rhoE \
    '(AddCounter|SetGauge|Observe|MergeHistogram|Append)\((StrFormat\(|std::string\()?"[^"]+"' \
    src |
    sed -E 's/^[A-Za-z_]+\((StrFormat\(|std::string\()?"//; s/"$//' |
    sed -E 's/%d/<n>/g; s/\.$/.<dynamic>/' |
    LC_ALL=C sort -u
)"
if ! diff -u "${ALLOWLIST}" <(printf '%s\n' "${emitted}"); then
  echo "lint: metric names diverge from ${ALLOWLIST}" >&2
  echo "lint: update the allowlist if the rename is intentional" >&2
  exit 1
fi
# Taxonomy: <subsystem>.<noun>[.<noun>...] — lowercase snake_case parts,
# with <n>/<dynamic> placeholders allowed inside a part.
bad="$(printf '%s\n' "${emitted}" |
  grep -vE '^[a-z][a-z0-9_]*(\.([a-z0-9_]|<n>|<dynamic>)+)+$' || true)"
if [[ -n "${bad}" ]]; then
  echo "lint: metric names violate the <subsystem>.<noun> taxonomy:" >&2
  printf '%s\n' "${bad}" >&2
  exit 1
fi
echo "lint: metric names match ${ALLOWLIST}"
if [[ "${METRICS_ONLY}" == "1" ]]; then
  exit 0
fi

TIDY=""
for candidate in clang-tidy clang-tidy-18 clang-tidy-17 clang-tidy-16 \
                 clang-tidy-15 clang-tidy-14; do
  if command -v "${candidate}" >/dev/null 2>&1; then
    TIDY="${candidate}"
    break
  fi
done
if [[ -z "${TIDY}" ]]; then
  echo "lint: no clang-tidy on PATH; skipping (checks live in .clang-tidy)"
  exit 0
fi

# The default build exports the compilation database the tool needs.
cmake --preset default -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
if [[ ! -f build/compile_commands.json ]]; then
  echo "lint: build/compile_commands.json did not materialise" >&2
  exit 1
fi

# Every first-party translation unit; third-party code never enters the
# tree, so no exclusion list is needed.
mapfile -t sources < <(find src tools tests -name '*.cpp' | sort)
echo "lint: ${TIDY} over ${#sources[@]} files (${JOBS} jobs)"
printf '%s\n' "${sources[@]}" |
  xargs -P "${JOBS}" -n 8 "${TIDY}" -p build --quiet
echo "lint OK"
