#!/usr/bin/env bash
# starlab lint gate: starlint (the project's own analyzer, tools/starlint)
# plus clang-tidy when available. CI runs this as the `lint` job; locally it
# degrades gracefully on toolchains without clang-tidy (gcc-only containers).
# starlint writes its SARIF report to <build-dir>/starlint.sarif. See
# docs/STATIC_ANALYSIS.md.
#
# Usage: scripts/lint.sh [build-dir]        (default: build)
#        scripts/lint.sh --write-baseline   (regenerate the starlint baseline)
#        scripts/lint.sh --only=<rule,...>  (restrict starlint to these rules)
set -u -o pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="build"
WRITE_BASELINE=0
ONLY=""
for arg in "$@"; do
  case "${arg}" in
    --write-baseline) WRITE_BASELINE=1 ;;
    --only=*) ONLY="${arg}" ;;
    *) BUILD_DIR="${arg}" ;;
  esac
done

STATUS=0

# ---------------------------------------------------------------------------
# 1. starlint: layering DAG, determinism bans, API hygiene (always runs —
#    it builds with the project toolchain, no clang needed).
# ---------------------------------------------------------------------------
if [ ! -f "${BUILD_DIR}/compile_commands.json" ]; then
  echo "lint: configuring ${BUILD_DIR} for compile_commands.json"
  cmake -B "${BUILD_DIR}" -S . >/dev/null
fi
cmake --build "${BUILD_DIR}" --target starlint -j "$(nproc)" >/dev/null || exit 1
STARLINT="${BUILD_DIR}/tools/starlint/starlint"

if [ "${WRITE_BASELINE}" -eq 1 ]; then
  "${STARLINT}" --root . --compdb "${BUILD_DIR}/compile_commands.json" \
    --write-baseline
  exit $?
fi

echo "lint: starlint (tools/starlint)"
"${STARLINT}" --root . --compdb "${BUILD_DIR}/compile_commands.json" \
  --sarif "${BUILD_DIR}/starlint.sarif" ${ONLY:+"${ONLY}"} || STATUS=1

# ---------------------------------------------------------------------------
# 2. clang-tidy over the compilation database (skipped if not installed).
# ---------------------------------------------------------------------------
if command -v clang-tidy >/dev/null 2>&1; then
  echo "lint: clang-tidy ($(clang-tidy --version | head -n1))"
  if command -v run-clang-tidy >/dev/null 2>&1; then
    run-clang-tidy -p "${BUILD_DIR}" -quiet "src/.*\.cpp$" || STATUS=1
  else
    # Fallback without the parallel driver: lint every src/ TU serially.
    while IFS= read -r tu; do
      clang-tidy -p "${BUILD_DIR}" --quiet "${tu}" || STATUS=1
    done < <(find src -name '*.cpp' | sort)
  fi
else
  echo "lint: clang-tidy not installed; skipping (starlint still enforced)"
fi

exit "${STATUS}"
