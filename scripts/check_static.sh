#!/usr/bin/env bash
# Static-analysis gate: vodlint (always), then clang-tidy and clang-format
# (when installed — the CI image has them, minimal dev containers may not).
#
# Usage: scripts/check_static.sh [--fix]
#   --fix   let clang-format rewrite files instead of failing on drift
# Exits non-zero on any vodlint violation, clang-tidy error (the .clang-tidy
# config promotes all warnings), or formatting drift.
set -euo pipefail

cd "$(dirname "$0")/.."

fix=0
if [[ "${1:-}" == "--fix" ]]; then
  fix=1
fi

echo "== vodlint =="
python3 tools/vodlint/vodlint.py --self-test
# The whole-tree scan covers the bench/example/tool sources too, so the
# replay rules ([shared-mutable-global], [raw-thread]) hold everywhere.  The
# report lands in build/ for EXPERIMENTS.md-style baseline counts; fixture
# files are excluded from the walk and exercised by their own --expect
# ctest entries.
mkdir -p build
python3 tools/vodlint/vodlint.py --root . \
  --report build/vodlint_report.json src bench examples tools

if command -v clang-tidy >/dev/null 2>&1; then
  echo "== clang-tidy =="
  # clang-tidy needs the compilation database the default preset exports.
  if [[ ! -f build/compile_commands.json ]]; then
    cmake --preset default >/dev/null
  fi
  mapfile -t sources < <(find src -name '*.cpp' | sort)
  clang-tidy -p build --quiet "${sources[@]}"
else
  echo "== clang-tidy not installed; skipping =="
fi

if command -v clang-format >/dev/null 2>&1; then
  echo "== clang-format =="
  mapfile -t files < <(find src tests bench examples \
    \( -name '*.cpp' -o -name '*.h' \) | sort)
  if [[ $fix -eq 1 ]]; then
    clang-format -i "${files[@]}"
  else
    clang-format --dry-run --Werror "${files[@]}"
  fi
else
  echo "== clang-format not installed; skipping =="
fi

echo "static checks passed"
