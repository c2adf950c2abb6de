#!/usr/bin/env bash
# Compile checks that `sbt test` does not make, then the code-line count.
#
#   1. `sbt Test/compile bench/Test/compile`: the program, its tests and the
#      bench suites, all with -Werror.
#   2. `python3 perfbench/build.py`: the benchmark against the program
#      (compile only; writes only the git-ignored .bench_build/).
#   3. Code lines: non-blank lines in src/main/scala and jobs that do not
#      start with //, /* or *.
#
# sbt takes its usual settings from the environment (SBT_OPTS,
# COURSIER_MODE). Run from anywhere: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

sbt --batch Test/compile bench/Test/compile
python3 perfbench/build.py

lines=$(find src/main/scala jobs -name '*.scala' -exec cat {} + |
        grep -v '^[[:space:]]*$' | grep -cv '^[[:space:]]*\(//\|/\*\|\*\)')
echo "code lines (src/main/scala + jobs): $lines"
