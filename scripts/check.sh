#!/usr/bin/env bash
# Checks that `sbt test` does not make, then the code-line count.
#
#   1. `sbt Test/compile bench/Test/compile`: the program, its tests and the
#      bench suites, all with -Werror. The same sbt call runs the Table 2
#      bench (no Spark) under LC_ALL=POSIX and fails unless it prints
#      `10K·20`: forked JVMs must write UTF-8 whatever the host's locale.
#   2. `python3 perfbench/build.py`: the benchmark against the program
#      (compile only; writes only the git-ignored .bench_build/).
#   3. Code lines: non-blank lines in src/main/scala and jobs that do not
#      start with //, /* or *.
#
# sbt takes its usual settings from the environment (SBT_OPTS,
# COURSIER_MODE). Run from anywhere: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

log=$(mktemp)
trap 'rm -f "$log"' EXIT
LC_ALL=POSIX sbt --batch Test/compile bench/Test/compile "bench/testOnly *Table2Bench" | tee "$log"
if ! grep -qF '10K·20' "$log"; then
  echo "check.sh: Table 2 under LC_ALL=POSIX did not print 10K·20 (forked JVM output is not UTF-8)" >&2
  exit 1
fi
python3 perfbench/build.py

lines=$(find src/main/scala jobs -name '*.scala' -exec cat {} + |
        grep -v '^[[:space:]]*$' | grep -cv '^[[:space:]]*\(//\|/\*\|\*\)')
echo "code lines (src/main/scala + jobs): $lines"
