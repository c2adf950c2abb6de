#!/usr/bin/env python3
"""The benchmark's single command.

    python3 perfbench/run.py --workload kg-batch --seed 1 --seconds 20 --trace 0

Builds the program if needed (see build.py), runs one benchmark JVM with
Spark `local[k]`, k = min(4, nproc), and prints every metric by name and
unit, then one JSON object as the last line of stdout:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
With `--trace 0` the metrics are BENCHMARK.json's `end_to_end` list, with
`--trace 1` its `per_layer` list. Exits non-zero without a result when the
build, the run or the result's shape fails.
"""
import argparse
import json
import os
import subprocess
import sys
import time

import build

MAX_CORES = 4
RUN_TIMEOUT_S = 170


def fail(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr)
    sys.exit(2)


def expected_metrics(trace: bool) -> tuple:
    with open(os.path.join(build.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}, spec["workloads"]


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    want, workloads = expected_metrics(a.trace == 1)
    if a.workload not in {w["name"] for w in workloads}:
        fail(f"unknown workload {a.workload!r}")
    try:
        build_id = build.ensure()
    except build.BuildError as e:
        fail(f"build failed: {e}")

    state = os.path.join(build.OUT, "state")
    local = os.path.join(build.OUT, "spark-local")
    tmp = os.path.join(build.OUT, "tmp")
    for d in (state, local, tmp):
        os.makedirs(d, exist_ok=True)
    cores = max(1, min(MAX_CORES, os.cpu_count() or 1))
    env = {k: v for k, v in os.environ.items()
           if k not in ("SPARK_SHUFFLE_PARTITIONS", "SPARK_CONF_DIR", "OMP_NUM_THREADS")}
    env.update(SPARK_MASTER=f"local[{cores}]", SPARK_LOCAL_DIRS=local)
    cmd = [build.java(),
           # A fixed, pre-touched heap: heap resizing made whole runs shift by ±10%.
           "-Xms2g", "-Xmx2g", "-XX:+AlwaysPreTouch", f"-XX:ActiveProcessorCount={cores}", "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}", f"-Dspark.local.dir={local}",
           f"-Dspark.sql.warehouse.dir={os.path.join(build.OUT, 'warehouse')}",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
           "--add-modules=jdk.incubator.vector",
           "-cp", build.classpath(), "perfbench.Main",
           "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--state", state, "--build-id", build_id]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=build.OUT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark JVM did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"benchmark JVM exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("benchmark JVM printed no JSON result")

    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(want.items())}")
    if result["attempted"] < 1:
        fail("no operation was attempted")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'error_rate':40s} {result['failed'] / result['attempted']:>16.6g} ratio")
    print(f"{'wall_s':40s} {time.monotonic() - t0:>16.6g} s")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
