#!/usr/bin/env python3
"""Build file of the benchmark package.

Compiles the program (`src/main/scala`, `jobs`) together with the benchmark
(`perfbench/src`) using the Scala compiler that ships in Spark's `jars`
directory, so no dependency resolution is needed. Output goes to
`.bench_build/perfbench/classes` at the repo root and is rebuilt only when a
source file changes. Run directly to build: `python3 perfbench/build.py`.
"""
import glob
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
CLASSES = os.path.join(OUT, "classes")
STAMP = os.path.join(OUT, "classes.stamp")

SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(ROOT, "jobs"),
               os.path.join(HERE, "src")]
RESOURCE_DIR = os.path.join(ROOT, "src", "main", "resources")


class BuildError(Exception):
    pass


def java() -> str:
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        raise BuildError("no java executable (set JAVA_HOME or put java on PATH)")
    return exe


def spark_jars() -> str:
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        home = os.path.dirname(os.path.dirname(os.path.realpath(submit))) if submit else ""
    jars = os.path.join(home, "jars")
    if not glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
        raise BuildError(f"no Spark jars with a Scala compiler under {jars!r} (set SPARK_HOME)")
    return jars


def sources() -> list:
    missing = [d for d in SOURCE_DIRS if not os.path.isdir(d)]
    if missing:
        raise BuildError("program sources not found: " + ", ".join(os.path.relpath(d, ROOT) for d in missing))
    return sorted(f for d in SOURCE_DIRS for f in glob.glob(os.path.join(d, "**", "*.scala"), recursive=True))


def fingerprint(files: list) -> str:
    h = hashlib.sha256()
    for f in files + [os.path.abspath(__file__)]:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def classpath() -> str:
    return os.pathsep.join([CLASSES, os.path.join(spark_jars(), "*")])


def ensure() -> str:
    """Compile if the sources changed since the last build; return the build id."""
    files = sources()
    build_id = fingerprint(files)
    if os.path.exists(STAMP) and open(STAMP).read().strip() == build_id:
        return build_id
    jars = os.path.join(spark_jars(), "*")
    staging = CLASSES + ".tmp"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    print(f"[perfbench] compiling {len(files)} sources", file=sys.stderr, flush=True)
    cmd = [java(), "-Xmx2g", "-cp", jars, "scala.tools.nsc.Main", "-nowarn", "-usejavacp",
           "-d", staging] + files
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BuildError("compilation failed")
    if os.path.isdir(RESOURCE_DIR):
        shutil.copytree(RESOURCE_DIR, staging, dirs_exist_ok=True)
    shutil.rmtree(CLASSES, ignore_errors=True)
    os.rename(staging, CLASSES)
    with open(STAMP, "w") as fh:
        fh.write(build_id + "\n")
    return build_id


if __name__ == "__main__":
    try:
        print(ensure())
    except BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        sys.exit(2)
