"""Benchmark entry point: M/S/F training time on two workloads.

    python3 perfbench/run.py --workload gmm-large-r --seed 1 --seconds 20 --trace 0

Builds the program and the benchmark from source (see build.py), runs one
workload in one JVM with a local Spark of `nproc` threads, and prints one
line per metric (median, sample count, tail percentile), the run
environment and every fit's objective sequence, then, as the last line, the
result object `{"correct", "attempted", "failed", "metrics"}`.

`--trace 0` times whole `train` calls (the end-to-end metrics); `--trace 1`
runs the traced per-layer pass and writes its spans next to the raw
samples under `.bench_build/perfbench/runs/`. METRICS.md lists every metric.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402
import report  # noqa: E402

WORKLOADS = ("gmm-large-r", "nn-wide")
HEAP = "3g"
# The JVM is killed after this long, so a run ends within three minutes.
TIMEOUT_S = 170

# Spark 4 on JDK 17 needs these opens (the same list as build.sbt). The
# heap is fixed so its growth does not land in the timings.
JVM_FLAGS = [f"-Xms{HEAP}", f"-Xmx{HEAP}", "-Xss4m", "-XX:+UseParallelGC"] + [
    f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
        "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
        "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def run_jvm(cp, workload, seed, seconds, trace, run_dir):
    """Run one workload in a fresh JVM; returns (exit code, raw.json, log)."""
    shutil.rmtree(run_dir, ignore_errors=True)
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    raw_path = run_dir / "raw.json"
    log_path = run_dir / "jvm.log"
    cmd = [build.java(), *JVM_FLAGS, f"-Djava.io.tmpdir={tmp}", "-cp", cp,
           "perfbench.Main", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(raw_path)]
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=log, stderr=subprocess.STDOUT,
                                env=dict(os.environ, TMPDIR=str(tmp)))
        try:
            code = proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    shutil.rmtree(tmp, ignore_errors=True)
    return code, raw_path, log_path


def git_sha() -> str:
    if not (build.ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    env = dict(os.environ, GIT_DIR=str(build.ROOT / ".git"))
    p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return p.stdout.strip() or "unknown"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args(argv)

    try:
        cp = build.build()
    except build.BuildError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    run_dir = build.BUILD / "runs" / f"{a.workload}-seed{a.seed}-trace{a.trace}"
    code, raw_path, log_path = run_jvm(cp, a.workload, a.seed, a.seconds, a.trace, run_dir)
    if code != 0 or not raw_path.is_file():
        why = "timed out" if code is None else f"exited with {code}"
        print(f"perfbench: JVM {why}; log in {log_path}", file=sys.stderr)
        return 1

    raw = json.loads(raw_path.read_text())
    raw["env"].update(git_sha=git_sha(), nproc=len(os.sched_getaffinity(0)), xmx=HEAP)
    try:
        result = report.build_result(raw, bool(a.trace))
    except ValueError as e:
        for line in report.info_lines(raw, bool(a.trace)):
            print(line, file=sys.stderr)
        print(f"perfbench: {e}; log in {log_path}", file=sys.stderr)
        return 1
    for line in report.info_lines(raw, bool(a.trace)):
        print(line)
    print(f"info raw samples: {raw_path.relative_to(build.ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
