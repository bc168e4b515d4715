#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload pr --seed 1 --seconds 50 --trace 0

Builds the library and the benchmark program from source (CMake, Release,
into $CARGO_TARGET_DIR or .bench_build), then runs one measurement and
passes its output through: a `perfbench-detail {...}` line (host
fingerprint, percentiles with sample counts, per-phase self times) and,
last, the result line `{"correct", "attempted", "failed", "metrics"}`.
With --trace 1 the spans are written to
<build dir>/perfbench/spans/<workload>-seed<N>.json. Every run's output
is also kept under <build dir>/perfbench/results/.

Exits non-zero, without a result line, when the build or the run fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; the first one in a checkout also builds
# and may take 900 s.
RUN_LIMIT_S = 170
FIRST_RUN_LIMIT_S = 880


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir, deadline):
    """Configure (once) and build the program; True if it configured."""
    # Keep the compiler's temporary files inside the build tree too.
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    configured_now = False
    if not any((bdir / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=env,
                       timeout=max(1, deadline - time.monotonic()))
        configured_now = True
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(bdir), "--target",
                    "voyager_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, env=env,
                   timeout=max(1, deadline - time.monotonic()))
    return configured_now


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    ap.add_argument("--size", choices=["small", "tiny"], default="small",
                    help="tiny is the smoke-test size")
    args = ap.parse_args()

    start = time.monotonic()
    bdir = build_dir()
    try:
        first = build(bdir, start + FIRST_RUN_LIMIT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 1
    limit = FIRST_RUN_LIMIT_S if first else RUN_LIMIT_S

    cmd = [str(bdir / "voyager_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--size", args.size]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.size != "small":
        tag += "-" + args.size
    if args.trace == "1":
        (bdir / "spans").mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(bdir / "spans" / f"{tag}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1, start + limit -
                                          time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {limit} s")
        return 1
    out = proc.stdout
    (bdir / "results").mkdir(parents=True, exist_ok=True)
    (bdir / "results" / f"{tag}.txt").write_text(out)
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"perfbench: voyager_perfbench exited with {proc.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = {}
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("perfbench: malformed result line")
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
