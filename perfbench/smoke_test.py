#!/usr/bin/env python3
"""Smoke test of the repository benchmark at a tiny size.

    python3 perfbench/smoke_test.py

For every workload in BENCHMARK.json, runs the benchmark untraced and
traced at `--size tiny` and checks that
  - the run exits 0 and its last line is the result object;
  - the correctness checks passed (`correct`, no failed operation);
  - every end-to-end (untraced) or per-layer (traced) metric is
    emitted, with the unit BENCHMARK.json gives it, as a finite number;
  - the traced run wrote its spans;
and that BENCHMARK.json and voyager_perfbench's own schema (--list-metrics)
agree on every metric's unit and direction. Exits 1 on any failure.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import run  # noqa: E402  (the benchmark entry point)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []

    def check(ok, what):
        if not ok:
            errors.append(what)

    for wl in bench["workloads"]:
        for trace in ("0", "1"):
            tag = f"{wl['name']} trace={trace}"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 wl["name"], "--seed", "1", "--seconds", "1", "--trace",
                 trace, "--size", "tiny"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            check(proc.returncode == 0, f"{tag}: exit {proc.returncode}")
            if not lines:
                errors.append(f"{tag}: no output")
                continue
            res = json.loads(lines[-1])
            check(sorted(res) == ["attempted", "correct", "failed",
                                  "metrics"], f"{tag}: result keys")
            check(res.get("correct") is True, f"{tag}: not correct")
            check(res.get("failed") == 0, f"{tag}: failed operations")
            check(isinstance(res.get("attempted"), int)
                  and res["attempted"] >= 1, f"{tag}: attempted")
            want = bench["per_layer" if trace == "1" else "end_to_end"]
            got = res.get("metrics", {})
            check(sorted(got) == sorted(m["name"] for m in want),
                  f"{tag}: metric names differ: "
                  f"{sorted(set(got) ^ {m['name'] for m in want})}")
            for m in want:
                v = got.get(m["name"])
                if v is None:
                    continue
                check(v.get("unit") == m["unit"],
                      f"{tag}: {m['name']} unit {v.get('unit')}")
                check(isinstance(v.get("value"), (int, float))
                      and math.isfinite(v["value"]),
                      f"{tag}: {m['name']} value {v.get('value')}")
            detail = json.loads(lines[-2].split(" ", 1)[1])
            for key in ("cpu", "cpu_simd", "compiler", "build_type",
                        "voyager_native", "seed"):
                check(key in detail["info"], f"{tag}: fingerprint {key}")
            if trace == "1":
                spans = (run.build_dir() / "spans" /
                         f"{wl['name']}-seed1-trace1-tiny.json")
                check(spans.exists() and json.loads(
                    spans.read_text())["traceEvents"], f"{tag}: spans")

    schema = json.loads(subprocess.run(
        [str(run.build_dir() / "voyager_perfbench"), "--list-metrics"],
        stdout=subprocess.PIPE, text=True, check=True).stdout)
    declared = {m["name"]: m for m in schema}
    listed = bench["end_to_end"] + bench["per_layer"]
    check(len(listed) == len(declared),
          f"BENCHMARK.json lists {len(listed)} metrics, voyager_perfbench "
          f"declares {len(declared)}")
    for m in listed:
        d = declared.get(m["name"])
        if d is None:
            errors.append(f"{m['name']}: not declared by voyager_perfbench")
            continue
        check((d["unit"], d["better"]) == (m["unit"], m["better"]),
              f"{m['name']}: unit/direction differ from voyager_perfbench")
        check(d["end_to_end"] == (m in bench["end_to_end"]),
              f"{m['name']}: listed under the wrong tier")

    for e in errors:
        print("FAIL", e)
    print("smoke test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
