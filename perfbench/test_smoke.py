#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at its smoke size, untraced
and traced, must pass its oracles and print every metric BENCHMARK.json
names, once in the JSON result and once as a human-readable line with its
unit and sample count. Also checks BENCHMARK.json against the benchmark
contract, and that the benchmark refuses to run without the sources.

    python3 perfbench/test_smoke.py        (from the root of the checkout)

Takes about a minute after the first build. Exits 1 on the first failure.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check(ok, what):
    if not ok:
        print(f"FAIL  {what}")
        sys.exit(1)


def check_contract(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}, "BENCHMARK.json has exactly the contract keys")
    check(1 <= bench["run_seconds"] <= 60 and isinstance(bench["run_seconds"], int),
          "run_seconds is a whole number in [1, 60]")
    check(2 <= len(bench["workloads"]) <= 8, "2 to 8 workloads")
    names = []
    for w in bench["workloads"]:
        check(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"],
              f"workload {w.get('name')} has a one-line why of at most 200 characters")
        names.append(w["name"])
    for m in bench["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25,
              f"end-to-end metric {m['name']} is well formed")
        names.append(m["name"])
    for m in bench["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"per-layer metric {m['name']} is well formed")
        names.append(m["name"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        check(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"),
              f"metric {m['name']} has a valid unit and direction")
    check(all(NAME.match(n) for n in names) and len(names) == len(set(names)),
          "names are valid and used once")
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
              for m in bench["end_to_end"]), "setup_s is an end-to-end metric")
    check(len(json.dumps(bench)) <= 64 * 1024, "BENCHMARK.json is at most 64 KiB")


def run(workload, trace, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
                          cwd=cwd, capture_output=True, text=True, timeout=900)


def check_run(workload, trace, metrics):
    p = run(workload, trace)
    tag = f"{workload} trace={trace}"
    check(p.returncode == 0, f"{tag} exits 0 (stderr: {p.stderr[-400:]})")
    lines = p.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag} result keys")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{tag} every operation passed its oracle")
    printed = {n: (m["value"], m["unit"]) for n, m in result["metrics"].items()}
    check(set(printed) == {m["name"] for m in metrics}, f"{tag} prints exactly its metrics")
    for m in metrics:
        value, unit = printed[m["name"]]
        check(unit == m["unit"], f"{tag} {m['name']} unit {unit} == {m['unit']}")
        line = re.compile(rf"^metric {re.escape(m['name'])} +\S+ +{re.escape(unit)} +n=\d+")
        check(any(line.match(l) for l in lines), f"{tag} {m['name']} line with unit and n=")
        if trace == 0:
            check(value > 0, f"{tag} {m['name']} is never 0")
    for stamp in ("host nproc=", "cc=", "source=", "env WJ_THREADS=", "seed="):
        check(any(l.startswith("stamp") and stamp in l for l in lines), f"{tag} stamp {stamp}")
    print(f"ok    {tag}: {result['attempted']} operations, {len(printed)} metrics")


def check_refuses_without_sources():
    bare = ROOT / ".bench_build" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench")
    p = run("cg", 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(p.returncode != 0 and '"correct"' not in p.stdout,
          "a checkout without the sources fails without printing a result")
    print("ok    refuses to run without the sources")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_contract(bench)
    for w in bench["workloads"]:
        check_run(w["name"], 0, bench["end_to_end"])
        check_run(w["name"], 1, bench["per_layer"])
    check_refuses_without_sources()
    print("all smoke checks passed")


if __name__ == "__main__":
    main()
