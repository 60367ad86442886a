"""Self-test of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its format; that each workload prints
exactly the metrics BENCHMARK.json names, with their units, in both modes,
and passes its golden check; that a perturbed golden value makes the failed
share non-zero; and that in a directory holding only BENCHMARK.json and the
benchmark's files the run fails without printing a result.  Exits non-zero
on the first problem.
"""

import contextlib
import copy
import io
import json
import os
import re
import shutil
import subprocess
import sys

import checkout
import run as bench

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}$")


def check_format(spec: dict) -> None:
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(spec) == keys, f"BENCHMARK.json keys {sorted(spec)}"
    assert 1 <= len(spec["command"]) <= 32 and all(len(a) <= 200 for a in spec["command"])
    assert 1 <= len(spec["paths"]) <= 16
    for p in spec["paths"]:
        assert PATH.match(p) and not p.startswith("/") and ".." not in p.split("/"), p
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"], w
        names.append(w["name"])
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25, m
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}, m
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
        names.append(m["name"])
    assert all(NAME.match(n) for n in names) and len(names) == len(set(names)), names
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(json.dumps(spec)) <= 64 * 1024


def bench_args(workload, trace):
    return ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]


def run(spec, workload, trace, cwd=checkout.ROOT):
    cmd = spec["command"] + bench_args(workload, trace)
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    return done.returncode, done.stdout, done.stderr


def run_with_golden(workload, golden_path):
    """One end-to-end run in this process, checked against `golden_path`."""
    import workloads

    saved = workloads.GOLDEN_PATH
    workloads.GOLDEN_PATH = golden_path
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = bench.main(bench_args(workload, 0))
    finally:
        workloads.GOLDEN_PATH = saved
    return rc, out.getvalue()


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(checkout.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_format(spec)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    os.makedirs(checkout.OUT_DIR, exist_ok=True)
    checkout.use_source_tree()
    with open(os.path.join(checkout.BENCH_DIR, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)

    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            rc, out, err = run(spec, name, trace)
            assert rc == 0, f"{name} trace={trace} exited {rc}: {err}"
            res = result_of(out)
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, (name, res)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == wanted[trace], f"{name} trace={trace}: metrics {got}"
            if trace == 0:
                zero = [k for k, v in res["metrics"].items() if not v["value"] > 0]
                assert not zero, f"{name}: end-to-end metrics not positive: {zero}"
            print(f"ok: {name} trace={trace}, {res['attempted']} operations")

        bad = copy.deepcopy(golden)
        for entry in bad[name].values():
            entry["genes"] = "0" * 16
        path = os.path.join(checkout.OUT_DIR, "golden-perturbed.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(bad, fh)
        rc, out = run_with_golden(name, path)
        res = result_of(out)
        assert rc == 0 and not res["correct"] and res["failed"] > 0, (name, res)
        print(f"ok: {name} perturbed golden gives failed share {res['failed'] / res['attempted']:.2f}")

    bare = os.path.join(checkout.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(checkout.ROOT, "BENCHMARK.json"), bare)
    for p in spec["paths"]:
        shutil.copytree(
            os.path.join(checkout.ROOT, p), os.path.join(bare, p),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    rc, out, err = run(spec, spec["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    assert rc != 0 and '"correct"' not in out, f"bare directory run exited {rc}: {out}"
    print(f"ok: without the sources the run exits {rc}: {err.strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
