"""linepaint benchmark.

    python3 perfbench/run.py --workload desk-solve --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from `src/`.  With
`--trace 0` the workload runs closed-loop for `--seconds` and the end-to-end
metrics are printed; with `--trace 1` a fixed prefix of the seed's
operations runs untraced and traced in turn, and the per-layer metrics are
printed with the tracing overhead.  Every operation is checked against
`golden.json`; the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  Times are wall-clock
times as measured.  Metric definitions are in `perfbench/README.md`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import checkout

SETUP_SAMPLES = 7
TRACE_ROUNDS = 2  # traced passes, each between two untraced ones


def machine_info() -> dict:
    import numpy
    import yaml

    commit = "unknown"
    if os.path.isdir(os.path.join(checkout.ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=checkout.ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    pkg = os.path.join(checkout.SRC, "linepaint")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                src.update(fname.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


def probe_setup(workload: str) -> list[dict]:
    """Set-up timed in fresh interpreters, SETUP_SAMPLES times; returns the
    probes' results."""
    probe = os.path.join(checkout.BENCH_DIR, "probe.py")
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, probe, workload], cwd=checkout.ROOT, capture_output=True,
            text=True, timeout=120,
        )
        if done.returncode != 0:
            raise checkout.BenchError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(json.loads(done.stdout.splitlines()[-1]))
    return samples


class Tally:
    """Counts checked operations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, wl, key, span=contextlib.nullcontext, **kw):
        """One checked operation, the call itself inside `span()`; returns
        (start, end, output or None)."""
        self.attempted += 1
        wl.prepare(key)
        t0 = perf_counter()
        try:
            with span():
                out = wl.call(key, **kw)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return t0, perf_counter(), None
        t1 = perf_counter()
        if not wl.check(key, out):
            print(f"golden mismatch: {wl.name} key {key}: {wl.result(key, out)}", file=sys.stderr)
            self.failed += 1
        return t0, t1, out


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def setup_seconds(probes, field: str) -> float:
    """Median over the probes of `field`."""
    return statistics.median(p[field] for p in probes)


def end_to_end(wl, keys, seconds: float, tally: Tally) -> list[tuple[float, float]]:
    """Closed loop over the seed's keys for `seconds`; op intervals."""
    ops = []
    deadline = perf_counter() + seconds
    while not ops or perf_counter() < deadline:
        t0, t1, _ = tally.run(wl, keys[len(ops) % len(keys)])
        ops.append((t0, t1))
    return ops


def end_to_end_metrics(wl, ops, probes) -> dict:
    durs = [t1 - t0 for t0, t1 in ops]
    print(f"# {wl.name}: {len(ops)} operations, {wl.evals_per_op} evaluations each")
    return {
        "setup_s": (setup_seconds(probes, "setup_s"), "s"),
        "op_p50_ms": (quantile(durs, 0.5) * 1e3, "ms"),
        "op_p90_ms": (quantile(durs, 0.9) * 1e3, "ms"),
        "evals_per_s": (wl.evals_per_op * len(durs) / sum(durs), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def run_pass(wl, keys, tally: Tally, tracer=None, workers=None):
    """Run `keys` once, under `tracer` if given; returns (seconds inside the
    operations, outputs)."""
    from workloads import trace_targets

    kw = {} if workers is None else {"workers": workers}
    span = contextlib.nullcontext if tracer is None else lambda: tracer.span(wl.op_span)
    patch = contextlib.nullcontext() if tracer is None else tracer.patched(trace_targets())
    busy, outs = 0.0, []
    with patch:
        for key in keys:
            t0, t1, out = tally.run(wl, key, span=span, **kw)
            busy += t1 - t0
            outs.append(out)
    return busy, outs


def trace_passes(wl, keys, tally: Tally) -> dict:
    """Untraced and traced passes over the same keys in the order U T U T U,
    so that each traced pass lies between two untraced ones, and on v1-solve
    a traced single-worker pass whose results must equal the pool's.  The
    per-layer numbers are read from the first traced pass."""
    from tracing import Tracer

    passes = {"untraced": [], "traced": []}
    for _ in range(TRACE_ROUNDS):
        passes["untraced"].append(run_pass(wl, keys, tally)[0])
        tracer = Tracer()
        passes["traced"].append((tracer,) + run_pass(wl, keys, tally, tracer))
    passes["untraced"].append(run_pass(wl, keys, tally)[0])
    if wl.name == "v1-solve":
        # spans in forked workers are lost: the lower layers are read from a
        # single-worker pass on the same inputs
        tracer1 = Tracer()
        passes["workers1"] = (tracer1,) + run_pass(wl, keys, tally, tracer1, workers=1)
        pooled, single = passes["traced"][0][2], passes["workers1"][2]
        for key, a, b in zip(keys, pooled, single):
            tally.attempted += 1
            if a is None or b is None or wl.result(key, a) != wl.result(key, b):
                print(f"workers=2 result differs from workers=1 for key {key}", file=sys.stderr)
                tally.failed += 1
    return passes


def per_layer_metrics(wl, keys, passes, probes, header: dict) -> dict:
    """Per-layer numbers of the first traced pass (on v1-solve, below the
    pool, of the single-worker pass).  Times are self times of each layer's
    spans summed over the pass (totals for repair.all_s, seeding.build_s,
    ga.evaluate_all_s and cli/render)."""
    pool_tr = passes["traced"][0][0]
    tr = passes.get("workers1", passes["traced"][0])[0]
    s, ps = tr.stats(), pool_tr.stats()
    reported = {"traced": pool_tr}
    if "workers1" in passes:
        reported["workers1"] = tr
    untraced = passes["untraced"]
    overhead = statistics.median(
        busy / ((untraced[i] + untraced[i + 1]) / 2)
        for i, (_, busy, _) in enumerate(passes["traced"])
    ) - 1.0

    def self_s(name):
        return s[name]["self"] if name in s else 0.0

    def wall_s(name):
        return s[name]["wall"] if name in s else 0.0

    def calls(name):
        return s[name]["calls"] if name in s else 0

    eval_all = ps["ga.evaluate_all"]["wall"] if "ga.evaluate_all" in ps else 0.0
    requested = pool_tr.counts["ga.evals_requested"]
    unique = pool_tr.counts["ga.evals_unique"]
    evals = s["evaluation.evaluate"]["durs"]
    sims = calls("lower_sim.simulate")
    m = {
        "ga.evals_requested": (requested, "count"),
        "ga.evals_unique": (unique, "count"),
        "ga.cache_hit_ratio": (1.0 - unique / requested if requested else 0.0, "ratio"),
        "ga.cache_entries": (pool_tr.maxima.get("ga.cache_entries", 0), "count"),
        "ga.evaluate_all_s": (eval_all, "s"),
        "ga.breed_s": (sum(self_s(n) for n in ("ga.select", "ga.crossover", "ga.mutate")), "s"),
        "ga.pool_busy_share": (
            wall_s("evaluation.evaluate") / (wl.workers * eval_all) if eval_all else 0.0, "ratio"
        ),
        "seeding.build_s": (wall_s("seeding.build"), "s"),
        "repair.all_s": (wall_s("repair.all"), "s"),
    }
    for op in ("reachability", "back_door", "bottom_up", "few_arms"):
        name = f"repair.{op}"
        n = calls(name)
        m[f"{name}_s"] = (self_s(name), "s")
        m[f"{name}_calls"] = (n, "count")
        m[f"{name}_changed_ratio"] = (tr.counts[name + ".changed"] / n if n else 0.0, "ratio")
    m.update(
        {
            "repair.never_reachable_s": (self_s("repair.never_reachable"), "s"),
            "evaluation.evaluate_p50_ms": (quantile(evals, 0.5) * 1e3, "ms"),
            "evaluation.evaluate_calls": (len(evals), "count"),
            "evaluation.report_s": (self_s("evaluation.report"), "s"),
            "lower_sim.simulate_self_s": (self_s("lower_sim.simulate"), "s"),
            "lower_sim.collision_s": (self_s("lower_sim.collision"), "s"),
            "lower_sim.order_s": (self_s("lower_sim.order"), "s"),
            "lower_sim.reach_windows_s": (self_s("lower_sim.reach_windows"), "s"),
            "lower_sim.reach_windows_calls": (calls("lower_sim.reach_windows"), "count"),
            "lower_sim.arm_ticks": (tr.counts["lower_sim.arm_ticks"], "count"),
            "lower_sim.collision_pair_ticks": (
                tr.counts["lower_sim.collision_pair_ticks"], "count"
            ),
            "lower_sim.horizon_exhausted_share": (
                tr.counts["lower_sim.horizon_exhausted"] / sims if sims else 0.0, "ratio"
            ),
            "cli.artifacts_s": (
                wall_s("cli.solve") - wall_s("ga.run") if "cli.solve" in s else 0.0, "s"
            ),
            "render.save_svg_s": (wall_s("render.save_svg"), "s"),
            "scene.load_s": (setup_seconds(probes, "load_s"), "s"),
            "trace.overhead_share": (overhead, "ratio"),
            "trace.spans": (sum(len(t.spans) for t in reported.values()), "count"),
            "trace.ops": (len(keys), "count"),
        }
    )
    os.makedirs(checkout.OUT_DIR, exist_ok=True)
    for label, t in reported.items():
        path = os.path.join(checkout.OUT_DIR, f"spans-{wl.name}-{label}.jsonl")
        t.dump(path, {**header, "pass": label})
    print(f"# {wl.name}: traced {len(keys)} operations; spans in {checkout.OUT_DIR}")
    print("# lower_sim.collision_pair_ticks is computed as arm pairs x trajectory ticks")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        loadavg = os.getloadavg()
        checkout.use_source_tree()
        import linepaint
        import workloads

        checkout.check_imported(linepaint)
        if args.workload not in workloads.WORKLOADS:
            raise checkout.BenchError(
                f"unknown workload {args.workload!r} (expected one of {sorted(workloads.WORKLOADS)})"
            )
        with open(workloads.GOLDEN_PATH, encoding="utf-8") as fh:
            golden = json.load(fh)
        machine = {**machine_info(), "loadavg_start": loadavg}
        header = {"workload": args.workload, "seed": args.seed, "machine": machine}

        wl = workloads.WORKLOADS[args.workload](golden)
        keys = wl.keys(args.seed)
        if args.trace:
            keys = keys[: wl.trace_ops]
        wl.build(keys)
        tally = Tally()
        probes = probe_setup(args.workload)
        if args.trace:
            passes = trace_passes(wl, keys, tally)
            metrics = per_layer_metrics(wl, keys, passes, probes, header)
        else:
            ops = end_to_end(wl, keys, args.seconds, tally)
            metrics = end_to_end_metrics(wl, ops, probes)
    except (checkout.BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for name, (value, unit) in metrics.items():
        print(f"# {name:40s} {value:>16.6g} {unit}")
    print(json.dumps({"machine": machine}))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
