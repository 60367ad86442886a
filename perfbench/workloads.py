"""The benchmark's workloads, their inputs and their golden checks.

Every workload is a closed loop: one caller issues an operation, waits for
its result, checks it, and only then issues the next.  The package is driven
only through its public entry points: `linepaint.cli.main(["solve", ...])`,
`linepaint.ga.run` and `linepaint.evaluation.evaluate_assignment`.

Inputs are a pure function of the workload seed.  The scenes are the files
frozen under `scenes/` (checked against `scenes/SHA256SUMS` on load); the
solves draw their GA seeds, and the audit its genotypes, from a fixed pool
whose golden results are stored in `golden.json`, in an order set by the
workload seed.

- desk-solve: `linepaint solve` on desk, pop 100, one worker, all artifacts
  written.  The only workload where the GA cache, repair, seeding and the
  artifact writers are a visible share.  Desk reaches strong feasibility at
  generation 0, so a short run measures throughput, not convergence.
- v1-solve: `ga.run` on v1 (8 arms, hood, back door, back-door rule on) with
  a 2-process fork pool.  Planner and collision scan dominate, the back-door
  and few-arms repairs fire, and the pool is exercised.  Results must equal
  the single-worker golden.
- v3-audit: distinct repaired genotypes on v3 scored one at a time with
  `evaluate_assignment`, the `linepaint audit` path.  Bypasses GA, cache,
  repair and seeding; roof and the delayed-parallel hood break mirror
  lockstep and plans run to t_max, so it is all lower layer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil

import numpy as np

from checkout import BENCH_DIR, OUT_DIR, BenchError

from linepaint import cli, evaluation, ga, lower_sim, repair
from linepaint.genotype import decode, random_solution
from linepaint.scene import load_scene

SCENE_DIR = os.path.join(BENCH_DIR, "scenes")
GOLDEN_PATH = os.path.join(BENCH_DIR, "golden.json")


def frozen_scene_path(name: str) -> str:
    """Path of a frozen scene after checking it against SHA256SUMS."""
    sums = {}
    with open(os.path.join(SCENE_DIR, "SHA256SUMS"), encoding="utf-8") as fh:
        for line in fh:
            digest, fname = line.split()
            sums[fname] = digest
    fname = f"{name}.yaml"
    path = os.path.join(SCENE_DIR, fname)
    with open(path, "rb") as fh:
        actual = hashlib.sha256(fh.read()).hexdigest()
    if sums.get(fname) != actual:
        raise BenchError(f"frozen scene {fname} does not match SHA256SUMS")
    return path


def genes_digest(genes) -> str:
    return hashlib.sha256(",".join(map(str, genes)).encode()).hexdigest()[:16]


def report_digest(report) -> str:
    """Exact digest of the objective, t_a, t_out, t_col and order counts."""
    doc = [
        report.objective.hex(),
        sorted((k, v.hex()) for k, v in report.t_a.items()),
        sorted((k, v.hex()) for k, v in report.t_out.items()),
        report.t_col.hex(),
        sorted(report.order_violation_count.items()),
    ]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()[:16]


class Workload:
    name = ""
    scene_name = ""
    evals_per_op = 1
    pool_size = 0  # number of golden keys the workload seed draws from
    trace_ops = 1  # operations in each pass of the traced run
    op_span = "bench.op"  # span the benchmark opens around each operation
    workers = 1  # GA evaluation processes

    def __init__(self, golden: dict | None):
        self.golden = golden.get(self.name, {}) if golden is not None else {}
        self.scene_path = frozen_scene_path(self.scene_name)
        self.scene = load_scene(self.scene_path)

    def keys(self, seed: int) -> list:
        """Golden keys in the order this seed visits them."""
        return [str(k) for k in np.random.default_rng(seed).permutation(self.pool_size)]

    def build(self, keys) -> None:
        """Set-up of the inputs for these keys."""

    def prepare(self, key) -> None:
        """Untimed work before an operation."""

    def call(self, key, workers=None):
        """The timed operation; `workers` overrides the workload's own."""
        raise NotImplementedError

    def result(self, key, out) -> dict:
        raise NotImplementedError

    def check(self, key, out) -> bool:
        return self.result(key, out) == self.golden.get(key)


class DeskSolve(Workload):
    name = "desk-solve"
    scene_name = "desk"
    POP, GENS = 100, 2
    evals_per_op = POP * (GENS + 1)
    pool_size = 16
    op_span = "cli.solve"

    def __init__(self, golden):
        super().__init__(golden)
        self.out = os.path.join(OUT_DIR, "desk-solve")

    def prepare(self, key):
        shutil.rmtree(self.out, ignore_errors=True)

    def call(self, key, workers=None):
        argv = [
            "solve", "--scenario", self.scene_path,
            "--pop", str(self.POP), "--gens", str(self.GENS), "--seed", key,
            "--workers", str(workers or self.workers), "--out", self.out,
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def result(self, key, rc):
        """Best genes and objective, plus a digest of trace.csv (per-generation
        best and mean objective) so that changes behind the best also show."""
        with open(os.path.join(self.out, "best_genotype.json"), encoding="utf-8") as fh:
            best = json.load(fh)
        written = all(
            os.path.getsize(os.path.join(self.out, f)) > 0
            for f in ("report.json", "trajectory.csv", "trace.csv", "routes.svg")
        )
        with open(os.path.join(self.out, "trace.csv"), "rb") as fh:
            trace = hashlib.sha256(fh.read()).hexdigest()[:16]
        return {
            "rc": rc,
            "genes": genes_digest(best["genes"]),
            "objective": float(best["objective"]).hex(),
            "trace": trace,
            "artifacts": written,
        }


class V1Solve(Workload):
    name = "v1-solve"
    scene_name = "v1"
    POP, GENS = 40, 1
    workers = 2
    evals_per_op = POP * (GENS + 1)
    pool_size = 16
    trace_ops = 2

    def call(self, key, workers=None):
        cfg = ga.GaConfig(
            n_pop=self.POP, n_gen=self.GENS, seed=int(key), workers=workers or self.workers
        )
        return ga.run(self.scene, self.scene.config, cfg)

    def result(self, key, res):
        trace = [(g.best_objective.hex(), g.mean_objective.hex()) for g in res.trace.generations]
        return {
            "genes": genes_digest(res.best.genes),
            "objective": res.report.objective.hex(),
            "feasible": res.report.strong_feasible,
            "trace": hashlib.sha256(json.dumps(trace).encode()).hexdigest()[:16],
        }


class V3Audit(Workload):
    name = "v3-audit"
    scene_name = "v3"
    pool_size = 1024
    trace_ops = 150
    op_span = "evaluation.evaluate"
    POOL_SEED = 20260117

    def build(self, keys) -> None:
        """Set-up: genotype k is a random permutation from rng([POOL_SEED, k])
        passed through repair_all; decoded to an arm assignment."""
        scene, cfg = self.scene, self.scene.config
        n_dim = scene.n_segs + cfg.n_d
        self.inputs = {}
        for key in keys:
            x = random_solution(n_dim, np.random.default_rng([self.POOL_SEED, int(key)]))
            x = repair.repair_all(x, scene, cfg)
            self.inputs[key] = (genes_digest(x.genes), decode(x, scene))

    def call(self, key, workers=None):
        return evaluation.evaluate_assignment(self.inputs[key][1], self.scene, self.scene.config)

    def result(self, key, out):
        report, _ = out
        return {"genes": self.inputs[key][0], "report": report_digest(report)}


WORKLOADS = {w.name: w for w in (DeskSolve, V1Solve, V3Audit)}


def trace_targets():
    """Public names rebound for the traced run: (owner, attribute, span name,
    before hook, after hook).  Counts are recorded where the work happens."""

    def changed(name):
        def after(tr, args, out, state):
            tr.counts[name + ".changed"] += out.genes != args[0].genes

        return after

    def cache_before(args):
        return len(args[0].cache)

    def cache_after(tr, args, out, before):
        entries = len(args[0].cache)
        tr.counts["ga.evals_requested"] += len(args[1])
        tr.counts["ga.evals_unique"] += entries - before
        tr.maxima["ga.cache_entries"] = max(tr.maxima.get("ga.cache_entries", 0), entries)

    def sim_after(tr, args, out, state):
        traj, metrics = out
        n, ticks = traj.positions.shape[:2]
        tr.counts["lower_sim.arm_ticks"] += n * ticks
        # computed from the shape: every arm pair is scanned on every tick
        tr.counts["lower_sim.collision_pair_ticks"] += n * (n - 1) // 2 * ticks
        tr.counts["lower_sim.horizon_exhausted"] += metrics.horizon_exhausted

    return [
        (ga, "run", "ga.run", None, None),
        (ga, "build_seed_population", "seeding.build", None, None),
        (ga, "tournament_select", "ga.select", None, None),
        (ga, "order_crossover", "ga.crossover", None, None),
        (ga, "inversion_mutation", "ga.mutate", None, None),
        (ga, "repair_all", "repair.all", None, None),
        (ga, "evaluate", "evaluation.evaluate", None, None),
        (ga.PopulationEvaluator, "evaluate_all", "ga.evaluate_all", cache_before, cache_after),
        (repair, "repair_reachability", "repair.reachability", None, changed("repair.reachability")),
        (repair, "repair_back_door", "repair.back_door", None, changed("repair.back_door")),
        (repair, "repair_bottom_up", "repair.bottom_up", None, changed("repair.bottom_up")),
        (repair, "repair_few_arms", "repair.few_arms", None, changed("repair.few_arms")),
        (repair, "never_reachable", "repair.never_reachable", None, None),
        (evaluation, "simulate", "lower_sim.simulate", None, sim_after),
        (evaluation, "report_from_metrics", "evaluation.report", None, None),
        (lower_sim, "reach_windows", "lower_sim.reach_windows", None, None),
        (lower_sim, "collision_time", "lower_sim.collision", None, None),
        (lower_sim, "order_violation_counts", "lower_sim.order", None, None),
        (cli, "save_svg", "render.save_svg", None, None),
    ]
