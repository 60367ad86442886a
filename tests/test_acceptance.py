"""Acceptance suite: eight release criteria, one printed PASS/FAIL line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines; the heavy
end-to-end runs are shared across criteria via module fixtures.  Every test
here carries the ``acceptance`` marker, so ``pytest -m "not acceptance"``
skips them for a quick loop.
"""

import math
import time

import numpy as np
import pytest

from linepaint.evaluation import collision_penalty, evaluate, range_penalty
from linepaint.ga import GaConfig, PopulationEvaluator, order_crossover, inversion_mutation, run
from linepaint.genotype import UpperSolution, decode, random_solution, validate
from linepaint.lower_sim import SimMetrics, simulate
from linepaint.presets import preset_scene
from linepaint.repair import repair_all, repair_bottom_up
from linepaint.scene import ScenarioConfig, SyntheticSpec, generate_synthetic_scene

from _oracles import (
    audit_strong_feasible,
    mirror_exact,
    oracle_collision_penalty,
    oracle_range_penalty,
    paint_atomicity_ok,
    random_assignment,
    random_contract_scene,
    random_tiny_scene,
    returns_home_ok,
    speed_bound_ok,
)

pytestmark = pytest.mark.acceptance

SEEDS = (0, 1, 2, 3, 4)


@pytest.fixture
def verdict(capfd):
    """PASS/FAIL line per criterion, emitted outside pytest's capture so it is
    always visible on the console."""

    def _verdict(name: str, ok: bool, detail: str = "") -> None:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capfd.disabled():
            print(f"[ACCEPTANCE] {name}: {status}{suffix}", flush=True)
        assert ok, f"{name}{suffix}"

    return _verdict


@pytest.fixture(scope="module")
def desk_ga_runs():
    """Full-method optimizer runs (seeding + all repairs), five seeds."""
    scene = preset_scene("desk", 1)
    out = {}
    for seed in SEEDS:
        t0 = time.perf_counter()
        res = run(scene, scene.config, GaConfig(n_pop=100, n_gen=50, seed=seed))
        out[seed] = (res, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def bare_ga_runs():
    """Bare GA: random initialization, block/consolidation repairs off."""
    scene = preset_scene("desk", 1)
    cfgs = {
        seed: GaConfig(
            n_pop=100,
            n_gen=50,
            seed=seed,
            use_seeding=False,
            use_repair_bottom_up=False,
            use_repair_few_arms=False,
        )
        for seed in SEEDS
    }
    return {seed: run(scene, scene.config, cfg) for seed, cfg in cfgs.items()}


def _first_feasible_generation(result) -> float:
    for rec in result.trace.generations:
        if rec.best_feasible:
            return rec.generation
    return math.inf


def test_criterion_1_permutation_preservation(verdict):
    scene = preset_scene("desk", 1)
    n_dim = scene.n_segs + scene.config.n_d
    rng = np.random.default_rng(2024)
    failures = 0
    for _ in range(1000):
        p1 = random_solution(n_dim, rng)
        p2 = random_solution(n_dim, rng)
        cuts = sorted(int(v) for v in rng.integers(1, n_dim + 1, size=2))
        child, _ = order_crossover(p1, p2, cuts[0], cuts[1])
        child = inversion_mutation(child, 0.5, rng)
        child = repair_all(child, scene)
        if validate(child) is not None or len(child.genes) != n_dim:
            failures += 1
    verdict(
        "criterion-1 permutation-preservation",
        failures == 0,
        f"{failures} failures in 1000 pipelines",
    )


def test_criterion_2_block_repair_exactness(verdict):
    spec = SyntheticSpec(
        seed=2,
        n_arms_side=3,
        side_panel_segments=(16, 5),
        height_min=300.0,
        height_max=1750.0,
    )
    scene = generate_synthetic_scene(spec, ScenarioConfig(n_d=9, back_door_rule=False))
    width = (scene.n_segs + scene.config.n_d) // 3
    heads = [[17, 19, 21], [20], [18]]
    used = {g for h in heads for g in h}
    rest = iter(g for g in range(1, scene.n_segs + scene.config.n_d + 1) if g not in used)
    genes = []
    for head in heads:
        genes.extend(head)
        genes.extend(next(rest) for _ in range(width - len(head)))
    repaired = repair_bottom_up(UpperSolution(tuple(genes)), scene)
    assign = decode(repaired, scene)
    panel2 = set(scene.panel_segment_ids(2))
    got = [[s for s in row if s in panel2] for row in assign]
    expected = [[17, 18, 19], [20], [21]]
    verdict("criterion-2 block-repair-exactness", got == expected, f"got {got}")


def test_criterion_3_penalty_arithmetic(verdict):
    cfg = ScenarioConfig()
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        t_out = {a + 1: float(rng.uniform(0, 50)) for a in range(n)}
        unv = {a + 1: int(rng.integers(0, 6)) for a in range(n)}
        t_col = float(rng.uniform(0, 10))
        m = SimMetrics(t_out=t_out, n_unvisits=unv, t_col=t_col)
        if range_penalty(m, cfg) != oracle_range_penalty(t_out, unv, cfg.rho_out, cfg.rho_unvisits):
            mismatches += 1
        if collision_penalty(m, cfg) != oracle_collision_penalty(t_col, cfg.rho_col):
            mismatches += 1
    frozen_ok = (
        range_penalty(SimMetrics(t_out={1: 1.5}, n_unvisits={1: 2}), cfg) == 20750.0
        and range_penalty(SimMetrics(t_out={1: 1.0, 2: 1.0}), cfg) == 1000.0
        and collision_penalty(SimMetrics(t_col=0.30), cfg) == 300.0
    )
    verdict(
        "criterion-3 penalty-arithmetic",
        mismatches == 0 and frozen_ok,
        f"{mismatches} mismatches in 200 checks",
    )


def test_criterion_4_simulator_contracts(verdict):
    problems = []
    for i in range(50):
        mirror_only = i % 2 == 0
        scene = random_contract_scene(1000 + i, mirror_only=mirror_only)
        assign = random_assignment(scene, 2000 + i)
        t1, m1 = simulate(assign, scene)
        t2, m2 = simulate(assign, scene)
        if not (
            np.array_equal(t1.positions, t2.positions)
            and np.array_equal(t1.actions, t2.actions)
            and m1 == m2
        ):
            problems.append(f"scene {i}: nondeterministic")
        if not speed_bound_ok(t1, scene, scene.config):
            problems.append(f"scene {i}: speed bound")
        if not paint_atomicity_ok(t1):
            problems.append(f"scene {i}: paint atomicity")
        if not m1.horizon_exhausted and not returns_home_ok(t1):
            problems.append(f"scene {i}: no return home")
        if mirror_only and not mirror_exact(t1, scene):
            problems.append(f"scene {i}: mirror not exact")
    # evaluation determinism across worker counts
    for i in range(3):
        scene = random_contract_scene(3000 + i)
        rng = np.random.default_rng(i)
        pop = [random_solution(scene.n_segs + scene.config.n_d, rng) for _ in range(12)]
        seq = PopulationEvaluator(scene, scene.config, workers=1)
        par = PopulationEvaluator(scene, scene.config, workers=8)
        try:
            if seq.evaluate_all(pop) != par.evaluate_all(pop):
                problems.append(f"workers scene {i}: 1 vs 8 workers differ")
        finally:
            seq.close()
            par.close()
    verdict(
        "criterion-4 simulator-contracts",
        not problems,
        "; ".join(problems[:4]) if problems else "50 scenes + 3 worker checks",
    )


def test_criterion_5_small_instance_oracle(verdict):
    disagreements = 0
    checked = 0
    for i in range(100):
        scene = random_tiny_scene(5000 + i)
        assign = random_assignment(scene, 6000 + i)
        report = evaluate(
            UpperSolution(
                tuple(
                    g
                    for row in _pack(assign, scene)
                    for g in row
                )
            ),
            scene,
        )
        traj, metrics = simulate(assign, scene)
        oracle = audit_strong_feasible(traj, scene, scene.config, assign)
        checked += 1
        if report.strong_feasible != oracle:
            disagreements += 1
    verdict(
        "criterion-5 small-instance-oracle",
        disagreements == 0,
        f"{checked - disagreements}/{checked} agree",
    )


def _pack(assign, scene):
    """Rebuild the genotype slots for an assignment (dummies at slot tails)."""
    n_arms = scene.n_arms_side
    width = (scene.n_segs + scene.config.n_d) // n_arms
    dummy = scene.n_segs + 1
    slots = []
    for row in assign:
        slot = list(row)
        while len(slot) < width:
            slot.append(dummy)
            dummy += 1
        slots.append(tuple(slot))
    return slots


def test_criterion_6_end_to_end_feasibility(verdict, desk_ga_runs):
    feasible = sum(1 for res, _ in desk_ga_runs.values() if res.report.strong_feasible)
    slowest = max(elapsed for _, elapsed in desk_ga_runs.values())
    ok = feasible >= 4 and slowest < 300.0
    verdict(
        "criterion-6 end-to-end-feasibility",
        ok,
        f"{feasible}/5 seeds feasible, slowest run {slowest:.1f}s",
    )


def test_criterion_7_ablation_direction(verdict, desk_ga_runs, bare_ga_runs):
    gen_wins = 0
    obj_wins = 0
    for seed in SEEDS:
        full, _ = desk_ga_runs[seed]
        bare = bare_ga_runs[seed]
        if _first_feasible_generation(full) <= _first_feasible_generation(bare):
            gen_wins += 1
        if full.report.objective <= bare.report.objective:
            obj_wins += 1
    ok = gen_wins >= 4 and obj_wins >= 4
    verdict(
        "criterion-7 ablation-direction",
        ok,
        f"feasibility-generation wins {gen_wins}/5, objective wins {obj_wins}/5",
    )


def test_criterion_8_convergence_monotonicity(verdict, desk_ga_runs, bare_ga_runs):
    traces = [res.trace for res, _ in desk_ga_runs.values()]
    traces += [res.trace for res in bare_ga_runs.values()]
    violations = 0
    for trace in traces:
        best = [r.best_objective for r in trace.generations]
        if any(b2 > b1 for b1, b2 in zip(best, best[1:])):
            violations += 1
    verdict(
        "criterion-8 convergence-monotonicity",
        violations == 0,
        f"{len(traces)} elitist traces checked",
    )
