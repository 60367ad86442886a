import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linepaint.ga import (
    GaConfig,
    PopulationEvaluator,
    inversion_mutation,
    order_crossover,
    run,
    tournament_select,
)
from linepaint.genotype import UpperSolution, random_solution, validate
from linepaint.presets import preset_scene
from linepaint.scene import VehicleScene


def test_tournament_picks_lowest_objective():
    # two individuals f=10 and f=20; a draw covering both returns f=10
    pop = [UpperSolution((1, 2)), UpperSolution((2, 1))]
    objectives = [10.0, 20.0]

    class BothRng:
        def integers(self, lo, hi, size):
            return np.array([1, 0])

    assert tournament_select(pop, objectives, 2, BothRng()) == 0


def test_tournament_single_individual():
    pop = [UpperSolution((1,))]
    assert tournament_select(pop, [5.0], 3, np.random.default_rng(0)) == 0


def test_order_crossover_frozen_example():
    p1 = UpperSolution((1, 2, 3, 4, 5, 6, 7, 8))
    p2 = UpperSolution((8, 6, 4, 2, 7, 5, 3, 1))
    c1, c2 = order_crossover(p1, p2, 3, 5)
    assert c1.genes == (8, 6, 3, 4, 5, 2, 7, 1)
    assert validate(c2) is None


def test_order_crossover_full_window_identity():
    p1 = UpperSolution((3, 1, 4, 2))
    p2 = UpperSolution((2, 4, 1, 3))
    c1, c2 = order_crossover(p1, p2, 1, 4)
    assert c1 == p1 and c2 == p2


def test_order_crossover_equal_parents():
    p = UpperSolution((5, 3, 1, 2, 4))
    c1, c2 = order_crossover(p, p, 2, 3)
    assert c1 == p and c2 == p


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=30),
)
@settings(max_examples=60, deadline=None)
def test_order_crossover_children_are_permutations(seed, n):
    rng = np.random.default_rng(seed)
    p1 = random_solution(n, rng)
    p2 = random_solution(n, rng)
    cuts = sorted(int(v) for v in rng.integers(1, n + 1, size=2))
    c1, c2 = order_crossover(p1, p2, cuts[0], cuts[1])
    assert validate(c1) is None and validate(c2) is None


def test_mutation_rate_zero_is_identity():
    x = UpperSolution((1, 2, 3, 4, 5))
    assert inversion_mutation(x, 0.0, np.random.default_rng(0)) == x


def test_mutation_swaps_two_distinct_positions():
    x = UpperSolution(tuple(range(1, 31)))
    rng = np.random.default_rng(3)
    y = inversion_mutation(x, 1.0, rng)
    diff = [i for i in range(30) if x.genes[i] != y.genes[i]]
    assert len(diff) == 2
    i, j = diff
    assert x.genes[i] == y.genes[j] and x.genes[j] == y.genes[i]
    assert validate(y) is None


def test_ga_config_validation():
    for bad in (
        dict(n_pop=7),
        dict(n_pop=0),
        dict(n_pop=-2),
        dict(n_gen=-1),
        dict(workers=0),
    ):
        with pytest.raises(ValueError):
            GaConfig(**bad)
    GaConfig(n_pop=2, n_gen=0)


@pytest.fixture(scope="module")
def small_desk():
    return preset_scene("desk", 1)


def _tiny(seed=0, **kw):
    base = dict(n_pop=12, n_gen=3, seed=seed)
    base.update(kw)
    return GaConfig(**base)


def test_run_deterministic(small_desk):
    a = run(small_desk, small_desk.config, _tiny())
    b = run(small_desk, small_desk.config, _tiny())
    assert a.best == b.best
    assert a.report == b.report
    assert [(r.best_objective, r.best_genes) for r in a.trace.generations] == [
        (r.best_objective, r.best_genes) for r in b.trace.generations
    ]


def test_run_zero_generations_returns_initial_best(small_desk):
    res = run(small_desk, small_desk.config, _tiny(n_gen=0))
    assert len(res.trace.generations) == 1
    assert res.trace.generations[0].best_objective == res.report.objective


def test_trace_monotone_with_elitism(small_desk):
    res = run(small_desk, small_desk.config, _tiny(n_gen=6, seed=2))
    gens = res.trace.generations
    assert all(g2.best_objective <= g1.best_objective for g1, g2 in zip(gens, gens[1:]))
    # elite 0 is the best so far, so a generation that finds nothing better
    # keeps the same best, and the run's best is the last generation's
    ties = [(g1, g2) for g1, g2 in zip(gens, gens[1:]) if g2.best_objective == g1.best_objective]
    assert ties and all(g2.best_genes == g1.best_genes for g1, g2 in ties)
    assert res.best.genes == gens[-1].best_genes
    assert res.report.objective == gens[-1].best_objective


def test_seeding_without_a_side_panel_draws_the_random_fill(hood_only):
    # no boundary set exists, so the seeded run draws the same random
    # population as an unseeded one, and everything after it is the same
    seeded = run(hood_only, ga_cfg=GaConfig(n_pop=6, n_gen=2, seed=3))
    unseeded = run(hood_only, ga_cfg=GaConfig(n_pop=6, n_gen=2, seed=3, use_seeding=False))
    assert seeded.n_boundary_seeds == 0
    assert seeded.initial == unseeded.initial
    assert seeded.best == unseeded.best
    assert seeded.trace == unseeded.trace


def test_workers_do_not_change_results(small_desk):
    rng = np.random.default_rng(7)
    n_dim = small_desk.n_segs + small_desk.config.n_d
    pop = [random_solution(n_dim, rng) for _ in range(16)]
    seq = PopulationEvaluator(small_desk, small_desk.config, workers=1)
    par = PopulationEvaluator(small_desk, small_desk.config, workers=4)
    try:
        assert seq.evaluate_all(pop) == par.evaluate_all(pop)
    finally:
        seq.close()
        par.close()


def test_explicit_config_computes_windows_once(small_desk, monkeypatch):
    # the run resolves the config into one scene copy that every generation reuses
    windows = VehicleScene.__dict__["windows"]
    compute = windows.func
    computed = []

    def counted(scene):
        computed.append(scene.config)
        return compute(scene)

    monkeypatch.setattr(windows, "func", counted)
    cfg = dataclasses.replace(small_desk.config, rho_col=999.0)
    run(small_desk, cfg, GaConfig(n_pop=10, n_gen=2))
    assert computed == [cfg]

