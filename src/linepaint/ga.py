"""Upper-layer genetic algorithm: tournament selection, order crossover of
every pair, swap mutation, repair hook, and generational replacement that
keeps the ``ELITES`` best.

Evaluation is a pure function of the genotype, so the population can be
scored by a worker pool without affecting results; all randomness lives in a
single master RNG stream, making runs bit-reproducible for a fixed seed
regardless of worker count.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from .evaluation import EvaluationReport, evaluate
from .genotype import UpperSolution
from .repair import repair_all
from .scene import ScenarioConfig, VehicleScene, _scene_under
from .seeding import build_seed_population, random_population

ELITES = 2  # the best individuals carried over unchanged; n_pop >= 2
TOURNAMENT = 3  # draws per tournament
MUTATION_RATE = 0.02  # chance that a child has two genes swapped


@dataclass(frozen=True)
class GaConfig:
    n_pop: int = 100
    n_gen: int = 50
    seed: int = 0
    use_seeding: bool = True
    use_repair_bottom_up: bool = True
    use_repair_few_arms: bool = True
    workers: int = 1

    def __post_init__(self):
        if self.n_pop < 2 or self.n_pop % 2:
            raise ValueError("n_pop must be even and at least 2")
        if self.n_gen < 0:
            raise ValueError("n_gen must not be negative")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")


@dataclass
class GenRecord:
    generation: int
    best_objective: float
    mean_objective: float
    best_feasible: bool
    best_genes: tuple[int, ...]


@dataclass
class RunTrace:
    generations: list[GenRecord] = field(default_factory=list)


@dataclass
class GaResult:
    best: UpperSolution
    report: EvaluationReport
    trace: RunTrace
    n_boundary_seeds: int = 0  # boundary-aligned members of the initial population
    initial: list[UpperSolution] = field(default_factory=list)  # generation 0, as scored


# ---------------------------------------------------------------------------
# operators


def tournament_select(pop, objectives, n_t: int, rng) -> int:
    """Index of the lowest-objective individual among n_t uniform draws
    (with replacement)."""
    draws = rng.integers(0, len(pop), size=n_t)
    best = int(draws[0])
    for d in draws[1:]:
        if objectives[int(d)] < objectives[best]:
            best = int(d)
    return best


def order_crossover(
    p1: UpperSolution, p2: UpperSolution, k_s: int, k_e: int
) -> tuple[UpperSolution, UpperSolution]:
    """Order crossover with 1-based inclusive cut positions: each child keeps
    one parent's genes on [k_s, k_e] and fills the rest left-to-right with the
    other parent's remaining genes in their original order."""
    n = len(p1.genes)
    if not (1 <= k_s <= k_e <= n):
        raise ValueError(f"cut points ({k_s}, {k_e}) outside 1..{n}")

    def make(keeper, donor):
        kept = keeper.genes[k_s - 1 : k_e]
        kept_set = set(kept)
        rest = iter(g for g in donor.genes if g not in kept_set)
        genes = [
            keeper.genes[i] if k_s - 1 <= i < k_e else next(rest) for i in range(n)
        ]
        return UpperSolution(tuple(genes))

    return make(p1, p2), make(p2, p1)


def inversion_mutation(x: UpperSolution, rate: float, rng) -> UpperSolution:
    """With probability `rate`, swap two uniformly chosen distinct genes."""
    if rng.random() >= rate:
        return x
    n = len(x.genes)
    i = int(rng.integers(0, n))
    j = int(rng.integers(0, n - 1))
    if j >= i:
        j += 1
    genes = list(x.genes)
    genes[i], genes[j] = genes[j], genes[i]
    return UpperSolution(tuple(genes))


# ---------------------------------------------------------------------------
# parallel evaluation

_worker_scene: VehicleScene | None = None


def _init_worker(scene):
    global _worker_scene
    _worker_scene = scene


def _eval_genes(chunk):
    return evaluate([UpperSolution(g) for g in chunk], _worker_scene)


class PopulationEvaluator:
    """Caches reports by genotype; optional fork-based worker pool.  Each
    call scores its new genotypes in ``evaluate``'s groups; a pool gets
    them in the chunks ``pool.map`` would cut, four per worker, and each
    worker scores its chunk the same way."""

    def __init__(self, scene: VehicleScene, cfg: ScenarioConfig | None = None, workers: int = 1):
        self.scene = scene = _scene_under(scene, cfg)
        self.cache: dict[tuple[int, ...], EvaluationReport] = {}
        self.pool = None
        self.workers = workers
        if workers > 1:
            ctx = multiprocessing.get_context("fork")
            self.pool = ctx.Pool(workers, initializer=_init_worker, initargs=(scene,))

    def evaluate_all(self, pop: list[UpperSolution]) -> list[EvaluationReport]:
        missing = sorted({x.genes for x in pop if x.genes not in self.cache})
        if missing:
            if self.pool is not None:
                size = -(-len(missing) // (4 * self.workers))
                chunks = [missing[i : i + size] for i in range(0, len(missing), size)]
                reports = [r for part in self.pool.map(_eval_genes, chunks, 1) for r in part]
            else:
                reports = evaluate([UpperSolution(g) for g in missing], self.scene)
            self.cache.update(zip(missing, reports))
        return [self.cache[x.genes] for x in pop]

    def close(self):
        if self.pool is not None:
            self.pool.close()
            self.pool.join()
            self.pool = None


# ---------------------------------------------------------------------------
# the loop


def run(
    scene: VehicleScene,
    cfg: ScenarioConfig | None = None,
    ga_cfg: GaConfig | None = None,
) -> GaResult:
    scene = _scene_under(scene, cfg)
    ga_cfg = ga_cfg or GaConfig()
    rng = np.random.default_rng(ga_cfg.seed)

    if ga_cfg.use_seeding:
        pop, n_boundary = build_seed_population(scene, ga_cfg.n_pop, rng)
    else:
        pop, n_boundary = random_population(scene, ga_cfg.n_pop, rng), 0

    initial = pop
    evaluator = PopulationEvaluator(scene, workers=ga_cfg.workers)
    trace = RunTrace()
    try:
        reports = evaluator.evaluate_all(pop)
        best_i = _record(trace, 0, pop, reports)

        for g in range(1, ga_cfg.n_gen + 1):
            objectives = [r.objective for r in reports]
            order = sorted(range(len(pop)), key=lambda i: objectives[i])
            new_pop = [pop[i] for i in order[:ELITES]]
            # n_pop and ELITES are even and children come in pairs: no child is left over
            while len(new_pop) < ga_cfg.n_pop:
                p1 = pop[tournament_select(pop, objectives, TOURNAMENT, rng)]
                p2 = pop[tournament_select(pop, objectives, TOURNAMENT, rng)]
                rng.random()  # read by nothing; every fixed-seed result depends on the draw
                cuts = sorted(int(v) for v in rng.integers(1, scene.n_dim + 1, size=2))
                for child in order_crossover(p1, p2, cuts[0], cuts[1]):
                    child = inversion_mutation(child, MUTATION_RATE, rng)
                    child = repair_all(
                        child,
                        scene,
                        use_bottom_up=ga_cfg.use_repair_bottom_up,
                        use_few_arms=ga_cfg.use_repair_few_arms,
                    )
                    new_pop.append(child)
            pop = new_pop
            reports = evaluator.evaluate_all(pop)
            # the sort is stable and min keeps the first of equal values, so
            # the best so far is elite 0 unless a child beats it: the
            # generation's best is the run's
            best_i = _record(trace, g, pop, reports)
    finally:
        evaluator.close()
    return GaResult(
        pop[best_i], reports[best_i], trace, n_boundary_seeds=n_boundary, initial=initial
    )


def _record(trace: RunTrace, g: int, pop, reports) -> int:
    """Append generation g's record; the index of its (first) best."""
    best_i = min(range(len(pop)), key=lambda i: reports[i].objective)
    trace.generations.append(
        GenRecord(
            generation=g,
            best_objective=reports[best_i].objective,
            mean_objective=float(np.mean([r.objective for r in reports])),
            best_feasible=reports[best_i].strong_feasible,
            best_genes=pop[best_i].genes,
        )
    )
    return best_i
