"""Upper-layer solution representation.

A genotype is a permutation of segment ids 1..n_segs plus dummy ids
n_segs+1..n_dim, split into equal-length contiguous slots, one per one-side
arm (slot 1 belongs to the frontmost arm).  Painting-exactly-once holds by
construction; decoding strips the dummies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scene import VehicleScene


@dataclass(frozen=True)
class UpperSolution:
    genes: tuple[int, ...]


# per one-side arm (frontmost first): real segment ids in visit order
ArmAssignment = tuple[tuple[int, ...], ...]


def decode(x: UpperSolution, scene: VehicleScene) -> ArmAssignment:
    n_slots = scene.n_arms_side
    n_segs = scene.n_segs
    if len(x.genes) % n_slots:
        raise ValueError(f"n_dim {len(x.genes)} not divisible by {n_slots} slots")
    width = len(x.genes) // n_slots
    out = []
    for a in range(n_slots):
        slot = x.genes[a * width : (a + 1) * width]
        out.append(tuple(g for g in slot if g <= n_segs))
    return tuple(out)


def validate(x: UpperSolution) -> str | None:
    """None when x is a valid permutation of 1..n_dim, else a description."""
    n = len(x.genes)
    seen: dict[int, int] = {}
    problems = []
    for pos, g in enumerate(x.genes):
        if g in seen:
            problems.append(f"id {g} duplicated at positions {seen[g]} and {pos}")
        else:
            seen[g] = pos
        if not 1 <= g <= n:
            problems.append(f"id {g} at position {pos} outside 1..{n}")
    missing = [g for g in range(1, n + 1) if g not in seen]
    if missing:
        problems.append(f"missing ids {missing}")
    return "; ".join(problems) if problems else None


def random_solution(n_dim: int, rng) -> UpperSolution:
    perm = rng.permutation(n_dim) + 1
    return UpperSolution(tuple(int(g) for g in perm))
