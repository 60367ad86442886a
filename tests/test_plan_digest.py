"""Plans pinned by digest: every SimMetrics field and the rendered table of
seeded plans on desk, v1 and v3.  ``simulate``'s metrics and ``_render``'s
table are both read from the planner's tapes, so the oracle tests compare
two views of one source; these digests are the check that neither moved."""

import dataclasses
import hashlib

import numpy as np
import pytest

from linepaint.genotype import decode, random_solution
from linepaint.lower_sim import simulate
from linepaint.presets import preset_scene
from linepaint.repair import repair_all


def _field_text(value) -> str:
    if isinstance(value, dict):
        return repr([(k, _field_text(v)) for k, v in value.items()])
    if isinstance(value, float):
        return value.hex()
    return repr(value)


def _plan_digest(name: str, n_plans: int) -> str:
    """sha256 over the plans of ``n_plans`` seeded genotypes on one preset,
    every other one passed through repair_all first."""
    scene = preset_scene(name, seed=1)
    digest = hashlib.sha256()
    for k in range(n_plans):
        x = random_solution(scene.n_dim, np.random.default_rng([77, k]))
        if k % 2 == 0:
            x = repair_all(x, scene)
        traj, metrics = simulate(decode(x, scene), scene)
        for f in dataclasses.fields(metrics):
            digest.update(f"{f.name}={_field_text(getattr(metrics, f.name))};".encode())
        for table in (traj.positions, traj.actions, traj.seg_ids, traj.positions[:, 0]):
            digest.update(repr((table.dtype.str, table.shape)).encode())
            digest.update(np.ascontiguousarray(table).tobytes())
    return digest.hexdigest()


_DIGESTS = {
    "desk": "427413f19abd808f461e7228a328fd95f310b45ef9d313cf1002cd6581812efd",
    "v1": "b8c252ebf5fd50803a18cc81bef9812eea9d5986abfc3de11e784061f17cccf5",
    "v3": "57956312ec2e61a14b4aaa51d40e2742a5e20398171d1d895102288e872c0a57",
}


@pytest.mark.parametrize("name", sorted(_DIGESTS))
def test_plans_are_pinned(name):
    # a change to the planner, the tape or the renderer that moves any
    # metric bit or table byte fails here; update a digest only with a
    # change that means to change the plans
    assert _plan_digest(name, 10) == _DIGESTS[name]
