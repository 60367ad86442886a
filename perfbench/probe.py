"""Set-up probe, run in a fresh interpreter by run.py:

    python3 perfbench/probe.py <workload>

Times the import of the package, the load of the workload's frozen scene
and the first `reach_windows`, plus the start of the 2-process pool on
v1-solve, and prints them as one JSON line.
"""

import json
import sys
from time import perf_counter

import checkout


def main() -> int:
    workload = sys.argv[1]
    checkout.use_source_tree()
    t0 = perf_counter()
    import linepaint
    import linepaint.cli
    from linepaint import ga, lower_sim
    from linepaint.scene import load_scene

    t1 = perf_counter()
    from workloads import WORKLOADS, frozen_scene_path

    wl = WORKLOADS[workload]
    t2 = perf_counter()
    scene = load_scene(frozen_scene_path(wl.scene_name))
    t3 = perf_counter()
    lower_sim.reach_windows(scene, scene.config)
    pool = ga.PopulationEvaluator(scene, scene.config, wl.workers) if wl.workers > 1 else None
    t4 = perf_counter()
    if pool is not None:
        pool.close()
    checkout.check_imported(linepaint)
    print(json.dumps({"setup_s": (t1 - t0) + (t4 - t2), "import_s": t1 - t0, "load_s": t3 - t2}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
