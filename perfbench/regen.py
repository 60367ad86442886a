"""Maintenance script for the benchmark's frozen inputs and golden results.

    python3 perfbench/regen.py scenes   # freeze desk, v1, v3 from the presets
    python3 perfbench/regen.py golden   # recompute golden.json

Run from the repository root.  `scenes` refuses to overwrite frozen scenes:
regenerating them changes what the benchmark measures.  `golden` records the
results of the current code, so run it only on a commit whose results are
known to be right; v1 goldens are computed with a single worker.
"""

import hashlib
import json
import os
import sys

import checkout


def freeze_scenes() -> None:
    import yaml

    from linepaint.presets import preset_scene
    from linepaint.scene import scene_to_dict
    from workloads import SCENE_DIR

    lines = []
    for name in ("desk", "v1", "v3"):
        path = os.path.join(SCENE_DIR, f"{name}.yaml")
        if os.path.exists(path):
            raise checkout.BenchError(f"{path} exists; frozen scenes are not regenerated")
        blob = yaml.safe_dump(scene_to_dict(preset_scene(name)), sort_keys=False).encode()
        with open(path, "wb") as fh:
            fh.write(blob)
        lines.append(f"{hashlib.sha256(blob).hexdigest()}  {name}.yaml\n")
    with open(os.path.join(SCENE_DIR, "SHA256SUMS"), "w", encoding="utf-8") as fh:
        fh.writelines(lines)


def compute_golden() -> None:
    from workloads import GOLDEN_PATH, WORKLOADS

    golden = {}
    for name, cls in WORKLOADS.items():
        wl = cls(None)
        keys = [str(k) for k in range(wl.pool_size)]
        wl.build(keys)
        golden[name] = {}
        for key in keys:
            wl.prepare(key)
            out = wl.call(key, workers=1)
            golden[name][key] = wl.result(key, out)
        print(f"{name}: {len(keys)} golden results", file=sys.stderr)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    checkout.use_source_tree()
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what == "scenes":
        freeze_scenes()
    elif what == "golden":
        compute_golden()
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
