"""Command-line front end.

Subcommands:
  solve       run the optimizer on a scenario file or preset
  audit       score a given arm assignment and print the constraint report
  ablate      run the method-combination study over several RNG seeds
  make-scene  write a preset scenario to a YAML file

Exit codes: 0 = feasible plan found / success, 1 = best plan infeasible,
2 = configuration or input error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import yaml

from . import ga
from .evaluation import evaluate_assignment
from .genotype import UpperSolution, decode, validate
from .lower_sim import ACTION_NAMES, simulate
from .presets import PRESET_NAMES, preset_scene
from .render import save_svg
from .scene import ScenarioError, VehicleScene, _YamlDumper, load_scene, save_scene, scene_to_dict
from .seeding import enumerate_boundary_sets

# ablation method ids -> (seeding, bottom-up repair, few-arms repair)
METHODS = {
    "M1": (False, False, False),
    "M2": (True, False, False),
    "M3": (False, True, False),
    "M4": (False, False, True),
    "M5": (True, True, False),
    "M6": (True, False, True),
    "M7": (False, True, True),
    "M8": (True, True, True),
}


def _config_hash(scene: VehicleScene, ga_cfg: ga.GaConfig) -> str:
    doc = {"scene": scene_to_dict(scene), "ga": asdict(ga_cfg)}
    blob = yaml.dump(doc, Dumper=_YamlDumper, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _scene_digest(scene: VehicleScene) -> str:
    """The scene's geometry, arms and line as 16 hex digits of a sha256 of
    their canonical JSON, every number a float so that 1500 and 1500.0 hash
    alike.  The config is left out: saved genes may be re-scored under other
    weights, and decoding checks the gene count."""

    def canon(v):
        if isinstance(v, dict):
            return {k: canon(x) for k, x in v.items()}
        if isinstance(v, list):
            return [canon(x) for x in v]
        return float(v) if type(v) is int else v

    doc = scene_to_dict(scene)
    del doc["config"]
    return hashlib.sha256(json.dumps(canon(doc), sort_keys=True).encode()).hexdigest()[:16]


def _load(args) -> VehicleScene:
    if args.scenario:
        if args.scene_seed is not None:
            raise ScenarioError("--scene-seed applies to --preset only")
        return load_scene(args.scenario)
    return preset_scene(args.preset, seed=1 if args.scene_seed is None else args.scene_seed)


def _add_scene_args(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--scenario", help="scenario YAML file")
    g.add_argument("--preset", choices=PRESET_NAMES, help="built-in scenario")
    p.add_argument("--scene-seed", type=int, help="preset geometry seed (default 1)")


def _add_ga_args(p):
    p.add_argument("--pop", type=int, default=100, help="population size")
    p.add_argument("--gens", type=int, default=50, help="number of generations")
    p.add_argument("--workers", type=int, default=1, help="evaluation worker processes")


def _ga_config(args, seed: int, seeding: bool, bottom_up: bool, few_arms: bool) -> ga.GaConfig:
    return ga.GaConfig(
        n_pop=args.pop,
        n_gen=args.gens,
        seed=seed,
        use_seeding=seeding,
        use_repair_bottom_up=bottom_up,
        use_repair_few_arms=few_arms,
        workers=args.workers,
    )


def _write_trajectory_csv(path, traj):
    # the rows csv.writer would write: no field needs quoting
    row = "%d,%d,%.3f,%.3f,%.3f,%s,%d\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("arm,tick,x_mm,y_mm,z_mm,action,segment\r\n")
        n_ticks = traj.positions.shape[1]
        for i, arm_id in enumerate(traj.arm_ids):
            # 1024 ticks at a time: a whole arm's rows as lists take megabytes
            for t0 in range(0, n_ticks, 1024):
                ticks = slice(t0, t0 + 1024)
                positions, actions = traj.positions[i, ticks].tolist(), traj.actions[i, ticks]
                rows = zip(positions, actions.tolist(), traj.seg_ids[i, ticks].tolist())
                fh.write(
                    "".join(
                        row % (arm_id, t, x, y, z, ACTION_NAMES[action], seg)
                        for t, ((x, y, z), action, seg) in enumerate(rows, t0)
                    )
                )


def _write_trace_csv(path, trace):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["generation", "best_objective", "mean_objective", "best_feasible"])
        for rec in trace.generations:
            w.writerow(
                [
                    rec.generation,
                    f"{rec.best_objective:.6f}",
                    f"{rec.mean_objective:.6f}",
                    int(rec.best_feasible),
                ]
            )


def cmd_solve(args) -> int:
    scene = _load(args)
    ga_cfg = _ga_config(
        args,
        args.seed,
        not args.no_seeding,
        not args.no_repair_bottom_up,
        not args.no_repair_few_arms,
    )
    chash = _config_hash(scene, ga_cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    started = time.strftime("%Y-%m-%dT%H:%M:%S")
    t0 = time.perf_counter()
    result = ga.run(scene, ga_cfg=ga_cfg)
    elapsed = time.perf_counter() - t0

    assign = decode(result.best, scene)
    traj, _ = simulate(assign, scene)
    report = result.report

    save_scene(scene, out / "scenario.yaml")
    (out / "best_genotype.json").write_text(
        json.dumps(
            {
                "format_version": 1,
                "config_hash": chash,
                "scene_digest": _scene_digest(scene),
                "seed": ga_cfg.seed,
                "genes": list(result.best.genes),
                "objective": report.objective,
                "strong_feasible": report.strong_feasible,
            },
            indent=2,
        )
    )
    (out / "report.json").write_text(
        json.dumps({"config_hash": chash, "seed": ga_cfg.seed, **asdict(report)}, indent=2)
    )
    _write_trajectory_csv(out / "trajectory.csv", traj)
    _write_trace_csv(out / "trace.csv", result.trace)
    save_svg(traj, scene, out / "routes.svg")
    if args.dump_seeds:
        (out / "seeds.json").write_text(
            json.dumps({"format_version": 1, "seeds": [list(x.genes) for x in result.initial]})
        )
    (out / "run_info.txt").write_text(
        f"{started}\n"
        f"config_hash: {chash}\n"
        f"scene: {scene.name} ({scene.n_segs} one-side segments, "
        f"{scene.n_arms_side} arms/side)\n"
        f"ga: pop={ga_cfg.n_pop} gens={ga_cfg.n_gen} seed={ga_cfg.seed} "
        f"workers={ga_cfg.workers}\n"
        f"boundary_seeds: {result.n_boundary_seeds}\n"
        f"elapsed_s: {elapsed:.2f}\n"
        f"objective: {report.objective:.6f}\n"
        f"strong_feasible: {report.strong_feasible}\n"
    )
    print(
        f"best objective {report.objective:.3f} "
        f"(work time {report.work_time_max:.2f}s), "
        f"{'feasible' if report.strong_feasible else 'INFEASIBLE'}; "
        f"outputs in {out}"
    )
    if ga_cfg.use_seeding and not result.n_boundary_seeds:
        why = (
            "no boundary set fits the arms' slots"
            if enumerate_boundary_sets(scene, 1)
            else "the scene has no vertical side panel to cut"
        )
        print(f"note: {why}; the initial population is all random")
    for note in report.weak_notes:
        print(f"note: {note}")
    return 0 if report.strong_feasible else 1


def _ids(values) -> tuple[int, ...]:
    """A JSON list of integer ids; a float, a boolean or a string is no id."""
    if not isinstance(values, list):
        raise ScenarioError(f"expected a list of ids, got {values!r}")
    for v in values:
        if type(v) is not int:
            raise ScenarioError(f"ids must be integers, got {v!r}")
    return tuple(values)


def cmd_audit(args) -> int:
    scene = _load(args)
    doc = json.loads(Path(args.assignment).read_text())
    try:
        if doc.get("format_version", 1) != 1:
            raise ScenarioError(
                f"unsupported assignment format_version {doc.get('format_version')}"
            )
        digest = _scene_digest(scene)
        if doc.get("scene_digest", digest) != digest:
            raise ScenarioError(
                f"assignment was saved for scene {doc['scene_digest']}, not this scene {digest}"
            )
        if "genes" in doc:
            sol = UpperSolution(_ids(doc["genes"]))
            assign = decode(sol, scene)  # ValueError unless there are n_dim genes
            problem = validate(sol)
            if problem:
                raise ScenarioError(f"genes are not a permutation of 1..{scene.n_dim}: {problem}")
        elif "arms" in doc:
            keys = [str(a.id) for a in scene.left_arms()]
            if not isinstance(doc["arms"], dict) or doc["arms"].keys() != set(keys):
                raise ScenarioError(f"'arms' must map each one-side arm id {keys} to a list")
            assign = tuple(_ids(doc["arms"][k]) for k in keys)
        else:
            raise ScenarioError("assignment file needs a 'genes' or 'arms' field")
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed assignment document: {exc}") from exc

    report, _ = evaluate_assignment(assign, scene)
    payload = asdict(report)
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2))
    print(json.dumps(payload, indent=2))
    return 0 if report.strong_feasible else 1


def cmd_ablate(args) -> int:
    scene = _load(args)
    methods = [m.strip().upper() for m in args.methods.split(",")]
    for m in methods:
        if m not in METHODS:
            raise ScenarioError(f"unknown method {m!r} (expected M1..M8)")
    seeds = [int(s) for s in args.seeds.split(",")]
    # every GaConfig checks itself before the output directory is made
    runs = [(m, s, _ga_config(args, s, *METHODS[m])) for m in methods for s in seeds]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    curves = []
    for method, seed, ga_cfg in runs:
        result = ga.run(scene, ga_cfg=ga_cfg)
        feas_gen = next((r.generation for r in result.trace.generations if r.best_feasible), -1)
        rows.append(
            {
                "method": method,
                "seed": seed,
                "feasible_generation": feas_gen,
                "final_objective": result.report.objective,
                "final_feasible": int(result.report.strong_feasible),
            }
        )
        for rec in result.trace.generations:
            curves.append((method, seed, rec.generation, rec.best_objective))
        print(
            f"{method} seed={seed}: objective {result.report.objective:.3f}, "
            f"feasible at gen {feas_gen}"
        )

    with open(out / "ablation.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)
    with open(out / "curves.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["method", "seed", "generation", "best_objective"])
        for row in curves:
            w.writerow([row[0], row[1], row[2], f"{row[3]:.6f}"])
    print(f"ablation results in {out}")
    return 0


def cmd_make_scene(args) -> int:
    scene = preset_scene(args.preset, seed=args.scene_seed)
    save_scene(scene, args.out)
    print(f"wrote {args.preset} scenario ({scene.n_segs} one-side segments) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linepaint",
        description="Hierarchical route planning for multi-arm painting on a moving line.",
    )
    # no abbreviations: ablate would read `--seed 1` as `--seeds 1`
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the optimizer", allow_abbrev=False)
    _add_scene_args(p)
    _add_ga_args(p)
    p.add_argument("--seed", type=int, default=0, help="optimizer RNG seed")
    p.add_argument("--no-seeding", action="store_true", help="random initial population")
    p.add_argument("--no-repair-bottom-up", action="store_true")
    p.add_argument("--no-repair-few-arms", action="store_true")
    p.add_argument("--out", default="runs/latest", help="output directory")
    p.add_argument(
        "--dump-seeds",
        action="store_true",
        help="also write seeds.json, the GA's generation-0 population",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("audit", help="score a given assignment", allow_abbrev=False)
    _add_scene_args(p)
    p.add_argument("--assignment", required=True, help="JSON with 'genes' or 'arms'")
    p.add_argument("--out", help="also write the report JSON here")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("ablate", help="method-combination study", allow_abbrev=False)
    _add_scene_args(p)
    _add_ga_args(p)
    p.add_argument("--methods", default="M1,M2,M3,M4,M5,M6,M7,M8")
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated RNG seeds")
    p.add_argument("--out", default="runs/ablation", help="output directory")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("make-scene", help="write a preset scenario file", allow_abbrev=False)
    p.add_argument("--preset", choices=PRESET_NAMES, required=True)
    p.add_argument("--scene-seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_scene)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
