import json

import numpy as np
import pytest
import yaml

from linepaint.cli import main
from linepaint.presets import preset_scene
from linepaint.scene import load_scene, save_scene, scene_to_dict
from linepaint.seeding import (
    base_boundaries,
    build_seed_population,
    random_population,
    solution_from_boundaries,
)


def test_make_scene_round_trips(tmp_path):
    out = tmp_path / "desk.yaml"
    assert main(["make-scene", "--preset", "desk", "--out", str(out)]) == 0
    assert load_scene(out) == preset_scene("desk", 1)


def test_solve_writes_artifacts_and_exits_zero(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "solve",
            "--preset",
            "desk",
            "--pop",
            "20",
            "--gens",
            "2",
            "--seed",
            "0",
            "--out",
            str(out),
            "--dump-seeds",
        ]
    )
    assert code == 0
    for name in (
        "scenario.yaml",
        "best_genotype.json",
        "trajectory.csv",
        "report.json",
        "trace.csv",
        "routes.svg",
        "run_info.txt",
        "seeds.json",
    ):
        assert (out / name).exists(), name
    report = json.loads((out / "report.json").read_text())
    assert report["strong_feasible"] is True
    best = json.loads((out / "best_genotype.json").read_text())
    assert best["config_hash"] == report["config_hash"]
    trace = (out / "trace.csv").read_text().strip().splitlines()
    assert len(trace) == 1 + 3  # header + generations 0..2
    info = dict(line.split(": ", 1) for line in (out / "run_info.txt").read_text().splitlines()[1:])
    assert int(info["boundary_seeds"]) > 0


@pytest.mark.parametrize("seeding", [True, False])
def test_dump_seeds_writes_the_initial_population(tmp_path, desk, seeding):
    out = tmp_path / "run"
    args = ["solve", "--preset", "desk", "--pop", "10", "--gens", "0", "--seed", "0"]
    main(args + ["--out", str(out), "--dump-seeds"] + ([] if seeding else ["--no-seeding"]))
    rng = np.random.default_rng(0)
    if seeding:
        initial, _ = build_seed_population(desk, 10, rng)
    else:
        initial = random_population(desk, 10, rng)
    seeds = json.loads((out / "seeds.json").read_text())["seeds"]
    assert seeds == [list(x.genes) for x in initial]
    # with no generation after it, the best plan is one of generation 0
    assert json.loads((out / "best_genotype.json").read_text())["genes"] in seeds


def test_solve_says_when_no_boundary_seed_fits(tmp_path, capsys):
    out = tmp_path / "run"
    main(["solve", "--preset", "v3", "--pop", "4", "--gens", "0", "--out", str(out)])
    assert "no boundary set fits" in capsys.readouterr().out
    assert "boundary_seeds: 0\n" in (out / "run_info.txt").read_text()


def test_solve_seeds_nothing_on_a_scene_without_a_side_panel(tmp_path, hood_only, capsys):
    scenario = tmp_path / "hood.yaml"
    save_scene(hood_only, scenario)
    out = tmp_path / "run"
    args = ["solve", "--scenario", str(scenario), "--pop", "6", "--gens", "1", "--out", str(out)]
    assert main(args) in (0, 1)
    assert "note: the scene has no vertical side panel to cut" in capsys.readouterr().out
    assert "boundary_seeds: 0\n" in (out / "run_info.txt").read_text()


def test_solve_infeasible_exits_one(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "solve",
            "--preset",
            "desk",
            "--pop",
            "10",
            "--gens",
            "0",
            "--seed",
            "0",
            "--no-seeding",
            "--no-repair-bottom-up",
            "--no-repair-few-arms",
            "--out",
            str(out),
        ]
    )
    assert code == 1


def test_missing_scenario_exits_two(tmp_path):
    assert main(["solve", "--scenario", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)]) == 2
    # any other OS error on an input or output path is a usage error too
    a_file = tmp_path / "file"
    a_file.write_text("")
    assert main(["audit", "--preset", "desk", "--assignment", str(tmp_path)]) == 2
    assert main(["audit", "--scenario", str(tmp_path), "--assignment", str(a_file)]) == 2
    args = ["solve", "--preset", "desk", "--pop", "4", "--gens", "0", "--out", str(a_file)]
    assert main(args) == 2


@pytest.mark.parametrize("direction, rejected", [([1.0, 0.0, 0.0], False), ([0, 0, 1], True)])
def test_line_direction_other_than_x_exits_two(tmp_path, desk, direction, rejected):
    doc = scene_to_dict(desk)
    doc["line"]["direction"] = direction
    scenario = tmp_path / "scene.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    assignment = tmp_path / "assignment.json"
    x = solution_from_boundaries(base_boundaries(desk), desk)
    assignment.write_text(json.dumps({"format_version": 1, "genes": list(x.genes)}))
    audit = main(["audit", "--scenario", str(scenario), "--assignment", str(assignment)])
    solve = main(
        ["solve", "--scenario", str(scenario), "--pop", "4", "--gens", "0", "--out", str(tmp_path)]
    )
    assert (audit == 2, solve == 2) == (rejected, rejected)


@pytest.mark.parametrize(
    "key, value",
    [
        ("v_sp", 0.0),
        ("v_sp", -1.0),
        ("v_mv", 98.0),  # desk's line moves at 98 mm/s
        ("gamma_col", 0.0),
        ("gamma_col", -300.0),
        ("t_p", 0.0),
        ("t_p", -5.0),
        ("head_turn_wait", -0.5),
        ("t_max", 0),
        ("t_max", 12000.5),
        ("epsilon", -1),
        ("epsilon", 0.5),
        ("delta", -1),
        ("n_d", -3),
        ("n_d", 31),
        ("v_sp", "fast"),
        ("gamma_col", float("nan")),
        ("v_mv", float("nan")),
        ("mu", float("nan")),
        ("rho_col", float("nan")),
        ("v_sp", float("inf")),
        ("t_p", float("inf")),
        ("back_door_rule", "no"),
    ],
)
def test_invalid_config_value_exits_two(tmp_path, desk, key, value):
    doc = scene_to_dict(desk)
    doc["config"][key] = value
    scenario = tmp_path / "scene.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    assignment = tmp_path / "assignment.json"
    x = solution_from_boundaries(base_boundaries(desk), desk)
    assignment.write_text(json.dumps({"format_version": 1, "genes": list(x.genes)}))
    out = tmp_path / "run"
    assert main(["audit", "--scenario", str(scenario), "--assignment", str(assignment)]) == 2
    assert main(["solve", "--scenario", str(scenario), "--gens", "0", "--out", str(out)]) == 2
    assert not out.exists()


_IMPOSSIBLE = [("--pop", "-2"), ("--pop", "0"), ("--gens", "-1"), ("--workers", "0")]


@pytest.mark.parametrize(
    "command, option, value",
    [pytest.param("solve", o, v, id=f"{o}-{v}") for o, v in _IMPOSSIBLE]
    + [pytest.param("ablate", o, v, id=f"ablate-{o}-{v}") for o, v in _IMPOSSIBLE],
)
def test_impossible_ga_config_exits_two(tmp_path, command, option, value):
    out = tmp_path / "run"
    runs = ["--methods", "M1", "--seeds", "0"] if command == "ablate" else []
    args = [command, "--preset", "desk", *runs, "--pop", "4", "--gens", "3", "--out", str(out)]
    assert main(args + [option, value]) == 2
    assert not out.exists()


def _exit_code(argv):
    """main's return value, or the exit code of an argparse usage error."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "command, option",
    [
        ("solve", ["--tournament", "3"]),
        ("solve", ["--mutation-rate", "0.1"]),
        ("ablate", ["--seed", "1"]),
        ("ablate", ["--no-seeding"]),
        ("ablate", ["--no-repair-bottom-up"]),
        ("ablate", ["--no-repair-few-arms"]),
    ],
)
def test_option_that_would_not_change_the_run_exits_two(tmp_path, command, option):
    # ablate takes its seeds from --seeds and its operators from --methods;
    # `--seed` is no abbreviation of `--seeds`
    out = tmp_path / "run"
    args = [command, "--preset", "desk", "--pop", "4", "--gens", "0", "--out", str(out)]
    if command == "ablate":
        args += ["--methods", "M1", "--seeds", "0"]
    assert _exit_code(args + option) == 2
    assert not out.exists()


@pytest.mark.parametrize("command", ["audit", "solve"])
def test_scene_seed_with_a_scenario_file_exits_two(tmp_path, desk, command):
    scenario = tmp_path / "scene.yaml"
    save_scene(desk, scenario)
    assignment = tmp_path / "assignment.json"
    x = solution_from_boundaries(base_boundaries(desk), desk)
    assignment.write_text(json.dumps({"genes": list(x.genes)}))
    out = tmp_path / "run"
    args = [command, "--scenario", str(scenario), "--scene-seed", "2"]
    if command == "audit":
        args += ["--assignment", str(assignment)]
    else:
        args += ["--pop", "4", "--gens", "0", "--out", str(out)]
    assert main(args) == 2
    assert not out.exists()


def test_scene_seed_picks_the_preset_geometry(tmp_path):
    out = tmp_path / "run"
    args = ["solve", "--preset", "desk", "--pop", "4", "--gens", "0", "--out", str(out)]
    main(args + ["--scene-seed", "2"])
    assert load_scene(out / "scenario.yaml") == preset_scene("desk", 2) != preset_scene("desk", 1)


def test_audit_matches_solver_pipeline(tmp_path, desk):
    x = solution_from_boundaries(base_boundaries(desk), desk)
    path = tmp_path / "assignment.json"
    path.write_text(json.dumps({"format_version": 1, "genes": list(x.genes)}))
    scenario = tmp_path / "scene.yaml"
    save_scene(desk, scenario)
    report_path = tmp_path / "report.json"
    code = main(
        [
            "audit",
            "--scenario",
            str(scenario),
            "--assignment",
            str(path),
            "--out",
            str(report_path),
        ]
    )
    from linepaint.evaluation import evaluate

    rep = evaluate(x, desk)
    saved = json.loads(report_path.read_text())
    assert saved["objective"] == rep.objective
    assert code == (0 if rep.strong_feasible else 1)


def test_audit_arms_format_and_inverted_order(tmp_path):
    scene = preset_scene("desk", 1)
    # reversed panel order on panel 1 -> at least one order violation
    arms = {
        "1": list(range(12, 0, -1)) + list(range(13, 21)),
        "2": list(range(21, 41)),
        "3": list(range(41, 61)),
    }
    path = tmp_path / "assignment.json"
    path.write_text(json.dumps({"format_version": 1, "arms": arms}))
    out = tmp_path / "report.json"
    code = main(
        ["audit", "--preset", "desk", "--assignment", str(path), "--out", str(out)]
    )
    assert code == 1
    saved = json.loads(out.read_text())
    assert sum(saved["order_violation_count"].values()) >= 1


def test_audit_unknown_segment_exits_two(tmp_path):
    path = tmp_path / "assignment.json"
    path.write_text(json.dumps({"format_version": 1, "arms": {"1": [999], "2": [], "3": []}}))
    assert main(["audit", "--preset", "desk", "--assignment", str(path)]) == 2


@pytest.mark.parametrize(
    "doc",
    [
        {"genes": 5},
        {"genes": None},
        {"arms": {"1": 5, "2": 6, "3": 7}},
        {"arms": [[1, 2]]},
        {"arms": [5, 5, 5]},
        [1, 2],
        "genes",
        # desk has 90 genes: three too many, three too few, an unknown id
        {"genes": list(range(1, 94))},
        {"genes": list(range(4, 91))},
        {"genes": [1000, *range(2, 91)]},
        # ids that are not JSON integers, and arms that are not desk's one-side arms
        {"genes": [1, 2, 3.7, *range(4, 91)]},
        {"genes": [True, *range(2, 91)]},
        {"genes": [1, 2, 3, 4, "5", *range(6, 91)]},
        {"arms": {"1": [1.5, *range(2, 21)], "2": list(range(21, 41)), "3": list(range(41, 61))}},
        {"arms": {"7": list(range(1, 21)), "8": list(range(21, 41)), "9": list(range(41, 61))}},
    ],
)
def test_audit_malformed_assignment_exits_two(tmp_path, doc):
    path = tmp_path / "assignment.json"
    path.write_text(json.dumps(doc))
    assert main(["audit", "--preset", "desk", "--assignment", str(path)]) == 2


@pytest.mark.parametrize(
    "keys, value",
    [
        (("scene", "segments", 0, "a", 0), float("nan")),
        (("scene", "segments", 0, "b", 1), float("inf")),
        (("arms", 0, "center", 2), float("nan")),
        (("scene", "front_x"), float("inf")),
        (("line", "reference_position"), float("nan")),
        (("scene", "panels", 0, "parallel_offset"), float("nan")),
        (("scene", "panels", 0, "delay"), float("-inf")),
    ],
)
def test_non_finite_geometry_exits_two(tmp_path, desk, keys, value):
    assert _audit_edited_desk(tmp_path, desk, keys, value) == 2


def _audit_edited_desk(tmp_path, desk, keys, value):
    """Exit code of `audit` on a desk file with doc[keys...] set to value."""
    doc = scene_to_dict(desk)
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    scenario = tmp_path / "scene.yaml"
    scenario.write_text(yaml.safe_dump(doc))
    assignment = tmp_path / "assignment.json"
    assignment.write_text(json.dumps({"genes": list(range(1, desk.n_dim + 1))}))
    return main(["audit", "--scenario", str(scenario), "--assignment", str(assignment)])


@pytest.mark.parametrize(
    "keys, value",
    [
        # unknown keys, which would be ignored
        (("confg",), {"t_p": 40.0}),
        (("scene", "panels", 0, "paralel_offset"), 10.0),
        (("line", "velocty"), 147.0),
        (("scene", "extra"), 1),
        # non-integers where an integer is meant, which would be truncated
        (("scene", "segments", 1, "height_index"), 2.5),
        (("scene", "segments", 2, "id"), 3.9),
        # booleans, which would be scored as 1
        (("arms", 0, "radius"), True),
        (("config", "t_max"), True),
        # points of the wrong size, and blocks that are not mappings
        (("scene", "segments", 0, "a"), [0.0, 400.0]),
        (("scene", "segments", 0, "b"), [900.0, 400.0, -900.0, 0.0]),
        (("arms", 0, "center"), [500.0, 500.0]),
        (("line",), None),
        (("config",), None),
    ],
)
def test_unrepresentable_scenario_exits_two(tmp_path, desk, keys, value, capsys):
    assert _audit_edited_desk(tmp_path, desk, keys, value) == 2
    assert "error:" in capsys.readouterr().err


def test_audit_duplicate_segment_exits_two(tmp_path):
    path = tmp_path / "assignment.json"
    path.write_text(
        json.dumps({"format_version": 1, "arms": {"1": [1, 1], "2": [], "3": []}})
    )
    assert main(["audit", "--preset", "desk", "--assignment", str(path)]) == 2


def test_ablate_writes_tables(tmp_path):
    out = tmp_path / "ablation"
    code = main(
        [
            "ablate",
            "--preset",
            "desk",
            "--methods",
            "M1,M8",
            "--seeds",
            "0",
            "--pop",
            "10",
            "--gens",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    rows = (out / "ablation.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 2  # header + (M1, M8) x 1 seed
    curves = (out / "curves.csv").read_text().strip().splitlines()
    assert len(curves) == 1 + 2 * 2  # header + 2 methods x generations 0..1


def test_unknown_method_exits_two(tmp_path):
    assert (
        main(["ablate", "--preset", "desk", "--methods", "M9", "--out", str(tmp_path)])
        == 2
    )
