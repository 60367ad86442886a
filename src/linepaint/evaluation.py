"""Penalized objective and constraint audit.

The objective is the maximum arm work time plus penalties for operating-range
violations (time painted out of range, unvisited segments), arm-pair
collisions, and bottom-to-top order violations beyond the allowed slack.
Work-time overrun against the prescribed time is minimized and reported, not
penalized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .genotype import ArmAssignment, UpperSolution, decode
from .lower_sim import SimMetrics, simulate
from .scene import ScenarioConfig, VehicleScene, _scene_under


@dataclass
class EvaluationReport:
    objective: float
    work_time_max: float
    penalty_range: float
    penalty_collision: float
    penalty_order: float
    order_violation_count: dict[int, int]
    strong_feasible: bool
    weak_notes: list[str] = field(default_factory=list)
    t_a: dict[int, float] = field(default_factory=dict)
    t_out: dict[int, float] = field(default_factory=dict)
    n_unvisits: dict[int, int] = field(default_factory=dict)
    t_col: float = 0.0


def range_penalty(metrics: SimMetrics, cfg: ScenarioConfig) -> float:
    t_out, n_unvisits = metrics.t_out, metrics.n_unvisits
    total = 0.0
    for arm_id in dict.fromkeys([*t_out, *n_unvisits]):
        out_s = t_out.get(arm_id, 0.0)
        total += cfg.rho_out * out_s + cfg.rho_unvisits * n_unvisits.get(arm_id, 0)
    return total


def collision_penalty(metrics: SimMetrics, cfg: ScenarioConfig) -> float:
    return cfg.rho_col * metrics.t_col


def order_penalty(order_counts: dict[int, int], cfg: ScenarioConfig) -> float:
    excess = sum(max(0, c - cfg.epsilon) for c in order_counts.values())
    return cfg.rho_unvisits * excess


def evaluate_assignment(
    assign: ArmAssignment, scene: VehicleScene, cfg: ScenarioConfig | None = None
) -> tuple[EvaluationReport, SimMetrics]:
    scene = _scene_under(scene, cfg)
    _, metrics = simulate(assign, scene)
    return report_from_metrics(metrics, assign, scene), metrics


def report_from_metrics(
    metrics: SimMetrics, assign: ArmAssignment, scene: VehicleScene
) -> EvaluationReport:
    cfg = scene.config
    p_range = range_penalty(metrics, cfg)
    p_col = collision_penalty(metrics, cfg)
    order_counts = metrics.order_violations
    p_order = order_penalty(order_counts, cfg)
    work = metrics.work_time_max
    objective = work + p_range + p_col + p_order

    # assignment lists are ordered front row first
    back_ok = not cfg.back_door_rule or scene.back_door_ids.isdisjoint(assign[-1])
    strong = (
        p_range == 0.0
        and metrics.t_col == 0.0
        and all(c <= cfg.epsilon for c in order_counts.values())
        and not metrics.horizon_exhausted
        and back_ok
        and work <= cfg.t_p
    )
    notes = []
    if not back_ok:
        notes.append("last arm assigned back-door segments")
    if work > cfg.t_p:
        notes.append(f"work time {work:.2f}s exceeds prescribed {cfg.t_p:.2f}s")
    arm_panels = [{scene.segment(s).panel_id for s in segs} for segs in assign]
    multi = sum(1 for p in scene.panels if sum(p.id in ps for ps in arm_panels) > 1)
    if multi:
        notes.append(f"{multi} panels painted by more than one arm")
    return EvaluationReport(
        objective=objective,
        work_time_max=work,
        penalty_range=p_range,
        penalty_collision=p_col,
        penalty_order=p_order,
        order_violation_count=order_counts,
        strong_feasible=strong,
        weak_notes=notes,
        t_a=dict(metrics.t_a),
        t_out=dict(metrics.t_out),
        n_unvisits=dict(metrics.n_unvisits),
        t_col=metrics.t_col,
    )


def evaluate(x: UpperSolution, scene: VehicleScene) -> EvaluationReport:
    report, _ = evaluate_assignment(decode(x, scene), scene)
    return report
