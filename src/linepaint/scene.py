"""Problem instance: vehicle geometry, arm layout, line kinematics, run parameters.

Coordinate conventions
----------------------
Vehicle frame: x runs rear (0) to front (``front_x``), y is up, z is the
lateral axis with the modelled side at z < 0.  The scene stores segments for
ONE side of the vehicle only (plus the left half of center panels such as the
hood); the other side is produced by the bilateral expansion of the
trajectory planner.

World frame: arms are fixed, the vehicle translates along +x at the line
velocity.  At tick t the world position of a vehicle-frame point p is
``p + (reference_position - front_x + velocity * mu * t) * x_hat``, so the
vehicle front crosses ``reference_position`` at t = 0.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np
import yaml

FORMAT_VERSION = 1

PANEL_KINDS = ("vertical_side", "hood", "roof", "back_door")
EXPANSION_RULES = ("mirror", "parallel", "parallel_with_delay")
SIDES = ("left", "right", "center")

# panels whose strokes are stacked bottom-to-top on a vertical surface
VERTICAL_KINDS = ("vertical_side", "back_door")


class ScenarioError(Exception):
    """Malformed or inconsistent scenario data."""


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


# per field annotation (a string, as annotations are postponed): whether a value fits it
_FITS = {
    "int": lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
    "float": _is_real,
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "tuple[float, float, float]": lambda v: (
        isinstance(v, tuple) and len(v) == 3 and all(map(_is_real, v))
    ),
}


@dataclass(frozen=True)
class PaintSegment:
    id: int
    panel_id: int
    endpoint_a: tuple[float, float, float]
    endpoint_b: tuple[float, float, float]
    height_index: int
    side: str = "left"


@dataclass(frozen=True)
class Panel:
    id: int
    kind: str
    expansion_rule: str
    name: str = ""
    # lateral offset applied when expanding a parallel panel to the other side
    parallel_offset: float = 0.0
    # extra start delay (seconds) of the expanded side, parallel_with_delay only;
    # 0.0 means "one back-and-forth stroke on this panel"
    delay: float = 0.0


@dataclass(frozen=True)
class ArmConfig:
    id: int
    center: tuple[float, float, float]
    radius: float
    row: int
    side: str
    mirror_partner: int


@dataclass(frozen=True)
class LineKinematics:
    """The line moves the vehicle along +x (see the module docstring)."""

    velocity: float
    reference_position: float = 0.0


@dataclass(frozen=True)
class ScenarioConfig:
    v_sp: float = 900.0
    v_mv: float = 900.0
    gamma_col: float = 300.0
    t_p: float = 66.0
    epsilon: int = 0
    delta: int = 5
    n_d: int = 30
    mu: float = 0.01
    t_max: int = 15000
    head_turn_wait: float = 0.5
    rho_out: float = 5.0e2
    rho_unvisits: float = 1.0e4
    rho_col: float = 1.0e3
    back_door_rule: bool = True


@dataclass(frozen=True)
class VehicleScene:
    name: str
    front_x: float
    panels: tuple[Panel, ...]
    segments: tuple[PaintSegment, ...]
    arms: tuple[ArmConfig, ...]
    line: LineKinematics
    config: ScenarioConfig = field(default=ScenarioConfig())

    def __post_init__(self):
        """Raise ScenarioError on any inconsistency, however the scene was built."""
        for record in (self, *self.panels, *self.segments, *self.arms, self.line, self.config):
            for f in fields(record):
                value = getattr(record, f.name)
                # panels, segments, arms, line and config have no entry: the loop visits them
                if f.type in _FITS and not _FITS[f.type](value):
                    raise ScenarioError(
                        f"{type(record).__name__}.{f.name} must be {f.type}, got {value!r}"
                    )
        # written as `not lo < x < inf` here and below so that NaN fails too
        for what, values in (
            ("front_x", (self.front_x,)),
            ("line reference_position", (self.line.reference_position,)),
            *((f"panel {p.id}: parallel_offset", (p.parallel_offset,)) for p in self.panels),
            *((f"panel {p.id}: delay", (p.delay,)) for p in self.panels),
            *((f"segment {s.id}: endpoints", s.endpoint_a + s.endpoint_b) for s in self.segments),
            *((f"arm {a.id}: center", a.center) for a in self.arms),
        ):
            if not all(-math.inf < v < math.inf for v in values):
                raise ScenarioError(f"{what} must be finite")
        if len(self._panel_by_id) != len(self.panels):
            raise ScenarioError("duplicate panel id")
        for p in self.panels:
            if p.kind not in PANEL_KINDS:
                raise ScenarioError(f"panel {p.id}: unknown kind {p.kind!r}")
            if p.expansion_rule not in EXPANSION_RULES:
                raise ScenarioError(f"panel {p.id}: unknown expansion rule {p.expansion_rule!r}")
            if p.kind == "vertical_side" and p.expansion_rule != "mirror":
                raise ScenarioError(f"panel {p.id}: vertical_side panels must use the mirror rule")
            if p.kind != "vertical_side" and p.expansion_rule == "mirror":
                raise ScenarioError(f"panel {p.id}: {p.kind} panels must use parallel expansion")
            if p.delay < 0 or p.delay and p.expansion_rule != "parallel_with_delay":
                raise ScenarioError(f"panel {p.id}: delay must be 0, or > 0 on parallel_with_delay")
            if p.parallel_offset and p.expansion_rule == "mirror":
                raise ScenarioError(f"panel {p.id}: parallel_offset must be 0 on a mirror panel")
        # segment() looks ids up by position
        if [s.id for s in self.segments] != list(range(1, self.n_segs + 1)):
            raise ScenarioError("segment ids must be 1..n_segs in order")
        for s in self.segments:
            if s.endpoint_a == s.endpoint_b:
                raise ScenarioError(f"segment {s.id}: zero length")
            if s.panel_id not in self._panel_by_id:
                raise ScenarioError(f"segment {s.id}: unknown panel {s.panel_id}")
            if s.side not in SIDES:
                raise ScenarioError(f"segment {s.id}: unknown side {s.side!r}")
        for pid, ids in self._panel_segment_ids.items():
            if [self.segment(i).height_index for i in ids] != list(range(1, len(ids) + 1)):
                raise ScenarioError(f"panel {pid}: height_index values must be contiguous 1..n")

        if len(self._arm_by_id) != len(self.arms):
            raise ScenarioError("duplicate arm id")
        for a in self.arms:
            if a.side not in ("left", "right"):  # an arm on no side would never be planned
                raise ScenarioError(f"arm {a.id}: side must be left or right, got {a.side!r}")
            if not 0 < a.radius < math.inf:
                raise ScenarioError(f"arm {a.id}: radius must be positive and finite")
            partner = self._arm_by_id.get(a.mirror_partner)
            if partner is None or partner.side == a.side or partner.row != a.row:
                raise ScenarioError(f"arm {a.id}: invalid mirror partner")
            if partner.mirror_partner != a.id:
                raise ScenarioError(f"arm {a.id}: mirror pairing is not an involution")
        left = self._left_arms
        if not left:  # the pairing above gives each left arm one right partner
            raise ScenarioError("a scene needs at least one left and one right arm")
        if not 0 < self.line.velocity < math.inf:
            raise ScenarioError("line velocity must be positive and finite")
        cfg = self.config
        for name in ("v_sp", "gamma_col", "t_p", "mu", "rho_out", "rho_unvisits", "rho_col"):
            if not 0 < getattr(cfg, name) < math.inf:
                raise ScenarioError(f"{name} must be positive and finite")
        if not self.line.velocity < cfg.v_mv * 0.999 < math.inf:
            raise ScenarioError("transit speed must be finite and exceed line velocity")
        if not 0 <= cfg.head_turn_wait < math.inf:
            raise ScenarioError("head_turn_wait must be finite and not negative")
        for name, least in (("t_max", 1), ("epsilon", 0), ("delta", 0), ("n_d", 0)):
            value = getattr(cfg, name)
            if value < least:
                raise ScenarioError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.n_dim % len(left):
            raise ScenarioError(f"n_segs + n_d = {self.n_dim} not divisible by {len(left)} arms")

    # ---- derived views -------------------------------------------------
    # Each cached_property is computed once per instance and stored in its
    # __dict__; dataclasses.replace builds a new instance, so a modified
    # scene never reads its parent's views.

    @property
    def n_segs(self) -> int:
        return len(self.segments)

    def segment(self, seg_id: int) -> PaintSegment:
        return self.segments[seg_id - 1]

    def panel(self, panel_id: int) -> Panel:
        return self._panel_by_id[panel_id]

    def panel_segment_ids(self, panel_id: int) -> tuple[int, ...]:
        """Segment ids of the panel, bottom to top."""
        return self._panel_segment_ids.get(panel_id, ())

    def left_arms(self) -> tuple[ArmConfig, ...]:
        """Left (planned-side) arms sorted by row."""
        return self._left_arms

    def arm(self, arm_id: int) -> ArmConfig:
        return self._arm_by_id[arm_id]

    @property
    def n_arms_side(self) -> int:
        return len(self._left_arms)

    # the genotype's layout (see genotype.py): n_dim genes, one slot of
    # slot_width per one-side arm; cached, as repair reads them per gene

    @cached_property
    def n_dim(self) -> int:
        return self.n_segs + self.config.n_d

    @cached_property
    def slot_width(self) -> int:
        return self.n_dim // self.n_arms_side

    @cached_property
    def _panel_by_id(self) -> dict[int, Panel]:
        return {p.id: p for p in self.panels}

    @cached_property
    def _arm_by_id(self) -> dict[int, ArmConfig]:
        return {a.id: a for a in self.arms}

    @cached_property
    def _left_arms(self) -> tuple[ArmConfig, ...]:
        return tuple(sorted((a for a in self.arms if a.side == "left"), key=lambda a: a.row))

    @cached_property
    def _panel_segment_ids(self) -> dict[int, tuple[int, ...]]:
        ids: dict[int, list[int]] = {}
        for s in sorted(self.segments, key=lambda s: s.height_index):
            ids.setdefault(s.panel_id, []).append(s.id)
        return {pid: tuple(v) for pid, v in ids.items()}

    @cached_property
    def back_door_ids(self) -> frozenset[int]:
        """Ids of the segments on back-door panels."""
        return frozenset(s.id for s in self.segments if self.panel(s.panel_id).kind == "back_door")

    @cached_property
    def windows(self) -> dict[tuple[int, int], tuple[float, float] | None]:
        """Per (one-side arm id, segment id) under ``self.config``: the tick
        interval during which both world-frame endpoints sit inside the arm's
        sphere, or None if never."""
        world = _World(self)
        k = world.k
        out: dict[tuple[int, int], tuple[float, float] | None] = {}
        for arm in self._left_arms:
            cx, cy, cz = arm.center
            r2 = arm.radius * arm.radius
            for s in self.segments:
                lo, hi = 0.0, float(self.config.t_max)
                for p in (s.endpoint_a, s.endpoint_b):
                    ax = p[0] + world.off0 - cx
                    dy = p[1] - cy
                    dz = p[2] - cz
                    a = k * k
                    b = 2.0 * ax * k
                    c = ax * ax + dy * dy + dz * dz - r2
                    disc = b * b - 4.0 * a * c
                    if disc <= 0.0:
                        lo, hi = 1.0, 0.0
                        break
                    sq = math.sqrt(disc)
                    lo = max(lo, (-b - sq) / (2.0 * a))
                    hi = min(hi, (-b + sq) / (2.0 * a))
                out[(arm.id, s.id)] = (lo, hi) if lo <= hi else None
        return out

    @cached_property
    def never_reachable(self) -> frozenset[tuple[int, int]]:
        """(arm id, segment id) pairs out of range over the whole horizon."""
        return frozenset(key for key, win in self.windows.items() if win is None)


class _World:
    """Vehicle-frame to world-frame drift helper."""

    def __init__(self, scene: VehicleScene):
        self.k = scene.line.velocity * scene.config.mu  # drift per tick, mm
        self.off0 = scene.line.reference_position - scene.front_x

    def offset(self, t):
        """The x shift at tick t (a number or an array of ticks)."""
        return self.off0 + self.k * t

    def at(self, p, t) -> tuple[float, float, float]:
        s = self.offset(t)
        z = 0.0 * s  # the signed zero that p + (1, 0, 0) * s adds to y and z
        return p[0] + s, p[1] + z, p[2] + z


# ---------------------------------------------------------------------------
# scenario file i/o


# file keys that are not their field's name
_FILE_KEYS = {"panel_id": "panel", "endpoint_a": "a", "endpoint_b": "b"}
# PyYAML's libyaml bindings when it was built with them: same documents, faster
_YamlLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_YamlDumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


def _mapping(doc, keys, where: str) -> dict:
    """doc, if it is a mapping with no key outside keys."""
    if not isinstance(doc, dict):
        raise ScenarioError(f"{where} must be a mapping, got {type(doc).__name__}")
    unknown = doc.keys() - set(keys)
    if unknown:
        raise ScenarioError(f"{where}: unknown keys {sorted(map(str, unknown))}")
    return doc


def _to_doc(record) -> dict:
    """A record's file mapping: each field under its file key, tuples as lists."""
    doc = {}
    for f in fields(record):
        value = getattr(record, f.name)
        doc[_FILE_KEYS.get(f.name, f.name)] = list(value) if isinstance(value, tuple) else value
    return doc


def _from_doc(cls, doc):
    """A cls record from its file mapping; an omitted key takes the field's default."""
    names = {_FILE_KEYS.get(f.name, f.name): f.name for f in fields(cls)}
    _mapping(doc, names, cls.__name__)
    return cls(**{names[k]: tuple(v) if isinstance(v, list) else v for k, v in doc.items()})


def scene_to_dict(scene: VehicleScene) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "scene": {
            "name": scene.name,
            "front_x": scene.front_x,
            "panels": [_to_doc(p) for p in scene.panels],
            "segments": [_to_doc(s) for s in scene.segments],
        },
        "arms": [_to_doc(a) for a in scene.arms],
        "line": _to_doc(scene.line),
        "config": _to_doc(scene.config),
    }


def scene_from_dict(doc: dict) -> VehicleScene:
    try:
        _mapping(doc, ("format_version", "scene", "arms", "line", "config"), "scenario")
        version = doc["format_version"]
        if version != FORMAT_VERSION:
            raise ScenarioError(f"unsupported format_version {version}")
        sc = _mapping(doc["scene"], ("name", "front_x", "panels", "segments"), "scene")
        line = doc["line"]
        if isinstance(line, dict) and "direction" in line:
            # the planner models a line along +x only; files may still spell it out
            line = dict(line)
            direction = line.pop("direction")
            if direction != [1, 0, 0]:
                raise ScenarioError(f"line direction must be [1, 0, 0] (+x), got {direction}")
        segments = (_from_doc(PaintSegment, s) for s in sc["segments"])
        return VehicleScene(
            name=sc["name"],
            front_x=sc["front_x"],
            panels=tuple(_from_doc(Panel, p) for p in sc["panels"]),
            segments=tuple(sorted(segments, key=lambda s: s.id)),
            arms=tuple(_from_doc(ArmConfig, a) for a in doc["arms"]),
            line=_from_doc(LineKinematics, line),
            config=_from_doc(ScenarioConfig, doc.get("config", {})),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"malformed scenario document: {exc}") from exc


def load_scene(path) -> VehicleScene:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=_YamlLoader)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"cannot parse {path}: {exc}") from exc
    return scene_from_dict(doc)


def save_scene(scene: VehicleScene, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.dump(scene_to_dict(scene), fh, Dumper=_YamlDumper, sort_keys=False)


# ---------------------------------------------------------------------------
# synthetic scene generation

# the fixed synthetic body and arm layout, mm
BODY_LENGTH = 4500.0
BODY_WIDTH = 1800.0
ARM_RADIUS = 2800.0
ARM_STANDOFF = 1000.0  # arm center to body side, laterally
ARM_FRONT_X = 1200.0  # x of the first row's arms
ARM_SPACING = 1000.0  # x from one row of arms to the next


@dataclass(frozen=True)
class SyntheticSpec:
    seed: int = 0
    n_arms_side: int = 3
    side_panel_segments: tuple[int, ...] = (12, 12, 12, 12, 12)
    hood_segments: int = 0
    roof_segments: int = 0
    back_door_segments: int = 0
    height_min: float = 400.0
    height_max: float = 1600.0
    jitter: float = 4.0
    hood_delay: bool = False
    line_velocity: float = 98.0
    name: str = "synthetic"


def generate_synthetic_scene(
    spec: SyntheticSpec, config: ScenarioConfig | None = None
) -> VehicleScene:
    """Box-like vehicle: stacked horizontal strokes per side panel, optional
    hood / roof / back door halves painted by one side and expanded in
    parallel.  Deterministic for a given spec (seed included)."""
    if not spec.side_panel_segments or spec.n_arms_side < 1:
        raise ScenarioError("need at least one side panel and one arm per side")
    rng = np.random.default_rng(spec.seed)
    half_w = BODY_WIDTH / 2.0
    panels: list[Panel] = []
    segments: list[PaintSegment] = []

    def stack(kind, rule, name, count, first, last, stroke):
        """Append a panel of count strokes, level h at linspace(first, last)[h - 1]
        with one jitter draw each; stroke(level, jitter) gives its endpoints.
        Mirrored panels are the modelled side; the others are center halves
        expanded by half the body width."""
        mirror = rule == "mirror"
        panel = Panel(len(panels) + 1, kind, rule, name, 0.0 if mirror else half_w)
        panels.append(panel)
        for h, level in enumerate(np.linspace(first, last, count), start=1):
            a, b = stroke(level, rng.uniform(-spec.jitter, spec.jitter))
            segments.append(
                PaintSegment(
                    len(segments) + 1, panel.id, tuple(map(float, a)), tuple(map(float, b)), h,
                    "left" if mirror else "center",
                )
            )

    # the rng draws follow this order: hood, sides front to back, roof, back door
    if spec.hood_segments:
        rule = "parallel_with_delay" if spec.hood_delay else "parallel"
        y = spec.height_max - 250.0
        x0, x1 = BODY_LENGTH - 1200.0, BODY_LENGTH - 200.0
        stack("hood", rule, "hood", spec.hood_segments, -half_w + 100.0, -120.0,
              lambda z, j: ((x0, y + j, z), (x1, y + j, z)))
    edges = np.linspace(0.0, BODY_LENGTH, len(spec.side_panel_segments) + 1)
    for i, count in enumerate(spec.side_panel_segments):
        x0, x1 = BODY_LENGTH - edges[i + 1] + 20.0, BODY_LENGTH - edges[i] - 20.0
        stack("vertical_side", "mirror", f"side_{i + 1}", count, spec.height_min, spec.height_max,
              lambda y, j: ((x0, y + j, -half_w), (x1, y + j, -half_w)))
    if spec.roof_segments:
        y = spec.height_max + 150.0
        x0, x1 = BODY_LENGTH * 0.35, BODY_LENGTH * 0.65
        stack("roof", "parallel", "roof", spec.roof_segments, -half_w + 100.0, -120.0,
              lambda z, j: ((x0, y + j, z), (x1, y + j, z)))
    if spec.back_door_segments:
        stack("back_door", "parallel", "back_door", spec.back_door_segments,
              spec.height_min + 100.0, spec.height_max - 100.0,
              lambda y, j: ((30.0, y + j, -half_w + 80.0), (30.0, y + j, -100.0)))

    arms: list[ArmConfig] = []
    y_c = (spec.height_min + spec.height_max) / 2.0
    z_c = half_w + ARM_STANDOFF
    n = spec.n_arms_side
    for r in range(1, n + 1):
        x_c = ARM_FRONT_X + (r - 1) * ARM_SPACING
        arms.append(ArmConfig(r, (x_c, y_c, -z_c), ARM_RADIUS, r, "left", r + n))
        arms.append(ArmConfig(r + n, (x_c, y_c, z_c), ARM_RADIUS, r, "right", r))

    return VehicleScene(
        name=spec.name,
        front_x=BODY_LENGTH,
        panels=tuple(panels),
        segments=tuple(segments),
        arms=tuple(arms),
        line=LineKinematics(spec.line_velocity),
        config=config or ScenarioConfig(),
    )


def with_config(scene: VehicleScene, **kwargs) -> VehicleScene:
    return replace(scene, config=replace(scene.config, **kwargs))


def _scene_under(scene: VehicleScene, cfg: ScenarioConfig | None) -> VehicleScene:
    """The scene itself, or for another config a copy whose views are
    computed afresh."""
    return scene if cfg is None or cfg == scene.config else replace(scene, config=cfg)
