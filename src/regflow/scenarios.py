"""Bundled demo scenarios and the operator corpus they exercise.

Five instances, each in a continuous and a discrete (``*_km``) variant:

- two_lines_60deg: cyclic projections onto two lines at 60 degrees; polyhedral,
  linearly regular, exponential/R-linear decay.
- tangent_ball_line: projections onto a ball tangent to a line; the canonical
  Hoelder-but-not-linear instance with power-law decay.
- box_qp_forward_backward: forward-backward splitting for a box-constrained QP.
- dr_two_halfspaces: Douglas-Rachford for two half-spaces.
- cyclic_three_boxes: cyclic projections over three boxes.
"""

import json
from importlib import resources

from .config import Scenario, build_scenario
from .fixset import FixSetOracle, Intersection
from .operators import (
    Indicator,
    Operator,
    compose,
    douglas_rachford,
    forward_backward,
    projector,
)
from .sets import Ball, Box, HalfSpace, Hyperplane

BUNDLED = (
    "two_lines_60deg",
    "two_lines_60deg_km",
    "tangent_ball_line",
    "tangent_ball_line_km",
    "box_qp_forward_backward",
    "box_qp_forward_backward_km",
    "dr_two_halfspaces",
    "dr_two_halfspaces_km",
    "cyclic_three_boxes",
    "cyclic_three_boxes_km",
)

CONTINUOUS = tuple(n for n in BUNDLED if not n.endswith("_km"))
DISCRETE = tuple(n for n in BUNDLED if n.endswith("_km"))


def scenario_config(name: str) -> dict:
    """The parsed JSON config of a bundled scenario."""
    if name not in BUNDLED:
        raise KeyError(f"no bundled scenario named {name!r}")
    ref = resources.files("regflow") / "scenarios" / f"{name}.json"
    return json.loads(ref.read_text())


def load_scenario(name: str, **kwargs) -> Scenario:
    """Build a bundled scenario (kwargs forwarded to build_scenario)."""
    return build_scenario(scenario_config(name), **kwargs)


def resolve_config_source(spec: str) -> dict:
    """Interpret ``spec`` as a bundled scenario name or a config file path."""
    if spec in BUNDLED:
        return scenario_config(spec)
    from .config import load_config

    return load_config(spec)


def certificate_operators() -> list[tuple[Operator, FixSetOracle | None]]:
    """The operator corpus whose nonexpansiveness / averagedness / SQNE
    certificates `verify` samples: the bundled primitives plus their composites."""
    line1 = Hyperplane([0.0, 1.0], 0.0)
    line2 = Hyperplane([-0.8660254037844386, 0.5], 0.0)
    ball = Ball([0.0, 1.0], 1.0)
    h1 = HalfSpace([1.0, 0.0], 0.0)
    h2 = HalfSpace([0.0, 1.0], 0.0)
    b1 = Box([0.0, 0.0], [2.0, 2.0])
    b2 = Box([1.0, 0.5], [3.0, 3.0])
    b3 = Box([0.5, 1.0], [2.5, 2.5])

    fb = forward_backward(
        Indicator(Box([0.0, 0.0], [1.0, 1.0])),
        [[2.0, 0.5], [0.5, 1.0]], [3.0, -0.5], 2.21, 0.4,
    )

    ops: list[tuple[Operator, FixSetOracle | None]] = []
    for set_ in (line1, line2, ball, h1, h2, b1, b2, b3):
        p = projector(set_)
        ops.append((p, p.fix_oracle))
    ops.append((compose([projector(line1), projector(line2)]),
                Intersection([line1, line2])))
    ops.append((compose([projector(ball), projector(line1)]), None))
    ops.append((douglas_rachford(h1, h2), Intersection([h1, h2])))
    ops.append((fb, None))
    ops.append((compose([projector(b1), projector(b2), projector(b3)]),
                Intersection([b1, b2, b3])))
    return ops
