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

from .config import Scenario, build_scenario, build_set, load_config
from .fixset import ExactSet, FixSetOracle
from .operators import Operator, projector

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


def load_scenario(name: str) -> Scenario:
    """Build a bundled scenario."""
    return build_scenario(scenario_config(name))


def resolve_config_source(spec: str) -> dict:
    """Interpret ``spec`` as a bundled scenario name or a config file path."""
    return scenario_config(spec) if spec in BUNDLED else load_config(spec)


def certificate_operators(continuous: dict[str, Scenario] | None = None,
                          ) -> list[tuple[Operator, FixSetOracle | None]]:
    """The corpus whose nonexpansiveness / averagedness / SQNE certificates
    `verify` samples: projectors onto the continuous scenarios' sets, then the
    scenarios' own operators with their oracles. ``continuous`` maps each name
    in CONTINUOUS to its scenario and is loaded here when omitted."""
    if continuous is None:
        continuous = {name: load_scenario(name) for name in CONTINUOUS}
    lines, tangent, dr, fb, boxes = (continuous[name] for name in (
        "two_lines_60deg", "tangent_ball_line", "dr_two_halfspaces",
        "box_qp_forward_backward", "cyclic_three_boxes"))
    # tangent_ball_line's oracle is a point, so its ball is read from the config
    ball = build_set(scenario_config("tangent_ball_line")["operator"]["children"][0]["set"],
                     "operator.children[0].set", tangent.dim)
    sets = [*lines.oracle.sets, ball, *dr.oracle.sets, *boxes.oracle.sets]
    # forward-backward stays unpaired: its point oracle would add an SQNE line
    return ([(projector(s), ExactSet(s)) for s in sets]
            + [(sc.operator, sc.oracle) for sc in (lines, tangent, dr)]
            + [(fb.operator, None), (boxes.operator, boxes.oracle)])
