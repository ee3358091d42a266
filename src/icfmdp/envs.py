"""Benchmark MDP builders: a 3-state toy chain, slippery GridWorld(p), and Frozen Lake.

Grid environments share the same skeleton: cells indexed row-major plus one absorbing
terminal state; goal/danger/hole cells pay their reward once and then fall into the
terminal; moving off-grid keeps the agent in place. Step rewards grow as the agent
nears the goal (max Manhattan distance minus the cell's distance).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .mdp import Mdp, json_int, json_number

Cell = tuple[int, int]  # (row, col)

UP, DOWN, LEFT, RIGHT = 0, 1, 2, 3
MOVES = {UP: (-1, 0), DOWN: (1, 0), LEFT: (0, -1), RIGHT: (0, 1)}
ACTION_NAMES = ("up", "down", "left", "right")
# The widest and tallest grid a GridSpec takes: S = 128 * 128 + 1 states, whose dense
# (S, A, S) transition is already 8.6 GB.
MAX_GRID_SIDE = 128


@dataclass(frozen=True)
class GridSpec:
    width: int
    height: int
    start: Cell
    goal: Cell
    danger_cells: frozenset[Cell] = frozenset()
    hole_cells: frozenset[Cell] = frozenset()
    p_intended: float = 0.9
    goal_reward: float = 100.0
    danger_reward: float = -100.0

    def __post_init__(self):
        for name in ("width", "height"):
            if not 1 <= getattr(self, name) <= MAX_GRID_SIDE:
                raise ConfigError(f"{name} must be between 1 and {MAX_GRID_SIDE}")
        object.__setattr__(self, "danger_cells", frozenset(map(tuple, self.danger_cells)))
        object.__setattr__(self, "hole_cells", frozenset(map(tuple, self.hole_cells)))
        cells = [self.start, self.goal, *self.danger_cells, *self.hole_cells]
        for r, c in cells:
            if not (0 <= r < self.height and 0 <= c < self.width):
                raise ConfigError(f"cell ({r}, {c}) outside the {self.height}x{self.width} grid")
        if not 0.0 <= self.p_intended <= 1.0:
            raise ConfigError("p_intended must be a probability")


def gridworld_spec(p: float) -> GridSpec:
    """The 4x4 layout used throughout: start top-left, goal bottom-right, danger at (1, 1)."""
    return GridSpec(width=4, height=4, start=(0, 0), goal=(3, 3),
                    danger_cells=frozenset({(1, 1)}), p_intended=p)


def grid_spec_from_json(d: dict) -> GridSpec:
    def cell(c, name: str) -> Cell:
        return tuple(json_int(i, name) for i in c)
    try:
        return GridSpec(
            width=json_int(d["width"], "width"), height=json_int(d["height"], "height"),
            start=cell(d["start"], "start"), goal=cell(d["goal"], "goal"),
            danger_cells=frozenset(cell(c, "danger_cells") for c in d.get("danger_cells", [])),
            hole_cells=frozenset(cell(c, "hole_cells") for c in d.get("hole_cells", [])),
            p_intended=json_number(d.get("p_intended", 0.9), "p_intended"),
            goal_reward=json_number(d.get("goal_reward", 100.0), "goal_reward"),
            danger_reward=json_number(d.get("danger_reward", -100.0), "danger_reward"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed grid spec: {exc}") from exc


def build_toy_mdp() -> Mdp:
    """Three states, one action; every counterfactual subtlety of the framework in 3x3."""
    transition = np.array([
        [[0.3, 0.4, 0.3]],
        [[0.4, 0.0, 0.6]],
        [[0.0, 0.0, 1.0]],
    ])
    reward = np.zeros((3, 1))
    initial = np.array([1.0, 0.0, 0.0])
    return Mdp(3, 1, transition, reward, initial, ("s0", "s1", "s2"))


def _build_grid(spec: GridSpec, slip_dist) -> Mdp:
    """Shared grid assembly; slip_dist(action) -> {action: probability} of actual moves."""
    w, h = spec.width, spec.height
    n_cells = w * h
    n = n_cells + 1
    terminal = n_cells
    absorbing = spec.danger_cells | spec.hole_cells | {spec.goal}

    def idx(cell: Cell) -> int:
        return cell[0] * w + cell[1]

    def move(cell: Cell, action: int) -> Cell:
        dr, dc = MOVES[action]
        r, c = cell[0] + dr, cell[1] + dc
        if 0 <= r < h and 0 <= c < w:
            return (r, c)
        return cell  # off-grid: stay in place

    transition = np.zeros((n, 4, n))
    transition[terminal, :, terminal] = 1.0
    for r in range(h):
        for c in range(w):
            s = idx((r, c))
            if (r, c) in absorbing:
                transition[s, :, terminal] = 1.0
                continue
            for a in range(4):
                for actual, p in slip_dist(a).items():
                    transition[s, a, idx(move((r, c), actual))] += p

    d_max = (w - 1) + (h - 1)
    reward = np.zeros((n, 4))
    for r in range(h):
        for c in range(w):
            s = idx((r, c))
            if (r, c) == spec.goal:
                reward[s, :] = spec.goal_reward
            elif (r, c) in absorbing:
                reward[s, :] = spec.danger_reward
            else:
                reward[s, :] = d_max - (abs(r - spec.goal[0]) + abs(c - spec.goal[1]))

    initial = np.zeros(n)
    initial[idx(spec.start)] = 1.0
    labels = tuple(f"r{r}c{c}" for r in range(h) for c in range(w)) + ("terminal",)
    return Mdp(n, 4, transition, reward, initial, labels)


def build_gridworld(spec: GridSpec) -> Mdp:
    """Slippery grid: intended direction with probability p, rest split over the other three."""
    p = spec.p_intended
    others = (1.0 - p) / 3.0

    def slip(a: int) -> dict[int, float]:
        return {b: (p if b == a else others) for b in range(4)}

    return _build_grid(spec, slip)


FROZEN_LAKE_HOLES = frozenset({(1, 1), (1, 3), (2, 3), (3, 0)})

_PERPENDICULAR = {UP: (LEFT, RIGHT), DOWN: (LEFT, RIGHT), LEFT: (UP, DOWN), RIGHT: (UP, DOWN)}


def build_frozen_lake() -> Mdp:
    """Classic 4x4 lake with four holes; slips to each perpendicular direction with 1/3."""
    spec = GridSpec(width=4, height=4, start=(0, 0), goal=(3, 3),
                    hole_cells=FROZEN_LAKE_HOLES, p_intended=1.0 / 3.0)

    def slip(a: int) -> dict[int, float]:
        left, right = _PERPENDICULAR[a]
        return {a: 1.0 / 3.0, left: 1.0 / 3.0, right: 1.0 / 3.0}

    return _build_grid(spec, slip)


def resolve_env(name: str, p: float | None = None, spec: GridSpec | None = None) -> Mdp:
    """CLI entry point: map an environment name (+ parameters) to an Mdp. Only GridWorld
    reads a setting, `p` or `spec` (4x4 at p = 0.9 if neither); any other is a ConfigError."""
    key = name.lower().replace("-", "_")
    if key == "gridworld":
        if p is not None and spec is not None:
            raise ConfigError("gridworld takes p or a grid spec, not both")
        return build_gridworld(spec or gridworld_spec(0.9 if p is None else p))
    builder = {"toy": build_toy_mdp, "frozen_lake": build_frozen_lake,
               "frozenlake": build_frozen_lake}.get(key)
    if builder is None:
        raise ConfigError(f"unknown environment {name!r} (expected toy, gridworld or frozen_lake)")
    if p is not None or spec is not None:
        raise ConfigError(f"{name} takes no p and no grid spec")
    return builder()
