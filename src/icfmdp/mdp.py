"""Tabular MDPs, observed paths, deterministic time-indexed policies and exact evaluation.

All types are immutable after construction (arrays are marked read-only), so they can
be shared freely across threads. Every stochastic operation takes an explicit seed.

One backward-induction routine, `_backward`, serves all six finite-horizon DP entry
points: `optimal_policy` and `exact_policy_value` here, and the robust and point value
iteration and policy evaluation in `robust`. Each passes only its backup; `_backward`
owns the loop over t, the action choice (`_greedy`) and the policy check (`_check_policy`).
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import cached_property, reduce
from pathlib import Path

import numpy as np

from .errors import ConfigError

ROW_SUM_TOL = 1e-9
ACTION_TIE_RTOL = 1e-12


def rng_from(seed: int, *stream: int) -> np.random.Generator:
    """Seeded PCG64 generator; extra ints derive independent sub-streams."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, stream)]))


def _frozen(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def support_columns(mask: np.ndarray) -> np.ndarray:
    """Padded column indices of every row of a (..., S) boolean mask, shape (..., K) with
    K = max(1, most True entries in a row).

    Each row lists its True columns and, if it has fewer than K, its lowest False columns
    as padding, all distinct and ascending.
    """
    nnz = mask.sum(axis=-1, keepdims=True)
    width = max(int(nnz.max(initial=0)), 1)
    # The first `width` columns hold at least `width - nnz` False ones for the padding.
    free = ~mask[..., :width]
    padded = mask.copy()
    padded[..., :width] |= free & (np.cumsum(free, axis=-1) <= width - nnz)
    return np.nonzero(padded)[-1].reshape(mask.shape[:-1] + (width,))


@dataclass(frozen=True)
class Mdp:
    """Finite MDP: states 0..S-1, actions 0..A-1, rewards on (state, action)."""

    num_states: int
    num_actions: int
    transition: np.ndarray  # (S, A, S)
    reward: np.ndarray  # (S, A)
    initial_dist: np.ndarray  # (S,)
    state_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "transition", _frozen(self.transition))
        object.__setattr__(self, "reward", _frozen(self.reward))
        object.__setattr__(self, "initial_dist", _frozen(self.initial_dist))
        s, a = self.num_states, self.num_actions
        if self.transition.shape != (s, a, s):
            raise ValueError(f"transition shape {self.transition.shape} != {(s, a, s)}")
        if self.reward.shape != (s, a):
            raise ValueError(f"reward shape {self.reward.shape} != {(s, a)}")
        if self.initial_dist.shape != (s,):
            raise ValueError(f"initial_dist shape {self.initial_dist.shape} != {(s,)}")
        if self.state_labels is not None and len(self.state_labels) != s:
            raise ValueError("state_labels length mismatch")

    @cached_property
    def support_cols(self) -> np.ndarray:
        """(S, A, K) successor columns of every transition row: its support, padded to the
        widest row with unreachable successors (see `support_columns`)."""
        return _frozen(support_columns(self.transition > 0), dtype=np.int64)


@dataclass(frozen=True)
class ObservedPath:
    """Realized path: T+1 states and T actions, so every step has its observed outcome."""

    states: tuple[int, ...]
    actions: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", tuple(int(s) for s in self.states))
        object.__setattr__(self, "actions", tuple(int(a) for a in self.actions))
        if len(self.states) != len(self.actions) + 1:
            raise ValueError("need len(states) == len(actions) + 1")

    @property
    def horizon(self) -> int:
        return len(self.actions)

    def step(self, t: int) -> tuple[int, int, int]:
        """Observed transition (s_t, a_t, s_{t+1})."""
        return self.states[t], self.actions[t], self.states[t + 1]


@dataclass(frozen=True)
class PointCfMdp:
    """Concrete time-indexed counterfactual MDP: one drawn from an ICFMDP's intervals, or
    the Gumbel-max baseline's estimate."""

    horizon: int
    transition: np.ndarray  # (T, S, A, S)
    seed: int

    def __post_init__(self):
        self.transition.setflags(write=False)


@dataclass(frozen=True)
class PolicySchedule:
    """Deterministic time-indexed policy: action_at[t, s] is the action at time t in state s."""

    horizon: int
    action_at: np.ndarray  # (horizon, S)

    def __post_init__(self):
        object.__setattr__(self, "action_at", _frozen(self.action_at, dtype=np.int64))
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.action_at.shape[0] != self.horizon:
            raise ValueError("action_at first axis must equal horizon")


@dataclass(frozen=True)
class ValueTable:
    """values[t, s] for t = 0..horizon; values[horizon] is the terminal value (zero)."""

    values: np.ndarray  # (horizon + 1, S)

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values))

    @property
    def horizon(self) -> int:
        return self.values.shape[0] - 1

    def initial_value(self, m: Mdp) -> float:
        """Expected value at t=0 under the MDP's initial distribution."""
        return float(self.values[0] @ m.initial_dist)


def validate_mdp(m: Mdp) -> list[str]:
    """Return human-readable descriptions of every violated MDP invariant (empty if none)."""
    problems = []
    for name in ("transition", "reward", "initial_dist"):
        bad = np.argwhere(~np.isfinite(getattr(m, name)))
        if bad.size:
            problems.append(f"{name}{bad[0].tolist()} is non-finite")
    if problems:
        return problems  # ranges and sums of non-finite entries tell nothing more
    if np.any(m.transition < 0) or np.any(m.transition > 1):
        bad = np.argwhere((m.transition < 0) | (m.transition > 1))[0]
        problems.append(f"transition{bad.tolist()} outside [0, 1]")
    row_sums = m.transition.sum(axis=2)
    for s, a in np.argwhere(np.abs(row_sums - 1.0) > ROW_SUM_TOL):
        problems.append(f"transition row (s={s}, a={a}) sums to {row_sums[s, a]:.12g}, not 1")
    if np.any(m.initial_dist < 0) or np.any(m.initial_dist > 1):
        problems.append("initial_dist entry outside [0, 1]")
    if abs(m.initial_dist.sum() - 1.0) > ROW_SUM_TOL:
        problems.append(f"initial_dist sums to {m.initial_dist.sum():.12g}, not 1")
    return problems


def check_path(m: Mdp, path: ObservedPath) -> None:
    """Raise ConfigError unless every observed transition of `path` is in range and has
    positive probability under m (exact > 0)."""
    problems = []
    for t in range(path.horizon):
        s, a, s2 = path.step(t)
        if not (0 <= s < m.num_states and 0 <= a < m.num_actions and 0 <= s2 < m.num_states):
            problems.append(f"step {t}: indices ({s}, {a}, {s2}) out of range")
        elif not m.transition[s, a, s2] > 0:
            problems.append(f"step {t}: observed transition ({s}, {a} -> {s2}) has probability 0")
    if problems:
        raise ConfigError("path invalid for this MDP: " + "; ".join(problems))


def check_query(m: Mdp, obs: tuple[int, int, int], query: tuple[int, ...]) -> None:
    """Raise ConfigError unless step `obs` passes `check_path` and `query` is in range."""
    check_path(m, ObservedPath(obs[::2], obs[1:2]))
    if not all(0 <= i < n for i, n in zip(query, (m.num_states, m.num_actions, m.num_states))):
        raise ConfigError(f"path invalid for this MDP: query {tuple(query)} out of range")


def sample_path(m: Mdp, policy: PolicySchedule, horizon: int, seed: int) -> ObservedPath:
    """Sample one path of `horizon` transitions; deterministic for a fixed seed."""
    _check_policy(policy, horizon, m.num_states, m.num_actions)
    rng = rng_from(seed)
    s = int(rng.choice(m.num_states, p=m.initial_dist))
    states, actions = [s], []
    for t in range(horizon):
        a = int(policy.action_at[t, s])
        row = m.transition[s, a]
        if row.sum() <= 0:
            raise ValueError(f"all-zero transition row at (s={s}, a={a})")
        s = int(rng.choice(m.num_states, p=row))
        actions.append(a)
        states.append(s)
    return ObservedPath(tuple(states), tuple(actions))


def _greedy(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Action choice and value of every state of (S, A) Q-values.

    The action is the lowest one whose Q lies within ACTION_TIE_RTOL * max(1, |q_max|)
    of the maximum, so that Q-values equal in exact arithmetic pick the same action
    whatever order the backup summed in. The value is the maximum itself, taken one
    action column at a time over all states.
    """
    q_max = reduce(np.maximum, q.T)
    near = q >= (q_max - ACTION_TIE_RTOL * np.maximum(1.0, np.abs(q_max)))[:, None]
    return np.argmax(near, axis=1), q_max


def _check_policy(policy: PolicySchedule, horizon: int, num_states: int,
                  num_actions: int) -> None:
    """ValueError unless `policy` has `horizon` steps of valid actions for every state."""
    acts = policy.action_at
    if policy.horizon < horizon:
        raise ValueError(f"policy horizon {policy.horizon} is shorter than the horizon "
                         f"{horizon}")
    if acts.shape[1:] != (num_states,):
        raise ValueError(f"policy of shape {acts.shape} has no column per state of {num_states}")
    if not 0 <= acts.min() <= acts.max() < num_actions:
        raise ValueError(f"policy actions {acts.min()}..{acts.max()} leave 0..{num_actions - 1}")


def _backward(horizon: int, reward: np.ndarray, expect: Callable,
              policy: PolicySchedule | None = None) -> tuple[PolicySchedule, ValueTable]:
    """Finite-horizon backward induction, the one loop behind every DP entry point.

    `expect(t, v_next, rows)` returns the expected next-step value of the (S, A) rows
    selected by `rows` at step t: all rows `(slice(None), slice(None))` when the action is
    chosen by `_greedy`, else `(states, actions)` with each state's action under the fixed
    `policy`. Returns the policy followed (the greedy one, or `policy` itself) and its
    values; `values[horizon]` is zero.
    """
    if policy is not None:
        _check_policy(policy, horizon, *reward.shape)
    n = reward.shape[0]
    s_idx = np.arange(n)
    v = np.zeros((horizon + 1, n))
    acts = np.zeros((horizon, n), dtype=np.int64)
    for t in range(horizon - 1, -1, -1):
        if policy is None:
            acts[t], v[t] = _greedy(reward + expect(t, v[t + 1], np.s_[:, :]))
        else:
            rows = s_idx, policy.action_at[t]
            v[t] = reward[rows] + expect(t, v[t + 1], rows)
    return policy if policy is not None else PolicySchedule(horizon, acts), ValueTable(v)


def exact_policy_value(m: Mdp, policy: PolicySchedule, horizon: int) -> ValueTable:
    """Backward-induction expected undiscounted return of a fixed policy."""
    return _backward(horizon, m.reward, lambda t, v, rows: m.transition[rows] @ v, policy)[1]


def optimal_policy(m: Mdp, horizon: int) -> tuple[PolicySchedule, ValueTable]:
    """Finite-horizon optimal deterministic policy by value iteration (near-ties -> lowest
    action)."""
    return _backward(horizon, m.reward, lambda t, v, rows: m.transition[rows] @ v)


def random_policy_schedule(num_states: int, num_actions: int, horizon: int,
                           rng: np.random.Generator) -> PolicySchedule:
    """Uniformly random deterministic time-indexed policy."""
    return PolicySchedule(horizon, rng.integers(0, num_actions, size=(horizon, num_states)))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def mdp_to_json(m: Mdp) -> dict:
    out = {
        "num_states": m.num_states,
        "num_actions": m.num_actions,
        "transition": m.transition.tolist(),
        "reward": m.reward.tolist(),
        "initial_dist": m.initial_dist.tolist(),
    }
    if m.state_labels is not None:
        out["state_labels"] = list(m.state_labels)
    return out


def json_int(value, name: str) -> int:
    """`value` if it is a JSON integer (a bool is not one), else a ConfigError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def json_number(value, name: str) -> float:
    """`value` as a float if it is a JSON number, an integer or not (a bool is not one),
    else a ConfigError naming `name`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _json_numbers(value, name: str):
    """`value`, nested JSON lists, if every entry that is not a list is a JSON number; else a
    ConfigError naming the first other entry by its indices."""
    if not isinstance(value, list):
        return json_number(value, name)
    if not set(map(type, value)) <= {int, float}:  # a list of numbers needs no loop
        for i, v in enumerate(value):
            if type(v) not in (int, float):
                _json_numbers(v, f"{name}[{i}]")
    return value


def mdp_from_json(d: dict) -> Mdp:
    """Build an Mdp from its JSON dict; it must pass `validate_mdp`. Rows (and the initial
    distribution) whose sum is off 1 by more than its rounding error, S·eps, but within
    ROW_SUM_TOL are re-normalized; all others are kept bit for bit."""
    try:
        labels = d.get("state_labels")
        if "state_labels" in d and not (isinstance(labels, list)
                                        and all(isinstance(x, str) for x in labels)):
            raise ConfigError(f"state_labels must be a list of strings, got {labels!r}")
        m = Mdp(json_int(d["num_states"], "num_states"), json_int(d["num_actions"], "num_actions"),
                *(_json_numbers(d[key], key) for key in ("transition", "reward", "initial_dist")),
                None if labels is None else tuple(labels))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed MDP JSON: {exc}") from exc
    problems = validate_mdp(m)
    if problems:
        raise ConfigError("MDP JSON: " + "; ".join(problems))
    rounding = m.num_states * np.finfo(float).eps

    def normalized(p):
        total = p.sum(axis=-1, keepdims=True)
        return np.where(np.abs(total - 1.0) > rounding, p / total, p)
    return replace(m, transition=normalized(m.transition),
                   initial_dist=normalized(m.initial_dist))


def path_from_json(d: dict) -> ObservedPath:
    try:
        return ObservedPath(*(tuple(json_int(v, f"{key}[{i}]") for i, v in enumerate(d[key]))
                              for key in ("states", "actions")))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed path JSON: {exc}") from exc


def read_json(file: str | Path):
    """The parsed JSON of a file; an unreadable file or malformed JSON is a ConfigError."""
    try:
        return json.loads(Path(file).read_text())
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ConfigError(f"cannot read JSON from {file}: {exc}") from exc


def load_mdp(file: str | Path) -> Mdp:
    return mdp_from_json(read_json(file))


def load_path(file: str | Path) -> ObservedPath:
    return path_from_json(read_json(file))
