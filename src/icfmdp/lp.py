"""Thin linear-programming layer: each LP is one direct call to the HiGHS solver
(Huangfu & Hall, 2018) through scipy's private binding `scipy.optimize._highspy._core`
(scipy >= 1.15), with the input checks and status mapping of `scipy.optimize.milp`.
No other module of the package imports scipy, and only `lp_solve` and `_solver` use the
binding.

An `LpProblem` is HiGHS's own model: a cost, one constraint matrix `a` with the bounds
row_lower <= a @ x <= row_upper (an equality row has equal bounds), and variable bounds.
The matrix is a `CscMatrix`, HiGHS's column-wise arrays, built and joined with numpy
alone. The package's LP builders make `start` and `index` int32, HiGHS's index type, and
every bound a float array of its final shape, where they make them, so a solve hands
them on without a copy; `lp_solve` still accepts other integer arrays and scalar bounds.
Every `lp_solve` call checks the model and passes it as raw arrays to one reused solver,
where `passModel` replaces the last model, so no solve sees the one before; `lp_solve`
must not run in two threads at once.

Most of a tiny solve is fixed per-call cost, so `stack` lays independent LPs out as the
blocks of one: a block-diagonal constraint matrix, each block's own row and variable
bounds, and the cost of every max block negated. It joins the blocks in one pass, one
concatenation per array, and shifts every block's starts and row indices at once. This is
exact: the stacked feasible set is the product of the blocks' sets and its objective the
sum of their signed objectives, so a point is optimal for the stack exactly when each
block's part is optimal for its block. `block_values` reads each block's optimum back as
c_b @ x_b. One infeasible (unbounded) block makes the stack infeasible (unbounded). HiGHS
applies its tolerances, scaling and presolve to the whole stack, so a block's value need
not match a separate solve to the last bit; the tests pin the two within 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np
from scipy.optimize._highspy import _core as highs

from .errors import Infeasible, InvariantViolation, Unbounded

_SIGN = {"min": 1.0, "max": -1.0}


class CscMatrix(NamedTuple):
    """Column k holds value[start[k]:start[k + 1]] in rows index[start[k]:start[k + 1]]."""

    start: np.ndarray
    index: np.ndarray
    value: np.ndarray
    num_row: int


@dataclass
class LpProblem:
    """min or max of c @ x subject to row_lower <= a @ x <= row_upper, lower <= x <= upper."""

    c: np.ndarray
    a: CscMatrix
    row_lower: np.ndarray | float
    row_upper: np.ndarray | float
    lower: np.ndarray | float = 0.0
    upper: np.ndarray | float = np.inf
    sense: str = "min"  # "min" | "max"


def _sign(sense: str) -> float:
    if sense not in _SIGN:
        raise ValueError(f"unknown sense {sense!r}")
    return _SIGN[sense]


def _bound(v: np.ndarray | float, n: int) -> np.ndarray:
    """A row or variable bound as n floats: an array of n floats as it is, a scalar (or
    one entry) repeated; any other shape raises ValueError."""
    v = np.asarray(v, dtype=float)
    if v.ndim > 1:
        raise ValueError(f"bounds must be scalars or one-dimensional, not of shape {v.shape}")
    return v if v.shape == (n,) else np.full(n, v)


@cache
def _solver() -> highs._Highs:
    """The HiGHS solver that every `lp_solve` call reuses, made on first use."""
    solver = highs._Highs()
    solver.setOptionValue("log_to_console", False)
    return solver


def lp_solve(problem: LpProblem) -> tuple[float, np.ndarray]:
    """Solve an LpProblem; returns (optimum, solution).

    Raises ValueError for a malformed problem (as `scipy.optimize.milp` does, and for a
    non-finite matrix entry or column arrays that HiGHS would read past or out of its
    rows), Infeasible or Unbounded; any other outcome is an InvariantViolation.
    """
    sign = _sign(problem.sense)
    c = sign * np.atleast_1d(np.asarray(problem.c, dtype=float))
    if c.ndim != 1 or c.size == 0 or not np.isfinite(c).all():
        raise ValueError("c must be a non-empty one-dimensional array of finite numbers")
    a = problem.a
    if a.start.size - 1 != c.size:
        raise ValueError(f"constraint matrix of {a.start.size - 1} columns, not {c.size}")
    nnz = int(a.start[-1])
    index, value = a.index[:nnz], a.value[:nnz]
    if a.start[0] != 0 or (a.start[1:] < a.start[:-1]).any() or min(index.size, value.size) < nnz:
        raise ValueError("constraint matrix column starts must rise from 0 to at most the "
                         "number of stored entries")
    if nnz and (index.min() < 0 or index.max() >= a.num_row):
        raise ValueError(f"constraint matrix row index out of range for {a.num_row} rows")
    if not np.isfinite(value).all():
        raise ValueError("constraint matrix entries must be finite")
    row_lower = _bound(problem.row_lower, a.num_row)
    row_upper = _bound(problem.row_upper, a.num_row)
    col_lower, col_upper = _bound(problem.lower, c.size), _bound(problem.upper, c.size)
    solver = _solver()
    status = highs.HighsModelStatus.kModelError  # milp's status for a model HiGHS rejects
    # passModel's array form: column-wise (1), minimize (1), no offset, all continuous (0).
    if solver.passModel(c.size, a.num_row, nnz, 1, 1, 0.0, c, col_lower, col_upper,
                        row_lower, row_upper, a.start.astype(np.int32, copy=False),
                        index.astype(np.int32, copy=False), value,
                        np.zeros(c.size, dtype=np.int32)) != highs.HighsStatus.kError:
        solver.run()
        status = solver.getModelStatus()
    if status in (highs.HighsModelStatus.kInfeasible, highs.HighsModelStatus.kModelError):
        raise Infeasible("linear program is infeasible")
    if status == highs.HighsModelStatus.kUnbounded:
        raise Unbounded("linear program is unbounded")
    if status != highs.HighsModelStatus.kOptimal:
        raise InvariantViolation("LP solver failed with HiGHS model status "
                                 + solver.modelStatusToString(status))
    return sign * solver.getObjectiveValue(), np.array(solver.getSolution().col_value)


def stack(blocks: Sequence[LpProblem]) -> LpProblem:
    """One minimization whose independent blocks are `blocks`, in order, with a
    block-diagonal matrix; max blocks enter with a negated cost. Read each block's
    optimum with `block_values`."""
    mats = [b.a for b in blocks]
    costs = [np.asarray(b.c, dtype=float) for b in blocks]
    widths = [m.start.size - 1 for m in mats]
    counts = [int(m.start[-1]) for m in mats]
    heights = [m.num_row for m in mats]
    # Shift every block's starts past the entries, and its row indices past the rows,
    # of the blocks before it.
    start = np.concatenate([np.zeros(1, dtype=np.int32)] + [m.start[1:] for m in mats])
    start[1:] += np.array([0, *accumulate(counts[:-1])]).repeat(widths)
    index = np.concatenate([m.index[:k] for m, k in zip(mats, counts)])
    index += np.array([0, *accumulate(heights[:-1])]).repeat(counts)
    return LpProblem(
        c=np.concatenate([_sign(b.sense) * c for b, c in zip(blocks, costs)]),
        a=CscMatrix(start, index, np.concatenate([m.value[:k] for m, k in zip(mats, counts)]),
                    sum(heights)),
        row_lower=np.concatenate([_bound(b.row_lower, n) for b, n in zip(blocks, heights)]),
        row_upper=np.concatenate([_bound(b.row_upper, n) for b, n in zip(blocks, heights)]),
        lower=np.concatenate([_bound(b.lower, c.size) for b, c in zip(blocks, costs)]),
        upper=np.concatenate([_bound(b.upper, c.size) for b, c in zip(blocks, costs)]))


def block_values(blocks: Sequence[LpProblem], x: np.ndarray) -> np.ndarray:
    """Each block's own objective c_b @ x_b at a solution x of `stack(blocks)`."""
    values, end = [], 0
    for b in blocks:
        c = np.asarray(b.c, dtype=float)
        values.append(c @ x[end:end + c.size])
        end += c.size
    return np.array(values)
