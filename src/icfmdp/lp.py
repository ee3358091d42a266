"""Thin linear-programming layer: each LP is one direct call to the HiGHS solver
(Huangfu & Hall, 2018) through scipy's private binding `scipy.optimize._highspy._core`
(scipy >= 1.15), with the input checks and status mapping of `scipy.optimize.milp`.

A constraint matrix is a `CscMatrix`, HiGHS's own column-wise arrays, built and joined
with numpy alone (nothing here imports scipy's sparse module); dense arrays and scipy's
sparse matrices are converted to the arrays of scipy's CSC form. Every `lp_solve` call
passes its model as raw arrays to one reused solver, where `passModel` replaces the last
model, so no solve sees the one before; `lp_solve` must not run in two threads at once.

Most of a tiny solve is fixed per-call cost, so `stack` lays independent LPs out as the
blocks of one: a block-diagonal constraint matrix, each block's own variable bounds,
and the cost of every max block negated. This is exact: the stacked feasible set is the
product of the blocks' sets and its objective the sum of their signed objectives, so a
point is optimal for the stack exactly when each block's part is optimal for its block.
`block_values` reads each block's optimum back as c_b @ x_b. One infeasible (unbounded)
block makes the stack infeasible (unbounded). HiGHS applies its tolerances, scaling and
presolve to the whole stack, so a block's value need not match a separate solve to the
last bit; the tests pin the two within 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from typing import Any, NamedTuple, Sequence

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
    """min or max of c @ x subject to A_eq x = b_eq, A_ub x <= b_ub, lower <= x <= upper.
    A matrix is a CscMatrix, a dense array or one of scipy's sparse matrices."""

    c: np.ndarray
    a_eq: Any = None
    b_eq: np.ndarray | None = None
    a_ub: Any = None
    b_ub: np.ndarray | None = None
    lower: np.ndarray | float = 0.0
    upper: np.ndarray | float = np.inf
    sense: str = "min"  # "min" | "max"


def _sign(sense: str) -> float:
    if sense not in _SIGN:
        raise ValueError(f"unknown sense {sense!r}")
    return _SIGN[sense]


def _csc(a) -> CscMatrix:
    """`a` as a CscMatrix: scipy's sparse matrices through `.tocsc()`, dense ones by
    their nonzero entries, in ascending row order within each column as in scipy."""
    if isinstance(a, CscMatrix):
        return a
    if hasattr(a, "tocsc"):
        a = a.tocsc()
        return CscMatrix(a.indptr, a.indices, a.data, a.shape[0])
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.ndim != 2:
        raise ValueError(f"constraint matrix of shape {a.shape}")
    col, row = np.nonzero(a.T)
    return CscMatrix(np.searchsorted(col, np.arange(a.shape[1] + 1)), row, a[row, col],
                     a.shape[0])


def _rows(a, b, num_col: int, equality: bool) -> tuple[CscMatrix, np.ndarray, np.ndarray]:
    """A constraint block as a CscMatrix with its row bounds (lower, upper); ValueError
    unless it has `num_col` columns, finite entries, and `b` broadcasts to its rows."""
    a = _csc(a)
    if a.start.size - 1 != num_col:
        raise ValueError(f"constraint matrix of {a.start.size - 1} columns, not {num_col}")
    if not np.all(np.isfinite(a.value[:a.start[-1]])):
        raise ValueError("constraint matrix entries must be finite")
    b = np.broadcast_to(np.asarray(b, dtype=float), (a.num_row,))
    return a, b if equality else np.full(b.size, -np.inf), b


def _csc_parts(top: CscMatrix, bottom: CscMatrix | None = None) -> tuple[np.ndarray, ...]:
    """CSC (start, index, value) of `top`, or of [top; bottom] with each column's top
    entries first."""
    nnz = top.start[-1]
    if bottom is None:
        return top.start, top.index[:nnz], top.value[:nnz]
    column = np.concatenate([np.repeat(np.arange(m.start.size - 1), np.diff(m.start))
                             for m in (top, bottom)])
    order = np.argsort(column, kind="stable")
    index = np.concatenate([top.index[:nnz], bottom.index[:bottom.start[-1]] + top.num_row])
    value = np.concatenate([top.value[:nnz], bottom.value[:bottom.start[-1]]])
    return top.start + bottom.start, index[order], value[order]


@cache
def _solver() -> highs._Highs:
    """The HiGHS solver that every `lp_solve` call reuses, made on first use."""
    solver = highs._Highs()
    solver.setOptionValue("log_to_console", False)
    return solver


def lp_solve(problem: LpProblem) -> tuple[float, np.ndarray]:
    """Solve an LpProblem; returns (optimum, solution).

    Raises ValueError for a malformed problem (as `scipy.optimize.milp` does, and for a
    non-finite matrix entry), Infeasible or Unbounded; any other outcome is an
    InvariantViolation.
    """
    sign = _sign(problem.sense)
    c = sign * np.atleast_1d(np.asarray(problem.c, dtype=float))
    if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
        raise ValueError("c must be a non-empty one-dimensional array of finite numbers")
    # Equality rows first, then the <= rows, as one LP with a column-wise matrix.
    blocks = [_rows(a, b, c.size, equality) for a, b, equality in (
        (problem.a_eq, problem.b_eq, True), (problem.a_ub, problem.b_ub, False)) if a is not None]
    matrices, row_lower, row_upper = zip(*blocks or [(_csc(np.zeros((0, c.size))), [], [])])
    start, index, value = _csc_parts(*matrices)
    col_lower, col_upper = (np.broadcast_to(v, c.shape).astype(float)
                            for v in (problem.lower, problem.upper))
    solver = _solver()
    status = highs.HighsModelStatus.kModelError  # milp's status for a model HiGHS rejects
    # passModel's array form: column-wise (1), minimize (1), no offset, all continuous (0).
    if solver.passModel(c.size, sum(m.num_row for m in matrices), value.size, 1, 1, 0.0, c,
                        col_lower, col_upper, np.concatenate(row_lower),
                        np.concatenate(row_upper), start.astype(np.int32),
                        index.astype(np.int32), value, np.zeros(c.size, dtype=np.int32)
                        ) != highs.HighsStatus.kError:
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


def _block_diag(mats: list, widths: list[int]) -> CscMatrix | None:
    """Block-diagonal CscMatrix of `mats` (None: a block with no rows); None if none has rows."""
    if all(mat is None for mat in mats):
        return None
    mats = [_csc(np.zeros((0, w)) if m is None else m) for m, w in zip(mats, widths)]
    nnz = accumulate((m.start[-1] for m in mats), initial=0)
    rows = list(accumulate((m.num_row for m in mats), initial=0))
    return CscMatrix(np.concatenate([[0]] + [m.start[1:] + n for m, n in zip(mats, nnz)]),
                     np.concatenate([m.index[:m.start[-1]] + r for m, r in zip(mats, rows)]),
                     np.concatenate([m.value[:m.start[-1]] for m in mats]), rows[-1])


def stack(blocks: Sequence[LpProblem]) -> LpProblem:
    """One minimization whose independent blocks are `blocks`, in order; max blocks
    enter with a negated cost. Read each block's optimum with `block_values`."""
    widths = [np.size(b.c) for b in blocks]
    a_eq = _block_diag([b.a_eq for b in blocks], widths)
    a_ub = _block_diag([b.a_ub for b in blocks], widths)
    return LpProblem(
        c=np.concatenate([_sign(b.sense) * np.asarray(b.c, dtype=float) for b in blocks]),
        a_eq=a_eq,
        b_eq=None if a_eq is None else np.concatenate(
            [np.ravel(b.b_eq) for b in blocks if b.a_eq is not None]),
        a_ub=a_ub,
        b_ub=None if a_ub is None else np.concatenate(
            [np.ravel(b.b_ub) for b in blocks if b.a_ub is not None]),
        lower=np.concatenate([np.full(w, b.lower, dtype=float) for b, w in zip(blocks, widths)]),
        upper=np.concatenate([np.full(w, b.upper, dtype=float) for b, w in zip(blocks, widths)]))


def block_values(blocks: Sequence[LpProblem], x: np.ndarray) -> np.ndarray:
    """Each block's own objective c_b @ x_b at a solution x of `stack(blocks)`."""
    ends = accumulate(np.size(b.c) for b in blocks)
    return np.array([np.asarray(b.c, dtype=float) @ x[end - np.size(b.c):end]
                     for b, end in zip(blocks, ends)])
