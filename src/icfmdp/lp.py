"""Thin linear-programming layer over the HiGHS solver.

The verification LPs here are small: a coupling LP has at most S^2 variables on the
joint support of two rows, with equality rows for its two marginals and the
assumptions as a box on the observed-outcome row's variable bounds; a mechanism
enumeration has up to ~1e5 sparse columns, with that box as <= rows. A mature simplex
implementation is the right tool; this module just fixes the problem container and
the error contract. Each LP is one direct HiGHS call (Huangfu & Hall, 2018), with the
input checks and status mapping of `scipy.optimize.milp` kept in `lp_solve`. This
imports scipy's private HiGHS binding, `scipy.optimize._highspy._core` (scipy >= 1.15).

Most of a tiny solve is fixed per-call cost, so independent LPs are solved
together: `stack` lays LPs that share no variables out as the blocks of one LP, with a
block-diagonal constraint matrix, each block's own variable bounds, and the cost of
every max block negated. This is exact. The stacked feasible set is the product of the
blocks' sets and the stacked objective is the sum of their signed objectives, so a
point is optimal for the stack exactly when each block's part is optimal for its
block; `block_values` reads each block's optimum back as c_b @ x_b. One infeasible
block makes the stack infeasible, and one unbounded block makes it unbounded.

Tolerance note: HiGHS applies its feasibility and optimality tolerances, its scaling
and its presolve to the stacked problem, and the objective it reports is the sum. A
block's value is therefore not guaranteed to match a separate solve of that block to
the last bit; the tests pin stacked block values to separate solves within 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core as highs

from .errors import Infeasible, InvariantViolation, Unbounded

_SIGN = {"min": 1.0, "max": -1.0}


@dataclass
class LpProblem:
    """min or max of c @ x subject to A_eq x = b_eq, A_ub x <= b_ub, lower <= x <= upper."""

    c: np.ndarray
    a_eq: np.ndarray | sp.spmatrix | sp.sparray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | sp.spmatrix | sp.sparray | None = None
    b_ub: np.ndarray | None = None
    lower: np.ndarray | float = 0.0
    upper: np.ndarray | float = np.inf
    sense: str = "min"  # "min" | "max"


def _sign(sense: str) -> float:
    if sense not in _SIGN:
        raise ValueError(f"unknown sense {sense!r}")
    return _SIGN[sense]


def _rows(a, b, num_col: int, equality: bool) -> tuple[sp.csc_array, np.ndarray, np.ndarray]:
    """A constraint block in CSC form with its row bounds (lower, upper); ValueError
    unless it has `num_col` columns and `b` broadcasts to its rows."""
    if not (sp.issparse(a) and a.format == "csc"):
        a = sp.csc_array(a if sp.issparse(a) else np.atleast_2d(np.asarray(a, dtype=float)))
    if a.ndim != 2 or a.shape[1] != num_col:
        raise ValueError(f"constraint matrix of shape {a.shape} for {num_col} variables")
    b = np.broadcast_to(np.asarray(b, dtype=float), a.shape[:1])
    return a, b if equality else np.full(b.size, -np.inf), b


def _csc_parts(top: sp.csc_array, bottom: sp.csc_array | None = None) -> tuple[np.ndarray, ...]:
    """CSC (start, index, value) of `top`, or of [top; bottom] with each column's top
    entries first."""
    if bottom is None:
        return top.indptr, top.indices[:top.nnz], top.data[:top.nnz]
    column = np.concatenate([np.repeat(np.arange(m.shape[1]), np.diff(m.indptr))
                             for m in (top, bottom)])
    order = np.argsort(column, kind="stable")
    index = np.concatenate([top.indices[:top.nnz], bottom.indices[:bottom.nnz] + top.shape[0]])
    value = np.concatenate([top.data[:top.nnz], bottom.data[:bottom.nnz]])
    return top.indptr + bottom.indptr, index[order], value[order]


def lp_solve(problem: LpProblem) -> tuple[float, np.ndarray]:
    """Solve an LpProblem; returns (optimum, solution).

    Raises ValueError for a malformed problem, as `scipy.optimize.milp` does, and
    Infeasible or Unbounded; any other solver outcome is an InvariantViolation.
    """
    sign = _sign(problem.sense)
    c = sign * np.atleast_1d(np.asarray(problem.c, dtype=float))
    if c.ndim != 1 or c.size == 0 or not np.all(np.isfinite(c)):
        raise ValueError("c must be a non-empty one-dimensional array of finite numbers")
    # Equality rows first, then the <= rows, as one LP with a column-wise matrix.
    blocks = [_rows(a, b, c.size, equality) for a, b, equality in (
        (problem.a_eq, problem.b_eq, True), (problem.a_ub, problem.b_ub, False)) if a is not None]
    matrices, row_lower, row_upper = zip(*blocks or [(sp.csc_array((0, c.size)), [], [])])
    lp = highs.HighsLp()
    lp.num_col_, lp.num_row_ = c.size, sum(m.shape[0] for m in matrices)
    lp.col_cost_ = c
    lp.col_lower_, lp.col_upper_ = (np.broadcast_to(v, c.shape).astype(float)
                                    for v in (problem.lower, problem.upper))
    lp.row_lower_, lp.row_upper_ = np.concatenate(row_lower), np.concatenate(row_upper)
    # HighsLp's matrix is column-wise by default, and passModel sizes it from the LP.
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = _csc_parts(*matrices)
    solver = highs._Highs()
    solver.setOptionValue("log_to_console", False)
    status = highs.HighsModelStatus.kModelError  # milp's status for a model HiGHS rejects
    if solver.passModel(lp) != highs.HighsStatus.kError:
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


def _block_diag(mats: list, widths: list[int]) -> sp.csc_array | None:
    """Block-diagonal CSC matrix of `mats` (None: a block with no rows), concatenated
    from the blocks' own CSC arrays; None when no block has rows."""
    data, indices, indptr = [], [], [np.zeros(1, dtype=np.int64)]
    num_rows = nnz = 0
    for mat, width in zip(mats, widths):
        if mat is None:
            indptr.append(np.full(width, nnz, dtype=np.int64))
            continue
        if not (sp.issparse(mat) and mat.format == "csc"):
            mat = sp.csc_array(mat)
        end = mat.indptr[-1]
        data.append(mat.data[:end])
        indices.append(mat.indices[:end] + num_rows)
        indptr.append(mat.indptr[1:] + nnz)
        num_rows += mat.shape[0]
        nnz += end
    if not data:
        return None
    return sp.csc_array((np.concatenate(data), np.concatenate(indices), np.concatenate(indptr)),
                        shape=(num_rows, sum(widths)))


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
    values, start = np.empty(len(blocks)), 0
    for k, b in enumerate(blocks):
        end = start + np.size(b.c)
        values[k] = np.asarray(b.c, dtype=float) @ x[start:end]
        start = end
    return values
