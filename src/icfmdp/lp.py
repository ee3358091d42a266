"""Thin linear-programming layer over scipy's HiGHS solver.

The verification LPs here are small: a coupling LP has at most S^2 variables on the
joint support of two rows, with equality rows for its two marginals and the
assumptions as a box on the observed-outcome row's variable bounds; a mechanism
enumeration has up to ~1e5 sparse columns, with that box as <= rows. A mature simplex
implementation is the right tool; this module just fixes the problem container and
the error contract. It calls HiGHS through `scipy.optimize.milp` with no integrality
constraints, whose input checks cost far less per tiny solve than `linprog`'s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

from .errors import Infeasible, InvariantViolation, Unbounded


@dataclass
class LpProblem:
    """min or max of c @ x subject to A_eq x = b_eq, A_ub x <= b_ub, lower <= x <= upper."""

    c: np.ndarray
    a_eq: np.ndarray | sp.spmatrix | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | sp.spmatrix | None = None
    b_ub: np.ndarray | None = None
    lower: np.ndarray | float = 0.0
    upper: np.ndarray | float | None = None
    sense: str = "min"  # "min" | "max"


def lp_solve(problem: LpProblem) -> tuple[float, np.ndarray]:
    """Solve an LpProblem; returns (optimum, solution).

    Raises Infeasible or Unbounded; any other solver failure is an InvariantViolation.
    """
    if problem.sense not in ("min", "max"):
        raise ValueError(f"unknown sense {problem.sense!r}")
    c = np.asarray(problem.c, dtype=float)
    sign = 1.0 if problem.sense == "min" else -1.0
    constraints = []
    if problem.a_eq is not None:
        constraints.append(LinearConstraint(problem.a_eq, problem.b_eq, problem.b_eq))
    if problem.a_ub is not None:
        constraints.append(LinearConstraint(problem.a_ub, -np.inf, problem.b_ub))
    upper = np.inf if problem.upper is None else problem.upper
    res = milp(sign * c, bounds=Bounds(problem.lower, upper), constraints=constraints)
    if res.status == 2:
        raise Infeasible("linear program is infeasible")
    if res.status == 3:
        raise Unbounded("linear program is unbounded")
    if res.status != 0:
        raise InvariantViolation(f"LP solver failed with status {res.status}: {res.message}")
    return sign * float(res.fun), res.x
