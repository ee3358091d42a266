"""Each benchmark check accepts a real output and refuses a corrupted copy of it.

Run from the repository root: `python3 -m pytest -q bench/test_checks.py`.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from icfmdp import (Assumptions, Mode, build_gridworld, build_gumbel_cfmdp,  # noqa: E402
                    build_interval_cfmdp, build_toy_mdp, gridworld_spec, optimal_policy,
                    point_policy_eval, robust_policy_eval, robust_value_iteration,
                    rollout_rewards, sample_cfmdp)

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from spans import Tracer  # noqa: E402

@pytest.fixture(scope="module")
def grid():
    """GridWorld p=0.4 with one observed path, its ICFMDPs and its robust solutions."""
    x = workloads._path_inputs(lambda: build_gridworld(gridworld_spec(0.4)), 1)(3, Tracer())[0]
    m, path = x.m, x.path
    icf = build_interval_cfmdp(m, path, Assumptions.CS_MON)
    cs = build_interval_cfmdp(m, path, Assumptions.CS)
    target, _ = optimal_policy(m, path.horizon)
    return {
        "x": x, "m": m, "path": path, "icf": icf, "cs": cs, "target": target,
        "vi": robust_value_iteration(icf, m.reward, Mode.PESSIMISTIC).values.values,
        "pess": robust_policy_eval(icf, target, Mode.PESSIMISTIC).values,
        "opt": robust_policy_eval(icf, target, Mode.OPTIMISTIC).values,
        "sampled": sample_cfmdp(icf, 11).transition,
        "gumbel": build_gumbel_cfmdp(m, path, 1000, 12).transition,
    }


def _copy(a):
    return np.array(a, dtype=float)


def _refuses(check, *args, **kwargs):
    with pytest.raises(CheckFailed):
        check(*args, **kwargs)


def _free_entry(mask):
    return tuple(np.argwhere(mask)[0])


def test_icfmdp_check(grid):
    m, path, icf = grid["m"], grid["path"], grid["icf"]
    checks.check_icfmdp(m, path, icf.lb, icf.ub)

    lb = _copy(icf.lb)
    idx = _free_entry(icf.ub < 0.8)
    lb[idx] = icf.ub[idx] + 0.1  # lb above ub
    _refuses(checks.check_icfmdp, m, path, lb, icf.ub)

    ub = _copy(icf.ub)
    s, a, s_cf = _free_entry(m.transition == 0)
    ub[1, s, a, s_cf] = 0.5  # mass outside the base row's support
    _refuses(checks.check_icfmdp, m, path, icf.lb, ub)

    lb = _copy(icf.lb)
    rows = np.argwhere(icf.ub.sum(axis=3) > 1.2)[0]
    lb[tuple(rows)] = icf.ub[tuple(rows)]  # sum(lb) > 1
    _refuses(checks.check_icfmdp, m, path, lb, icf.ub)

    lb, ub = _copy(icf.lb), _copy(icf.ub)
    s, a, s_next = path.step(2)
    lb[2, s, a, s_next] = ub[2, s, a, s_next] = 0.9  # observed row no longer a point mass
    _refuses(checks.check_icfmdp, m, path, lb, ub)


def test_order_checks(grid):
    pess, opt, vi = grid["pess"], grid["opt"], grid["vi"]
    checks.check_order(pess, opt, "pess <= opt")
    checks.check_order(pess, vi, "robust VI dominates")
    raised = _copy(pess)
    raised[0, grid["path"].states[0]] = opt[0, grid["path"].states[0]] + 1e-3
    _refuses(checks.check_order, raised, opt, "pess <= opt")
    _refuses(checks.check_within, raised, pess, opt, "inside [pess, opt]")


def test_backup_check(grid):
    m, icf, vi, pess = grid["m"], grid["icf"], grid["vi"], grid["pess"]
    s = grid["path"].states[1]
    a = int(grid["target"].action_at[1, s])
    checks.check_backup(vi, icf.lb, icf.ub, m.reward, 1, s, maximize=False)
    checks.check_backup(pess, icf.lb, icf.ub, m.reward, 1, s, False, a)
    for values, action in ((vi, None), (pess, a)):
        shifted = _copy(values)
        shifted[1, s] += 1e-6 * max(1.0, abs(values[1, s])) * 10
        _refuses(checks.check_backup, shifted, icf.lb, icf.ub, m.reward, 1, s, False, action)


def test_sampled_cfmdp_checks(grid):
    m, icf, path = grid["m"], grid["icf"], grid["path"]
    sampled = grid["sampled"]
    checks.check_sampled_cfmdp(icf.lb, icf.ub, sampled)

    t, s, a, k = np.argwhere((icf.ub > 0.0) & (icf.ub < 0.9))[0]
    donor = int(np.argmax(np.where(np.arange(sampled.shape[-1]) == k, -1.0, sampled[t, s, a])))
    pushed = _copy(sampled)
    pushed[t, s, a, k] = icf.ub[t, s, a, k] + 0.05  # above its upper bound ...
    pushed[t, s, a, donor] -= pushed[t, s, a].sum() - 1.0  # ... with the row still summing to 1
    _refuses(checks.check_sampled_cfmdp, icf.lb, icf.ub, pushed)

    unnormalised = _copy(sampled)
    unnormalised[t, s, a] *= 0.9
    _refuses(checks.check_sampled_cfmdp, icf.lb, icf.ub, unnormalised)

    policy, s0 = grid["target"], path.states[0]
    exact = point_policy_eval(sampled, m.reward, policy).values
    returns = rollout_rewards(sampled, m.reward, policy, s0, 1000, 5).sum(axis=1)
    checks.check_rollout_mean(returns, float(exact[0, s0]), "rollouts")
    se = returns.std(ddof=1) / np.sqrt(returns.shape[0])
    _refuses(checks.check_rollout_mean, returns + 10 * se + 1e-3, float(exact[0, s0]), "rollouts")


def test_gumbel_check(grid):
    m, path, cs, gum = grid["m"], grid["path"], grid["cs"], grid["gumbel"]
    checks.check_gumbel_cfmdp(m, path, gum, cs.lb, cs.ub, 1000)

    t, s, a = np.argwhere(cs.ub.max(axis=3) - cs.lb.max(axis=3) > 0)[0]
    s_cf = int(np.argmin(np.where(m.transition[s, a] > 0, cs.ub[t, s, a], 2.0)))
    low = int(np.argmax(gum[t, s, a]))
    if low == s_cf or cs.ub[t, s, a, s_cf] > 0.6:
        pytest.skip("no entry to push out of its stability interval")
    outside = _copy(gum)
    shift = min(0.3, outside[t, s, a, low])
    outside[t, s, a, low] -= shift
    outside[t, s, a, s_cf] += shift
    if outside[t, s, a, s_cf] <= cs.ub[t, s, a, s_cf] + 0.1:
        pytest.skip("the shift stays within binomial slack")
    _refuses(checks.check_gumbel_cfmdp, m, path, outside, cs.lb, cs.ub, 1000)

    off = _copy(gum)
    s, a, s_cf = _free_entry(m.transition == 0)
    off[0, s, a] *= 0.5
    off[0, s, a, s_cf] = 0.5  # half the row outside the query support
    _refuses(checks.check_gumbel_cfmdp, m, path, off, cs.lb, cs.ub, 1000)

    observed = _copy(gum)
    s, a, s_next = path.step(0)
    observed[0, s, a] = m.transition[s, a]  # the nominal row instead of the point mass
    _refuses(checks.check_gumbel_cfmdp, m, path, observed, cs.lb, cs.ub, 1000)


@pytest.fixture(scope="module")
def toy_verified():
    toy = build_toy_mdp()
    x = workloads.VerifyInput("toy", toy, (0, 0, 1), workloads._all_pairs(toy), True)
    return x, workloads.run_verify(x, Tracer())


def test_verification_checks(toy_verified):
    x, out = toy_verified
    workloads.check_verify(x, out)
    closed, oracle, enum = out[Assumptions.CS_MON]

    shifted = _copy(oracle)
    shifted[1, 1, 0] += 1e-6  # one LP upper bound moved by 1e-6
    _refuses(checks.check_rows_agree, closed, shifted, "closed form vs LP")
    shifted = _copy(enum)
    shifted[0, 1, 2] -= 1e-6
    _refuses(checks.check_rows_agree, oracle, shifted, "coupling vs enumeration")

    none, cs = out[Assumptions.NONE][0], out[Assumptions.CS][0]
    widened = _copy(closed)
    widened[1, 1, 0] = cs[1, 1, 0] + 0.1  # cs+mon interval reaching beyond the cs one
    _refuses(checks.check_nesting, none, cs, widened)

    shape = (2, 3, 1, 3)
    changed = _copy(closed)
    changed[0, 1, 0] = 0.39  # Table 1 has [0.4, 0.4] for (s1, a0 -> s0) under cs+mon
    _refuses(checks.check_toy_table, none.reshape(shape), changed.reshape(shape))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workloads_pass_their_checks(name):
    """One input of each workload runs and passes its checks; the set-up is seeded."""
    wl = workloads.WORKLOADS[name]
    inputs = wl.setup(5, Tracer())
    again = wl.setup(5, Tracer())
    x = min(inputs, key=lambda i: i.m.num_states)
    assert repr(x) == repr(min(again, key=lambda i: i.m.num_states))
    wl.check(x, wl.run(x, Tracer()))
