"""Shared test fixtures-in-code: random model factories, independent oracles, and the
coupling-LP replay (`oracle_solution`, `check_coupling_feasible`) of the LP oracle tests.

The oracles here (vertex enumeration, rejection sampling, Monte-Carlo evaluation)
deliberately avoid the library code paths they are used to check.
"""

from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from icfmdp import (GridSpec, IntervalCfMdp, Mdp, Mode, ObservedPath, PolicySchedule,
                    build_frozen_lake, build_gridworld, build_interval_cfmdp)
from icfmdp.bounds import Assumptions
from icfmdp.coupling import _coupling_lp, _observed_outcome_box, lp_solve
from icfmdp.gumbel import _posterior_probs, _prior_gumbels, _score_table
from icfmdp.lp import CscMatrix, LpProblem, block_values, stack
from icfmdp.mdp import random_policy_schedule, rng_from, sample_path, support_columns


def make_random_mdp(rng, num_states, num_actions, sparse=False):
    """Dirichlet-random rows; `sparse` knocks entries out to create disjoint supports."""
    t = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
    if sparse:
        mask = rng.random((num_states, num_actions, num_states)) < 0.4
        t = t * mask
        for s in range(num_states):
            for a in range(num_actions):
                if t[s, a].sum() == 0:
                    t[s, a, rng.integers(num_states)] = 1.0
        t = t / t.sum(axis=2, keepdims=True)
    reward = rng.normal(size=(num_states, num_actions))
    initial = rng.dirichlet(np.ones(num_states))
    return Mdp(num_states, num_actions, t, reward, initial)


def large_grid(side):
    """A side x side GridWorld, p=0.9, with four danger cells."""
    q = side // 4
    return build_gridworld(GridSpec(
        width=side, height=side, start=(0, 0), goal=(side - 1, side - 1),
        danger_cells=frozenset({(q - 1, q), (q + 1, 3 * q), (2 * q, 2 * q), (3 * q, q + 1)}),
        p_intended=0.9))


# The MDPs of the row-kernel identity tests: GridWorld 16x16 and Frozen Lake, whose rows
# are padded to the widest, and dense random MDPs whose rows have 8 or 12 successors,
# where numpy's row sums turn pairwise.
KERNEL_ENVS = ("gridworld-16x16", "frozen-lake", "dense-k8", "dense-k12")


def kernel_env(name, rng):
    if name == "gridworld-16x16":
        return large_grid(16)
    if name == "frozen-lake":
        return build_frozen_lake()
    n = int(name.removeprefix("dense-k"))
    return make_random_mdp(rng, n, 2)


def same_bits(a, b):
    """True iff two arrays have the same dtype, shape and bytes (signs of zero included)."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def csc(a):
    """A dense matrix as an `lp.CscMatrix`: its nonzero entries column by column, in
    ascending row order, as in scipy's CSC form of the same matrix."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    col, row = np.nonzero(a.T)
    return CscMatrix(np.searchsorted(col, np.arange(a.shape[1] + 1)), row, a[row, col],
                     a.shape[0])


def reference_stack(blocks):
    """`lp.stack` by other means: scipy's `block_diag` of the blocks' matrices, bounds
    broadcast to each block's rows or columns and concatenated, max costs negated."""
    mats = [sp.csc_array((b.a.value[:b.a.start[-1]], b.a.index[:b.a.start[-1]], b.a.start),
                         shape=(b.a.num_row, b.a.start.size - 1)) for b in blocks]
    a = sp.block_diag(mats, format="csc")

    def joined(name):  # a row bound spans its block's rows, a variable bound its columns
        return np.concatenate([np.broadcast_to(getattr(b, name), b.a.num_row if "row" in name
                                               else np.size(b.c)).astype(float) for b in blocks])

    sign = {"min": 1.0, "max": -1.0}
    return LpProblem(c=np.concatenate([sign[b.sense] * np.asarray(b.c, dtype=float)
                                       for b in blocks]),
                     a=CscMatrix(a.indptr, a.indices, a.data, a.shape[0]),
                     row_lower=joined("row_lower"), row_upper=joined("row_upper"),
                     lower=joined("lower"), upper=joined("upper"))


def random_observed(m, rng):
    """A random observed transition with positive probability."""
    s_t = int(rng.integers(m.num_states))
    a_t = int(rng.integers(m.num_actions))
    s_next = int(rng.choice(m.num_states, p=m.transition[s_t, a_t]))
    return (s_t, a_t, s_next)


def supports_overlap(m, pair, other):
    """True iff the transition rows of the two (state, action) pairs share a successor."""
    return bool(np.any((m.transition[pair] > 0) & (m.transition[other] > 0)))


def one_step_path(obs):
    """The one-step path that observes transition `obs` = (s_t, a_t, s_next)."""
    return ObservedPath(obs[::2], obs[1:2])


def random_path(m, rng, horizon):
    """A random positive-probability path (states chosen by transition sampling)."""
    s = int(rng.choice(m.num_states, p=m.initial_dist))
    states, actions = [s], []
    for _ in range(horizon):
        a = int(rng.integers(m.num_actions))
        s = int(rng.choice(m.num_states, p=m.transition[s, a]))
        actions.append(a)
        states.append(s)
    return ObservedPath(tuple(states), tuple(actions))


def stationary_policy(actions_per_state, horizon):
    """The policy that takes action `actions_per_state[s]` in state s at every step."""
    return PolicySchedule(horizon, np.tile(np.asarray(actions_per_state), (horizon, 1)))


def icfmdp_from_dense(lb, ub, assumptions, base, path):
    """ICFMDP of dense (T, S, A, S) bounds: one layer per step, on the columns where some
    step's lb or ub is nonzero."""
    cols = support_columns(np.any((lb != 0) | (ub != 0), axis=0))
    return IntervalCfMdp(lb.shape[0], cols, np.arange(lb.shape[0]),
                         np.take_along_axis(lb, cols[None], axis=3),
                         np.take_along_axis(ub, cols[None], axis=3), assumptions, base, path)


def path_to_json(path):
    """The JSON dict of an observed path, as `path_from_json` reads it."""
    return {"states": list(path.states), "actions": list(path.actions)}


def random_interval_bounds(rng, num_states=3, num_actions=2, horizon=3, scale=0.5):
    """Random base MDP, path and dense (T, S, A, S) intervals inflated around its rows.

    Feasibility holds by construction because the nominal row sits inside every
    interval. `scale` controls how far bounds move away from the nominal value.
    """
    m = make_random_mdp(rng, num_states, num_actions, sparse=False)
    path = random_path(m, rng, horizon)
    nominal = np.broadcast_to(m.transition, (horizon,) + m.transition.shape)
    lb = nominal * (1.0 - scale * rng.random(nominal.shape))
    ub = nominal + (1.0 - nominal) * scale * rng.random(nominal.shape)
    return m, path, lb, ub


def random_interval_cfmdp(rng, num_states=3, num_actions=2, horizon=3, scale=0.5):
    """Synthetic ICFMDP of `random_interval_bounds`."""
    m, path, lb, ub = random_interval_bounds(rng, num_states, num_actions, horizon, scale)
    return icfmdp_from_dense(lb, ub, Assumptions.NONE, m, path)


def sequential_fill_expectation(values, lb, ub, mode):
    """Reference order-and-fill for one feasible interval row: start at lb and hand the
    remaining mass out one successor at a time in value order."""
    p = lb.astype(float).copy()
    remaining = 1.0 - p.sum()
    keys = values if mode is Mode.PESSIMISTIC else -values
    order = np.argsort(keys, kind="stable")
    for i in order:
        if remaining <= 0.0:
            break
        add = min(ub[i] - p[i], remaining)
        p[i] += add
        remaining -= add
    return float(p @ values)


def trailing_axis_order_fill(v, lb, ub, mode):
    """Reference order-and-fill kernel for (..., K) rows, with every sort, gather and
    running sum along the trailing axis: a stable argsort, `take_along_axis`, `cumsum`,
    and a second sort for the keys in fill order."""
    lb_sum = lb.sum(axis=-1)
    keys = v if mode is Mode.PESSIMISTIC else -v
    room = np.take_along_axis(ub - lb, np.argsort(keys, axis=-1, kind="stable"),
                              axis=-1).astype(float, copy=False)
    fill = np.cumsum(room, axis=-1)
    fill -= room
    np.subtract((1.0 - lb_sum)[..., None], fill, out=fill)
    np.minimum(np.maximum(fill, 0.0, out=fill), room, out=fill)
    extra = np.einsum("...k,...k->...", fill, np.sort(keys, axis=-1))
    return np.einsum("...k,...k->...", lb, v) + (extra if mode is Mode.PESSIMISTIC else -extra)


def trailing_axis_robust_dp(icf, reward, mode, policy=None, tie_rtol=1e-12):
    """Reference robust DP on the compact layers: `trailing_axis_order_fill` backups, and
    the greedy action as the first one within tie_rtol * max(1, |max Q|) of
    `q.max(axis=1)`. Returns the values and the actions followed."""
    t_len, n = icf.horizon, icf.base.num_states
    v = np.zeros((t_len + 1, n))
    acts = np.zeros((t_len, n), dtype=np.int64)
    for t in range(t_len - 1, -1, -1):
        u = icf.layer[t]
        rows = np.s_[:, :] if policy is None else (np.arange(n), policy.action_at[t])
        expect = trailing_axis_order_fill(v[t + 1][icf.cols[rows]], icf.layer_lb[u][rows],
                                          icf.layer_ub[u][rows], mode)
        if policy is None:
            q = reward + expect
            v[t] = q.max(axis=1)
            near = q >= (v[t] - tie_rtol * np.maximum(1.0, np.abs(v[t])))[:, None]
            acts[t] = np.argmax(near, axis=1)
        else:
            v[t] = reward[rows] + expect
            acts[t] = policy.action_at[t]
    return v, acts


def per_triple_bound_rows(obs_row, s_next, query, cols, is_observed, assumptions):
    """Reference closed-form bounds of (R, K) query rows on columns `cols` given one
    observed transition (its pair's row `obs_row` and outcome `s_next`), with the
    per-row maxima and overlap tests taken along the trailing axis; clamped, unchecked."""
    p_obs = obs_row[s_next]
    obs = obs_row[cols]
    at_next = cols == s_next
    lb = np.maximum(0.0, (query - (1.0 - p_obs)) / p_obs)
    ub = np.minimum(1.0, query / p_obs)
    if assumptions is not Assumptions.NONE:
        p_next_q = np.where(at_next, query, 0.0).max(axis=1, keepdims=True)
        cs = (obs > 0) & (p_next_q * obs > query * p_obs)
        overlap = np.any((obs > 0) & (query > 0), axis=1, keepdims=True)
        if assumptions is Assumptions.CS:
            ub[cs] = 0.0
            ub_o = ub
        else:
            ub_o = np.where(obs > 0, np.minimum(query, 1.0 - p_next_q),
                            np.minimum(1.0 - p_next_q, query / p_obs))
            ub_o[cs] = 0.0
            ub_o = np.where(at_next, np.minimum(p_obs, p_next_q) / p_obs, ub_o)
        leftover = 1.0 - (ub_o.sum(axis=1, keepdims=True) - ub_o)
        lb_o = np.where(leftover > query.shape[1] * np.finfo(float).eps, leftover, 0.0)
        if assumptions is Assumptions.CS_MON:
            lb_o = np.where(at_next, np.maximum(p_next_q, lb_o), lb_o)
        lb_o[cs | (query <= 0)] = 0.0
        lb = np.where(overlap, lb_o, lb)
        ub = np.where(overlap, ub_o, ub)
    lb[is_observed] = ub[is_observed] = 0.0
    hit = is_observed[:, None] & at_next
    lb[hit] = ub[hit] = 1.0
    np.clip(ub, 0.0, 1.0, out=ub)
    np.minimum(lb, ub, out=lb)
    np.clip(lb, 0.0, 1.0, out=lb)
    return lb, ub


def per_triple_layers(m, path, assumptions):
    """Reference ICFMDP layers (U, S, A, K): `per_triple_bound_rows` over all (s, a)
    rows, one unique observed triple at a time in order of first occurrence."""
    cols = m.support_cols.reshape(-1, m.support_cols.shape[-1])
    query = np.take_along_axis(m.transition, m.support_cols, axis=2).reshape(cols.shape)
    triples = list(dict.fromkeys(path.step(t) for t in range(path.horizon)))
    rows = [per_triple_bound_rows(m.transition[s, a], s2, query, cols,
                                  np.arange(len(cols)) == s * m.num_actions + a, assumptions)
            for s, a, s2 in triples]
    shape = (len(triples),) + m.support_cols.shape
    return tuple(np.reshape([r[i] for r in rows], shape) for i in (0, 1))


def sequential_robust_vi(icf, reward, mode, tie_rtol=1e-12):
    """Reference robust value iteration: one sequential fill per (t, s, a) row. Returns
    the values and the policy, whose action is the lowest one with Q within
    tie_rtol * max(1, |max Q|) of the maximum."""
    t_len, n, k, _ = icf.lb.shape
    v = np.zeros((t_len + 1, n))
    acts = np.zeros((t_len, n), dtype=np.int64)
    for t in range(t_len - 1, -1, -1):
        for s in range(n):
            q = [reward[s, a] + sequential_fill_expectation(
                v[t + 1], icf.lb[t, s, a], icf.ub[t, s, a], mode) for a in range(k)]
            v[t, s] = max(q)
            acts[t, s] = next(a for a in range(k)
                              if q[a] >= v[t, s] - tie_rtol * max(1.0, abs(v[t, s])))
    return v, acts


def lp_robust_dp(icf, reward, mode, policy=None):
    """Reference robust DP whose backup solves each row's inner problem, the min (max when
    optimistic) of p @ v over lb <= p <= ub and sum(p) = 1, as a linear program on the
    dense S-wide rows: one block per (s, a) row of step t, all of them in one `lp.stack`
    solve. The action is the greedy maximum, or `policy`'s. Returns the (T + 1, S) values."""
    t_len, n, num_actions, _ = icf.lb.shape
    sense = "min" if mode is Mode.PESSIMISTIC else "max"
    sum_to_one = csc(np.ones((1, n)))
    v = np.zeros((t_len + 1, n))
    for t in range(t_len - 1, -1, -1):
        acts = (np.tile(np.arange(num_actions), (n, 1)) if policy is None
                else policy.action_at[t][:, None])
        s_idx = np.broadcast_to(np.arange(n)[:, None], acts.shape)
        blocks = [LpProblem(v[t + 1], sum_to_one, 1.0, 1.0, icf.lb[t, s, a], icf.ub[t, s, a],
                            sense) for s, a in zip(s_idx.ravel(), acts.ravel())]
        _, x = lp_solve(stack(blocks))
        q = reward[s_idx, acts] + block_values(blocks, x).reshape(acts.shape)
        v[t] = q.max(axis=1)
    return v


def oracle_solution(m, obs, query_pair, s_cf, assumptions, sense):
    """One directed bound of the coupling LP plus the coupling that attains it: the (S, S)
    joint distribution q[i, j] over (observed-pair outcome i, query-pair outcome j), from
    a solve of its own."""
    problem, i, j = _coupling_lp(m, obs, query_pair, assumptions)
    value, x = lp_solve(replace(problem, c=((i == obs[2]) & (j == s_cf)).astype(float),
                                sense=sense))
    q = np.zeros((m.num_states, m.num_states))
    q[i, j] = x
    return value / m.transition[obs], q


def check_coupling_feasible(q, m, obs, query_pair, assumptions, tol=1e-9):
    """Replay every constraint of the coupling LP against a candidate (S, S) coupling q."""
    s_t, a_t, s_next = obs
    s, a = query_pair
    obs_row, query_row = m.transition[s_t, a_t], m.transition[s, a]
    lo, hi = _observed_outcome_box(obs_row, s_next, query_row, assumptions)
    off_diagonal = q - np.diag(np.diag(q)) if (s, a) == (s_t, a_t) else 0.0
    return bool(np.all(q >= -tol)
                and np.max(np.abs(q.sum(axis=1) - obs_row)) <= tol
                and np.max(np.abs(q.sum(axis=0) - query_row)) <= tol
                and np.all(np.abs(off_diagonal) <= tol)
                and np.all(q[s_next] >= lo - tol) and np.all(q[s_next] <= hi + tol))


def interval_simplex_vertices_2(lb, ub):
    """All vertices of {p in R^2 : lb <= p <= ub, sum(p) = 1}."""
    lo = max(lb[0], 1.0 - ub[1])
    hi = min(ub[0], 1.0 - lb[1])
    assert lo <= hi + 1e-12, "infeasible two-successor row"
    return [np.array([x, 1.0 - x]) for x in {lo, hi}]


def rejection_sample_feasible(lb, ub, rng, want=200, max_tries=20000):
    """Feasible distributions inside [lb, ub] via Dirichlet rejection (independent of
    the library's row sampler)."""
    n = lb.shape[0]
    out = []
    for _ in range(max_tries):
        p = rng.dirichlet(np.ones(n))
        if np.all(p >= lb - 1e-12) and np.all(p <= ub + 1e-12):
            out.append(p)
            if len(out) >= want:
                break
    return out


def mc_policy_value(m, policy, horizon, num_paths, rng):
    """Monte-Carlo mean return and its standard error, vectorized, independent of
    the library's path sampler."""
    states = rng.choice(m.num_states, size=num_paths, p=m.initial_dist)
    totals = np.zeros(num_paths)
    for t in range(horizon):
        a = policy.action_at[t][states]
        totals += m.reward[states, a]
        rows = m.transition[states, a]
        u = rng.random((num_paths, 1))
        states = np.minimum((u > np.cumsum(rows, axis=1)).sum(axis=1), m.num_states - 1)
    return totals.mean(), totals.std(ddof=1) / np.sqrt(num_paths)


def mc_nonstationary_value(transition, reward, policy, start_state, num_paths, rng):
    """Same Monte-Carlo oracle for a time-indexed transition table."""
    t_len, n, _, _ = transition.shape
    states = np.full(num_paths, start_state)
    totals = np.zeros(num_paths)
    for t in range(t_len):
        a = policy.action_at[t][states]
        totals += reward[states, a]
        rows = transition[t, states, a]
        u = rng.random((num_paths, 1))
        states = np.minimum((u > np.cumsum(rows, axis=1)).sum(axis=1), n - 1)
    return totals.mean(), totals.std(ddof=1) / np.sqrt(num_paths)


def gumbel_cf_oracle(obs_row, s_next, query_row, nodes=256):
    """P(counterfactual = j) for every j under the Gumbel-max SCM, by deterministic
    quadrature (independent of the library's sampler).

    Given the top Gumbel T of the posterior, the query scores X_s = log q_s + noise_s are
    independent: the observed state's is the point log(q_o / p_o) + T, an in-support
    state's is a Gumbel truncated at log(q_s / p_s) + T, and an off-support state's is a
    Gumbel(log q_s). With w = exp(-x) and y = exp(-T), every other CDF has the form
    exp(-max(0, q_s w - b_s)), where b_s = p_s y on the observed support and 0 off it.

    P(j | T) integrates over the CDF level u = exp(-t) of j's score. The integrand is
    zero once j's score falls below the observed state's (t > t_max) and has a kink
    wherever another state's truncation binds; between those points its log is linear
    in t, so the inner integral is summed exactly piece by piece. The outer integral
    over the CDF level of T uses Gauss-Legendre nodes.
    """
    p = np.asarray(obs_row, dtype=float)
    q = np.asarray(query_row, dtype=float)
    o = int(s_next)
    x, weight = np.polynomial.legendre.leggauss(nodes)
    z = (x + 1.0) / 2.0
    weight = weight * 2.0 * z**3  # CDF level of T taken as z**4: dv = 4 z^3 dz, dz = dx / 2
    y = -4.0 * np.log(z)  # exp(-T) at each node, (O,)
    b = p[None, :] * y[:, None]  # (O, S)
    w_obs = p[o] * y / q[o] if q[o] > 0 else np.full_like(y, np.inf)
    rivals = [s for s in np.flatnonzero(q > 0) if s != o]

    probs = np.zeros(q.shape[0])
    if q[o] > 0:
        log_at_obs = sum((-np.maximum(0.0, q[s] * w_obs - b[:, s]) for s in rivals),
                         np.zeros_like(y))
        probs[o] = weight @ np.exp(log_at_obs)
    for j in rivals:
        others = [s for s in rivals if s != j]
        ratio = {s: q[s] / q[j] for s in others}
        kink = {s: b[:, s] / ratio[s] - b[:, j] for s in others}  # (O,) each
        t_max = q[j] * w_obs - b[:, j]

        def log_f(t):  # log integrand at t = q_j w - b_j, (O,)
            return -t - sum(np.maximum(0.0, ratio[s] * (t + b[:, j]) - b[:, s]) for s in others)

        edges = np.sort(np.clip(np.stack([np.zeros_like(y), *kink.values(), t_max], axis=1),
                                0.0, np.maximum(t_max, 0.0)[:, None]), axis=1)
        total = np.zeros_like(y)
        for lo, hi in zip(edges[:, :-1].T, edges[:, 1:].T):
            inside = np.where(np.isinf(hi), lo + 1.0, (lo + hi) / 2.0)
            slope = 1.0 + sum(ratio[s] * (inside > kink[s]) for s in others)
            total += np.exp(log_f(lo)) * -np.expm1(-slope * (hi - lo)) / slope
        probs[j] = weight @ total
    return probs


def dense_sample_rows(lb, ub, rng):
    """Reference sequential conditional sampler for (R, S) dense interval rows: each row
    visits all S columns in the argsort order of one uniform per entry, then draws its
    rank masses from a second (R, S) block of uniforms."""
    keys = rng.random(lb.shape)
    return trailing_axis_sample_rows(lb, ub, keys, rng.random(lb.shape))


def trailing_axis_sample_rows(lb, ub, keys, u):
    """Reference sequential conditional sampling of (R, K) interval rows, visiting each
    row in the argsort order of its `keys` and placing rank j's mass by `u[:, j]`, with
    the gathers, suffix sums and scatter along the trailing axis."""
    num_rows, n = lb.shape
    order = np.argsort(keys, axis=1)
    lb_o = np.take_along_axis(lb, order, axis=1)
    ub_o = np.take_along_axis(ub, order, axis=1)
    lb_after = np.cumsum(lb_o[:, ::-1], axis=1)[:, ::-1] - lb_o
    ub_after = np.cumsum(ub_o[:, ::-1], axis=1)[:, ::-1] - ub_o
    p_o = np.empty((num_rows, n))
    remaining = np.ones(num_rows)
    for rank in range(n - 1):
        lo = np.maximum(lb_o[:, rank], remaining - ub_after[:, rank])
        hi = np.minimum(ub_o[:, rank], remaining - lb_after[:, rank])
        drawn = np.where(hi > lo, lo + u[:, rank] * (hi - lo), lo)
        p_o[:, rank] = np.clip(drawn, lb_o[:, rank], ub_o[:, rank])
        remaining -= p_o[:, rank]
    p_o[:, -1] = remaining
    p = np.empty_like(p_o)
    np.put_along_axis(p, order, p_o, axis=1)
    return p


def dense_sample_cfmdp(icf, seed):
    """Reference CFMDP sampler on the dense (T, S, A, S) bounds, one step at a time with
    generator `rng_from(seed, t)`."""
    t_len, n, k, _ = icf.lb.shape
    return np.stack([dense_sample_rows(icf.lb[t].reshape(n * k, n), icf.ub[t].reshape(n * k, n),
                                       rng_from(seed, t)).reshape(n, k, n)
                     for t in range(t_len)])


def per_step_cumsum_rollout(transition, reward, policy, start_state, num_paths, seed):
    """Reference rollouts: the CDF of each path's gathered row is summed at every step,
    and the next state is the number of CDF entries at or below the draw, so a draw u
    moves to state j exactly when cdf[j-1] <= u < cdf[j], capped at the first successor
    where the CDF reaches the row's total."""
    t_len = transition.shape[0]
    rng = rng_from(seed)
    states = np.full(num_paths, start_state, dtype=np.int64)
    out = np.empty((num_paths, t_len))
    for t in range(t_len):
        a = policy.action_at[t][states]
        out[:, t] = reward[states, a]
        cdf = np.cumsum(transition[t, states, a], axis=1)
        u = rng.random((num_paths, 1))
        states = np.minimum((u >= cdf).sum(axis=1), (cdf < cdf[:, -1:]).sum(axis=1))
    return out


def prior_gumbels(rng, num_samples, num_states):
    """The library's prior draws `top` (N,) and `noise` (S, N) from `rng`, made in the
    scratch of a one-entry score table."""
    return _prior_gumbels(rng, _score_table(np.zeros((1, 1), np.int64), np.ones((1, 1)),
                                            num_states, num_samples))


def dense_posterior_probs(obs_row, s_next, cols, table, top, noise):
    """`_posterior_probs` on the score table of (R, W) padded support columns `cols`,
    scattered onto (R, S) rows."""
    out = np.zeros((cols.shape[0], obs_row.shape[0]))
    np.put_along_axis(out, cols, _posterior_probs(obs_row, s_next, table, top, noise).T, axis=1)
    return out


def column_loop_gumbel_rows(obs_row, s_next, query, num_samples, rng):
    """Reference Gumbel kernel for (R, S) query rows: `column_loop_from_draws` on the
    library's prior draw from `rng`."""
    return column_loop_from_draws(obs_row, s_next, query,
                                  *prior_gumbels(rng, num_samples, query.shape[1]))


def column_loop_from_draws(obs_row, s_next, query, top, noise):
    """Reference Gumbel kernel for (R, S) query rows given prior draws `top` (N,) and
    `noise` (S, N): the posterior taken on an (N, S) copy of the noise, then a scan over
    each row's support columns (padded to the widest) that keeps one (N, R) running
    maximum and winner and moves on a strict `>`, so ties go to the lower state index."""
    num_rows, n = query.shape
    num_samples = top.shape[0]
    noise = noise.T.copy()
    in_support = obs_row > 0
    logit = np.log(obs_row[in_support])
    noise[:, in_support] = -np.logaddexp(-top[:, None], -(logit + noise[:, in_support])) - logit
    noise[:, s_next] = top - np.log(obs_row[s_next])

    width = int((query > 0).sum(axis=1).max())
    cand = np.argsort(query <= 0, axis=1, kind="stable")[:, :width]
    q_cand = np.take_along_axis(query, cand, axis=1)
    log_q = np.full(q_cand.shape, -np.inf)
    np.log(q_cand, out=log_q, where=q_cand > 0)
    best = log_q[:, 0] + noise[:, cand[:, 0]]
    winner = np.broadcast_to(cand[:, 0], best.shape).copy()
    for col in range(1, width):
        score = log_q[:, col] + noise[:, cand[:, col]]
        better = score > best
        best = np.where(better, score, best)
        winner = np.where(better, cand[:, col], winner)
    winner += n * np.arange(num_rows)
    return np.bincount(winner.ravel(), minlength=num_rows * n).reshape(num_rows, n) / num_samples


def _per_row_cfmdp(m, path, seed, rows):
    """(T, S, A, S) CFMDP whose step t is `rows(obs_row, s_next, rng_from(seed, t))` over
    all S * A rows of m, duplicates included."""
    n, k = m.num_states, m.num_actions
    out = np.empty((path.horizon, n, k, n))
    for t in range(path.horizon):
        s_t, a_t, s_next = path.step(t)
        out[t] = rows(m.transition[s_t, a_t], s_next, rng_from(seed, t)).reshape(n, k, n)
    return out


def per_row_gumbel_cfmdp(m, path, num_samples, seed):
    """Gumbel CFMDP of the library kernel with every (s, a) row of step t scored against
    the noise of `rng_from(seed, t)`, duplicates included."""
    cols = m.support_cols.reshape(-1, m.support_cols.shape[-1])
    table = _score_table(cols, np.take_along_axis(m.transition.reshape(-1, m.num_states), cols,
                                                  axis=1), m.num_states, num_samples)
    return _per_row_cfmdp(m, path, seed, lambda obs_row, s_next, rng: dense_posterior_probs(
        obs_row, s_next, cols, table, *_prior_gumbels(rng, table)))


def column_loop_gumbel_cfmdp(m, path, num_samples, seed):
    """Reference Gumbel CFMDP: `column_loop_gumbel_rows` on every (s, a) row of step t
    with generator `rng_from(seed, t)`."""
    query = m.transition.reshape(-1, m.num_states)
    return _per_row_cfmdp(m, path, seed, lambda obs_row, s_next, rng: column_loop_gumbel_rows(
        obs_row, s_next, query, num_samples, rng))


def entry_moments(draw, seeds):
    """Per-entry mean, variance (ddof=1), min and max of the arrays draw(seed) over the
    seeds, accumulated one draw at a time around the first draw."""
    seeds = list(seeds)
    first = draw(seeds[0])
    total, total_sq = np.zeros_like(first), np.zeros_like(first)
    lo, hi = first.copy(), first.copy()
    for seed in seeds:
        x = draw(seed)
        d = x - first
        total += d
        total_sq += d * d
        np.minimum(lo, x, out=lo)
        np.maximum(hi, x, out=hi)
    mean = total / len(seeds)
    var = np.maximum(total_sq - len(seeds) * mean * mean, 0.0) / (len(seeds) - 1)
    return first + mean, var, lo, hi


def loop_icfmdp_json(icf):
    """Reference ICFMDP JSON payload, one interval dict per (t, s, a, s') in nested loops."""
    t_len, n, k, _ = icf.lb.shape
    intervals = [[[[{"lb": float(icf.lb[t, s, a, s2]), "ub": float(icf.ub[t, s, a, s2])}
                    for s2 in range(n)] for a in range(k)] for s in range(n)]
                 for t in range(t_len)]
    return {"horizon": icf.horizon, "assumptions": icf.assumptions.value, "intervals": intervals}


def loop_icfmdp_csv_rows(icf):
    """Reference flat (t, s, a, s_next, lb, ub) rows in nested loops."""
    t_len, n, k, _ = icf.lb.shape
    for t in range(t_len):
        for s in range(n):
            for a in range(k):
                for s2 in range(n):
                    yield t, s, a, s2, float(icf.lb[t, s, a, s2]), float(icf.ub[t, s, a, s2])


def loop_boundstats_detail_rows(cfg, run_id):
    """Reference boundstats_detail rows: each trial's path drawn as run_bound_stats draws
    it, then one width row per (t, s, a, s') in nested loops."""
    m = cfg.validate()
    rows = []
    for trial in range(cfg.num_paths):
        policy = random_policy_schedule(m.num_states, m.num_actions, cfg.horizon,
                                        rng_from(cfg.seed, 1, trial))
        path_seed = int(np.random.SeedSequence([cfg.seed, 2, trial]).generate_state(1)[0])
        path = sample_path(m, policy, cfg.horizon, path_seed)
        icfs = {key: build_interval_cfmdp(m, path, assumption)
                for key, assumption in [("cs_mon", Assumptions.CS_MON),
                                        ("cs", Assumptions.CS), ("none", Assumptions.NONE)]}
        widths = {key: icf.ub - icf.lb for key, icf in icfs.items()}
        t_len, n, k, _ = widths["none"].shape
        for t in range(t_len):
            for s in range(n):
                for a in range(k):
                    for s2 in range(n):
                        rows.append({
                            "run_id": run_id, "trial": trial, "t": t, "s": s, "a": a,
                            "s_next": s2,
                            "width_cs_mon": widths["cs_mon"][t, s, a, s2],
                            "width_cs": widths["cs"][t, s, a, s2],
                            "width_none": widths["none"][t, s, a, s2],
                        })
    return rows
