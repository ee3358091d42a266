"""Shared test fixtures-in-code: random model factories and independent oracles.

The oracles here (vertex enumeration, rejection sampling, Monte-Carlo evaluation)
deliberately avoid the library code paths they are used to check.
"""

import numpy as np

from icfmdp import IntervalCfMdp, Mdp, Mode, ObservedPath
from icfmdp.bounds import Assumptions


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


def random_observed(m, rng):
    """A random observed transition with positive probability."""
    s_t = int(rng.integers(m.num_states))
    a_t = int(rng.integers(m.num_actions))
    s_next = int(rng.choice(m.num_states, p=m.transition[s_t, a_t]))
    return (s_t, a_t, s_next)


def supports_overlap(m, pair, other):
    """True iff the transition rows of the two (state, action) pairs share a successor."""
    return bool(np.any((m.transition[pair] > 0) & (m.transition[other] > 0)))


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


def random_interval_cfmdp(rng, num_states=3, num_actions=2, horizon=3, scale=0.5):
    """Synthetic ICFMDP: random base MDP with intervals inflated around its rows.

    Feasibility holds by construction because the nominal row sits inside every
    interval. `scale` controls how far bounds move away from the nominal value.
    """
    m = make_random_mdp(rng, num_states, num_actions, sparse=False)
    path = random_path(m, rng, horizon)
    nominal = np.broadcast_to(m.transition, (horizon,) + m.transition.shape)
    lb = nominal * (1.0 - scale * rng.random(nominal.shape))
    ub = nominal + (1.0 - nominal) * scale * rng.random(nominal.shape)
    return IntervalCfMdp(horizon, lb.copy(), ub.copy(), Assumptions.NONE, m, path)


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


def sequential_robust_values(icf, reward, mode):
    """Reference robust value iteration: one sequential fill per (t, s, a) row."""
    t_len, n, k, _ = icf.lb.shape
    v = np.zeros((t_len + 1, n))
    for t in range(t_len - 1, -1, -1):
        for s in range(n):
            v[t, s] = max(reward[s, a] + sequential_fill_expectation(
                v[t + 1], icf.lb[t, s, a], icf.ub[t, s, a], mode) for a in range(k))
    return v


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
