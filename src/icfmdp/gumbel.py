"""Gumbel-max SCM baseline: posterior noise inference for an observed transition and
Monte-Carlo counterfactual transition probabilities.

In the Gumbel-max SCM (Oberst & Sontag, 2019) a categorical draw is the argmax of its
log-probabilities plus one exogenous Gumbel per state, and that one noise vector drives
every counterfactual of the step. Conditioned on the observed outcome, the posterior
noise is sampled top-down (Maddison, Tarlow & Minka, 2014): the maximum is a standard
Gumbel (the row's log-normalizer is 0), it is assigned to the observed state, and every
other in-support state gets a Gumbel truncated below the maximum. States outside the
observed row's support are unconstrained by the observation, so their posterior equals
the prior. One batched kernel draws the noise once per step and replays it through the
distinct compact rows (support columns padded to the widest support W, and their
probabilities) of the base MDP, whose score table is built once per CFMDP. Each step
scores all R rows against all N draws as one (W, R, N) block; each draw goes to the first
column attaining its row's maximum, the lower state index on a tie. Equal rows see the
same noise, so they get equal probabilities. The output is a dense (T, S, A, S) CFMDP.

The prior noise is drawn a whole array at a time as `rng.gumbel` draws it: numpy maps each
double U of `rng.random` to -log(-log(1 - U)) and redraws on U = 0, so the same doubles in
the same order consume the same stream. Values may differ from `rng.gumbel`'s in the last
bit, as numpy's vectorized `log` rounds differently from the C library's.
"""

from __future__ import annotations

import numpy as np

from .mdp import (Mdp, ObservedPath, PointCfMdp, check_path, check_query, mdp_to_json, rng_from,
                  support_columns)


def _score_table(cols: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score table of (R, W) compact query rows: `cols`, each row's support columns padded
    to the widest support W (`support_columns`), and `log_q` (W, R, 1), the
    log-probabilities `probs` on them, -inf on padding."""
    q_cand = probs.T[:, :, None]
    log_q = np.full(q_cand.shape, -np.inf)
    np.log(q_cand, out=log_q, where=q_cand > 0)
    return cols, log_q


def _prior_gumbels(rng: np.random.Generator, num_samples: int,
                   num_states: int) -> tuple[np.ndarray, np.ndarray]:
    """Prior draws `top` (N,) and `noise`, returned as (S, N), of `rng.gumbel(size=N)` and
    `rng.gumbel(size=(N, S))`, with its doubles, formula and rejections."""
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    size = num_samples * (num_states + 1)
    u = rng.random(size)
    while not u.all():
        u = np.concatenate([u[u != 0], rng.random(size - np.count_nonzero(u))])
    g = np.empty((num_states + 1, num_samples))
    np.subtract(1.0, u[:num_samples], out=g[0])
    np.subtract(1.0, u[num_samples:].reshape(num_samples, num_states).T, out=g[1:])
    for _ in range(2):
        np.negative(np.log(g, out=g), out=g)
    return g[0], g[1:]


def _posterior_probs(obs_row: np.ndarray, s_next: int, table: tuple[np.ndarray, np.ndarray],
                     top: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Counterfactual probabilities of the `_score_table` rows for one possible observed
    step, from prior draws `top` (N,) and `noise` (S, N), which becomes the posterior.

    Each draw goes to the first column attaining its row's maximum, so ties go to the
    lower state index and padding (-inf) never wins. Entries are argmax frequencies: rows
    sum to one and are zero off the query support.
    """
    cand, log_q = table
    in_support = obs_row > 0
    logit = np.log(obs_row[in_support])[:, None]
    noise[in_support] = -np.logaddexp(-top, -(logit + noise[in_support])) - logit
    noise[s_next] = top - np.log(obs_row[s_next])

    score = noise[cand.T]  # (W, R, N), gathered from whole rows
    score += log_q
    best = np.maximum.reduce(score, axis=0)
    counts = np.empty(cand.shape, dtype=np.int64)
    free = np.ones(best.shape, dtype=bool)
    for w in range(cand.shape[1] - 1):  # column w claims the free draws at its row's maximum
        claim = (score[w] == best) & free
        free ^= claim
        counts[:, w] = np.count_nonzero(claim, axis=1)
    counts[:, -1] = np.count_nonzero(free, axis=1)  # unclaimed draws peak here
    out = np.zeros(cand.shape[:1] + obs_row.shape)
    np.put_along_axis(out, cand, counts, axis=1)
    return out / top.shape[0]


def gumbel_cf_probs(m: Mdp, obs: tuple[int, int, int], query_pair: tuple[int, int],
                    num_samples: int, seed: int) -> np.ndarray:
    """Monte-Carlo counterfactual transition probabilities for one query pair.

    Entries are argmax frequencies over `num_samples` posterior draws, so they sum to
    one exactly; zero-probability successors of the query pair are never selected.
    """
    check_query(m, obs, query_pair)
    row = m.transition[query_pair[0], query_pair[1]]
    cols = support_columns(row > 0)[None]
    return _posterior_probs(m.transition[obs[0], obs[1]], obs[2], _score_table(cols, row[cols]),
                            *_prior_gumbels(rng_from(seed), num_samples, m.num_states))[0]


def build_gumbel_cfmdp(m: Mdp, path: ObservedPath, num_samples: int, seed: int) -> PointCfMdp:
    """Point CFMDP: at step t every (s, a) row replays one posterior noise draw from
    `rng_from(seed, t)`, scored once per distinct compact row."""
    check_path(m, path)
    t_len, n, k = path.horizon, m.num_states, m.num_actions
    transition = np.empty((t_len, n * k, n))
    cols = m.support_cols.reshape(n * k, -1)
    rows = np.hstack([cols, np.take_along_axis(m.transition.reshape(n * k, n), cols, axis=1)])
    query, pair_row = np.unique(rows, axis=0, return_inverse=True)
    cand, probs = np.split(query, 2, axis=1)
    table = _score_table(cand.astype(np.int64), probs)
    for t in range(t_len):
        s_t, a_t, s_next = path.step(t)
        top, noise = _prior_gumbels(rng_from(seed, t), num_samples, n)
        transition[t] = _posterior_probs(m.transition[s_t, a_t], s_next, table, top,
                                         noise)[pair_row]
    return PointCfMdp(t_len, transition.reshape(t_len, n, k, n), seed)


def gumbel_cfmdp_to_json(cf: PointCfMdp, base: Mdp, path: ObservedPath,
                         num_samples: int) -> dict:
    """Serialize as one MDP JSON per time layer (initial state pinned to the path's)."""
    initial = np.zeros(base.num_states)
    initial[path.states[0]] = 1.0
    layers = [mdp_to_json(Mdp(base.num_states, base.num_actions, layer, base.reward, initial))
              for layer in cf.transition]
    return {"horizon": cf.horizon, "seed": cf.seed, "layers": layers,
            "num_samples": num_samples}
