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
distinct rows of the base MDP, whose score table (support columns padded to the widest
support W, and their log-probabilities) is built once per CFMDP. Each step scores all R
rows against all N draws as one (W, R, N) block; each draw goes to the first column
attaining its row's maximum, the lower state index on a tie. Equal rows see the same
noise, so they get equal probabilities. The output is a dense (T, S, A, S) point CFMDP.
"""

from __future__ import annotations

import numpy as np

from .mdp import Mdp, ObservedPath, PointCfMdp, check_path, check_query, rng_from, support_columns


def _score_table(query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Score table of (R, S) query rows: `cand` (R, W), each row's support columns padded
    to the widest support W (`support_columns`, ascending), and their log-probabilities
    `log_q` (W, R, 1), -inf on padding."""
    cand = support_columns(query > 0)
    q_cand = np.take_along_axis(query, cand, axis=1).T[:, :, None]
    log_q = np.full(q_cand.shape, -np.inf)
    np.log(q_cand, out=log_q, where=q_cand > 0)
    return cand, log_q


def _gumbel_rows(obs_row: np.ndarray, s_next: int, table: tuple[np.ndarray, np.ndarray],
                 num_samples: int, rng: np.random.Generator) -> np.ndarray:
    """Counterfactual probabilities of the `_score_table` rows for one possible observed step.

    One posterior noise draw of shape (N, S) is shared by all R rows and scored on their W
    columns as one (W, R, N) block. Each draw goes to the first column attaining its row's
    maximum, so ties go to the lower state index and padding (-inf) never wins. Entries
    are argmax frequencies: rows sum to one and are zero off the query support.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    cand, log_q = table
    top = rng.gumbel(size=num_samples)
    noise = rng.gumbel(size=(num_samples, obs_row.shape[0]))
    in_support = obs_row > 0
    logit = np.log(obs_row[in_support])
    noise[:, in_support] = -np.logaddexp(-top[:, None], -(logit + noise[:, in_support])) - logit
    noise[:, s_next] = top - np.log(obs_row[s_next])

    score = np.ascontiguousarray(noise.T)[cand.T]  # (W, R, N), gathered from whole rows
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
    return out / num_samples


def gumbel_cf_probs(m: Mdp, obs: tuple[int, int, int], query_pair: tuple[int, int],
                    num_samples: int, seed: int) -> np.ndarray:
    """Monte-Carlo counterfactual transition probabilities for one query pair.

    Entries are argmax frequencies over `num_samples` posterior draws, so they sum to
    one exactly; zero-probability successors of the query pair are never selected.
    """
    check_query(m, obs, query_pair)
    table = _score_table(m.transition[query_pair[0], query_pair[1]][None])
    return _gumbel_rows(m.transition[obs[0], obs[1]], obs[2], table, num_samples, rng_from(seed))[0]


def build_gumbel_cfmdp(m: Mdp, path: ObservedPath, num_samples: int, seed: int) -> PointCfMdp:
    """Point CFMDP: at step t every (s, a) row replays one posterior noise draw from
    `rng_from(seed, t)`, scored once per distinct transition row."""
    check_path(m, path)
    t_len, n, k = path.horizon, m.num_states, m.num_actions
    transition = np.empty((t_len, n, k, n))
    query, pair_row = np.unique(m.transition.reshape(n * k, n), axis=0, return_inverse=True)
    pair_row = pair_row.reshape(n, k)
    table = _score_table(query)
    for t in range(t_len):
        s_t, a_t, s_next = path.step(t)
        transition[t] = _gumbel_rows(m.transition[s_t, a_t], s_next, table, num_samples,
                                     rng_from(seed, t))[pair_row]
    return PointCfMdp(t_len, transition, seed)


def gumbel_cfmdp_to_json(cf: PointCfMdp, base: Mdp, path: ObservedPath,
                         num_samples: int) -> dict:
    """Serialize as one MDP JSON per time layer (initial state pinned to the path's)."""
    initial = np.zeros(base.num_states)
    initial[path.states[0]] = 1.0
    layers = [{"num_states": base.num_states, "num_actions": base.num_actions,
               "transition": layer.tolist(), "reward": base.reward.tolist(),
               "initial_dist": initial.tolist()} for layer in cf.transition]
    return {"horizon": cf.horizon, "seed": cf.seed, "layers": layers,
            "num_samples": num_samples}
