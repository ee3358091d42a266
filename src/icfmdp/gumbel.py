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
distinct rows of the base MDP: query pairs with equal rows see the same noise, so they
get equal probabilities, and each distinct row is scored once. The output stays a dense
(T, S, A, S) point CFMDP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mdp import Mdp, ObservedPath, rng_from, validate_path


@dataclass(frozen=True)
class GumbelCfMdp:
    """Point (non-interval) counterfactual MDP estimated from posterior Gumbel samples."""

    horizon: int
    transition: np.ndarray  # (T, S, A, S)
    num_samples: int
    seed: int

    def __post_init__(self):
        self.transition.setflags(write=False)


def _gumbel_rows(obs_row: np.ndarray, s_next: int, query: np.ndarray, num_samples: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Counterfactual probabilities of every query row of (R, S) for one observed step.

    One posterior noise draw of shape (num_samples, S) is shared by all rows. Each row is
    scored only on its support, padded to the widest support, and its argmax is taken
    column by column with a strict `>`, so ties go to the lower state index. Entries are
    argmax frequencies, so rows sum to one and are zero off the query support.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    if not obs_row[s_next] > 0:
        raise ValueError(f"path invalid for this MDP: observed outcome {s_next} has zero "
                         "probability")
    num_rows, n = query.shape
    top = rng.gumbel(size=num_samples)
    noise = rng.gumbel(size=(num_samples, n))
    in_support = obs_row > 0
    logit = np.log(obs_row[in_support])
    noise[:, in_support] = -np.logaddexp(-top[:, None], -(logit + noise[:, in_support])) - logit
    noise[:, s_next] = top - np.log(obs_row[s_next])

    width = int((query > 0).sum(axis=1).max())
    cand = np.argsort(query <= 0, axis=1, kind="stable")[:, :width]  # support first, ascending
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


def gumbel_cf_probs(m: Mdp, obs: tuple[int, int, int], query_pair: tuple[int, int],
                    num_samples: int, seed: int) -> np.ndarray:
    """Monte-Carlo counterfactual transition probabilities for one query pair.

    Entries are argmax frequencies over `num_samples` posterior draws, so they sum to
    one exactly; zero-probability successors of the query pair are never selected.
    """
    s_t, a_t, s_next = obs
    query = m.transition[query_pair[0], query_pair[1]][None]
    return _gumbel_rows(m.transition[s_t, a_t], s_next, query, num_samples, rng_from(seed))[0]


def build_gumbel_cfmdp(m: Mdp, path: ObservedPath, num_samples: int, seed: int) -> GumbelCfMdp:
    """Point CFMDP: at step t every (s, a) row replays one posterior noise draw from
    `rng_from(seed, t)`, scored once per distinct transition row."""
    problems = validate_path(m, path)
    if problems:
        raise ValueError("path invalid for this MDP: " + "; ".join(problems))
    t_len, n, k = path.horizon, m.num_states, m.num_actions
    transition = np.empty((t_len, n, k, n))
    query, pair_row = np.unique(m.transition.reshape(n * k, n), axis=0, return_inverse=True)
    pair_row = pair_row.reshape(n, k)
    for t in range(t_len):
        s_t, a_t, s_next = path.step(t)
        transition[t] = _gumbel_rows(m.transition[s_t, a_t], s_next, query, num_samples,
                                     rng_from(seed, t))[pair_row]
    return GumbelCfMdp(t_len, transition, num_samples, seed)


def gumbel_cfmdp_to_json(cf: GumbelCfMdp, base: Mdp, path: ObservedPath) -> dict:
    """Serialize as one MDP JSON per time layer (initial state pinned to the path's)."""
    initial = np.zeros(base.num_states)
    initial[path.states[0]] = 1.0
    layers = [{"num_states": base.num_states, "num_actions": base.num_actions,
               "transition": layer.tolist(), "reward": base.reward.tolist(),
               "initial_dist": initial.tolist()} for layer in cf.transition]
    return {"horizon": cf.horizon, "seed": cf.seed, "layers": layers,
            "num_samples": cf.num_samples}
