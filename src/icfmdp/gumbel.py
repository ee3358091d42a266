"""Gumbel-max SCM baseline: the Monte-Carlo counterfactual MDP of an observed path, by
posterior noise inference at each observed transition. `build_gumbel_cfmdp` is the one
entry point; step t draws its noise from `rng_from(seed, t)`.

In the Gumbel-max SCM (Oberst & Sontag, 2019) a categorical draw is the argmax of its
log-probabilities plus one exogenous Gumbel per state, and that one noise vector drives
every counterfactual of the step. Conditioned on the observed outcome, the posterior
noise is sampled top-down (Maddison, Tarlow & Minka, 2014): the maximum is a standard
Gumbel (the row's log-normalizer is 0), it is assigned to the observed state, and every
other in-support state gets a Gumbel truncated below the maximum. States outside the
observed row's support are unconstrained by the observation, so their posterior equals
the prior. One batched kernel draws the noise once per step and replays it through the
distinct compact rows (support columns padded to the widest support W, and their
probabilities) of the base MDP. Their score table, built once per CFMDP, keys the R x W
entries on their P distinct (column, log-probability) pairs and holds the scratch arrays
that every step's scoring overwrites, so scoring allocates no large array per step. A
step scores each distinct entry once against all N draws, (P, N), and each row takes its
running maximum over its W positions from those scores. A draw goes to the first column
attaining its row's maximum, the lower state index on a tie: position w claims the draws
whose maximum is reached at w but not before, counted by popcount over the reached masks
packed into bits. Equal rows see the same noise, so they get equal probabilities. The
output is a dense (T, S, A, S) CFMDP.

The prior noise is drawn a whole array at a time as `rng.gumbel` draws it: numpy maps each
double U of `rng.random` to -log(-log(1 - U)) and redraws on U = 0, so the same doubles in
the same order consume the same stream. Values may differ from `rng.gumbel`'s in the last
bit, as numpy's vectorized `log` rounds differently from the C library's.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .mdp import Mdp, ObservedPath, PointCfMdp, check_path, mdp_to_json, rng_from


class _ScoreTable(NamedTuple):
    """Distinct (successor column, log-probability) entries of (R, W) compact query rows,
    with the scratch arrays that each step of N draws overwrites."""

    cols: np.ndarray  # (R, W) support columns of each row, padded (`support_columns`)
    entry: np.ndarray  # (W, R) each (position, row)'s index among the P distinct entries
    entry_col: np.ndarray  # (P,) successor column of each distinct entry
    entry_log_q: np.ndarray  # (P, 1) its log-probability, -inf on padding
    sums: np.ndarray  # (P, N) scratch: noise[entry_col] + entry_log_q
    running: np.ndarray  # (W, R, N) scratch: each row's running maximum over positions
    reached: np.ndarray  # (W - 1, R, N) scratch: running maximum == row maximum


def _score_table(cols: np.ndarray, probs: np.ndarray, num_samples: int) -> _ScoreTable:
    """Score table of (R, W) compact query rows: `cols`, each row's support columns padded
    to the widest support W (`support_columns`), and `probs`, their probabilities (0 on
    padding), keyed on their distinct (column, probability) entries, with the scratch
    arrays for steps of `num_samples` draws."""
    pairs = np.stack([cols, probs], axis=-1).reshape(-1, 2)
    entries, entry = np.unique(pairs, axis=0, return_inverse=True)
    log_q = np.full((len(entries), 1), -np.inf)
    np.log(entries[:, 1:], out=log_q, where=entries[:, 1:] > 0)
    r, w = cols.shape
    return _ScoreTable(cols, entry.reshape(r, w).T.copy(), entries[:, 0].astype(np.int64),
                       log_q, np.empty((len(entries), num_samples)),
                       np.empty((w, r, num_samples)), np.empty((w - 1, r, num_samples), bool))


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


def _posterior_probs(obs_row: np.ndarray, s_next: int, table: _ScoreTable, top: np.ndarray,
                     noise: np.ndarray) -> np.ndarray:
    """Counterfactual probabilities of the `_score_table` rows for one possible observed
    step, from prior draws `top` (N,) and `noise` (S, N), which becomes the posterior.

    Each draw goes to the first column attaining its row's maximum, so ties go to the
    lower state index and padding (-inf) never wins. Entries are argmax frequencies: rows
    sum to one and are zero off the query support.
    """
    in_support = obs_row > 0
    logit = np.log(obs_row[in_support])[:, None]
    noise[in_support] = -np.logaddexp(-top, -(logit + noise[in_support])) - logit
    noise[s_next] = top - np.log(obs_row[s_next])

    # mode="clip" lets `take` write straight into `out` (it buffers under "raise").
    sums = np.take(noise, table.entry_col, axis=0, out=table.sums, mode="clip")
    sums += table.entry_log_q
    running = np.take(sums, table.entry, axis=0, out=table.running, mode="clip")
    for w in range(1, running.shape[0]):
        np.maximum(running[w - 1], running[w], out=running[w])
    # reached[w]: the draws whose row maximum is attained at a position <= w. Position w
    # claims those reached at w but not before, so its count is a difference of the
    # masks' popcounts, taken on their bits packed along the draws; the last takes the rest.
    reached = np.equal(running[:-1], running[-1], out=table.reached)
    reached_by = np.bitwise_count(np.packbits(reached, axis=-1)).sum(axis=-1, dtype=np.int64)
    num_samples = top.shape[0]
    counts = np.full(table.entry.shape, num_samples)
    counts[:-1] = reached_by
    counts[1:] -= reached_by
    out = np.zeros(table.cols.shape[:1] + obs_row.shape)
    np.put_along_axis(out, table.cols, counts.T, axis=1)
    return out / num_samples


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
    table = _score_table(cand.astype(np.int64), probs, num_samples)
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
