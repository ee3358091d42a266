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
probabilities) of the base MDP, keyed on each row's bytes. Their score table, built once
per CFMDP, keys the R x W entries on their P distinct (column, log-probability) pairs, as
the complex numbers column + 1j * probability. It holds the scratch that every step
overwrites (the step's uniforms, its Gumbels and the scores), so a step allocates no
large array. A step scores each distinct entry once against all N draws, (P, N), and each
row takes its running maximum over its W positions from those scores. A draw goes to the
first column attaining its row's maximum, the lower state index on a tie: position w
claims the draws whose maximum is reached at w but not before, counted by popcount over
the reached masks packed into bits. Equal rows see the same noise, so they get equal
probabilities. The frequencies go straight into every (s, a) row of the step in the dense
(T, S, A, S) output, through one flat index made once per CFMDP.

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
    with the scratch arrays that each step of N draws over S states overwrites."""

    entry: np.ndarray  # (W, R) each (position, row)'s index among the P distinct entries
    entry_col: np.ndarray  # (P,) successor column of each distinct entry
    entry_log_q: np.ndarray  # (P, 1) its log-probability, -inf on padding
    uniforms: np.ndarray  # (N * (S + 1),) scratch: the step's doubles of `rng.random`
    gumbels: np.ndarray  # (S + 1, N) scratch: the prior draws `top` and (S, N) noise
    sums: np.ndarray  # (P, N) scratch: noise[entry_col] + entry_log_q
    running: np.ndarray  # (W, R, N) scratch: each row's running maximum over positions
    reached: np.ndarray  # (W - 1, R, N) scratch: running maximum == row maximum


def _score_table(cols: np.ndarray, probs: np.ndarray, num_states: int,
                 num_samples: int) -> _ScoreTable:
    """Score table of (R, W) compact query rows: `cols`, each row's support columns padded
    to the widest support W (`support_columns`), and `probs`, their probabilities (0 on
    padding), keyed on their distinct (column, probability) entries, with the scratch
    arrays for steps of `num_samples` draws over `num_states` states."""
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    entries, entry = np.unique(cols + 1j * probs, return_inverse=True)
    log_q = np.full((len(entries), 1), -np.inf)
    np.log(entries.imag[:, None], out=log_q, where=entries.imag[:, None] > 0)
    (r, w), p = cols.shape, len(entries)
    return _ScoreTable(entry.reshape(r, w).T.copy(), entries.real.astype(np.int64), log_q,
                       np.empty(num_samples * (num_states + 1)),
                       np.empty((num_states + 1, num_samples)), np.empty((p, num_samples)),
                       np.empty((w, r, num_samples)), np.empty((w - 1, r, num_samples), bool))


def _prior_gumbels(rng: np.random.Generator,
                   table: _ScoreTable) -> tuple[np.ndarray, np.ndarray]:
    """Prior draws `top` (N,) and `noise`, returned as (S, N), of `rng.gumbel(size=N)` and
    `rng.gumbel(size=(N, S))`, with its doubles, formula and rejections, drawn into the
    table's scratch."""
    u = rng.random(out=table.uniforms)
    while not u.all():
        u = np.concatenate([u[u != 0], rng.random(u.size - np.count_nonzero(u))])
    g, num_samples = table.gumbels, table.gumbels.shape[1]
    np.subtract(1.0, u[:num_samples], out=g[0])
    np.subtract(1.0, u[num_samples:].reshape(num_samples, -1).T, out=g[1:])
    for _ in range(2):
        np.negative(np.log(g, out=g), out=g)
    return g[0], g[1:]


def _posterior_probs(obs_row: np.ndarray, s_next: int, table: _ScoreTable, top: np.ndarray,
                     noise: np.ndarray) -> np.ndarray:
    """Counterfactual probabilities, (W, R), of each position of the `_score_table` rows
    for one possible observed step, from prior draws `top` (N,) and `noise` (S, N), which
    becomes the posterior.

    Each draw goes to the first column attaining its row's maximum, so ties go to the
    lower state index and padding (-inf) never wins. Entries are argmax frequencies: each
    row's positions sum to one, and padding gets zero.
    """
    support = np.flatnonzero(obs_row > 0)
    logit = np.log(obs_row[support])[:, None]
    post = noise[support]
    np.logaddexp(-top, np.negative(np.add(post, logit, out=post), out=post), out=post)
    noise[support] = np.subtract(np.negative(post, out=post), logit, out=post)
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
    return counts / num_samples


def build_gumbel_cfmdp(m: Mdp, path: ObservedPath, num_samples: int, seed: int) -> PointCfMdp:
    """Point CFMDP: at step t every (s, a) row replays one posterior noise draw from
    `rng_from(seed, t)`, scored once per distinct compact row."""
    check_path(m, path)
    t_len, n, k = path.horizon, m.num_states, m.num_actions
    cols = m.support_cols.reshape(n * k, -1)
    probs = np.take_along_axis(m.transition.reshape(n * k, n), cols, axis=1)
    # Each compact row's bytes are its key: a -0.0 apart from a 0.0 splits two rows
    # that then score alike.
    rows = np.hstack([cols, probs])
    _, first, pair_row = np.unique(rows.view(np.dtype((np.void, rows[0].nbytes))).ravel(),
                                   return_index=True, return_inverse=True)
    table = _score_table(cols[first], probs[first], n, num_samples)
    # flat[w, i]: the place of row i's position-w column in one step's (S * A, S) rows.
    flat = (cols + n * np.arange(n * k)[:, None]).T
    transition = np.zeros((t_len, n * k, n))
    for t in range(t_len):
        s_t, a_t, s_next = path.step(t)
        probs_t = _posterior_probs(m.transition[s_t, a_t], s_next, table,
                                   *_prior_gumbels(rng_from(seed, t), table))
        np.put(transition[t], flat, probs_t[:, pair_row])
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
