"""The benchmark's four workloads.

Each workload makes its inputs from the seed (`setup`), runs the timed pipeline on one
input (`run`) and checks the output (`check`). One input is one observed path, processed
fully; on `verify-random` it is one observed transition of one MDP. Only public
functions of `icfmdp` are called, and every call into a library module sits inside a
span, so a traced run can charge its time to that module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from icfmdp import (Assumptions, Mdp, Mode, ObservedPath, PolicySchedule,
                    build_frozen_lake, build_gridworld, build_gumbel_cfmdp,
                    build_interval_cfmdp, build_toy_mdp, enumerate_theta_bounds,
                    gridworld_spec, optimal_policy, oracle_bounds, point_policy_eval,
                    point_value_iteration, random_policy_schedule, rng_from,
                    robust_policy_eval, robust_value_iteration, rollout_rewards,
                    sample_cfmdp, sample_path, transition_row_bounds)
from icfmdp.envs import GridSpec

import checks
from spans import Tracer

HORIZON = 10
GUMBEL_SAMPLES = 1000
CF_SAMPLES = 10  # sampled CFMDPs per path on traces-lake
ROLLOUTS = 1000  # rollouts per policy per sampled CFMDP
# Random-MDP sizes (states, actions) as the acceptance suite's oracle check draws them;
# odd entries are sparse. Mechanism enumeration runs where S ** (S * A) <= 27.
VERIFY_SIZES = ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2))
ENUMERATION_MAX = 27
# Stream tags of icfmdp.experiments, so that a seed gives the paths run_ope draws.
TAG_POLICY, TAG_PATH, TAG_GUMBEL, TAG_CF_SAMPLE, TAG_ROLLOUT = 1, 2, 3, 4, 5
TAG_VERIFY = 6
ASSUMPTIONS = (Assumptions.NONE, Assumptions.CS, Assumptions.CS_MON)


def derived_seed(*words: int) -> int:
    return int(np.random.SeedSequence([int(w) for w in words]).generate_state(1)[0])


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, Tracer], list]
    run: Callable[[Any, Tracer], Any]
    check: Callable[[Any, Any], None]


# ---------------------------------------------------------------------------
# Observed-path workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathInput:
    m: Mdp
    target: PolicySchedule  # finite-horizon optimal policy of the nominal MDP
    seed: int
    trial: int
    path: ObservedPath


def repeated_steps(path: ObservedPath) -> int:
    """Steps whose observed triple already occurred earlier in the path."""
    triples = [path.step(t) for t in range(path.horizon)]
    return len(triples) - len(set(triples))


def _path_inputs(build_env: Callable[[], Mdp], num_paths: int):
    """Behaviour paths from random deterministic policies, drawn as run_ope draws them."""
    def setup(seed: int, tr: Tracer) -> list[PathInput]:
        with tr.span("envs.build"):
            m = build_env()
        with tr.span("mdp.optimal_policy"):
            target, _ = optimal_policy(m, HORIZON)
        inputs = []
        for trial in range(num_paths):
            behaviour = random_policy_schedule(m.num_states, m.num_actions, HORIZON,
                                               rng_from(seed, TAG_POLICY, trial))
            with tr.span("mdp.sample_path"):
                path = sample_path(m, behaviour, HORIZON, derived_seed(seed, TAG_PATH, trial))
            inputs.append(PathInput(m, target, seed, trial, path))
        return inputs
    return setup


def _interval_cfmdp(x: PathInput, tr: Tracer):
    with tr.span("bounds.build"):
        icf = build_interval_cfmdp(x.m, x.path, Assumptions.CS_MON)
    tr.count("bounds.rows", icf.lb.shape[0] * icf.lb.shape[1] * icf.lb.shape[2])
    tr.count("bounds.icfmdp_mb", (icf.lb.nbytes + icf.ub.nbytes) / 1e6)
    tr.count("bounds.repeated_steps", repeated_steps(x.path))
    return icf


def _gumbel_cfmdp(x: PathInput, tr: Tracer):
    with tr.span("gumbel.build"):
        gum = build_gumbel_cfmdp(x.m, x.path, GUMBEL_SAMPLES,
                                 derived_seed(x.seed, TAG_GUMBEL, x.trial))
    rows = x.path.horizon * x.m.num_states * x.m.num_actions
    tr.count("gumbel.rows", rows)
    tr.count("gumbel.draws", rows * GUMBEL_SAMPLES)
    return gum


def _check_gumbel(x: PathInput, gum) -> None:
    cs = build_interval_cfmdp(x.m, x.path, Assumptions.CS)
    checks.check_gumbel_cfmdp(x.m, x.path, gum.transition, cs.lb, cs.ub, GUMBEL_SAMPLES)


def _backup_rows(tr: Tracer, icf, per_state_actions: int, times: int) -> None:
    tr.count("robust.backup_rows", times * icf.horizon * icf.base.num_states * per_state_actions)


# ope-grid4 ------------------------------------------------------------------

def run_ope(x: PathInput, tr: Tracer) -> dict:
    """Pessimistic and optimistic OPE of the target policy, plus the Gumbel estimate."""
    icf = _interval_cfmdp(x, tr)
    with tr.span("robust.policy_eval"):
        pess = robust_policy_eval(icf, x.target, Mode.PESSIMISTIC)
    with tr.span("robust.policy_eval"):
        opt = robust_policy_eval(icf, x.target, Mode.OPTIMISTIC)
    _backup_rows(tr, icf, 1, 2)
    gum = _gumbel_cfmdp(x, tr)
    with tr.span("robust.point"):
        gum_value = point_policy_eval(gum.transition, x.m.reward, x.target)
    return {"icf": icf, "pess": pess, "opt": opt, "gumbel": gum, "gumbel_value": gum_value}


def check_ope(x: PathInput, out: dict) -> None:
    checks.check_icfmdp(x.m, x.path, out["icf"].lb, out["icf"].ub)
    checks.check_order(out["pess"].values, out["opt"].values,
                       "target policy: pessimistic <= optimistic")
    if not np.all(np.isfinite(out["gumbel_value"].values)):
        raise checks.CheckFailed("Gumbel point value is not finite")
    _check_gumbel(x, out["gumbel"])


# traces-lake ----------------------------------------------------------------

def run_traces(x: PathInput, tr: Tracer) -> dict:
    """The run_cf_traces pipeline: robust VI, Gumbel policy, sampled CFMDPs, rollouts."""
    m, s0 = x.m, x.path.states[0]
    icf = _interval_cfmdp(x, tr)
    with tr.span("robust.vi"):
        robust = robust_value_iteration(icf, m.reward, Mode.PESSIMISTIC)
    _backup_rows(tr, icf, m.num_actions, 1)
    gum = _gumbel_cfmdp(x, tr)
    with tr.span("robust.point"):
        gum_policy, _ = point_value_iteration(gum.transition, m.reward)
    policies = (robust.policy, gum_policy)
    sampled, returns = [], []
    for j in range(CF_SAMPLES):
        with tr.span("robust.sample"):
            cf = sample_cfmdp(icf, derived_seed(x.seed, TAG_CF_SAMPLE, x.trial, j))
        tr.count("robust.sampled_rows", icf.horizon * m.num_states * m.num_actions)
        per_policy = []
        for idx, policy in enumerate(policies):
            with tr.span("robust.rollout"):
                rewards = rollout_rewards(cf.transition, m.reward, policy, s0, ROLLOUTS,
                                          derived_seed(x.seed, TAG_ROLLOUT, x.trial, j, idx))
            tr.count("robust.rollout_steps", rewards.size)
            per_policy.append(rewards.sum(axis=1))
        sampled.append(cf.transition)
        returns.append(per_policy)
    return {"icf": icf, "robust": robust, "gumbel": gum, "policies": policies,
            "sampled": sampled, "returns": returns}


def check_traces(x: PathInput, out: dict) -> None:
    m, icf, s0 = x.m, out["icf"], x.path.states[0]
    checks.check_icfmdp(m, x.path, icf.lb, icf.ub)
    _check_gumbel(x, out["gumbel"])
    v_robust = out["robust"].values.values
    for name, policy in (("nominal-optimal", x.target), ("Gumbel", out["policies"][1])):
        other = robust_policy_eval(icf, policy, Mode.PESSIMISTIC).values
        checks.check_order(other, v_robust,
                           f"robust-VI pessimistic value >= that of the {name} policy")
    brackets = []
    for policy in out["policies"]:
        pess = robust_policy_eval(icf, policy, Mode.PESSIMISTIC).values
        opt = robust_policy_eval(icf, policy, Mode.OPTIMISTIC).values
        checks.check_order(pess, opt, "pessimistic <= optimistic")
        brackets.append((pess, opt))
    for j, (transition, per_policy) in enumerate(zip(out["sampled"], out["returns"])):
        checks.check_sampled_cfmdp(icf.lb, icf.ub, transition)
        for idx, (policy, (pess, opt)) in enumerate(zip(out["policies"], brackets)):
            exact = point_policy_eval(transition, m.reward, policy).values
            what = f"sampled CFMDP {j}, policy {idx}"
            checks.check_within(exact, pess, opt, what)
            checks.check_rollout_mean(per_policy[idx], float(exact[0, s0]), what)


# solve-grid16 ---------------------------------------------------------------

GRID16 = GridSpec(width=16, height=16, start=(0, 0), goal=(15, 15),
                  danger_cells=frozenset({(3, 4), (5, 12), (8, 8), (12, 5)}), p_intended=0.9)


def run_solve(x: PathInput, tr: Tracer) -> dict:
    """ICFMDP, pessimistic and optimistic robust VI, and robust evaluation of the target."""
    m = x.m
    icf = _interval_cfmdp(x, tr)
    with tr.span("robust.vi"):
        vi_pess = robust_value_iteration(icf, m.reward, Mode.PESSIMISTIC)
    with tr.span("robust.vi"):
        vi_opt = robust_value_iteration(icf, m.reward, Mode.OPTIMISTIC)
    _backup_rows(tr, icf, m.num_actions, 2)
    with tr.span("robust.policy_eval"):
        ev_pess = robust_policy_eval(icf, x.target, Mode.PESSIMISTIC)
    with tr.span("robust.policy_eval"):
        ev_opt = robust_policy_eval(icf, x.target, Mode.OPTIMISTIC)
    _backup_rows(tr, icf, 1, 2)
    return {"icf": icf, "vi_pess": vi_pess.values.values, "vi_opt": vi_opt.values.values,
            "ev_pess": ev_pess.values, "ev_opt": ev_opt.values}


def check_solve(x: PathInput, out: dict) -> None:
    m, icf = x.m, out["icf"]
    checks.check_icfmdp(m, x.path, icf.lb, icf.ub)
    checks.check_order(out["vi_pess"], out["vi_opt"], "robust VI: pessimistic <= optimistic")
    checks.check_order(out["ev_pess"], out["ev_opt"], "target policy: pessimistic <= optimistic")
    checks.check_order(out["ev_pess"], out["vi_pess"],
                       "robust-VI pessimistic value >= that of the nominal-optimal policy")
    checks.check_order(out["ev_opt"], out["vi_opt"],
                       "robust-VI optimistic value >= that of the nominal-optimal policy")
    # Re-solve a few backups by LP: two observed states and one drawn from the trial.
    rng = rng_from(x.seed, TAG_PATH, x.trial, 1)
    spots = [(0, x.path.states[0]), (HORIZON // 2, x.path.states[HORIZON // 2]),
             (int(rng.integers(HORIZON)), int(rng.integers(m.num_states)))]
    for t, s in spots:
        a = int(x.target.action_at[t, s])
        checks.check_backup(out["vi_pess"], icf.lb, icf.ub, m.reward, t, s, maximize=False)
        checks.check_backup(out["vi_opt"], icf.lb, icf.ub, m.reward, t, s, maximize=True)
        checks.check_backup(out["ev_pess"], icf.lb, icf.ub, m.reward, t, s, False, a)
        checks.check_backup(out["ev_opt"], icf.lb, icf.ub, m.reward, t, s, True, a)


# ---------------------------------------------------------------------------
# verify-random
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifyInput:
    label: str
    m: Mdp
    obs: tuple[int, int, int]
    pairs: tuple[tuple[int, int], ...]  # query pairs; every successor of each is verified
    enumerate: bool


def random_mdp(rng: np.random.Generator, n: int, k: int, sparse: bool) -> Mdp:
    """Dirichlet rows; `sparse` knocks out entries so that supports can be disjoint."""
    t = rng.dirichlet(np.ones(n), size=(n, k))
    if sparse:
        t = t * (rng.random((n, k, n)) < 0.4)
        for s in range(n):
            for a in range(k):
                if t[s, a].sum() == 0:
                    t[s, a, rng.integers(n)] = 1.0
        t = t / t.sum(axis=2, keepdims=True)
    return Mdp(n, k, t, rng.normal(size=(n, k)), rng.dirichlet(np.ones(n)))


def _observe(m: Mdp, rng: np.random.Generator, s: int, a: int) -> tuple[int, int, int]:
    return s, a, int(rng.choice(m.num_states, p=m.transition[s, a]))


def _all_pairs(m: Mdp) -> tuple[tuple[int, int], ...]:
    return tuple((s, a) for s in range(m.num_states) for a in range(m.num_actions))


def setup_verify(seed: int, tr: Tracer) -> list[VerifyInput]:
    """The toy MDP, one random MDP per size, and one GridWorld step (two query pairs)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, TAG_VERIFY]))
    with tr.span("envs.build"):
        toy = build_toy_mdp()
        mdps = [random_mdp(rng, n, k, sparse=bool(i % 2)) for i, (n, k) in enumerate(VERIFY_SIZES)]
        grid = build_gridworld(gridworld_spec(0.4))
    inputs = [VerifyInput("toy", toy, (0, 0, 1), _all_pairs(toy), True)]
    with tr.span("mdp.sample_path"):
        for i, m in enumerate(mdps):
            n, k = m.num_states, m.num_actions
            obs = _observe(m, rng, int(rng.integers(n)), int(rng.integers(k)))
            kind = "sparse" if i % 2 else "dense"
            inputs.append(VerifyInput(f"random-{n}x{k}-{kind}", m, obs, _all_pairs(m),
                                      n ** (n * k) <= ENUMERATION_MAX))
        movable = np.flatnonzero((grid.transition > 0).sum(axis=2).min(axis=1) > 1)
        obs = _observe(grid, rng, int(rng.choice(movable)), int(rng.integers(grid.num_actions)))
        other = (int(rng.integers(grid.num_states)), int(rng.integers(grid.num_actions)))
        inputs.append(VerifyInput("gridworld-step", grid, obs, (obs[:2], other), False))
    return inputs


def run_verify(x: VerifyInput, tr: Tracer) -> dict:
    """Closed-form rows, coupling-LP bounds and (small MDPs) mechanism enumeration for
    every query of the input under every assumption set; arrays are (2, pairs, S)."""
    n = x.m.num_states
    shape = (2, len(x.pairs), n)
    out = {}
    for asm in ASSUMPTIONS:
        closed, oracle = np.empty(shape), np.empty(shape)
        enum = np.empty(shape) if x.enumerate else None
        for i, pair in enumerate(x.pairs):
            with tr.span("bounds.row"):
                closed[0, i], closed[1, i] = transition_row_bounds(x.m, x.obs, pair, asm)
            tr.count("bounds.rows")
            for j in range(n):
                with tr.span("coupling.oracle"):
                    iv = oracle_bounds(x.m, x.obs, pair, j, asm)
                tr.count("coupling.oracle_calls")
                oracle[:, i, j] = iv.lb, iv.ub
                if enum is not None:
                    with tr.span("coupling.enumeration"):
                        iv = enumerate_theta_bounds(x.m, x.obs, (*pair, j), asm)
                    enum[:, i, j] = iv.lb, iv.ub
        out[asm] = (closed, oracle, enum)
    return out


def check_verify(x: VerifyInput, out: dict) -> None:
    for asm, (closed, oracle, enum) in out.items():
        checks.check_rows_agree(closed, oracle, f"{x.label} {asm.value}: closed form vs LP")
        if enum is not None:
            checks.check_rows_agree(oracle, enum,
                                    f"{x.label} {asm.value}: coupling vs enumeration")
    checks.check_nesting(*(out[asm][0] for asm in ASSUMPTIONS))
    if x.label == "toy":
        shape = (2, x.m.num_states, x.m.num_actions, x.m.num_states)
        checks.check_toy_table(out[Assumptions.NONE][0].reshape(shape),
                               out[Assumptions.CS_MON][0].reshape(shape))


WORKLOADS = {
    "ope-grid4": Workload("ope-grid4", _path_inputs(lambda: build_gridworld(gridworld_spec(0.4)), 8),
                          run_ope, check_ope),
    "traces-lake": Workload("traces-lake", _path_inputs(build_frozen_lake, 3),
                            run_traces, check_traces),
    "solve-grid16": Workload("solve-grid16", _path_inputs(lambda: build_gridworld(GRID16), 2),
                             run_solve, check_solve),
    "verify-random": Workload("verify-random", setup_verify, run_verify, check_verify),
}
