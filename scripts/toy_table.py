#!/usr/bin/env python3
"""Print the counterfactual-probability comparison on the 3-state toy MDP.

For the observed transition 0 -> 1, shows per transition: the nominal probability,
the assumption-free bounds, the Gumbel-max Monte-Carlo estimate (the rows of the
library's Gumbel CFMDP, `build_gumbel_cfmdp`, at step 0), and the bounds under
stability + monotonicity.
"""

import argparse

from icfmdp import (Assumptions, ObservedPath, build_gumbel_cfmdp, build_interval_cfmdp,
                    build_toy_mdp)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    m = build_toy_mdp()
    path = ObservedPath((0, 1), (0,))
    none = build_interval_cfmdp(m, path, Assumptions.NONE)
    csm = build_interval_cfmdp(m, path, Assumptions.CS_MON)
    gumbel = build_gumbel_cfmdp(m, path, args.samples, args.seed).transition[0]

    print(f"observed: state 0 --(action 0)--> state 1   (gumbel N={args.samples})")
    print(f"{'s':>2} {'a':>2} {'s_next':>6} {'nominal':>8} "
          f"{'no-assum lb':>11} {'ub':>5} {'gumbel':>7} {'cs+mon lb':>9} {'ub':>5}")
    for s in range(3):
        for s2 in range(3):
            print(f"{s:>2} {0:>2} {s2:>6} {m.transition[s, 0, s2]:>8.2f} "
                  f"{none.lb[0, s, 0, s2]:>11.2f} {none.ub[0, s, 0, s2]:>5.2f} "
                  f"{gumbel[s, 0, s2]:>7.3f} "
                  f"{csm.lb[0, s, 0, s2]:>9.2f} {csm.ub[0, s, 0, s2]:>5.2f}")


if __name__ == "__main__":
    main()
