import os
import subprocess
import sys
from pathlib import Path

from icfmdp import ObservedPath, build_gumbel_cfmdp, build_toy_mdp

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
                          capture_output=True, text=True, env=env)


def test_toy_table_gumbel_column():
    res = run_script("toy_table.py", "--samples", "20000")
    assert res.returncode == 0, res.stderr
    # columns: s a s_next nominal no-assum-lb ub gumbel cs+mon-lb ub
    cells = {(int(f[0]), int(f[2])): f[6] for f in map(str.split, res.stdout.splitlines())
             if len(f) == 9 and f[0].isdigit()}
    assert len(cells) == 9
    gumbel = {key: float(cell) for key, cell in cells.items()}
    assert abs(gumbel[1, 0] - 0.35) <= 0.02
    assert gumbel[1, 1] == 0.0
    assert abs(gumbel[1, 2] - 0.65) <= 0.02
    # the column is the library's Gumbel CFMDP at the script's default seed
    cf = build_gumbel_cfmdp(build_toy_mdp(), ObservedPath((0, 1), (0,)), 20000, 0)
    assert cells == {(s, s2): f"{cf.transition[0, s, 0, s2]:.3f}" for s, s2 in cells}


def test_run_all_quick(tmp_path):
    res = run_script("run_all.py", "--quick", "--out", tmp_path)
    assert res.returncode == 0, res.stderr
    for env in ("gridworld-p0.9", "gridworld-p0.4", "frozen_lake"):
        for study in ("ope", "robustness", "boundstats", "boundstats_detail", "timing", "traces"):
            lines = (tmp_path / env / f"{study}.csv").read_text().splitlines()
            assert len(lines) > 1, (env, study)
