import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_toy_table_gumbel_column():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / "toy_table.py"),
                          "--samples", "20000"], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    # columns: s a s_next nominal no-assum-lb ub gumbel cs+mon-lb ub
    gumbel = {(int(f[0]), int(f[2])): float(f[6]) for f in map(str.split, res.stdout.splitlines())
              if len(f) == 9 and f[0].isdigit()}
    assert len(gumbel) == 9
    assert abs(gumbel[1, 0] - 0.35) <= 0.02
    assert gumbel[1, 1] == 0.0
    assert abs(gumbel[1, 2] - 0.65) <= 0.02
