import ast
import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from icfmdp import (Assumptions, build_gridworld, build_gumbel_cfmdp, build_interval_cfmdp,
                    build_toy_mdp, cli, gridworld_spec, load_mdp, mdp_to_json)
from icfmdp import coupling, experiments
from icfmdp.envs import MAX_GRID_SIDE, GridSpec
from icfmdp.errors import InvariantViolation
from icfmdp.experiments import RunConfig, run_ope
from icfmdp.lp import lp_solve
from helpers import loop_icfmdp_csv_rows, loop_icfmdp_json, path_to_json, random_path


@pytest.fixture
def run_cli(capsys):
    """Run `icfmdp` in-process through `cli.main`; returns its exit code (usage errors
    included) and captured output as a CompletedProcess."""
    def run(*args):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        captured = capsys.readouterr()
        return subprocess.CompletedProcess(args, code, captured.out, captured.err)
    return run


@pytest.fixture
def toy_files(tmp_path):
    assert cli.main(["env", "toy", "--out", str(tmp_path)]) == 0
    path_file = tmp_path / "path.json"
    path_file.write_text(json.dumps({"states": [0, 1], "actions": [0]}))
    return tmp_path / "toy.json", path_file


def test_env_emits_valid_json(run_cli):
    res = run_cli("env", "toy")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["num_states"] == 3
    assert payload["transition"][1][0] == [0.4, 0.0, 0.6]


def test_env_gridworld_with_p(run_cli):
    res = run_cli("env", "gridworld", "--p", "0.4")
    payload = json.loads(res.stdout)
    assert payload["num_states"] == 17


def test_unknown_env_is_config_error(run_cli):
    res = run_cli("env", "sepsis")
    assert res.returncode == 1


def test_unknown_flag_is_config_error():
    # Run through the module entry point, `python -m icfmdp.cli`, in its own process.
    res = subprocess.run([sys.executable, "-m", "icfmdp.cli", "env", "toy", "--frobnicate"],
                         capture_output=True, text=True)
    assert res.returncode == 1


def test_import_and_bounds_leave_scipy_unloaded(toy_files):
    # Only the LP oracle needs scipy: neither `import icfmdp` nor `icfmdp bounds` loads it.
    mdp_file, path_file = toy_files
    script = ("import sys, icfmdp\n"
              "loaded = ['scipy' in sys.modules]\n"
              "from icfmdp import cli\n"
              f"assert cli.main(['bounds', '--mdp', {str(mdp_file)!r}, "
              f"'--path', {str(path_file)!r}]) == 0\n"
              "print(loaded + ['scipy' in sys.modules], file=sys.stderr)")
    res = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stderr.strip() == "[False, False]"


def test_only_the_lp_layer_imports_scipy():
    # The private HiGHS binding stays in one place: no module but `icfmdp.lp` imports scipy.
    importers = []
    for file in sorted(Path(cli.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(file.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            if any(name.split(".")[0] == "scipy" for name in names):
                importers.append(file.name)
    assert importers == ["lp.py"]


def named(tree):
    """Every name, attribute, imported module part and string under an ast node."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (node.module or "").split(".")
            yield from (part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.Import):
            yield from (part for alias in node.names for part in alias.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_the_highs_binding_is_used_by_lp_solve_and_solver_alone():
    # A scipy change to its private binding should break one place: no other module names
    # `_highspy`, and in `lp.py` only `lp_solve` and `_solver` touch `highs`.
    src = Path(cli.__file__).parent
    namers = [f.name for f in sorted(src.rglob("*.py"))
              if any("_highspy" in name for name in named(ast.parse(f.read_text())))]
    assert namers == ["lp.py"]
    tree = ast.parse((src / "lp.py").read_text())
    users = {node.name for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and "highs" in named(node)}
    assert users == {"lp_solve", "_solver"}
    # Nor does any class or module-level statement but the import itself.
    assert [node for node in tree.body if not isinstance(node, (ast.FunctionDef, ast.ImportFrom))
            and "highs" in named(node)] == []


def test_bounds_json(run_cli, toy_files):
    mdp_file, path_file = toy_files
    res = run_cli("bounds", "--mdp", str(mdp_file), "--path", str(path_file),
                  "--assumptions", "cs+mon")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["horizon"] == 1
    iv = payload["intervals"][0][1][0][0]
    assert iv["lb"] == pytest.approx(0.4) and iv["ub"] == pytest.approx(0.4)


def test_bounds_csv(run_cli, toy_files, tmp_path):
    mdp_file, path_file = toy_files
    out = tmp_path / "csvout"
    res = run_cli("bounds", "--mdp", str(mdp_file), "--path", str(path_file),
                  "--csv", "--out", str(out))
    assert res.returncode == 0
    with open(out / "icfmdp.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    assert set(rows[0]) == {"t", "s", "a", "s_next", "lb", "ub"}


@pytest.mark.parametrize("assumptions", list(Assumptions))
@pytest.mark.parametrize("env", ["toy", "gridworld"])
def test_bounds_output_bytes_match_nested_loops(tmp_path, rng, env, assumptions):
    m = build_toy_mdp() if env == "toy" else build_gridworld(gridworld_spec(0.4))
    path = random_path(m, rng, 10)
    mdp_file, path_file = tmp_path / "mdp.json", tmp_path / "path.json"
    mdp_file.write_text(json.dumps(mdp_to_json(m)))
    path_file.write_text(json.dumps(path_to_json(path)))
    flags = ["bounds", "--mdp", str(mdp_file), "--path", str(path_file),
             "--assumptions", assumptions.value, "--out", str(tmp_path)]
    assert cli.main(flags) == 0 and cli.main(flags + ["--csv"]) == 0
    icf = build_interval_cfmdp(load_mdp(mdp_file), path, assumptions)
    want_csv = io.StringIO(newline="")
    writer = csv.writer(want_csv)
    writer.writerow(["t", "s", "a", "s_next", "lb", "ub"])
    writer.writerows(loop_icfmdp_csv_rows(icf))
    assert (tmp_path / "icfmdp.csv").read_bytes() == want_csv.getvalue().encode()
    assert ((tmp_path / "icfmdp.json").read_bytes()
            == (json.dumps(loop_icfmdp_json(icf), indent=2) + "\n").encode())


def test_verify_toy(run_cli, toy_files, tmp_path):
    mdp_file, path_file = toy_files
    res = run_cli("verify", "--mdp", str(mdp_file), "--path", str(path_file),
                  "--out", str(tmp_path / "v"))
    assert res.returncode == 0
    with open(tmp_path / "v" / "verify.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    for row in rows:
        assert float(row["delta"]) <= 1e-8


def test_verify_solves_each_observed_triple_once(toy_files, tmp_path, monkeypatch):
    mdp_file, path_file = toy_files
    path_file.write_text(json.dumps({"states": [0, 1, 0, 1], "actions": [0, 0, 0]}))
    solves = []

    def counting_solve(problem):
        solves.append(problem)
        return lp_solve(problem)

    monkeypatch.setattr("icfmdp.coupling.lp_solve", counting_solve)
    code = cli.main(["verify", "--mdp", str(mdp_file), "--path", str(path_file),
                     "--out", str(tmp_path / "v")])
    assert code == 0
    # two unique triples (0, 0, 1) and (1, 0, 0); one stacked LP each
    assert len(solves) == 2
    with open(tmp_path / "v" / "verify.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    assert len(rows) == 3 * 9
    assert [r[1:] for r in rows[18:]] == [r[1:] for r in rows[:9]]


def test_verify_disagreement_exits_2_after_writing_the_csv(run_cli, toy_files, tmp_path,
                                                            monkeypatch):
    mdp_file, path_file = toy_files
    oracle_layer = coupling.oracle_layer

    def moved(m, obs, assumptions):
        lb, ub = oracle_layer(m, obs, assumptions)
        lb[1, 0, 0] += 1e-6  # the closed form's [0.4, 0.4]
        return lb, ub

    monkeypatch.setattr(coupling, "oracle_layer", moved)
    res = run_cli("verify", "--mdp", str(mdp_file), "--path", str(path_file),
                  "--out", str(tmp_path / "v"))
    assert res.returncode == 2
    assert "closed-form bounds disagree with the LP oracle (max delta 1e-06)" in res.stderr
    with open(tmp_path / "v" / "verify.csv") as fh:
        rows = list(csv.DictReader(fh))
    moved_row = [r for r in rows if (r["s"], r["a"], r["s_next"]) == ("1", "0", "0")]
    assert [(r["closed_lb"], r["lp_lb"], r["delta"]) for r in moved_row] == [
        ("0.4", "0.400001", "1e-06")]
    assert all(float(r["delta"]) <= 1e-8 for r in rows if r not in moved_row)


def test_solve_pessimistic(run_cli, toy_files):
    mdp_file, path_file = toy_files
    res = run_cli("solve", "--mdp", str(mdp_file), "--path", str(path_file),
                  "--mode", "pessimistic")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["mode"] == "pessimistic"
    assert np.asarray(payload["values"]).shape == (2, 3)
    assert np.asarray(payload["policy"]).shape == (1, 3)


def test_gumbel_output_keeps_its_bytes(tmp_path):
    # One MDP JSON per layer, in `mdp_to_json`'s key order, pinned to the path's first state.
    m = build_gridworld(gridworld_spec(0.4))
    path = random_path(m, np.random.default_rng(3), 3)
    (tmp_path / "grid.json").write_text(json.dumps(mdp_to_json(m)))
    (tmp_path / "path.json").write_text(json.dumps(path_to_json(path)))
    assert cli.main(["gumbel", "--mdp", str(tmp_path / "grid.json"), "--path",
                     str(tmp_path / "path.json"), "--samples", "200", "--seed", "5",
                     "--out", str(tmp_path / "out")]) == 0
    cf = build_gumbel_cfmdp(m, path, 200, 5)
    initial = [0.0] * m.num_states
    initial[path.states[0]] = 1.0
    layers = [{"num_states": m.num_states, "num_actions": m.num_actions,
               "transition": layer.tolist(), "reward": m.reward.tolist(),
               "initial_dist": initial} for layer in cf.transition]
    expected = {"horizon": 3, "seed": 5, "layers": layers, "num_samples": 200}
    text = (tmp_path / "out" / "gumbel_cfmdp.json").read_text()
    assert text == json.dumps(expected, indent=2) + "\n"


def test_gumbel_with_policy(run_cli, toy_files):
    mdp_file, path_file = toy_files
    res = run_cli("gumbel", "--mdp", str(mdp_file), "--path", str(path_file),
                  "--samples", "500", "--with-policy", "--seed", "4")
    assert res.returncode == 0
    payload = json.loads(res.stdout)
    assert payload["num_samples"] == 500
    assert len(payload["layers"]) == 1
    row = payload["layers"][0]["transition"][1][0]
    assert abs(sum(row) - 1.0) < 1e-12
    assert "policy" in payload


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_gumbel_without_samples_is_config_error(run_cli, toy_files, samples):
    mdp_file, path_file = toy_files
    res = run_cli("gumbel", "--mdp", str(mdp_file), "--path", str(path_file),
                  "--samples", samples)
    assert_config_error(res)
    assert res.stderr.strip() == "config error: samples must be >= 1"


def test_malformed_mdp_is_config_error(run_cli, tmp_path, toy_files):
    _, path_file = toy_files
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"num_states": 2, "num_actions": 1,
                               "transition": [[[0.7, 0.2]], [[0.5, 0.5]]],
                               "reward": [[0.0], [0.0]], "initial_dist": [1.0, 0.0]}))
    res = run_cli("bounds", "--mdp", str(bad), "--path", str(path_file))
    assert res.returncode == 1


GRID_SPEC = {"width": 4, "height": 4, "start": [0, 0], "goal": [3, 3]}
# (input file flag, fields changed in a valid file, the field the error must name)
NON_INTEGER_INPUTS = {
    "path state 1.7": ("--path", {"states": [0, 1.7]}, "states[1]"),
    "path state true": ("--path", {"states": [0, True]}, "states[1]"),
    "path state '1'": ("--path", {"states": [0, "1"]}, "states[1]"),
    "mdp num_states 3.9": ("--mdp", {"num_states": 3.9}, "num_states"),
    "grid start 0.5": ("--grid-spec", {"start": [0, 0.5]}, "start"),
    "grid width 4.7": ("--grid-spec", {"width": 4.7}, "width"),
}


@pytest.mark.parametrize("flag, change, field", NON_INTEGER_INPUTS.values(),
                         ids=NON_INTEGER_INPUTS.keys())
def test_non_integer_json_integer_is_config_error(run_cli, toy_files, tmp_path, flag, change,
                                                  field):
    res = run_on_changed_input(run_cli, toy_files, tmp_path, flag, change)
    assert_config_error(res)
    assert res.stderr.startswith("config error: ") and f"{field} must be an integer" in res.stderr


def run_on_changed_input(run_cli, toy_files, tmp_path, flag, change):
    """`env gridworld --grid-spec` or `bounds` with the valid input of `flag` changed by
    `change`, the toy MDP and a one-step path otherwise."""
    mdp_file, path_file = toy_files
    valid = {"--mdp": json.loads(mdp_file.read_text()), "--grid-spec": GRID_SPEC,
             "--path": {"states": [0, 1], "actions": [0]}}[flag]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**valid, **change}))
    files = {"--mdp": mdp_file, "--path": path_file, flag: bad}
    return run_cli(*(["env", "gridworld", "--grid-spec", str(bad)] if flag == "--grid-spec" else
                     ["bounds", "--mdp", str(files["--mdp"]), "--path", str(files["--path"])]))


TOY_TRANSITION = [[[0.3, 0.4, 0.3]], [[0.4, 0.0, 0.6]], [[0.0, 0.0, 1.0]]]
# (input file flag, fields changed in a valid file, the field the error must name and
# what it must be)
NON_NUMBER_INPUTS = {
    "grid p_intended true": ("--grid-spec", {"p_intended": True}, "p_intended must be a number"),
    "grid goal_reward '5'": ("--grid-spec", {"goal_reward": "5"}, "goal_reward must be a number"),
    "grid danger_reward null": ("--grid-spec", {"danger_reward": None},
                                "danger_reward must be a number"),
    "mdp reward true": ("--mdp", {"reward": [[0.0], [True], [0.0]]},
                        "reward[1][0] must be a number"),
    "mdp reward false": ("--mdp", {"reward": [[False], [0.0], [0.0]]},
                         "reward[0][0] must be a number"),
    "mdp reward '1'": ("--mdp", {"reward": [[0.0], [0.0], ["1"]]},
                       "reward[2][0] must be a number"),
    "mdp transition true": ("--mdp", {"transition": [*TOY_TRANSITION[:2], [[0, 0, True]]]},
                            "transition[2][0][2] must be a number"),
    "mdp initial_dist '1'": ("--mdp", {"initial_dist": ["1", 0, 0]},
                             "initial_dist[0] must be a number"),
    "mdp state_labels 'abc'": ("--mdp", {"state_labels": "abc"},
                               "state_labels must be a list of strings"),
    "mdp state_labels ints": ("--mdp", {"state_labels": [0, 1, 2]},
                              "state_labels must be a list of strings"),
}


@pytest.mark.parametrize("flag, change, message", NON_NUMBER_INPUTS.values(),
                         ids=NON_NUMBER_INPUTS.keys())
def test_non_number_json_number_is_config_error(run_cli, toy_files, tmp_path, flag, change,
                                                message):
    res = run_on_changed_input(run_cli, toy_files, tmp_path, flag, change)
    assert_config_error(res)
    assert res.stderr.startswith("config error: ") and message in res.stderr


@pytest.mark.parametrize("flag, change", [("--grid-spec", {"goal_reward": 10**400}),
                                          ("--mdp", {"reward": [[10**400], [0.0], [0.0]]})])
def test_integer_beyond_float_range_is_config_error(run_cli, toy_files, tmp_path, flag, change):
    assert_config_error(run_on_changed_input(run_cli, toy_files, tmp_path, flag, change))


def test_integer_json_numbers_load_as_their_floats(toy_files, tmp_path):
    mdp_file, _ = toy_files
    d = json.loads(mdp_file.read_text())
    d.update(reward=[[1], [0], [-2]], initial_dist=[1, 0, 0])
    d["transition"][2] = [[0, 0, 1]]
    ints = tmp_path / "ints.json"
    ints.write_text(json.dumps(d))
    got, toy = load_mdp(ints), load_mdp(mdp_file)
    assert np.array_equal(got.transition, toy.transition)
    assert got.reward.tolist() == [[1.0], [0.0], [-2.0]]
    assert np.array_equal(got.initial_dist, toy.initial_dist)


@pytest.mark.parametrize("args", ["toy --p 0.5", "frozen_lake --grid-spec {spec}",
                                  "gridworld --p 0.4 --grid-spec {spec}"])
def test_env_setting_that_the_environment_does_not_read_is_config_error(run_cli, tmp_path, args):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(GRID_SPEC))
    assert_config_error(run_cli("env", *args.format(spec=spec).split()))


def test_env_gridworld_from_grid_spec(run_cli, tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**GRID_SPEC, "width": 5, "p_intended": 0.4}))
    res = run_cli("env", "gridworld", "--grid-spec", str(spec))
    assert res.returncode == 0
    assert json.loads(res.stdout)["num_states"] == 21


def solve_patched_toy(run_cli, toy_files, tmp_path, patch):
    """Run `solve` on the toy MDP JSON after `patch` edits it; return the result."""
    mdp_file, path_file = toy_files
    d = json.loads(mdp_file.read_text())
    patch(d)
    bad = tmp_path / "patched.json"
    bad.write_text(json.dumps(d))
    return run_cli("solve", "--mdp", str(bad), "--path", str(path_file))


def assert_config_error(res):
    assert res.returncode == 1
    assert "config error" in res.stderr and "Traceback" not in res.stderr


def test_non_finite_mdp_is_config_error(run_cli, toy_files, tmp_path):
    def patch(d):
        d["transition"][1][0][1] = float("nan")
        d["reward"][1] = [float("inf")]
    assert_config_error(solve_patched_toy(run_cli, toy_files, tmp_path, patch))


def test_initial_dist_outside_unit_interval_is_config_error(run_cli, toy_files, tmp_path):
    def patch(d):
        d["initial_dist"] = [1.5, -0.5, 0.0]
    assert_config_error(solve_patched_toy(run_cli, toy_files, tmp_path, patch))


def test_wrong_reward_shape_is_config_error(run_cli, toy_files, tmp_path):
    def patch(d):
        d["reward"] = [[0.0, 0.0]] * 3
    assert_config_error(solve_patched_toy(run_cli, toy_files, tmp_path, patch))


def test_invalid_path_is_config_error(run_cli, toy_files, tmp_path):
    mdp_file, _ = toy_files
    path_file = tmp_path / "impossible.json"
    path_file.write_text(json.dumps({"states": [1, 1], "actions": [0]}))
    res = run_cli("bounds", "--mdp", str(mdp_file), "--path", str(path_file))
    assert res.returncode == 1


@pytest.mark.parametrize("problem", ["missing", "truncated"])
@pytest.mark.parametrize("command, flag", [("bounds", "--mdp"), ("bounds", "--path"),
                                           ("ope", "--config"), ("env", "--grid-spec")])
def test_unreadable_input_file_is_config_error(toy_files, tmp_path, capsys, command, flag,
                                               problem):
    mdp_file, path_file = toy_files
    args = {"bounds": ["bounds", "--mdp", str(mdp_file), "--path", str(path_file)],
            "ope": ["ope"], "env": ["env", "gridworld"]}[command]
    bad = tmp_path / "bad.json"
    if problem == "truncated":
        bad.write_text(mdp_file.read_text()[:50])
    assert cli.main(args + [flag, str(bad)]) == 1  # the later flag wins
    assert capsys.readouterr().err.startswith(f"config error: cannot read JSON from {bad}: ")


UNREAD_FLAGS = [(cmd, flag) for cmd in ("env", "bounds", "verify", "solve")
                for flag in ("--seed", "--config")]
UNREAD_FLAGS += [("env", "--assumptions"), ("gumbel", "--assumptions"), ("gumbel", "--config")]
UNREAD_FLAGS += [("boundstats", flag) for flag in ("--assumptions", "--gumbel-samples")]
UNREAD_FLAGS += [(cmd, flag) for cmd in ("boundstats", "ope", "robustness", "timing")
                 for flag in ("--num-cf-samples", "--num-rollouts")]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_flag_the_subcommand_does_not_read_is_usage_error(toy_files, capsys, command, flag):
    mdp_file, path_file = toy_files
    args = (["toy"] if command == "env" else ["--env", "toy"] if command in experiments.RUNNERS
            else ["--mdp", str(mdp_file), "--path", str(path_file)])
    value = {"--seed": "3", "--config": str(mdp_file), "--assumptions": "cs"}.get(flag, "5")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *args, flag, value])
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_experiment_subcommand_writes_csv(run_cli, tmp_path):
    res = run_cli("boundstats", "--env", "toy", "--num-paths", "2", "--horizon", "2",
                  "--out", str(tmp_path), "--seed", "9")
    assert res.returncode == 0
    assert (tmp_path / "boundstats.csv").exists()


SEED_COMMANDS = ["gumbel", *experiments.RUNNERS]


@pytest.mark.parametrize("command", SEED_COMMANDS)
def test_negative_seed_is_config_error(run_cli, toy_files, tmp_path, command):
    mdp_file, path_file = toy_files
    out = tmp_path / "out"
    args = (["--mdp", str(mdp_file), "--path", str(path_file)] if command == "gumbel" else
            ["--env", "toy", "--num-paths", "1", "--horizon", "1"])
    res = run_cli(command, *args, "--seed", "-1", "--out", str(out))
    assert (res.returncode, res.stderr) == (1, "config error: seed must be >= 0\n")
    assert not out.exists()


def test_negative_seed_in_run_config_is_config_error(run_cli, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"env": "toy", "seed": -3, "output_dir": str(tmp_path / "out")}))
    res = run_cli("ope", "--config", str(cfg))
    assert (res.returncode, res.stderr) == (1, "config error: seed must be >= 0\n")
    assert not (tmp_path / "out").exists()


# Counts past their bound, none of which may reach an allocation.
TOO_LARGE = {"huge": lambda limit: 10**30, "bound+1": lambda limit: limit + 1}


@pytest.mark.parametrize("excess", TOO_LARGE)
@pytest.mark.parametrize("field", experiments.COUNT_FIELDS)
def test_count_beyond_its_bound_is_config_error(run_cli, tmp_path, field, excess):
    limit = experiments.COUNT_FIELDS[field]
    value = TOO_LARGE[excess](limit)
    want = (1, f"config error: {field} must be <= {limit}\n")
    out = tmp_path / "out"
    res = run_cli("traces", "--env", "toy", f"--{field.replace('_', '-')}", str(value),
                  "--out", str(out))
    assert (res.returncode, res.stderr) == want
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"env": "toy", field: value, "output_dir": str(out)}))
    for command in experiments.RUNNERS:
        res = run_cli(command, "--config", str(cfg))
        assert (res.returncode, res.stderr) == want
    assert not out.exists()


def test_counts_at_their_bounds_are_accepted():
    RunConfig(env="toy", **experiments.COUNT_FIELDS).validate()
    GridSpec(width=MAX_GRID_SIDE, height=MAX_GRID_SIDE, start=(0, 0), goal=(1, 1))


@pytest.mark.parametrize("excess", TOO_LARGE)
def test_gumbel_samples_beyond_their_bound_is_config_error(run_cli, toy_files, tmp_path, excess):
    mdp_file, path_file = toy_files
    limit = experiments.COUNT_FIELDS["gumbel_samples"]
    res = run_cli("gumbel", "--mdp", str(mdp_file), "--path", str(path_file), "--samples",
                  str(TOO_LARGE[excess](limit)), "--out", str(tmp_path / "out"))
    assert (res.returncode, res.stderr) == (1, f"config error: samples must be <= {limit}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("excess", TOO_LARGE)
@pytest.mark.parametrize("side", ["width", "height"])
def test_grid_side_beyond_its_bound_is_config_error(run_cli, tmp_path, side, excess):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**GRID_SPEC, side: TOO_LARGE[excess](MAX_GRID_SIDE)}))
    res = run_cli("env", "gridworld", "--grid-spec", str(spec), "--out", str(tmp_path / "out"))
    assert (res.returncode, res.stderr) == (
        1, f"config error: malformed grid spec: {side} must be between 1 and {MAX_GRID_SIDE}\n")
    assert not (tmp_path / "out").exists()


def test_experiment_bad_config_is_config_error(run_cli, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"num_paths": 0}))
    res = run_cli("ope", "--config", str(cfg))
    assert res.returncode == 1


def test_experiment_flags_override_config_which_overrides_defaults(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"env": "toy", "seed": 7, "assumptions": "none",
                                    "num_paths": 2, "horizon": 3}))
    for flags, env, seed in [([], "toy", 7), (["--seed", "3", "--env", "gridworld"],
                                              "gridworld", 3)]:
        assert cli.main(["ope", "--config", str(cfg_file), *flags]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        want = run_ope(RunConfig(env=env, seed=seed, assumptions=Assumptions.NONE,
                                 num_paths=2, horizon=3))
        assert all(line.pop("run_id").startswith(f"ope-{seed}-") for line in lines)
        assert lines == [{"experiment": "ope", "trial": r.trial, **r.metrics} for r in want]


@pytest.mark.parametrize("config", [{"num_paths": "3"}, {"num_paths": 2.5}, {"p": "x"},
                                    {"horizon": True}, {"seed": "a"}, {"p": True},
                                    {"env": 3}, {"output_dir": 1}, []])
def test_wrongly_typed_run_config_is_config_error(run_cli, tmp_path, config):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(config))
    res = run_cli("boundstats", "--config", str(cfg_file), "--env", "toy", "--num-paths", "1")
    assert_config_error(res)
    assert res.stderr.startswith("config error: ")


def test_invariant_violation_maps_to_exit_2(monkeypatch, toy_files, capsys):
    mdp_file, path_file = toy_files

    def boom(*args, **kwargs):
        raise InvariantViolation("synthetic failure")

    monkeypatch.setattr(cli, "build_interval_cfmdp", boom)
    code = cli.main(["bounds", "--mdp", str(mdp_file), "--path", str(path_file)])
    assert code == 2
    assert "invariant violation" in capsys.readouterr().err
