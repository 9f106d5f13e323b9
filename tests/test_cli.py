import json
import os
import subprocess
import sys
from pathlib import Path

from polyprog import cyclic, weyl
from polyprog.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_homogeneous_example(capsys):
    code, out, _ = run_cli(capsys, "analyze", "x, x+y, x+2y, x+y^3")
    assert code == 0
    doc = json.loads(out)
    assert doc["homogeneous"] is True
    assert doc["complexity"] == [1, 1, 1, 0]
    assert doc["layer_dims"] == {"1": 3, "2": 4}
    assert doc["eligible_upto_4"] is True


def test_analyze_inhomogeneous_example(capsys):
    code, out, _ = run_cli(capsys, "analyze", "x, x+y, x+2y, x+y^2")
    assert code == 0
    doc = json.loads(out)
    assert doc["homogeneous"] is False
    assert doc["inhomogeneity_witness"]["shared_poly"] == "y^2"
    assert doc["complexity"] == [2, 2, 2, 1]


def test_analyze_bad_expression(capsys):
    code, _, err = run_cli(capsys, "analyze", "x, x+y/2")
    assert code == 2
    assert "not integral" in err


def test_relations_listing(capsys):
    code, out, _ = run_cli(capsys, "relations", "x, x+y, x+2y", "--cap", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 1 and doc["stabilized"] is True


def test_gowers_table(capsys):
    code, out, _ = run_cli(capsys, "gowers", "--N", "101",
                           "--signal", "quadratic", "--s-max", "3")
    assert code == 0
    doc = json.loads(out)
    norms = {row["s"]: row["norm"] for row in doc["rows"]}
    assert abs(norms[2] - 101 ** -0.25) < 1e-9
    assert abs(norms[3] - 1.0) < 1e-9


def test_count_small_schedule(capsys):
    code, out, _ = run_cli(capsys, "count", "x, x+y^2, x+2y^2",
                           "--N", "11,31", "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["rows"]) == 2
    for row in doc["rows"]:
        assert row["difference"] < 0.5


def test_popdiff(capsys):
    code, out, _ = run_cli(capsys, "popdiff", "x, x+y, x+2y",
                           "--N", "31", "--seed", "5", "--epsilon", "0.05")
    assert code == 0
    doc = json.loads(out)
    assert 0 in doc["qualifying"]


def test_weyl_scenario(tmp_path, capsys):
    scenario = {
        "order": 2,
        "system": "generators",
        "generators": [["sqrt2", "0"], ["0", "sqrt2+1/3"]],
        "progression": "x, x+y, x+2y, x+y^2",
        "N": 120,
        "radius": 1,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code, out, _ = run_cli(capsys, "weyl", str(path),
                           "--decay-threshold", "0.9")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 6 and doc["cosets"] == 3
    assert doc["confinement_distance"] < 1e-6
    assert doc["passed"] is True


def test_weyl_standard_scenario(tmp_path, capsys):
    scenario = {
        "order": 2,
        "rotation": "sqrt2",
        "base": ["sqrt3", "sqrt5"],
        "progression": "x, x+y, x+2y, x+y^3",
        "N": 100,
        "radius": 1,
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code, out, _ = run_cli(capsys, "weyl", str(path),
                           "--decay-threshold", "0.9")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 7 and doc["cosets"] == 1


def test_reports_byte_stable(capsys):
    _, first, _ = run_cli(capsys, "analyze", "x, x+y, x+2y, x+y^2")
    _, second, _ = run_cli(capsys, "analyze", "x, x+y, x+2y, x+y^2")
    assert first == second


def test_out_dir_and_csv(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "relations", "x, x+y, x+2y",
                           "--out", str(tmp_path), "--format", "csv")
    assert code == 0
    assert (tmp_path / "relations.json").exists()
    assert (tmp_path / "relations.csv").exists()
    doc = json.loads((tmp_path / "relations.json").read_text())
    assert doc["dim"] == 1


def test_config_file_overrides(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"epsilon": 0.5, "seed": 77}))
    code, out, _ = run_cli(capsys, "--config", str(cfg),
                           "popdiff", "x, x+y, x+2y", "--N", "31")
    assert code == 0
    doc = json.loads(out)
    assert doc["epsilon"] == 0.5


def test_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = run_cli(capsys, "--config", str(cfg),
                           "relations", "x, x+y")
    assert code == 2 or "bogus" in err


def test_gowers_rejects_zero_modulus_and_degree(capsys):
    code, out, err = run_cli(capsys, "gowers", "--N", "0", "--s-max", "1")
    assert code == 2 and not out and "N must be >= 1" in err
    code, out, err = run_cli(capsys, "gowers", "--N", "5", "--s-max", "0")
    assert code == 2 and not out and "--s-max must be >= 1" in err


def test_popdiff_rejects_zero_modulus(capsys):
    code, out, err = run_cli(capsys, "popdiff", "x, x+y", "--N", "0")
    assert code == 2 and not out and "N must be >= 1" in err


def test_weyl_rejects_zero_modulus(tmp_path, capsys):
    scenario = {"order": 2, "rotation": "sqrt2", "base": ["sqrt3", "sqrt5"],
                "progression": "x, x+y", "N": 100, "radius": 1}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code, out, err = run_cli(capsys, "weyl", str(path), "--N", "0")
    assert code == 2 and not out and "N must be >= 1" in err


def test_weyl_refuses_dependencies_key(tmp_path, capsys):
    # an alias changed the symbolic closure but not the orbit the engines
    # compute; a shared symbol declares the same dependence for both
    scenario = {"order": 2, "system": "generators",
                "generators": [["sqrt2", "0"], ["0", "sqrt3"]],
                "dependencies": [["sqrt3", "sqrt2", "1/3"]],
                "progression": "x, x+y, x+2y, x+y^2", "N": 300, "radius": 1}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code, out, err = run_cli(capsys, "weyl", str(path))
    assert code == 2 and not out
    assert "'dependencies'" in err and '"sqrt2+1/3"' in err


def test_weyl_refuses_sweep_above_budget(tmp_path, capsys):
    import time
    scenario = {"order": 2, "system": "generators",
                "generators": [["sqrt2", "0"], ["0", "sqrt2+1/3"]],
                "progression": "x, x+y, x+2y, x+y^2", "N": 20000, "radius": 3}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "weyl", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out
    assert f"character sweep cost 499200000000 exceeds budget {weyl.SWEEP_BUDGET}" in err


def test_weyl_refuses_confinement_above_budget(tmp_path, capsys):
    # radius 0 sweeps no character, so only the confinement ceiling applies
    import time
    scenario = {"order": 2, "system": "generators",
                "generators": [["sqrt2", "0"], ["0", "sqrt2+1/3"]],
                "progression": "x, x+y, x+2y, x+y^2", "N": 20000, "radius": 0}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "weyl", str(path))
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out
    assert f"coset confinement cost 10800000000 exceeds budget {weyl.CONFINEMENT_BUDGET}" in err


def test_weyl_builds_one_tail_table(tmp_path, capsys, monkeypatch):
    # the dependent scenario runs both the sweep and the confinement check
    calls = []
    build = weyl._orbit_tail_tables
    monkeypatch.setattr(weyl, "_orbit_tail_tables",
                        lambda *args: calls.append(args) or build(*args))
    scenario = {"order": 2, "system": "generators",
                "generators": [["sqrt2", "0"], ["0", "sqrt2+1/3"]],
                "progression": "x, x+y, x+2y, x+y^2", "N": 40, "radius": 1}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    code, out, _ = run_cli(capsys, "weyl", str(path), "--decay-threshold", "0.99")
    assert code == 0 and "confinement_distance" in json.loads(out)
    assert len(calls) == 1


def test_weyl_radius_flag_then_scenario_then_config(tmp_path, capsys):
    # radius 1 sweeps 8 characters of T^8, radius 2 sweeps 72
    scenario = {"order": 2, "rotation": "sqrt2", "base": ["sqrt3", "sqrt5"],
                "progression": "x, x+y, x+2y, x+y^3", "N": 60}
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(scenario))
    with_radius = tmp_path / "radius.json"
    with_radius.write_text(json.dumps(scenario | {"radius": 1}))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"radius": 2}))

    def rows(*argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code in (0, 1)
        table = json.loads(out)["discrepancy"]
        return table["radius"], len(table["rows"])

    assert rows("weyl", str(with_radius), "--radius", "2") == (2, 72)
    assert rows("--config", str(config), "weyl", str(with_radius)) == (1, 8)
    assert rows("--config", str(config), "weyl", str(plain)) == (2, 72)
    assert rows("--config", str(config), "weyl", str(plain), "--radius", "1") == (1, 8)


def test_engines_refuse_work_above_their_ceilings(capsys):
    import time
    five = "x, x+y^2, x+2y^2, x+y^3, x+2y^3"
    for argv, name in ((["gowers", "--N", "101", "--signal", "quadratic", "--s-max", "6"],
                        "GOWERS_BUDGET"),
                       # at N = 2 the cost is in the recursion's 3.4e7 calls
                       (["gowers", "--N", "2", "--s-max", "25"], "GOWERS_BUDGET"),
                       (["popdiff", five, "--N", "1000003"], "POPDIFF_BUDGET"),
                       (["count", five, "--N", "101,100003"], "COUNT_BUDGET")):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and not out
        assert "cost" in err and f"exceeds {name} = " in err
    # at N = 1 the recursion would nest 1199 deep
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "gowers", "--N", "1", "--s-max", "1200")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out
    assert "recursion depth 1199 exceeds" in err and "GOWERS_CALLER_FRAMES = " in err


def test_documented_engine_runs_fit_their_ceilings():
    # README commands, the acceptance criteria and the benchmark's commands
    from polyprog.parser import parse_progression
    five = parse_progression("x, x+y^2, x+2y^2, x+y^3, x+2y^3").progression
    for n in (101, 257, 809):
        cyclic.check_gowers_cost(n, 3)
    for n in (401, 809):
        cyclic.check_popdiff_cost(n, five)
    for schedule in ((101, 211), (101, 809), (101, 151, 211, 307), (101, 211, 401, 809)):
        cyclic.check_count_cost(schedule, five)


def test_zero_cap_is_refused(capsys):
    code, out, err = run_cli(capsys, "relations", "x, x+y, x+2y", "--cap", "0")
    assert code == 2 and not out and "relation cap must be >= 1" in err
    code, out, err = run_cli(capsys, "count", "x, x+y, x+2y, x+3y", "--N", "11",
                             "--alpha", "0.5", "--cap", "0")
    assert code == 2 and not out and "relation cap must be >= 1" in err


def test_analyze_refuses_exact_layer_above_budget(capsys):
    import time
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", "x, x+y^60")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out and "exceeds budget" in err


def test_analyze_refuses_high_degree_binomial_atom_quickly(capsys):
    import time
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", "x, x+C(y,400)")
    assert time.perf_counter() - start < 2.0
    assert code == 2 and not out and "exceeds budget" in err


def test_analyze_refuses_atom_degree_above_ceiling(capsys):
    import time
    from polyprog.parser import MAX_ATOM_DEGREE
    for text in ("x, x+y^2000", f"x, x+y, x+C(y,{MAX_ATOM_DEGREE + 1})"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "analyze", text)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and not out
        assert f"exceeds MAX_ATOM_DEGREE {MAX_ATOM_DEGREE}" in err


def test_analyze_refuses_rmax_below_one(capsys):
    # for every progression, the inhomogeneous one (no eligibility sweep) too
    for text in ("x, x+y, x+2y, x+y^2", "x, x+y, x+2y, x+y^3"):
        for r_max in ("0", "-5"):
            code, out, err = run_cli(capsys, "analyze", text, "--rmax", r_max)
            assert code == 2 and not out and "r_max must be >= 1" in err


def test_analyze_refuses_eligibility_above_budget(capsys):
    import time
    from polyprog.progression import ELIGIBILITY_BUDGET
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "analyze", "x, x+y^2, x+2y^2, x+y^3, x+2y^3",
                             "--rmax", "40")
    assert time.perf_counter() - start < 1.0
    assert code == 2 and not out
    assert f"eligibility cost 2640400 for r_max 40 exceeds ELIGIBILITY_BUDGET " \
        f"{ELIGIBILITY_BUDGET}" in err
    # the default r_max admits every progression the exact layer admits
    code, out, _ = run_cli(capsys, "analyze", "x, x+y^2, x+2y^2, x+y^3, x+2y^3",
                           "--rmax", "4")
    assert code == 0 and json.loads(out)["eligible_upto_4"] is True


def test_threads_below_one_refused(tmp_path, capsys):
    for value in ("0", "-3"):
        code, out, err = run_cli(capsys, "analyze", "x, x+y", "--threads", value)
        assert code == 2 and not out and "--threads must be >= 1" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 0}))
    code, out, err = run_cli(capsys, "--config", str(cfg), "analyze", "x, x+y")
    assert code == 2 and not out and "--threads must be >= 1" in err


def test_config_values_checked_against_field_types(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for doc, key in (({"r_max": "4"}, "r_max"), ({"cap": 2.5}, "cap"),
                     ({"n_schedule": [101, "211"]}, "n_schedule"),
                     ({"threads": True}, "threads"), ({"out_dir": 3}, "out_dir")):
        cfg.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "--config", str(cfg), "analyze", "x, x+y")
        assert code == 2 and not out
        assert f"config key {key!r} must be" in err and "Traceback" not in err
    cfg.write_text(json.dumps({"cap": None, "alpha": 1, "n_schedule": [101]}))
    code, out, _ = run_cli(capsys, "--config", str(cfg), "analyze", "x, x+y")
    assert code == 0 and json.loads(out)["cap"] == 2


def test_division_by_zero_is_bad_input(capsys):
    code, out, err = run_cli(capsys, "analyze", "x, x+y/0")
    assert code == 2 and not out and "division by zero" in err


def test_broken_invariant_exits_3(monkeypatch, capsys):
    from polyprog import progression as pr, ratlinalg as rl
    monkeypatch.setattr(pr.Relation, "holds_for", lambda self, prog: False)
    code, out, err = run_cli(capsys, "relations", "x, x+y, x+2y, x+3y")
    assert code == 3 and not out
    doc = json.loads(err)
    assert doc["check"] == "relation basis element fails the exact re-check"
    assert doc["exception"] == "AssertionError"
    # the kernel's own structure check, on a system no cache has seen
    monkeypatch.setattr(rl, "_kernel_attempt", lambda rows, ncols, p: None)
    code, out, err = run_cli(capsys, "relations", "x, x+5y, x+7y^2")
    assert code == 3 and not out
    assert json.loads(err)["exception"] == "ArithmeticError"


def test_closed_stdout_ends_quietly():
    # a reader that goes away at once (`| head -c 5`): exit 1, no traceback
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from polyprog.cli import main; sys.exit(main())",
         "gowers", "--N", "101", "--s-max", "2", "--signal", "quadratic"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


STANDARD = {"order": 2, "rotation": "sqrt2", "base": ["sqrt3", "sqrt5"],
            "progression": "x, x+y", "N": 60, "radius": 1}


def _weyl_scenario(tmp_path, capsys, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    return run_cli(capsys, "weyl", str(path), "--decay-threshold", "0.9")


def test_weyl_scenario_numbers_must_be_ints(tmp_path, capsys):
    # "N": 200.7 used to run N = 200, and "radius": 1.9 radius 1
    for key, bad in (("N", 60.7), ("N", "60"), ("radius", 1.9), ("radius", True),
                     ("order", "2"), ("order", 2.0)):
        code, out, err = _weyl_scenario(tmp_path, capsys, STANDARD | {key: bad})
        assert code == 2 and not out, (key, bad)
        assert f"scenario key {key!r} must be int" in err and "Traceback" not in err


def test_weyl_scenario_progression_must_be_a_string(tmp_path, capsys):
    code, out, err = _weyl_scenario(tmp_path, capsys, STANDARD | {"progression": ["x"]})
    assert code == 2 and not out and "scenario key 'progression' must be str" in err


GENERATORS = {"order": 2, "system": "generators", "generators": [["sqrt2", 0], [0, "sqrt3"]],
              "progression": "x, x+y", "N": 60, "radius": 1}


def _refused_naming(tmp_path, capsys, scenario, key, kind):
    code, out, err = _weyl_scenario(tmp_path, capsys, scenario)
    assert code == 2 and not out, (key, scenario[key])
    assert f"scenario key {key!r} must be {kind}" in err and "Traceback" not in err


def test_weyl_scenario_system_must_be_named(tmp_path, capsys):
    # "system": 3 used to run a standard system without a word
    for bad in (3, "generator", ["generators"], None):
        _refused_naming(tmp_path, capsys, STANDARD | {"system": bad}, "system",
                        '"standard" or "generators"')


def test_weyl_scenario_generators_must_be_lists_of_atoms(tmp_path, capsys):
    # "generators": 5 used to end in a TypeError traceback
    for bad in (5, "sqrt2", ["sqrt2", 0], [["sqrt2", 1.5]], [[True, 0]]):
        _refused_naming(tmp_path, capsys, GENERATORS | {"generators": bad}, "generators",
                        "a list of lists of strings or ints")


def test_weyl_scenario_base_must_be_a_list_of_atoms(tmp_path, capsys):
    for scenario in (STANDARD, GENERATORS):
        for bad in ("sqrt3", 0, [0.5, 0], [["sqrt3"], 0]):
            _refused_naming(tmp_path, capsys, scenario | {"base": bad}, "base",
                            "a list of strings or ints")


def test_weyl_scenario_rotation_must_be_an_atom(tmp_path, capsys):
    for bad in (["sqrt2"], 1.5, None, False):
        _refused_naming(tmp_path, capsys, STANDARD | {"rotation": bad}, "rotation",
                        "a string or an int")


def test_weyl_scenario_top_level_must_be_an_object(tmp_path, capsys):
    code, out, err = _weyl_scenario(tmp_path, capsys, [STANDARD])
    assert code == 2 and not out and "top level must be a JSON object" in err


def test_weyl_scenario_required_keys(tmp_path, capsys):
    for key in ("order", "progression", "rotation", "base"):
        scenario = {k: v for k, v in STANDARD.items() if k != key}
        code, out, err = _weyl_scenario(tmp_path, capsys, scenario)
        assert code == 2 and not out and f"missing key {key!r}" in err
    generators = {"order": 2, "system": "generators", "progression": "x, x+y"}
    code, out, err = _weyl_scenario(tmp_path, capsys, generators)
    assert code == 2 and not out and "missing key 'generators'" in err


def test_missing_input_paths_exit_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    for argv in (["weyl", missing],
                 ["--config", missing, "analyze", "x, x+y"],
                 ["count", "x, x+y", "--N", "11", "--subset-file", missing],
                 ["gowers", "--N", "11", "--signal", "subset", "--subset-file", missing]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out, argv
        assert missing in err and "Traceback" not in err


def test_float_flags_must_be_finite(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(STANDARD))
    for argv, flag in ((["popdiff", "x, x+y", "--N", "31", "--epsilon", "nan"], "--epsilon"),
                       (["popdiff", "x, x+y", "--N", "31", "--epsilon", "inf"], "--epsilon"),
                       (["popdiff", "x, x+y", "--N", "31", "--alpha=-inf"], "--alpha"),
                       (["weyl", str(scenario), "--decay-threshold", "nan"],
                        "--decay-threshold")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and not out and f"{flag} must be finite" in err
    for value in ("0", "-1"):
        code, out, err = run_cli(capsys, "popdiff", "x, x+y", "--N", "31", "--epsilon", value)
        assert code == 2 and not out and "--epsilon must be > 0" in err


def test_non_finite_report_value_is_an_invariant_failure(monkeypatch, capsys):
    monkeypatch.setattr(cyclic, "gowers_norm", lambda sig, s: float("nan"))
    code, out, err = run_cli(capsys, "gowers", "--N", "11", "--s-max", "1")
    assert code == 3 and not out
    doc = json.loads(err)
    assert doc["exception"] == "AssertionError" and "not JSON" in doc["check"]


def test_main_builds_one_parser_and_dispatches_by_name(monkeypatch, capsys):
    from polyprog import cli
    build, built = cli.build_parser, []

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    assert run_cli(capsys, "relations", "x, x+y")[0] == 0
    # the command is looked up when main runs, so a replaced one is called
    calls = []
    monkeypatch.setattr(cli, "cmd_relations", lambda cfg, args: calls.append(args) or 0)
    assert run_cli(capsys, "relations", "x, x+y") == (0, "", "")
    assert len(built) == 1 and len(calls) == 1


def test_analyze_imports_no_numeric_engine():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = ("import sys; from polyprog.cli import main; code = main(sys.argv[1:]); "
              "print([m for m in ('polyprog.cyclic', 'polyprog.weyl') if m in sys.modules], "
              "code, file=sys.stderr)")
    for argv in (["analyze", "x, x+y, x+2y, x+y^3"], ["relations", "x, x+y^2"]):
        proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.stderr.strip() == "[] 0", argv
