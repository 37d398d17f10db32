import ast
import graphlib
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import canalg
from canalg import cli, cones, geometry, zeroset
from canalg.cli import main
from canalg.forms import CanonicalType


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out) if out else None, err


def test_classify(capsys):
    code, payload, _ = run_json(capsys, "classify", "--type", "2,3,7")
    assert code == 0
    assert payload["delta"] == "1/84"
    assert payload["repr_type"] == "wild"
    assert payload["boundary"] == "above_boundary"
    assert payload["zeroset_threshold"] == 5


def test_classify_wild_without_threshold(capsys):
    code, payload, _ = run_json(capsys, "classify", "--type", "5,5,5,5,5")
    assert code == 0
    assert payload["zeroset_threshold"] is None


def test_ci(capsys):
    code, payload, _ = run_json(capsys, "ci", "--type", "5,5,5,5,5", "--p", "5")
    assert code == 0
    assert payload == {"p": 5, "is_ci": True, "is_normal": False,
                       "components": 2, "defect": 0}


def test_components(capsys):
    code, payload, _ = run_json(capsys, "components", "--type", "5,5,5,5,5", "--p", "5")
    assert code == 0
    assert payload["count"] == 2
    assert payload["components"][1] == "5;4,3,2,1/4,3,2,1/4,3,2,1/4,3,2,1/4,3,2,1;0"


def test_zeroset(capsys):
    code, payload, _ = run_json(capsys, "zeroset", "--type", "2,2,2", "--p", "4")
    assert code == 0
    assert payload["is_ci"] is True
    assert payload["component_count"] == 20
    assert payload["threshold"] == 3


def test_zeroset_witness_below_threshold(capsys):
    code, payload, _ = run_json(capsys, "zeroset", "--type", "2,2,2", "--p", "2")
    assert code == 0
    assert payload["is_ci"] is False and payload["answered_by"] == "closed_form"
    assert payload["component_count"] is None and payload["component_count_from"] is None
    assert payload["witness"]["q"] == 2


def test_zeroset_outside_enumeration_window(capsys):
    code, payload, _ = run_json(capsys, "zeroset", "--type", "2,3,4", "--p", "2")
    assert code == 0
    assert payload["is_ci"] is False and payload["witness"]["q"] == 2
    code, payload, _ = run_json(capsys, "zeroset", "--type", "2,2,2", "--p", "100000")
    assert code == 0
    assert payload["is_ci"] is True and payload["answered_by"] == "closed_form"
    code, out, err = run(capsys, "zeroset", "--type", "2,3,7", "--p", "4")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "threshold 5" in err and err.count("\n") == 1


def test_witness(capsys):
    code, payload, _ = run_json(capsys, "witness", "--type", "2,3,7")
    assert code == 0
    assert payload["p"] == 42
    assert payload["quadratic"] == -21
    assert payload["criterion_value"] > 0
    assert payload["violates"] == "none"


@pytest.mark.parametrize("arms, value, violates", [
    ("5,5,5,5,5", 0, "strict_only"),
    ("3,3,3,3,3,3,3", -3**13, "weak"),  # (1 - delta)*p^2 at p = 3^7
])
def test_witness_on_and_below_boundary(capsys, arms, value, violates):
    code, payload, _ = run_json(capsys, "witness", "--type", arms)
    assert code == 0
    assert payload["criterion_value"] == value
    assert payload["violates"] == violates


def test_verify_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--type", "2,2,2", "--pmax", "2",
                       "--samples", "25", "--seed", "7")
    assert code == 0
    assert "seed: 7" in out
    assert "all checks passed" in out


@pytest.mark.parametrize("option, value", [
    ("--pmax", "0"), ("--pmax", "-3"), ("--samples", "0"), ("--samples", "-1"),
    ("--cap", "0"), ("--cap", "-1"),
])
def test_verify_rejects_empty_runs(capsys, option, value):
    code, out, err = run(capsys, "verify", "--type", "2,2,2", option, value)
    assert code == 2
    assert out == ""
    assert err == f"error: {option} must be >= 1, got {value}\n"


@pytest.mark.parametrize("value", [str(cli.MAX_SAMPLES + 1), "100000000"])
def test_verify_refuses_samples_past_the_ceiling(capsys, value):
    code, out, err = run(capsys, "verify", "--type", "2,2,2", "--samples", value)
    assert (code, out) == (2, "")
    assert err == f"error: --samples must be <= 100000, got {value}\n"


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_components_rejects_cap_below_one(capsys, cap):
    code, out, err = run(capsys, "components", "--type", "2,3,7", "--p", "3", "--cap", cap)
    assert code == 2
    assert out == ""
    assert err == f"error: --cap must be >= 1, got {cap}\n"


def test_oracle_subcommand(capsys):
    code, payload, _ = run_json(capsys, "oracle", "--type", "2,2,2",
                                "--lambdas", "1", "--mu", "2", "--sizes", "2")
    assert code == 0
    assert payload["all_ok"] is True


def test_json_deterministic(capsys):
    _, out1, _ = run(capsys, "zeroset", "--type", "2,2,2", "--p", "4",
                     "--format", "json")
    _, out2, _ = run(capsys, "zeroset", "--type", "2,2,2", "--p", "4",
                     "--format", "json")
    assert out1 == out2


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, argv", [
    ("classify_237", ("classify", "--type", "2,3,7")),
    ("ci_55555_p5", ("ci", "--type", "5,5,5,5,5", "--p", "5")),
    ("components_55555_p5", ("components", "--type", "5,5,5,5,5", "--p", "5")),
    ("witness_3333333", ("witness", "--type", "3,3,3,3,3,3,3")),
    ("oracle_222_full", ("oracle", "--type", "2,2,2", "--full", "--sizes", "2")),
    ("zeroset_222_p4", ("zeroset", "--type", "2,2,2", "--p", "4")),
    ("zeroset_234_p2", ("zeroset", "--type", "2,3,4", "--p", "2")),
    ("verify_2222_p3", ("verify", "--type", "2,2,2,2", "--pmax", "3", "--seed", "1")),
])
def test_json_output_matches_golden(capsys, name, argv):
    # tests/golden holds the JSON stdout of each query, byte for byte
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_invalid_type_exits_2(capsys):
    code, _, err = run(capsys, "classify", "--type", "2,1,2")
    assert code == 2
    assert "error" in err


def test_out_of_range_zeroset_exits_2(capsys):
    code, _, err = run(capsys, "zeroset", "--type", "5,5,5,5,5", "--p", "3")
    assert code == 2
    assert "delta" in err


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--type", "2,2,2"])
    assert exc.value.code == 2


def test_missing_p_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ci", "--type", "2,2,2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["components", "zeroset"])
def test_level_zero_exits_2(capsys, command):
    code, _, err = run(capsys, command, "--type", "2,2,2", "--p", "0")
    assert code == 2
    assert err == "error: p must be >= 1, got 0\n"


@pytest.mark.parametrize("extra, message", [
    (("--mu", "1/0"), "--mu takes rationals"),
    (("--lambdas", "x"), "--lambdas takes rationals"),
    (("--sizes", "0"), "--sizes must be >= 1"),
    (("--lambdas", ""), "--lambdas takes rationals"),
    (("--lambdas", "1,1"), "tube parameters must be pairwise distinct, got 1, 1"),
    (("--sizes", "46"), "--sizes must be <= 45, got 46"),
    (("--sizes", "1000"), "--sizes must be <= 45, got 1000"),
    (("--type", "200,200,200", "--full"),
     "--full solves (2*600)^2 = 1440000 Hom systems between tube modules, more than 810000"),
    (("--type", "451,2,2", "--full", "--sizes", "1"),
     "--full solves (2*455)^2 = 828100 Hom systems"),
    (("--type", "40,40,40", "--full", "--sizes", "23"),
     "--full solves Hom systems between homogeneous modules with 119*(23*24/2)^2 = 9064944 "
     "unknowns, more than 8569800"),
    (("--type", "2,3,7", "--full", "--sizes", "45"), "--full solves Hom systems between"),
    (("--type", ",".join(["2"] * 300)),
     "oracle at --sizes 3 counts 34297530 steps of work, more than 21706015\n"),
    (("--type", ",".join(["2"] * 100), "--full", "--sizes", "1"),
     "oracle at --sizes 1 --full counts 131813510 steps of work, more than 21706015\n"),
    (("--type", "800,800,800"),
     "oracle at --sizes 3 counts 58908795 steps of work, more than 21706015\n"),
])
def test_oracle_bad_input_exits_2(capsys, extra, message):
    arms = "2,2,2,2" if "--lambdas" in extra else "2,2,2"
    code, out, err = run(capsys, "oracle", "--type", arms, *extra)  # a later --type wins
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("arms, extra, steps", [
    ("160,160,160", ("--pmax", "1", "--samples", "1"), 445395195),
    (",".join(["2"] * 400), (), 957016430),
    ("6,6,6,6,6", ("--samples", "100000"), 180093015),
], ids=["long-arms", "many-arms", "samples"])
def test_verify_refuses_runs_past_the_step_ceiling(capsys, arms, extra, steps):
    # refused before any suite runs: 160,160,160 ran past 120 s at --samples 1
    code, out, err = run(capsys, "verify", "--type", arms, *extra)
    samples = extra[-1] if extra else "300"
    assert (code, out) == (2, "")
    assert err == (f"error: verify at --samples {samples} counts {steps} steps of work, "
                   "more than 125062180\n")


def _front_door(*argv):
    """Run main's refusals on argv, as main parses it."""
    args = cli.build_parser().parse_args(argv)
    args.type = CanonicalType.parse(args.type)
    cli._refuse(args)


def test_step_ceilings_admit_the_largest_runs_of_the_older_ceilings():
    # the largest runs the --samples and --full pair ceilings admit on few
    # arms set the step ceilings, so they stay admitted (61 s and 9 s; not run)
    _front_door("verify", "--type", "5,5,5,5,5", "--samples", str(cli.MAX_SAMPLES))
    _front_door("oracle", "--type", "150,150,150", "--full", "--sizes", "1")
    assert cli._verify_steps(CanonicalType((5,) * 5), cli.MAX_SAMPLES) == cli.MAX_VERIFY_STEPS
    assert cli._oracle_steps(CanonicalType((150,) * 3), 1, True) == cli.MAX_ORACLE_STEPS
    _front_door("verify", "--type", ",".join(["2"] * 100), "--pmax", "1")  # about 13 s
    _front_door("oracle", "--type", ",".join(["2"] * 50), "--full", "--sizes", "1")  # 8 s
    _front_door("oracle", "--type", "400,400,400")  # 7 s
    # 60 arms of length 2 pass the pair ceiling (57,600 pairs) but not the steps
    with pytest.raises(ValueError, match="^oracle at --sizes 1 --full counts 29024110 steps"):
        _front_door("oracle", "--type", ",".join(["2"] * 60), "--full", "--sizes", "1")


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("slot\nmissing")
    monkeypatch.setitem(cli.HANDLERS, "classify", broken)
    code, _, err = run(capsys, "classify", "--type", "2,2,2")
    assert code == 3
    assert err == "internal error: RuntimeError: slot missing\n"


def test_cap_defaults_follow_library():
    parser = cli.build_parser()
    assert parser.parse_args(["components", "--type", "2,2,2", "--p", "3"]).cap == cones.DEFAULT_CAP
    assert parser.parse_args(["verify", "--type", "2,2,2"]).cap == zeroset.DEFAULT_ZCAP
    for command in ["classify", "witness", "oracle", "ci", "zeroset"]:
        argv = [command, "--type", "2,2,2"]
        if command in ("ci", "zeroset"):
            argv += ["--p", "3"]
        assert not hasattr(parser.parse_args(argv), "cap")


@pytest.mark.parametrize("command", ["classify", "witness", "oracle", "ci", "zeroset"])
def test_cap_not_offered_where_unused(capsys, command):
    level = ["--p", "3"] if command in ("ci", "zeroset") else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--type", "2,2,2", *level, "--cap", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cap 1" in capsys.readouterr().err


def test_ci_counts_components_without_listing(capsys):
    # 7777 components, counted without building the list
    code, payload, _ = run_json(capsys, "ci", "--type", "6,6,6,6,6", "--p", "5")
    assert code == 0
    assert payload == {"p": 5, "is_ci": True, "is_normal": False,
                       "components": 7777, "defect": 0}
    assert payload["components"] == geometry.component_count(CanonicalType((6,) * 5), 5)
    code, payload, _ = run_json(capsys, "ci", "--type", "3,3,3,3,3,3,3", "--p", "3")
    assert code == 0 and payload["is_ci"] is False and payload["components"] is None


def test_level_queries_read_at_most_two_lcm_slices(capsys, monkeypatch):
    # counted calls, not wall time; past the bound the count stops the query
    # (exit 3), since a pass over all of s in [1, 10**12] would not finish
    p = 10**12
    calls = []
    slice_form = geometry._slice_form

    def counted(t, s):
        calls.append(s)
        if len(calls) > 2 * t.lcm:
            raise AssertionError("more than 2*lcm(m) slices read")
        return slice_form(t, s)

    monkeypatch.setattr(geometry, "_slice_form", counted)
    answers = {}
    for arms in ["2,3,7", "5,5,5,5,5", "2,2,2", "3,3,3,3,3,3,3"]:
        t = CanonicalType.parse(arms)
        for command in ["ci", "components", "zeroset"]:
            calls.clear()
            code, payload, _ = run_json(capsys, command, "--type", arms, "--p", str(p))
            assert len(calls) <= 2 * t.lcm, (arms, command, len(calls))
            answers[arms, command] = code, payload
    t5 = CanonicalType((5,) * 5)
    assert answers["5,5,5,5,5", "ci"] == (0, {"p": p, "is_ci": True, "is_normal": False,
                                             "components": 2, "defect": 0})
    code, payload = answers["5,5,5,5,5", "components"]
    assert code == 0 and payload["count"] == 2 == geometry.boundary_component_count(t5, p)
    code, payload = answers["2,2,2", "zeroset"]
    assert code == 0 and payload["is_ci"] is True
    assert payload["component_count"] == zeroset.component_count_formula(
        CanonicalType((2, 2, 2)), p)
    code, payload = answers["3,3,3,3,3,3,3", "ci"]
    assert code == 0 and payload["is_ci"] is False
    assert answers["3,3,3,3,3,3,3", "components"] == (2, None)


def test_level_queries_on_a_large_lcm_read_few_slices(capsys, monkeypatch):
    # lcm(997,991,983) = 971,230,541: the slices read are bounded by neither p
    # nor lcm(m), and past the bound the count stops the query (exit 3)
    limit, p = 64, 10**9
    calls = []
    slice_form = geometry._slice_form

    def counted(t, s):
        calls.append(s)
        if len(calls) > limit:
            raise AssertionError(f"more than {limit} slices read")
        return slice_form(t, s)

    monkeypatch.setattr(geometry, "_slice_form", counted)
    answers = {}
    for command in ["ci", "components", "zeroset"]:
        calls.clear()
        answers[command] = run_json(capsys, command, "--type", "997,991,983", "--p", str(p))
        assert len(calls) <= limit, (command, len(calls))
    assert answers["ci"][:2] == (0, {"p": p, "is_ci": True, "is_normal": True,
                                     "components": 1, "defect": 0})
    code, payload, _ = answers["components"]
    assert code == 0 and payload["count"] == 1
    code, payload, _ = answers["zeroset"]
    assert code == 0 and payload["is_ci"] is True


def test_each_level_query_makes_one_slice_scan(capsys, monkeypatch):
    # ci and components minimise the CI cost (a = p), zeroset the deficiency
    # (a = p - n): one scan of the slices each
    calls = []
    slice_minimum = geometry._slice_minimum

    def counted(t, p, a):
        calls.append(a)
        return slice_minimum(t, p, a)

    monkeypatch.setattr(geometry, "_slice_minimum", counted)
    p = 10**12
    for arms in ["2,3,7", "2,2,2"]:
        for command in ["ci", "components", "zeroset"]:
            calls.clear()
            code, _, _ = run_json(capsys, command, "--type", arms, "--p", str(p))
            want = [p - 3] if command == "zeroset" else [p]
            assert code == 0 and calls == want, (arms, command, calls)


def test_verify_help_states_the_zero_set_window(capsys):
    # cli never imports checks, so the help states the window as text: pin it
    # to the constants it quotes
    from canalg import checks
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert f"for arm products up to {checks.BRUTE_PRODUCT_LIMIT} the zero-set" in text
    assert f"at p = min(pmax, {checks.BRUTE_P_LIMIT}) by key" in text


def test_verify_cap_bounds_zero_set_triples(capsys):
    # Z_2 at (2,2,2) holds 94 triples
    argv = ("verify", "--type", "2,2,2", "--pmax", "2", "--samples", "10")
    code, out, _ = run(capsys, *argv, "--cap", "94")
    assert code == 0 and "all checks passed" in out
    code, out, err = run(capsys, *argv, "--cap", "93")
    assert code == 2 and out == ""
    assert err.startswith("error: cap 93 exceeded") and err.count("\n") == 1
    code, out, err = run(capsys, *argv, "--cap", "1")
    assert code == 2 and err.startswith("error: cap 1 exceeded")


def test_verify_cap_boundary_at_level_three(capsys):
    # Z_3 at (2,2,2) holds 2141 triples
    code, out, _ = run(capsys, "verify", "--type", "2,2,2", "--pmax", "3", "--cap", "2141")
    assert code == 0 and "all checks passed" in out
    code, out, err = run(capsys, "verify", "--type", "2,2,2", "--pmax", "3", "--cap", "2140")
    assert (code, out) == (2, "")
    assert err == "error: cap 2140 exceeded enumerating Z_p for 2,2,2, p=3\n"


def test_oracle_rational_parameters(capsys):
    code, payload, _ = run_json(capsys, "oracle", "--type", "2,2,3,4",
                                "--lambdas", "1/3,5/2", "--mu", "7/3", "--full",
                                "--sizes", "4")
    assert code == 0 and payload["all_ok"] is True
    assert payload["lambdas"] == ["1/3", "5/2"]
    assert any(r["name"] == "oracle/homogeneous[2,2,3,4]" for r in payload["results"])
    code, payload, _ = run_json(capsys, "oracle", "--type", "2,3,4", "--lambdas", "1/3",
                                "--mu", "7/3", "--full", "--sizes", "4")
    assert code == 0 and payload["all_ok"] is True
    # (2,3,4) has one tube parameter
    code, out, err = run(capsys, "oracle", "--type", "2,3,4", "--lambdas", "1/3,5/2",
                         "--mu", "7/3", "--full", "--sizes", "4")
    assert code == 2 and out == ""
    assert err == "error: need 1 parameters for 2,3,4, got 2\n"


SRC = Path(__file__).resolve().parent.parent / "src"


def fresh_python(code: str, *argv: str) -> str:
    """stdout of ``code`` run in a new interpreter that imports canalg from src."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return proc.stdout


def test_closed_stdout_exits_141_quietly():
    # 7777 components print far more than a pipe buffer holds, so the
    # writes after the first line meet a reader that is gone
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "canalg", "components", "--type", "6,6,6,6,6", "--p", "5"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"p: 5\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


# The modules a query adds to those the interpreter and its site hooks loaded:
# the import of canalg.cli and the run of main.
LOADED_BY_QUERY = ("import contextlib, io, sys\n"
                   "before = set(sys.modules)\n"
                   "import canalg.cli\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   "    code = canalg.cli.main(sys.argv[1:])\n"
                   "print(code, *sorted(set(sys.modules) - before))\n")
CLI_MODULES = {"canalg.cli", "canalg.cones", "canalg.forms"}
LEVEL_MODULES = CLI_MODULES | {"canalg.geometry"}
ORACLE_MODULES = CLI_MODULES | {"canalg.linalg", "canalg.oracle", "canalg.tubes"}
SUITE_MODULES = LEVEL_MODULES | ORACLE_MODULES | {"canalg.checks"}
# dataclasses brings inspect, ast, dis and tokenize; fractions brings decimal
NEVER_LOADED = {"dataclasses", "inspect"}
LEVEL_NEVER_LOADED = NEVER_LOADED | {"fractions", "decimal"}


@pytest.mark.parametrize("argv, loaded", [
    (("ci", "--type", "2,3,7", "--p", "5"), LEVEL_MODULES),
    (("components", "--type", "2,3,7", "--p", "5"), LEVEL_MODULES),
    (("witness", "--type", "2,3,7"), LEVEL_MODULES),
    (("classify", "--type", "2,2,2"), LEVEL_MODULES | {"canalg.tubes", "canalg.zeroset"}),
    (("zeroset", "--type", "2,2,2", "--p", "4"),
     LEVEL_MODULES | {"canalg.tubes", "canalg.zeroset"}),
    (("verify", "--type", "2,2,2", "--pmax", "2", "--samples", "10"),
     SUITE_MODULES | {"canalg.zeroset", "canalg.zpstream"}),
    # on the boundary (delta = 1) and outside the zero-set window: the
    # zero-set suite reads nothing from zeroset
    (("verify", "--type", "5,5,5,5,5", "--pmax", "1", "--samples", "10"), SUITE_MODULES),
    (("oracle", "--type", "2,2,2"), ORACLE_MODULES),
], ids=["ci", "components", "witness", "classify", "zeroset", "verify", "verify-boundary",
        "oracle"])
def test_subcommand_loads_only_its_modules(argv, loaded):
    # linalg and oracle belong to verify and oracle alone, checks and
    # zpstream to verify; oracle loads none of checks, geometry, zeroset
    # and zpstream
    code, *added = fresh_python(LOADED_BY_QUERY, *argv).split()
    assert code == "0"
    assert {m for m in added if m.startswith("canalg.")} == loaded
    never = LEVEL_NEVER_LOADED if loaded == LEVEL_MODULES else NEVER_LOADED
    assert not never & set(added)


@pytest.mark.parametrize("argv", [
    ("verify", "--type", "2,2,2", "--samples", "0"),
    ("verify", "--type", "2,x"),
    ("oracle", "--type", "2,2,2", "--sizes", "46"),
    ("components", "--type", "2,2,2", "--p", "3", "--cap", "0"),
    ("oracle", "--type", "40,40,40", "--full", "--sizes", "23"),
    ("verify", "--type", "160,160,160", "--samples", "1"),
], ids=["samples", "type", "sizes", "cap", "unknowns", "steps"])
def test_refusal_loads_no_handler_module(argv):
    # main refuses on the arguments and the type before a handler imports anything
    code, *added = fresh_python(LOADED_BY_QUERY, *argv).split()
    assert code == "2"
    assert {m for m in added if m.startswith("canalg.")} == CLI_MODULES
    assert not LEVEL_NEVER_LOADED & set(added)


def test_bare_import_loads_no_submodule():
    out = fresh_python("import sys, canalg\n"
                       "print(*sorted(m for m in sys.modules if m.startswith('canalg.')))")
    assert out.split() == []


def test_cli_import_loads_only_what_every_handler_reads():
    # geometry is imported by the handlers that run it, not by cli itself
    out = fresh_python("import sys, canalg.cli\n"
                       "print(*sorted(m for m in sys.modules if m.startswith('canalg.')))")
    assert set(out.split()) == CLI_MODULES


def _package_imports() -> dict[str, set[str]]:
    """Per module of canalg, the canalg modules it imports with ``from . import
    x`` or ``from .x import ...``, at module level or inside functions."""
    graph = {}
    for path in (SRC / "canalg").glob("*.py"):
        graph[path.stem] = {
            module for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for module in ([node.module] if node.module else [a.name for a in node.names])}
    return graph


def test_package_import_graph_has_no_cycle():
    graph = _package_imports()
    assert graph["cli"] >= {"checks", "geometry", "zeroset"}  # function-level imports count
    assert "zeroset" not in graph["zpstream"]
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


def test_zpstream_loads_without_zeroset():
    out = fresh_python("import sys, canalg.zpstream\n"
                       "print(*sorted(m for m in sys.modules if m.startswith('canalg.')))")
    assert "canalg.zeroset" not in out.split()
    assert "canalg.zpstream" in out.split()


# The package surface as the eager imports exported it: owning module -> names.
EXPORTS = {
    "cones": ["EnumerationCapExceeded", "decompose_slope_one", "enumerate_P", "in_P", "in_Q"],
    "forms": ["CanonicalType", "DimVector", "a_dim", "basis_e", "basis_e0", "basis_einf",
              "basis_h", "euler_form", "euler_quadratic", "format_dim_vector", "gl_dim",
              "parse_dim_vector", "quadratic_lower_bound", "quadratic_via_decomposition",
              "slope_one_vector", "zero_vector"],
    "geometry": ["boundary_component_count", "ci_defect", "ci_failure_witness",
                 "classify_type", "component_count", "irreducible_components",
                 "is_complete_intersection", "is_normal"],
    "oracle": ["LambdaChoice", "MatrixRep", "build_exceptional_simple", "build_homogeneous",
               "build_length_two", "check_relations", "direct_sum", "hom_dim_linear"],
    "tubes": ["RegularModuleClass", "TubeIndec", "dim_vector", "end_dim", "hom_dim_regular",
              "hom_dim_tube", "hom_to_simple_nonzero", "parse_regular_class",
              "parse_tube_indec", "top_index"],
    "zeroset": ["OutsideProvenRange", "ZeroSetReport", "ZTriple", "check_wild_margin",
                "component_count_formula", "components_bruteforce", "diff", "enumerate_Zp",
                "equality_stratum_count", "plus_condition", "strata", "stratum_dim",
                "target_zero_dim", "wild_margin", "zeroset_is_ci", "zeroset_threshold"],
}


def test_lazy_exports_match_owning_modules():
    assert canalg.__all__ == [name for names in EXPORTS.values() for name in names]
    for module, names in EXPORTS.items():
        owner = import_module(f"canalg.{module}")
        for name in names:
            assert getattr(canalg, name) is getattr(owner, name), name
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        canalg.no_such_name


def test_submodules_resolve_as_attributes_on_a_fresh_import():
    # bench/spans.py reads canalg.checks, canalg.cli, ... as attributes after import canalg.cli
    modules = sorted(p.stem for p in (SRC / "canalg").glob("*.py")
                     if p.stem not in ("__init__", "__main__"))
    out = fresh_python("import sys, types, canalg\n"
                       "print(*(isinstance(getattr(canalg, m), types.ModuleType)"
                       " for m in sys.argv[1:]))", *modules)
    assert out.split() == ["True"] * len(modules)
