"""End-to-end command-line behavior: exit codes, formats, plumbing."""

import argparse
import ast
import io
import json
import os
import re
from fractions import Fraction

import numpy as np
import pytest

from tropsdp import (Certificate, Pencil, SignedTrop, game_from_pencil, jsonio,
                     margin_certificate, normalize)
from tropsdp import cli
from tropsdp.cli import run

from conftest import example_path

F = Fraction
POS = SignedTrop.pos
NEG = SignedTrop.neg

RUNNING = example_path("running.json")
DOMINION = example_path("dominion_game.json")
PHASE = ["phase", "--n-list", "3", "--m-list", "2", "--samples", "2",
         "--no-timing"]


def subparsers():
    """Each subcommand's parser, by name, in declaration order."""
    action, = [a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def write_pencil(tmp_path, name, n, m, entries, affine=False):
    P = Pencil.from_entries(n, m, entries, affine=affine)
    path = tmp_path / name
    jsonio.dump_json(jsonio.pencil_to_json(P), str(path))
    return str(path)


@pytest.fixture
def trivial_pencil(tmp_path):
    return write_pencil(tmp_path, "trivial.json", 1, 1, [(0, 0, 0, NEG(F(0)))])


@pytest.fixture
def both_signs_path(tmp_path, both_signs_pencil):
    path = tmp_path / "both_signs.json"
    jsonio.dump_json(jsonio.pencil_to_json(both_signs_pencil), str(path))
    return str(path)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_feasible(capsys):
    assert run(["check", RUNNING]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "Feasible"
    assert report["iterations"] == 8
    assert report["witness"] == ["5/8", "-13/32", "11/16"]


def test_check_reads_no_action_tuples(tmp_path, monkeypatch, capsys):
    from tropsdp import MaxAction, MinAction, StochGame
    from tropsdp.bench import GenSpec, gen_random

    path = tmp_path / "random.json"
    jsonio.dump_json(jsonio.pencil_to_json(gen_random(GenSpec(30, 4, 3))),
                     str(path))
    assert run(["check", str(path)]) == 0
    expected = capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("check built action tuples")

    monkeypatch.setattr(StochGame, "_actions", refuse)
    monkeypatch.setattr(MinAction, "__post_init__", refuse)
    monkeypatch.setattr(MaxAction, "__post_init__", refuse)
    assert run(["check", str(path)]) == 0
    assert capsys.readouterr().out == expected


def test_game_file_commands_read_no_action_tuples(tmp_path, monkeypatch,
                                                  capsys):
    from tropsdp import MaxAction, MinAction, StochGame

    # unsorted and duplicate actions, targets given high first and twice
    game = tmp_path / "losing.json"
    jsonio.dump_json({"n": 2, "m": 2, "min_actions": [
        [{"to": [2, 1], "reward": "-1/3"}, {"to": [1], "reward": "-1"},
         {"to": [1, 2], "reward": "-1/3"}],
        [{"to": [2, 2], "reward": "-2"}],
    ], "max_actions": [
        [{"to": 2, "reward": "1/4"}, {"to": 1}],
        [{"to": 2, "reward": "0.5"}],
    ]}, str(game))
    cert = tmp_path / "cert.json"
    commands = (["game", RUNNING], ["exact", str(game), "--policies"],
                ["certify", str(game), "--lambda=-1/100"],
                ["certify", str(game), "--check", str(cert)],
                ["exact", RUNNING, "--policies"])

    def outputs():
        seen = []
        for argv in commands:
            code = run(argv)
            out, err = capsys.readouterr()
            if argv[-1] == "--lambda=-1/100":
                cert.write_text(out)
            seen.append((code, out, err))
        return seen

    expected = outputs()
    assert [code for code, _, _ in expected] == [0, 10, 0, 0, 0]
    assert "optimal pair:" in expected[1][2]

    def refuse(*args):
        raise AssertionError("a game file command built action tuples")

    monkeypatch.setattr(StochGame, "_actions", refuse)
    monkeypatch.setattr(MinAction, "__post_init__", refuse)
    monkeypatch.setattr(MaxAction, "__post_init__", refuse)
    assert outputs() == expected


def test_check_trivial_instance(trivial_pencil, capsys):
    assert run(["check", trivial_pencil]) == 10
    report = json.loads(capsys.readouterr().out)
    assert report == {"verdict": "Infeasible", "iterations": 0,
                      "witness": []}


def test_check_free_ray(tmp_path, capsys):
    path = write_pencil(tmp_path, "ray.json", 1, 1, [(0, 0, 0, POS(F(0)))])
    assert run(["check", path]) == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["verdict"] == "Feasible"
    assert "feasible ray" in out.err


def test_check_notes_no_variables_when_only_rows_go(tmp_path, capsys):
    # normalize removes the empty row 3 and no variable, so the witness is
    # over both input variables and no variable is forced to -inf
    entries = [(0, 0, 0, POS(F(1))), (0, 0, 1, NEG(F(0))), (0, 1, 1, POS(F(0))),
               (1, 0, 0, NEG(F(2))), (1, 1, 1, POS(F(1)))]
    norm = normalize(Pencil.from_entries(2, 3, entries))
    assert (norm.kind, norm.removed_rows, norm.eliminated_variables) == \
        ("reduced", (2,), ())
    assert run(["check", write_pencil(tmp_path, "rows.json", 2, 3, entries)]) == 0
    out = capsys.readouterr()
    assert len(json.loads(out.out)["witness"]) == 2
    assert out.err == ""


def test_check_indeterminate(both_signs_path, capsys):
    assert run(["check", both_signs_path, "--max-iters", "50"]) == 20
    out = capsys.readouterr()
    assert json.loads(out.out)["verdict"] == "Indeterminate"
    assert "hint: indeterminate after --max-iters 50 steps;" in out.err


def test_check_rejects_non_metzler(tmp_path, capsys):
    path = write_pencil(tmp_path, "bad.json", 1, 2, [
        (0, 0, 0, POS(F(0))), (0, 0, 1, POS(F(1))), (0, 1, 1, NEG(F(0))),
    ])
    assert run(["check", path]) == 1
    assert "Metzler" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["check", RUNNING], ["certify", RUNNING],
                                  PHASE], ids=["check", "certify", "phase"])
def test_no_exact_flag(argv, capsys):
    # the arithmetic and the stopping rule are the loop's choice, not the
    # user's: there is no --exact and no --eps
    with pytest.raises(SystemExit):
        run([argv[0], "--help"])
    usage = capsys.readouterr().out
    for flag in ("--exact", "--eps"):
        assert flag not in usage
        with pytest.raises(SystemExit) as exc:
            run([*argv, flag])
        assert exc.value.code == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# n = 1, m = 2 pencils with moduli near 10^8 and 10^20, which doubles round:
# a loop in doubles exits Infeasible after one step on both, although both
# are feasible (margins 0 and 8190); the integer grid rounds no modulus
LARGE_MODULI = [
    ((F(1500000008, 15), F(1499999998, 15), F(500000001, 5)), "0"),
    ((100000000000000024575, 100000000000000008191, 100000000000000008193),
     "8190"),
]


@pytest.mark.parametrize("moduli, margin", LARGE_MODULI, ids=["1e8", "1e20"])
def test_check_decides_large_moduli_that_doubles_round(tmp_path, capsys,
                                                       moduli, margin):
    q11, q22, q12 = map(F, moduli)
    path = write_pencil(tmp_path, "large.json", 1, 2, [
        (0, 0, 0, POS(q11)), (0, 0, 1, NEG(q12)), (0, 1, 1, POS(q22))])
    assert run(["exact", path]) == 0
    assert json.loads(capsys.readouterr().out)["margin"] == margin
    assert run(["check", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] == "Feasible"


def test_readme_transcripts_are_what_the_commands_print(monkeypatch, capsys):
    # every `$ tropsdp ...` line of README.md shown with its output; the
    # README prints short arrays on one line, so compare parsed JSON
    root = os.path.join(os.path.dirname(RUNNING), "..")
    with open(os.path.join(root, "README.md"), encoding="utf-8") as f:
        transcripts = re.findall(r"^\$ tropsdp ([^\n]+)\n(\{.*?^\})$", f.read(),
                                 re.MULTILINE | re.DOTALL)
    assert [argv.split()[0] for argv, _ in transcripts] == ["check", "exact"]
    monkeypatch.chdir(root)
    for argv, printed in transcripts:
        assert run(argv.split()) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(printed)


def test_readme_command_table_lists_the_subcommands_in_order():
    root = os.path.join(os.path.dirname(RUNNING), "..")
    with open(os.path.join(root, "README.md"), encoding="utf-8") as f:
        table = re.search(r"^\| command +\|.*?\n\n", f.read(),
                          re.MULTILINE | re.DOTALL).group()
    listed = re.findall(r"^\| `([a-z-]+)` +\|", table, re.MULTILINE)
    assert listed == list(subparsers())


def test_readme_quick_start_does_what_its_comments_say(monkeypatch):
    # the README's Python block, run statement by statement: each bare
    # expression whose comment opens with a value evaluates to that value
    root = os.path.join(os.path.dirname(RUNNING), "..")
    with open(os.path.join(root, "README.md"), encoding="utf-8") as f:
        block, = re.findall(r"^```python\n(.*?)^```$", f.read(),
                            re.MULTILINE | re.DOTALL)
    lines = block.splitlines()
    monkeypatch.chdir(root)
    namespace, stated = {}, []
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(node.value), "README", "eval"),
                     namespace)
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        found = re.match(r"'[^']*'|\(.*?\)|Fraction\(.*?\)", comment)
        if found:
            stated.append(found.group())
            assert value == eval(found.group(), namespace), found.group()
    assert stated == ["'Feasible'", "(True, True)", "'Feasibility'",
                      "'Nontrivial'", "Fraction(1, 28)"]


# ---------------------------------------------------------------------------
# exact / game
# ---------------------------------------------------------------------------

def test_exact_worked_example(capsys):
    assert run(["exact", RUNNING]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "Nontrivial"
    assert out["margin"] == "1/28"
    assert out["value"]["chi"] == ["1/56"] * 3
    assert out["value"]["optimal_pair"] == {"sigma": [1, 1, 2], "tau": [1, 1, 1]}
    assert out["value"]["saddle_verified"] is True


def test_exact_policies_and_chain(capsys):
    assert run(["exact", RUNNING, "--policies", "--dump-chain"]) == 0
    out = capsys.readouterr()
    payload = json.loads(out.out)
    assert payload["chain"]["gain"] == ["1/56"] * 6
    assert "Min 3" in out.err and "Max 2" in out.err


def test_game_translation(capsys, running_pencil):
    from tropsdp import game_from_pencil

    assert run(["game", RUNNING]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == jsonio.game_to_json(game_from_pencil(running_pencil))
    assert out["min_actions"][2][0] == {"to": [1, 3], "reward": "-3/4"}


def test_game_pipe_matches_exact(tmp_path, capsys):
    game_file = tmp_path / "game.json"
    assert run(["game", RUNNING, "-o", str(game_file)]) == 0
    capsys.readouterr()
    assert run(["exact", str(game_file)]) == 0
    piped = capsys.readouterr()
    assert run(["exact", RUNNING]) == 0
    assert capsys.readouterr() == piped
    assert json.loads(piped.out)["margin"] == "1/28"


def test_solve_game_policies_and_chain_match_exact(tmp_path, capsys):
    # exact on the game file prints what exact on the pencil prints
    game_file = tmp_path / "game.json"
    assert run(["game", RUNNING, "-o", str(game_file)]) == 0
    capsys.readouterr()
    assert run(["exact", str(game_file), "--policies", "--dump-chain"]) == 0
    piped = capsys.readouterr()
    assert run(["exact", RUNNING, "--policies", "--dump-chain"]) == 0
    assert capsys.readouterr() == piped
    assert json.loads(piped.out)["chain"]["gain"] == ["1/56"] * 6
    assert piped.err.startswith("optimal pair:\n  Min 1:")


def test_solve_game_is_no_command(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["solve-game", DOMINION])
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith(
        "tropsdp: error: argument COMMAND: invalid choice: 'solve-game'")


def test_exact_refuses_a_game_of_no_states(tmp_path, capsys):
    path = tmp_path / "empty.json"
    jsonio.dump_json({"n": 0, "m": 0, "min_actions": [], "max_actions": []},
                     str(path))
    assert run(["exact", str(path)]) == 1
    assert capsys.readouterr() == ("", "tropsdp: ValidationError: game needs "
                                   "n >= 1 and m >= 1, got (0, 0)\n")


def test_solve_game_losing(tmp_path, capsys):
    # exact on a game file: margin 2 max chi, exit 10 when it is negative
    game = {
        "n": 1, "m": 1,
        "min_actions": [[{"to": [1], "reward": "-1"}]],
        "max_actions": [[{"to": 1, "reward": "0"}]],
    }
    path = tmp_path / "losing.json"
    jsonio.dump_json(game, str(path))
    assert run(["exact", str(path)]) == 10
    out = json.loads(capsys.readouterr().out)
    assert (out["status"], out["margin"]) == ("Trivial", "-1")
    assert out["value"]["chi"] == ["-1/2"]


@pytest.mark.parametrize("min_to, max_to, n, reason", [
    ([[{"to": [0]}]], [[{"to": 1}]], 1,
     'Min action "to" must list one or two row states in 1..1, got [0] at state 1'),
    ([[{"to": [1]}]], [[{"to": 2}]], 1,
     'Max action "to" must be a column state index in 1..1, got 2 at state 1'),
    ([[{"to": [1]}], []], [[{"to": 1}]], 2, "Min state 2 has no actions"),
    ([[{"to": [1]}]], [[]], 1, "Max state 1 has no actions"),
    ([[{"to": [1]}]], [[{"to": 1}]], 2, "min_actions must list every Min state"),
    ([[{"to": [1]}]], [], 1, "max_actions must list every Max state"),
], ids=["min-target", "max-target", "no-min-action", "no-max-action",
        "missing-min-state", "missing-max-state"])
@pytest.mark.parametrize("argv", [["exact"],
                                  ["certify", "--lambda=1/100"]],
                         ids=["exact", "certify"])
def test_game_file_errors_count_states_from_one(tmp_path, capsys, argv, min_to,
                                                max_to, n, reason):
    # the file numbers states from 1, so its errors do too
    path = tmp_path / "bad.json"
    jsonio.dump_json({"n": n, "m": 1, "min_actions": min_to,
                      "max_actions": max_to}, str(path))
    assert run([argv[0], str(path), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"tropsdp: ValidationError: {reason}\n"


# ---------------------------------------------------------------------------
# preprocessing commands
# ---------------------------------------------------------------------------

def test_normalize_reduced(capsys):
    assert run(["normalize", RUNNING]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "reduced"
    assert out["eliminated_variables"] == []
    assert out["pencil"]["n"] == 3


def test_normalize_trivial(trivial_pencil, capsys):
    assert run(["normalize", trivial_pencil]) == 10
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "trivial"
    assert out["pencil"] is None


def test_metzlerize(tmp_path, capsys):
    path = write_pencil(tmp_path, "general.json", 1, 2, [
        (0, 0, 0, POS(F(0))), (0, 0, 1, POS(F(1))), (0, 1, 1, NEG(F(0))),
    ])
    assert run(["metzlerize", path]) == 0
    out = capsys.readouterr()
    lifted = jsonio.pencil_from_json(json.loads(out.out))
    assert (lifted.n, lifted.m) == (2, 6)
    assert lifted.is_metzler()
    assert "auxiliary variables" in out.err


def test_metzlerize_notes_only_added_variables(tmp_path, capsys):
    # one row has no off-diagonal pair, so the lift adds no variable
    path = write_pencil(tmp_path, "one_row.json", 1, 1, [(0, 0, 0, POS(F(0)))])
    assert run(["metzlerize", path]) == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["n"] == 1
    assert out.err == ""


def test_affine_reads_a_metzlerized_affine_pencil(tmp_path, capsys):
    # x_0 = x_1 satisfies the general pencil, which needs x_1 >= x_0
    path = write_pencil(tmp_path, "general.json", 2, 2, [
        (0, 0, 0, POS(F(0))), (0, 0, 1, POS(F(1))), (0, 1, 1, NEG(F(0))),
        (1, 0, 0, NEG(F(0))), (1, 1, 1, POS(F(2))),
    ], affine=True)
    lifted = str(tmp_path / "lifted.json")
    assert run(["metzlerize", path, "-o", lifted]) == 0
    capsys.readouterr()
    assert jsonio.load_json(lifted)["affine"] is True
    assert run(["affine", lifted]) == 0
    assert json.loads(capsys.readouterr().out) == {"feasible": True}


def test_affine_exit_codes(tmp_path, capsys):
    dead = write_pencil(tmp_path, "dead.json", 1, 1,
                        [(0, 0, 0, NEG(F(5)))], affine=True)
    assert run(["affine", dead]) == 10
    assert json.loads(capsys.readouterr().out) == {"feasible": False}
    free = write_pencil(tmp_path, "free.json", 1, 1,
                        [(0, 0, 0, POS(F(3)))], affine=True)
    assert run(["affine", free]) == 0
    assert json.loads(capsys.readouterr().out) == {"feasible": True}


def test_affine_has_no_pair_cap_option(tmp_path):
    # subgames are capped by the library default; the option never took effect
    path = write_pencil(tmp_path, "aff.json", 1, 1,
                        [(0, 0, 0, POS(F(3)))], affine=True)
    with pytest.raises(SystemExit) as exc:
        run(["affine", path, "--max-pairs", "1"])
    assert exc.value.code == 1


def test_affine_has_no_max_states_option(capsys):
    # affine makes at most n exact solves, so there is no state cap to set
    with pytest.raises(SystemExit) as exc:
        run(["affine", "--max-states", "16", RUNNING])
    assert exc.value.code == 1
    assert "unrecognized arguments: --max-states" in capsys.readouterr().err


def test_check_warns_on_affine_flag(tmp_path, capsys):
    path = write_pencil(tmp_path, "aff.json", 1, 1,
                        [(0, 0, 0, POS(F(0)))], affine=True)
    assert run(["check", path]) == 0
    assert "tropsdp affine" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

def test_certify_roundtrip(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    assert run(["certify", RUNNING, "--lambda", "1/100",
                "-o", str(cert_file)]) == 0
    capsys.readouterr()
    assert run(["certify", RUNNING, "--check", str(cert_file)]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["holds"] is True
    assert verdict["kind"] == "Feasibility"


def test_certify_detects_tampering(tmp_path, capsys):
    cert_file = tmp_path / "cert.json"
    run(["certify", RUNNING, "--lambda", "1/100", "-o", str(cert_file)])
    capsys.readouterr()
    cert = json.loads(cert_file.read_text())
    cert["vector"][0] = "100"
    cert_file.write_text(json.dumps(cert))
    assert run(["certify", RUNNING, "--check", str(cert_file)]) == 1
    out = capsys.readouterr()
    assert json.loads(out.out)["holds"] is False
    assert "does not verify" in out.err


def test_certify_infeasibility_on_game_file(tmp_path, capsys):
    game = {
        "n": 1, "m": 1,
        "min_actions": [[{"to": [1], "reward": "-1"}]],
        "max_actions": [[{"to": 1, "reward": "0"}]],
    }
    path = tmp_path / "losing.json"
    jsonio.dump_json(game, str(path))
    assert run(["certify", str(path), "--lambda=-1/2"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["kind"] == "Infeasibility"
    assert cert["lambda"] == "-1/2"


@pytest.mark.parametrize("field, value", [
    ("vector", None), ("vector", 5), ("vector", "101"), ("strict", "no")])
def test_certify_check_rejects_a_badly_typed_certificate(tmp_path, capsys,
                                                        field, value):
    cert_file = tmp_path / "cert.json"
    run(["certify", RUNNING, "--lambda", "1/100", "-o", str(cert_file)])
    cert = json.loads(cert_file.read_text())
    cert[field] = value
    cert_file.write_text(json.dumps(cert))
    capsys.readouterr()
    assert run(["certify", RUNNING, "--check", str(cert_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f'tropsdp: ValidationError: certificate "{field}" must be ')
    assert captured.err.endswith(f", got {value!r}\n")


def test_certify_needs_lambda_or_check(capsys):
    assert run(["certify", RUNNING]) == 1
    assert "--lambda" in capsys.readouterr().err


def test_certify_takes_lambda_or_check_but_not_both(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert run(["certify", RUNNING, "--lambda=1/100", "-o", str(cert)]) == 0
    with pytest.raises(SystemExit) as exc:
        run(["certify", RUNNING, "--lambda=-5", "--check", str(cert)])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --check: not allowed with argument --lambda" in captured.err


def test_certify_refuses_a_lambda_that_is_no_rational(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["certify", RUNNING, "--lambda=abc"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("tropsdp certify: error: argument --lambda: "
                            "bad rational literal 'abc'\n")


def test_certify_above_margin_fails(capsys):
    assert run(["certify", RUNNING, "--lambda", "1"]) == 1
    assert "CertificateInvalid" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# generation and sweeps
# ---------------------------------------------------------------------------

def test_gen_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen", "--n", "3", "--m", "3", "--seed", "5", "-o", str(a)]) == 0
    assert run(["gen", "--n", "3", "--m", "3", "--seed", "5", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert run(["check", str(a)]) in (0, 10, 20)
    capsys.readouterr()


@pytest.mark.parametrize("sizes, message", [
    ("1,x", "expected comma-separated integers, got '1,x'"),
    ("", "expected at least one size"),
    (",", "expected at least one size"),
], ids=["not-an-integer", "empty", "comma"])
@pytest.mark.parametrize("flag", ["--n-list", "--m-list"])
def test_phase_refuses_a_bad_size_list(flag, sizes, message, capsys):
    argv = {"--n-list": "3", "--m-list": "2", flag: sizes}
    with pytest.raises(SystemExit) as exc:
        run(["phase", *(part for item in argv.items() for part in item)])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"tropsdp phase: error: argument {flag}: {message}\n"


def test_phase_refuses_a_negative_seed(capsys):
    assert run(["phase", "--n-list", "3", "--m-list", "2", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("tropsdp: ValidationError: seed must be a "
                            "nonnegative integer\n")


def test_phase_csv(capsys):
    assert run(["phase", "--n-list", "3", "--m-list", "2,3",
                "--samples", "2", "--no-timing", "--max-iters", "2000"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "n,m,samples,feasible_ratio,indeterminate,mean_iters,mean_time_s"
    assert len(lines) == 3
    assert all(line.endswith(",") for line in lines[1:])  # timing blanked


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_schema_flag(capsys):
    assert run(["--schema"]) == 0
    out = capsys.readouterr().out
    assert '"sign": "+"|"-"' in out
    assert "feasible_ratio" in out


@pytest.mark.parametrize("record, message", [
    ("-inf", "bad entry record '-inf'"),
    ({"i": 1, "j": 2, "sign": "-", "val": "-inf"}, "bad rational literal '-inf'"),
])
def test_minus_infinity_is_an_omitted_entry_not_a_record(tmp_path, capsys,
                                                          record, message):
    assert run(["--schema"]) == 0
    assert '"-inf"' not in capsys.readouterr().out
    path = tmp_path / "inf.json"
    path.write_text(json.dumps({"n": 1, "m": 2, "matrices": [
        {"entries": [{"i": 1, "j": 1, "sign": "+", "val": "0"}, record]}]}))
    assert run(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_no_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 1
    assert "subcommand" in capsys.readouterr().err


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as exc:
        run(["check", RUNNING, "--bogus"])
    assert exc.value.code == 1


def test_one_parser_serves_every_run(monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def recorded(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", recorded)
    cli.build_parser.cache_clear()
    assert run(["check", RUNNING]) == 0
    report = capsys.readouterr().out
    assert run(["--schema"]) == 0
    schema = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        run(["check", RUNNING, "--bogus"])
    assert exc.value.code == 1
    capsys.readouterr()
    for _ in range(3):
        assert run(["check", RUNNING]) == 0
        assert capsys.readouterr().out == report
    assert run(["--schema"]) == 0
    assert capsys.readouterr().out == schema
    # the top-level parser and one per subcommand, once
    assert built.count("tropsdp") == 1
    assert len(built) == 1 + len(subparsers())


@pytest.mark.parametrize("argv", [[]] + [[name] for name in subparsers()],
                         ids=lambda argv: argv[0] if argv else "top")
def test_help_reads_the_width_when_it_formats(argv, monkeypatch, capsys):
    cli.build_parser()  # built before the widths below are set
    pages = []
    for columns in ("50", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        for parser in (cli.build_parser(), cli.build_parser.__wrapped__()):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([*argv, "--help"])
            assert exc.value.code == 0
            pages.append(capsys.readouterr().out)
    assert pages[0] == pages[1] and pages[2] == pages[3]
    assert pages[0] != pages[2]


def test_shared_flags_are_declared_once():
    # a flag that two or more subcommands take reads the same in each: help
    # text, type and default, but for the smaller --max-iters budget of phase
    copies = {}
    for name, parser in subparsers().items():
        for action in parser._actions:
            default = action.default
            if (name, action.dest) == ("phase", "max_iters"):
                assert default == 10**5
                default = 10**6
            for flag in action.option_strings:
                copies.setdefault(flag, []).append(
                    (action.help, action.type, default))
    shared = {flag for flag, seen in copies.items() if len(seen) > 1}
    assert "--max-iters" in shared
    for flag in shared:
        assert len(set(copies[flag])) == 1, (flag, copies[flag])


def test_every_option_has_help_text():
    missing = [(name, action.dest) for name, parser in subparsers().items()
               for action in parser._actions if not action.help]
    assert missing == []


def test_stdin_input(capsys, monkeypatch):
    text = jsonio.dump_json(jsonio.pencil_to_json(
        Pencil.from_entries(1, 1, [(0, 0, 0, NEG(F(0)))])))
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(["check"]) == 10
    capsys.readouterr()


def test_output_to_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    assert run(["check", RUNNING, "-o", str(out_file)]) == 0
    assert json.loads(out_file.read_text())["verdict"] == "Feasible"
    assert capsys.readouterr().out == ""


def test_missing_input_exits_one(capsys):
    assert run(["check", "/no/such/file.json"]) == 1
    assert "file" in capsys.readouterr().err.lower()


def test_misshapen_pencil_exits_one_without_traceback(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 1, "m": 1, "matrices": [[{"i": 1, "j": 1, '
                    '"sign": "+", "val": "0"}]]}')
    assert run(["check", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tropsdp: ValidationError")
    assert "Traceback" not in err


@pytest.mark.parametrize("data, reason", [
    (b"\xff\xfe{}", "input is not UTF-8 text"),  # a UTF-16 byte-order mark
    (b"[" * 200_000, "malformed JSON: maximum recursion depth exceeded"),
    (b'{"n": 1, "m": 1, "matrices": [{"entries": [{"i": 1, "j": 1, "sign": "-", '
     b'"val": ' + b"9" * 5000 + b"}]}]}", "malformed JSON: Exceeds the limit (4300 digits)"),
], ids=["utf16", "deep", "digits"])
@pytest.mark.parametrize("via", ["file", "stdin"])
@pytest.mark.parametrize("command", ["check", "exact"])
def test_unreadable_input_exits_one_without_traceback(tmp_path, capsys, monkeypatch,
                                                      command, via, data, reason):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    if via == "stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data),
                                                          encoding="utf-8"))
    assert run([command, str(path) if via == "file" else "-"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"tropsdp: ValidationError: {reason}")
    assert err.count("\n") == 1


@pytest.mark.parametrize("m", [2**40, 10**18])
@pytest.mark.parametrize("command", ["check", "exact", "normalize", "game"])
def test_pencils_whose_cell_keys_pass_int64_exit_one(tmp_path, capsys, command, m):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"n": 1, "m": m, "matrices": [{"entries": [
        {"i": i, "j": j, "sign": "+" if i == j else "-", "val": 0}
        for i, j in ((m // 2 + 1, m // 2 + 1), (1, m), (2, 2))]}]}))
    assert run([command, str(path)]) == 1
    assert capsys.readouterr().err == (
        f"tropsdp: ValidationError: pencil of 1 matrices {m} x {m} is too "
        "large: n m^2 must be below 2^63\n")


@pytest.mark.parametrize("argv", [
    ["gen", "--n", str(10**15), "--m", "2"],
    ["phase", "--n-list", str(10**15), "--m-list", "2", "--samples", "1"],
], ids=["gen", "phase"])
def test_sizes_past_the_address_space_exit_one(argv, capsys):
    # 10^15 int64 entries take 8 * 10^15 bytes, past the 2^47-byte address
    # space: numpy refuses them at once, whatever the overcommit mode
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("tropsdp: Unable to allocate")
    assert err.count("\n") == 1


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("argv, name", [
    (["exact", RUNNING, "--max-pairs"], "max-pairs"),
    (["exact", DOMINION, "--max-pairs"], "max-pairs"),
    (["certify", RUNNING, "--max-iters"], "max-iters"),
    (["check", RUNNING, "--max-iters"], "max-iters"),
])
def test_caps_below_one_exit_one(argv, name, value, capsys):
    assert run([*argv, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"tropsdp: ValidationError: {name} must be at least 1\n"


HUGE = "1" + "0" * 400  # past the largest double


def test_certify_needs_a_nonzero_margin(capsys):
    assert run(["certify", RUNNING, "--lambda=0"]) == 1
    assert capsys.readouterr().err == \
        "tropsdp: ValidationError: the margin --lambda must be nonzero\n"


def huge_pencil(tmp_path, affine=False):
    """The 1 x 2 pencil with a diagonal modulus of 10^400: its game's
    value is (10^400 + 1) / 4 per move."""
    return write_pencil(tmp_path, f"huge-{affine}.json", 1, 2, [
        (0, 0, 0, POS(F(HUGE))), (0, 1, 1, POS(F(1))), (0, 0, 1, NEG(F(0)))],
        affine)


@pytest.mark.parametrize("margin", [HUGE, "-" + HUGE], ids=["positive", "negative"])
def test_rewards_past_the_largest_double_are_decided(tmp_path, margin, capsys):
    # past the largest double value iteration runs in Python ints
    assert run(["check", huge_pencil(tmp_path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["verdict"], report["iterations"]) == ("Feasible", 1)
    # F - 10^400 is Infeasible and F + 10^400 Feasible: no certificate
    assert run(["certify", RUNNING, f"--lambda={margin}"]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err.count("\n")) == ("", 1)
    assert captured.err.startswith("tropsdp: CertificateInvalid: ")


def overflow_pencil(tmp_path):
    """The 1 x 2 pencil with F(x) = x - 34 * 10^307: its rewards are
    doubles, but their sum overflows."""
    big = F(17 * 10**307)
    return write_pencil(tmp_path, "overflow.json", 1, 2, [
        (0, 0, 0, POS(-big)), (0, 0, 1, NEG(big)), (0, 1, 1, POS(-big))])


def test_rewards_whose_sums_leave_the_doubles_are_decided(tmp_path, capsys):
    path = overflow_pencil(tmp_path)
    assert run(["exact", path]) == 10
    assert json.loads(capsys.readouterr().out)["status"] == "Trivial"
    assert run(["check", path]) == 10
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert (report["verdict"], report["iterations"]) == ("Infeasible", 1)
    assert report["witness"] == [str(-34 * 10**307)]
    assert captured.err == ""
    assert run(["certify", path, "--lambda=-1"]) == 0
    captured = capsys.readouterr()
    cert = json.loads(captured.out)
    assert (cert["kind"], cert["strict"], captured.err) == ("Infeasibility", True, "")


def exact_paths(tmp_path, pencil, vector):
    """argv of the commands that never iterate: exact, game, exact on the
    game that writes, affine on the pencil with its affine flag set,
    and certify --check of this vector as a certificate at margin 1/100."""
    P = jsonio.pencil_from_json(jsonio.load_json(pencil))
    affine, game, cert = (str(tmp_path / name) for name in
                          ("affine.json", "game.json", "cert.json"))
    jsonio.dump_json(jsonio.pencil_to_json(Pencil(
        P.n, P.m, P.k, P.i, P.j, P.sign, P.num, P.den, affine=True)), affine)
    jsonio.dump_json(jsonio.certificate_to_json(
        Certificate("Feasibility", tuple(vector), F(1, 100), True)), cert)
    return [["exact", pencil], ["game", pencil, "-o", game], ["exact", game],
            ["affine", affine], ["certify", pencil, "--check", cert]]


def test_exact_paths_take_any_reward(tmp_path, capsys):
    outputs = []
    for argv in exact_paths(tmp_path, huge_pencil(tmp_path), [F(0)]):
        assert run(argv) == 0
        outputs.append(capsys.readouterr())
    exact, _, solved, affine, check = (json.loads(out.out or "null") for out in outputs)
    chi = [jsonio.format_rational(F(10**400 + 1, 4))]
    assert (exact["status"], exact["value"]["chi"]) == ("Nontrivial", chi)
    assert solved == exact
    assert affine == {"feasible": True}
    assert (check["holds"], check["strict"]) == (True, True)


@pytest.mark.parametrize("huge", [False, True], ids=["running", "huge"])
def test_exact_paths_make_no_doubles(tmp_path, huge, kernel_dtypes):
    if huge:
        paths = exact_paths(tmp_path, huge_pencil(tmp_path), [F(0)])
    else:
        G = game_from_pencil(jsonio.pencil_from_json(jsonio.load_json(RUNNING)))
        paths = exact_paths(tmp_path, RUNNING,
                            margin_certificate(G, F(1, 100)).vector)
    kernel_dtypes.clear()
    for argv in paths:
        assert run(argv) == 0
    # int8 is largest_dominion's pass over 0/1 supports
    assert set(kernel_dtypes) <= {np.dtype(np.int8), np.dtype(np.int64),
                                  np.dtype(object)}


@pytest.mark.parametrize("value", ["0", "-1", "1e-400", HUGE],
                         ids=["zero", "negative", "tiny", "huge"])
@pytest.mark.parametrize("argv, flag", [
    (["check", RUNNING], "--max-iters"),
    (["certify", RUNNING], "--lambda"),
    (["certify", RUNNING, "--lambda=1/100"], "--max-iters"),
    (PHASE, "--max-iters"),
    (["exact", RUNNING], "--max-pairs"),
], ids=["check-max-iters", "certify-lambda", "certify-max-iters",
        "phase-max-iters", "exact-max-pairs"])
def test_numeric_flags_never_raise(argv, flag, value, capsys):
    try:
        code = run([*argv, f"{flag}={value}"])
    except SystemExit as exc:  # argparse refuses the literal
        code = exc.code
    assert code in (0, 10, 20, 1)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("game_file", [False, True], ids=["exact", "exact-game"])
def test_dump_chain_analyses_the_optimal_pair_once(game_file, tmp_path,
                                                   monkeypatch, capsys):
    # the value is checked without markov.analyze; --dump-chain analyses
    # the optimal pair once, and only that flag does
    import tropsdp.cli
    import tropsdp.exact
    import tropsdp.markov

    path = RUNNING
    if game_file:
        path = str(tmp_path / "game.json")
        assert run(["game", RUNNING, "-o", path]) == 0
    capsys.readouterr()
    calls = []
    original = tropsdp.markov.analyze

    def counting(chain):
        calls.append(chain)
        return original(chain)

    for module in (tropsdp.markov, tropsdp.exact, tropsdp.cli):
        monkeypatch.setattr(module, "analyze", counting, raising=False)
    assert run(["exact", path, "--policies"]) == 0
    assert calls == []
    capsys.readouterr()
    assert run(["exact", path, "--dump-chain"]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["chain"]["gain"] == ["1/56"] * 6


@pytest.mark.parametrize("argv", [["exact", RUNNING], ["exact", DOMINION]],
                         ids=["exact", "exact-game"])
def test_dump_chain_numbers_every_state_from_one(argv, capsys):
    # each recurrent class is the key set of its stationary law
    assert run([*argv, "--dump-chain"]) == 0
    chain = json.loads(capsys.readouterr().out)["chain"]
    assert chain["recurrent_classes"] == \
        [sorted(map(int, law)) for law in chain["stationary"]]


@pytest.mark.parametrize("argv,scans,translations", [
    (["check"], 1, 1),
    (["normalize"], 1, 0),
    (["game"], 0, 1),
    (["certify", "--lambda=1/100"], 0, 1),
    (["exact"], 1, 1),
    (["exact", "--policies", "--dump-chain"], 1, 1),
    (["affine"], 1, 1),
    (["metzlerize"], 0, 0),
], ids=["check", "normalize", "game", "certify", "exact",
        "exact-policies-chain", "affine", "metzlerize"])
def test_pencil_command_scans_and_translates_once(argv, scans, translations,
                                                  tmp_path, monkeypatch,
                                                  running_pencil, capsys):
    import tropsdp.cli
    import tropsdp.exact
    from tropsdp import game_from_pencil

    path = tmp_path / "running_affine.json"
    R = running_pencil
    affine = Pencil(R.n, R.m, R.k, R.i, R.j, R.sign, R.num, R.den, affine=True)
    jsonio.dump_json(jsonio.pencil_to_json(affine), str(path))
    scanned, translated = [], []
    is_metzler = Pencil.is_metzler

    def counted_scan(self):
        scanned.append(self)
        return is_metzler(self)

    def counted_translation(P):
        translated.append(P)
        return game_from_pencil(P)

    monkeypatch.setattr(Pencil, "is_metzler", counted_scan)
    for module in (tropsdp.cli, tropsdp.exact):
        monkeypatch.setattr(module, "game_from_pencil", counted_translation)
    assert run([*argv, str(path)]) == 0
    capsys.readouterr()
    # each translation checks the Metzler rule itself, through require_metzler
    assert (len(scanned), len(translated)) == (scans + translations, translations)


@pytest.mark.parametrize("argv", [["game"], ["certify", "--lambda=1/100"]],
                         ids=["game", "certify"])
def test_untranslatable_affine_pencil_prints_no_note(argv, tmp_path, capsys):
    # the translation error comes before the affine note
    path = write_pencil(tmp_path, "aff.json", 1, 1,
                        [(0, 0, 0, POS(F(0)))], affine=True)
    assert run([*argv, path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("tropsdp: AssumptionViolated: matrix 0 has no "
                            "negatively signed entry; run normalize first\n")
