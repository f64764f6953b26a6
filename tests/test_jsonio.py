"""Serialization round trips and input validation."""

import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings

from tropsdp import (
    Certificate,
    SignedTrop,
    ValidationError,
    check_feasibility,
    game_from_pencil,
    jsonio,
)
from tropsdp.tropical import TROP_ZERO

from conftest import example_path, games, overlap_free_games

F = Fraction


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("raw, expected", [
    (3, F(3)),
    (-7, F(-7)),
    ("5/3", F(5, 3)),
    ("-3", F(-3)),
    (" 1/2 ", F(1, 2)),
    ("0.25", F(1, 4)),
])
def test_parse_rational(raw, expected):
    assert jsonio.parse_rational(raw) == expected


@pytest.mark.parametrize("raw", [0.25, True, None, [1], "1/0", "abc", "1e-3/4"])
def test_parse_rational_rejections(raw):
    with pytest.raises(ValidationError):
        jsonio.parse_rational(raw)


def test_float_rejection_suggests_a_fraction():
    with pytest.raises(ValidationError, match='write "1/10" instead of 0.1'):
        jsonio.parse_rational(0.1)


def test_format_rational():
    assert jsonio.format_rational(F(3)) == "3"
    assert jsonio.format_rational(F(-5, 4)) == "-5/4"
    assert jsonio.parse_rational(jsonio.format_rational(F(22, 7))) == F(22, 7)


# ---------------------------------------------------------------------------
# signed tropical entries
# ---------------------------------------------------------------------------

def test_signed_round_trip():
    for entry in (SignedTrop.pos(F(5, 2)), SignedTrop.neg(F(0)), TROP_ZERO):
        assert jsonio.signed_from_json(jsonio.signed_to_json(entry)) == entry
    assert jsonio.signed_to_json(TROP_ZERO) == "-inf"


def test_signed_from_json_rejects_junk():
    with pytest.raises(ValidationError):
        jsonio.signed_from_json({"sign": "+"})
    with pytest.raises(ValidationError):
        jsonio.signed_from_json({"sign": "*", "val": "1"})
    with pytest.raises(ValidationError):
        jsonio.signed_from_json("oo")


# ---------------------------------------------------------------------------
# pencils and games
# ---------------------------------------------------------------------------

def test_worked_pencil_round_trip(running_pencil):
    again = jsonio.pencil_from_json(jsonio.pencil_to_json(running_pencil))
    assert again == running_pencil


def test_pencil_from_json_validates_shape():
    with pytest.raises(ValidationError):
        jsonio.pencil_from_json([1, 2])
    with pytest.raises(ValidationError):
        jsonio.pencil_from_json({"n": 1, "m": 1})
    with pytest.raises(ValidationError):
        jsonio.pencil_from_json({"n": 2, "m": 1, "matrices": [{"entries": []}]})


def test_pencil_from_json_rejects_misshapen_matrices():
    # a matrix given as a bare entry list (missing the wrapping object)
    # used to escape as an AttributeError instead of a clean rejection
    with pytest.raises(ValidationError, match="must be an object"):
        jsonio.pencil_from_json({"n": 1, "m": 1, "matrices": [
            [{"i": 1, "j": 1, "sign": "+", "val": "0"}]]})
    with pytest.raises(ValidationError, match="must be a list"):
        jsonio.pencil_from_json({"n": 1, "m": 1, "matrices": [{"entries": 3}]})


def test_pencil_from_json_validates_indices():
    base = {"n": 1, "m": 2, "matrices": [{"entries": [
        {"i": 2, "j": 1, "sign": "-", "val": "0"}]}]}
    with pytest.raises(ValidationError, match="1 <= i <= j <= m"):
        jsonio.pencil_from_json(base)
    base["matrices"][0]["entries"] = [
        {"i": 1, "j": 2, "sign": "-", "val": "0"},
        {"i": 1, "j": 2, "sign": "-", "val": "1"},
    ]
    with pytest.raises(ValidationError, match="duplicate"):
        jsonio.pencil_from_json(base)


def test_game_round_trip(dominion_game):
    again = jsonio.game_from_json(jsonio.game_to_json(dominion_game))
    assert again == dominion_game


def test_game_from_json_validates_targets():
    with pytest.raises(ValidationError, match='"to"'):
        jsonio.game_from_json({
            "n": 1, "m": 1,
            "min_actions": [[{"to": 1, "reward": "0"}]],
            "max_actions": [[{"to": 1, "reward": "0"}]],
        })
    with pytest.raises(ValidationError, match='"to"'):
        jsonio.game_from_json({
            "n": 1, "m": 1,
            "min_actions": [[{"to": [1], "reward": "0"}]],
            "max_actions": [[{"to": [1], "reward": "0"}]],
        })
    with pytest.raises(ValidationError, match='"to"'):
        jsonio.game_from_json({
            "n": 1, "m": 1,
            "min_actions": [[{"to": ["1"], "reward": "0"}]],
            "max_actions": [[{"to": 1, "reward": "0"}]],
        })


def test_game_from_json_rejects_misshapen_actions():
    good_max = [[{"to": 1, "reward": "0"}]]
    with pytest.raises(ValidationError, match="must be lists"):
        jsonio.game_from_json({"n": 1, "m": 1,
                               "min_actions": {"1": []}, "max_actions": good_max})
    with pytest.raises(ValidationError, match="must be a list"):
        jsonio.game_from_json({"n": 1, "m": 1,
                               "min_actions": [7], "max_actions": good_max})
    with pytest.raises(ValidationError, match="bad action record"):
        jsonio.game_from_json({"n": 1, "m": 1,
                               "min_actions": [[["to", 1]]], "max_actions": good_max})
    with pytest.raises(ValidationError, match="bad action record"):
        jsonio.game_from_json({"n": 1, "m": 1,
                               "min_actions": [[{"to": [1], "reward": "0"}]],
                               "max_actions": [[0]]})


ENTRY = ("matrices", 0, "entries", 0)
MIN_TO = ("min_actions", 0, 0, "to")
MAX_TO = ("max_actions", 0, 0, "to")


@pytest.mark.parametrize("command, fixture, path, value", [
    ("check", "running.json", ENTRY + ("i",), "1"),
    ("check", "running.json", ENTRY + ("j",), True),
    ("check", "running.json", ("n",), 3.0),
    ("check", "running.json", ("n",), "3"),
    ("check", "running.json", ("m",), 3.0),
    ("affine", "running.json", ("affine",), "false"),
    ("solve-game", "dominion_game.json", ("n",), 4.0),
    ("solve-game", "dominion_game.json", ("m",), "3"),
    ("solve-game", "dominion_game.json", MIN_TO, [True]),
    ("solve-game", "dominion_game.json", MAX_TO, True),
])
def test_badly_typed_json_is_rejected(tmp_path, capsys, command, fixture,
                                      path, value):
    from tropsdp.cli import run

    obj = jsonio.load_json(example_path(fixture))
    *parents, last = path
    target = obj
    for key in parents:
        target = target[key]
    target[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run([command, str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tropsdp: ValidationError: ")
    assert err.count("\n") == 1
    assert repr(value) in err  # the message names the offending value


@settings(max_examples=40, deadline=None)
@given(g=games())
def test_random_game_round_trip(g):
    assert jsonio.game_from_json(jsonio.game_to_json(g)) == g


@settings(max_examples=40, deadline=None)
@given(g=overlap_free_games())
def test_random_pencil_round_trip(g):
    from tropsdp import pencil_from_game

    P = pencil_from_game(g)
    assert jsonio.pencil_from_json(jsonio.pencil_to_json(P)) == P


# ---------------------------------------------------------------------------
# reports and certificates
# ---------------------------------------------------------------------------

def test_report_serialization(running_pencil):
    report = check_feasibility(game_from_pencil(running_pencil))
    obj = jsonio.report_to_json(report)
    assert obj["verdict"] == "Feasible"
    assert obj["iterations"] == 20
    assert obj["epsilon"] == "1/100000000"
    assert obj["witness"][1] == "0"
    assert all("." not in w for w in obj["witness"])


def test_certificate_round_trip():
    cert = Certificate("Infeasibility", (F(-1, 3), F(2)), F(-1, 8), True)
    again = jsonio.certificate_from_json(jsonio.certificate_to_json(cert))
    assert again == cert
    assert jsonio.certificate_to_json(cert)["lambda"] == "-1/8"


def test_certificate_from_json_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        jsonio.certificate_from_json(
            {"kind": "Harmonic", "vector": ["0"], "lambda": "1", "strict": True})


# ---------------------------------------------------------------------------
# file plumbing
# ---------------------------------------------------------------------------

def test_load_json_from_file_object_and_path(tmp_path):
    path = tmp_path / "x.json"
    path.write_text('{"a": 1}\n')
    assert jsonio.load_json(str(path)) == {"a": 1}
    assert jsonio.load_json(io.StringIO('{"b": 2}')) == {"b": 2}


def test_load_json_reports_malformed_input():
    with pytest.raises(ValidationError, match="malformed JSON"):
        jsonio.load_json(io.StringIO("{not json"))


def test_dump_json_writes_and_returns(tmp_path):
    path = tmp_path / "out.json"
    text = jsonio.dump_json({"k": [1, 2]}, str(path))
    assert path.read_text() == text
    assert json.loads(text) == {"k": [1, 2]}
    assert text.endswith("\n")
    buf = io.StringIO()
    jsonio.dump_json({"z": 0}, buf)
    assert json.loads(buf.getvalue()) == {"z": 0}
