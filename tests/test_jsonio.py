"""Serialization round trips and input validation."""

import copy
import gc
import io
import json
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from tropsdp import (
    Certificate,
    MaxAction,
    MinAction,
    Pencil,
    StochGame,
    ValidationError,
    check_feasibility,
    game_from_pencil,
    jsonio,
)
from tropsdp.bench import GenSpec, gen_random

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


def one_entry_pencil(val) -> dict:
    return {"n": 1, "m": 1,
            "matrices": [{"entries": [{"i": 1, "j": 1, "sign": "-", "val": val}]}]}


@pytest.mark.parametrize("val", ["1 / 2", "1/ 2", "3/-4", "1/0", "0x10", "",
                                 0.5, True])
def test_pencil_literals_rejected_like_parse_rational(val):
    with pytest.raises(ValidationError) as parsed:
        jsonio.parse_rational(val)
    with pytest.raises(ValidationError) as loaded:
        jsonio.pencil_from_json(one_entry_pencil(val))
    assert str(loaded.value) == str(parsed.value)


@pytest.mark.parametrize("val", [" 1/2 ", "+3/4", "-0", "2/4", "0.25", "1e3",
                                 "1_0/3", "\u0663/4"])
def test_pencil_literals_read_like_parse_rational(val):
    P = jsonio.pencil_from_json(one_entry_pencil(val))
    modulus = P.entry(0, 0, 0).modulus
    assert modulus == jsonio.parse_rational(val)
    assert P.den == modulus.denominator


def test_format_rational():
    assert jsonio.format_rational(F(3)) == "3"
    assert jsonio.format_rational(F(-5, 4)) == "-5/4"
    assert jsonio.parse_rational(jsonio.format_rational(F(22, 7))) == F(22, 7)


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


# ---------------------------------------------------------------------------
# the column reader against the per-record reference
# ---------------------------------------------------------------------------

def read(obj):
    """The pencil of obj, or the text of the ValidationError it raises."""
    try:
        return jsonio.pencil_from_json(obj)
    except ValidationError as exc:
        return str(exc)


def read_by_records(obj):
    """``read`` with every record going through the per-record loop."""
    with mock.patch.object(jsonio, "_columns", lambda n, m, matrices: None):
        return read(obj)


def random_literal(rng):
    p = rng.choice((rng.randint(-9, 9), rng.randint(-2 ** 40, 2 ** 40),
                    rng.randint(-2 ** 70, 2 ** 70)))
    return rng.choice((str(p), f"{p}/{rng.randint(1, 12)}", p))


def random_pencil_json(rng):
    """A well-formed pencil object: n, m in 1..4, random cells in shuffled
    order, "p" and "p/q" literals and JSON integers."""
    n, m = rng.randint(1, 4), rng.randint(1, 4)
    cells = [(i, j) for i in range(1, m + 1) for j in range(i, m + 1)]
    matrices = []
    for _ in range(n):
        recs = [{"i": i, "j": j, "sign": rng.choice("+-"), "val": random_literal(rng)}
                for i, j in rng.sample(cells, rng.randint(0, len(cells)))]
        matrices.append({"entries": recs})
    return {"n": n, "m": m, "affine": rng.random() < 0.5, "matrices": matrices}


BAD_LITERALS = ["1,2", "1/0", "0/0", "1/-2", "01", "1/02", "+3/4", " 1/2 ", "1 /2",
                "٣/4", "1_0/3", "0.25", "1e3", "1/2/3", "", "-", "1/", "/2",
                "--1", "[1]", "1]", "true", "\udcff/2", '"1"', 7, -2 ** 70, 2 ** 63,
                f"{2 ** 70 + 1}/3", f"-{2 ** 63}", "9" * 5000, 0.5, True, None]


def corrupt(rng, obj):
    """Apply one random corruption to a random well-formed record of obj, in
    place (or add a record when there is none)."""
    owned = [(mat, r) for mat in obj["matrices"] for r in mat["entries"]
             if isinstance(r, dict) and r.keys() >= {"i", "j", "sign", "val"}]
    if not owned:
        obj["matrices"][0]["entries"].append({"i": 1, "j": 1, "sign": "-", "val": "0"})
        return
    (mat, rec), kind = rng.choice(owned), rng.randrange(11)
    if kind == 0:
        rec[rng.choice("ij")] = rng.choice((True, False, 1.0, 2 ** 70, -2 ** 70, "1"))
    elif kind == 1:
        rec["i"], rec["j"] = 2, 1
    elif kind == 2:
        rec["j"] = obj["m"] + 1
    elif kind == 3:  # the same cell twice in one matrix
        mat["entries"].insert(rng.randint(0, len(mat["entries"])), dict(rec, val="5/7"))
    elif kind == 4:  # the same cell in another matrix is fine
        other = rng.choice(obj["matrices"])
        other["entries"] = [dict(rec)] + [
            r for r in other["entries"] if not isinstance(r, dict)
            or (r.get("i"), r.get("j")) != (rec["i"], rec["j"])]
    elif kind == 5:
        rec["sign"] = rng.choice(("*", "-+", "", None, 1, ["+"]))
    elif kind in (6, 7, 8):
        rec["val"] = rng.choice(BAD_LITERALS)
    elif kind == 9:
        del rec[rng.choice(("i", "j", "sign", "val"))]
    else:
        mat["entries"].append(rng.choice(([1, 1, "-", "0"], "record", None)))


def test_column_reader_reads_generated_pencils():
    rng = random.Random(3)
    for _ in range(200):
        obj = random_pencil_json(rng)
        assert jsonio.pencil_from_json(obj) == read_by_records(obj)
        if any(mat["entries"] for mat in obj["matrices"]):
            assert jsonio._columns(obj["n"], obj["m"], obj["matrices"]) is not None


@pytest.mark.parametrize("val", [7, 0, -2 ** 70, 2 ** 63])
def test_column_reader_reads_json_integers(val):
    obj = json.loads(json.dumps(one_entry_pencil(val)))
    assert jsonio._columns(1, 1, obj["matrices"]) is not None
    P = jsonio.pencil_from_json(obj)
    assert P == read_by_records(obj) == jsonio.pencil_from_json(one_entry_pencil(str(val)))
    assert P.entry(0, 0, 0).modulus == val


def test_column_reader_declines_an_int_past_the_digit_limit():
    # no JSON text parses to it, but a caller's dict can hold it
    obj = one_entry_pencil(10 ** 5000)
    assert jsonio._columns(1, 1, obj["matrices"]) is None
    assert jsonio.pencil_from_json(obj).entry(0, 0, 0).modulus == 10 ** 5000


@pytest.mark.parametrize("seed", range(4))
def test_column_reader_matches_the_records_on_corrupted_pencils(seed):
    rng, outcomes = random.Random(seed), set()
    for _ in range(300):
        obj = random_pencil_json(rng)
        for _ in range(rng.randint(1, 2)):
            corrupt(rng, obj)
        expected = read_by_records(copy.deepcopy(obj))
        assert read(obj) == expected
        outcomes.add(expected.split(" ")[0] if isinstance(expected, str) else "Pencil")
    assert {"Pencil", "bad", "entry", "duplicate", "sign"} <= outcomes


@pytest.mark.parametrize("change, message", [
    ({"i": True}, "entry indices must be integers, got (i=True, j=1) in matrix 2"),
    ({"j": 2 ** 70}, "entry indices must satisfy 1 <= i <= j <= m, got (i=1, "),
    ({"sign": "*"}, "sign must be \"+\" or \"-\", got '*'"),
    ({"val": "1,2"}, "bad rational literal '1,2'"),
    ({"val": "1/0"}, "bad rational literal '1/0'"),
])
def test_column_reader_declines_each_fault(change, message):
    rec = dict({"i": 1, "j": 1, "sign": "-", "val": "3/4"}, **change)
    matrices = [{"entries": [{"i": 1, "j": 1, "sign": "+", "val": "1/2"}]},
                {"entries": [{"i": 1, "j": 2, "sign": "-", "val": "1/3"}, rec]}]
    assert jsonio._columns(2, 2, matrices) is None
    with pytest.raises(ValidationError) as exc:
        jsonio.pencil_from_json({"n": 2, "m": 2, "matrices": matrices})
    assert str(exc.value).startswith(message)


def test_column_reader_rejects_a_duplicate_in_one_matrix_only():
    rec = {"i": 1, "j": 2, "sign": "-", "val": "1/2"}
    twice = {"n": 1, "m": 2, "matrices": [{"entries": [rec, dict(rec, val="1")]}]}
    assert read(twice) == read_by_records(twice) == "duplicate entry (1,2) in matrix 1"
    apart = {"n": 2, "m": 2, "matrices": [{"entries": [rec]}, {"entries": [rec]}]}
    assert jsonio._columns(2, 2, apart["matrices"]) is not None
    assert read(apart) == read_by_records(apart)


def test_large_pencils_round_trip():
    P = gen_random(GenSpec(1000, 20, 0))
    obj = jsonio.pencil_to_json(P)
    assert jsonio._columns(P.n, P.m, obj["matrices"]) is not None
    assert jsonio.pencil_from_json(obj) == P
    # numerators beyond int64 stay Python ints
    wide = Pencil.from_arrays(P.n, P.m, P.k, P.i, P.j, P.sign,
                              P.num.astype(object) * 2 ** 64 + 1, P.den)
    obj = jsonio.pencil_to_json(wide)
    assert jsonio._columns(P.n, P.m, obj["matrices"]) is not None
    again = jsonio.pencil_from_json(obj)
    assert again == wide and again.num.dtype == object


@pytest.mark.parametrize("enabled", [True, False])
def test_column_reader_runs_with_the_collector_paused(enabled):
    obj = jsonio.pencil_to_json(gen_random(GenSpec(20, 4, 0)))
    seen = []

    def columns(*args):
        seen.append(gc.isenabled())
        if len(seen) == 2:
            raise RuntimeError("stop")
        return real(*args)

    real = jsonio._columns
    (gc.enable if enabled else gc.disable)()
    try:
        with mock.patch.object(jsonio, "_columns", columns):
            jsonio.pencil_from_json(obj)
            assert gc.isenabled() is enabled
            with pytest.raises(RuntimeError):
                jsonio.pencil_from_json(obj)
            assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == [False, False]


def test_game_round_trip(dominion_game):
    again = jsonio.game_from_json(jsonio.game_to_json(dominion_game))
    assert again == dominion_game


def random_game_json(rng, big):
    """A well-formed game object with n, m in 1..4: actions in random order,
    some repeated, Min targets given as [j, i] or [i, i], rewards omitted or
    integers, "p/q" and "0.25" literals, and with ``big`` one of 2^64 + 1."""
    n, m = rng.randint(1, 4), rng.randint(1, 4)

    def reward():
        p, q = rng.randint(-9, 9), rng.choice((1, 2, 3, 4))
        return rng.choice((None, p, f"{p}/{q}", f"{p / 4}"))

    def record(to):
        value = reward()
        return {"to": to} if value is None else {"to": to, "reward": value}

    def shuffled(recs):
        recs += [dict(rec) for rec in rng.sample(recs, rng.randint(0, len(recs)))]
        rng.shuffle(recs)
        return recs

    min_actions = [shuffled([record(rng.choice(([i], [i, i], [j, i], [i, j])))
                             for i, j in (sorted(rng.choices(range(1, m + 1), k=2))
                                          for _ in range(rng.randint(1, 3)))])
                   for _ in range(n)]
    max_actions = [shuffled([record(rng.randint(1, n)) for _ in range(rng.randint(1, 3))])
                   for _ in range(m)]
    if big:
        rng.choice(min_actions + max_actions)[0]["reward"] = 2**64 + 1
    return {"n": n, "m": m, "min_actions": min_actions, "max_actions": max_actions}


def sorted_states(states, key) -> tuple:
    """Each state's distinct actions, sorted by ``key``."""
    return tuple(tuple(sorted(set(acts), key=key)) for acts in states)


@pytest.mark.parametrize("seed", range(4))
def test_game_from_json_equals_the_game_of_its_actions(seed):
    # the reader and the constructor share the build step, so its canonical
    # order is also checked against per-state Python sorts of the actions
    rng = random.Random(seed)
    reward = lambda rec: jsonio.parse_rational(rec.get("reward", 0))
    for trial in range(50):
        big = trial % 5 == 0
        obj = random_game_json(rng, big)
        mins = tuple(tuple(MinAction(tuple(t - 1 for t in rec["to"]), reward(rec))
                           for rec in acts) for acts in obj["min_actions"])
        maxs = tuple(tuple(MaxAction(rec["to"] - 1, reward(rec)) for rec in acts)
                     for acts in obj["max_actions"])
        G, H = jsonio.game_from_json(obj), StochGame(obj["n"], obj["m"], mins, maxs)
        assert G == H and G.den == H.den
        for name in ("max_t", "max_seg", "max_p", "min_i", "min_j", "min_seg", "min_p"):
            assert getattr(G, name).dtype == getattr(H, name).dtype
        assert object in (G.min_p.dtype, G.max_p.dtype) if big else \
            G.min_p.dtype == G.max_p.dtype == np.int64
        assert G.min_actions == sorted_states(mins, lambda a: (a.targets, a.reward))
        assert G.max_actions == sorted_states(maxs, lambda b: (b.target, b.reward))
        assert G.den == math.lcm(*(a.reward.denominator for acts in mins + maxs
                                   for a in acts))


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
    assert obj["iterations"] == 8
    assert list(obj) == ["verdict", "iterations", "witness"]
    assert obj["witness"] == ["161/256", "-209/512", "713/1024"]
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


@pytest.mark.parametrize("field, value", [
    ("vector", None), ("vector", 5), ("vector", "101"), ("vector", {"1": "0"}),
    ("strict", "no"), ("strict", 1), ("strict", None)])
def test_certificate_from_json_checks_types(field, value):
    obj = {"kind": "Feasibility", "vector": ["0", "1/2"], "lambda": "1",
           "strict": True, field: value}
    with pytest.raises(ValidationError, match=f'^certificate "{field}" must be ') as exc:
        jsonio.certificate_from_json(obj)
    assert str(exc.value).endswith(f", got {value!r}")


def test_certificate_strict_is_optional():
    obj = {"kind": "Feasibility", "vector": ["0"], "lambda": "1"}
    assert jsonio.certificate_from_json(obj).strict is False


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


def test_load_json_rejects_text_that_is_not_utf8(tmp_path, monkeypatch):
    path = tmp_path / "utf16.json"
    path.write_bytes('{"a": 1}'.encode("utf-16"))  # starts with FF FE
    with pytest.raises(ValidationError, match="^input is not UTF-8 text: "):
        jsonio.load_json(str(path))
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(path.read_bytes()),
                                                      encoding="utf-8"))
    with pytest.raises(ValidationError, match="^input is not UTF-8 text: "):
        jsonio.load_json("-")


@pytest.mark.parametrize("text", ["[" * 200_000, '{"a": ' * 200_000])
def test_load_json_rejects_deep_nesting(text):
    with pytest.raises(ValidationError, match="^malformed JSON: maximum recursion depth exceeded"):
        jsonio.load_json(io.StringIO(text))


def test_load_json_rejects_integers_past_the_digit_limit():
    text = '{"val": ' + "9" * 5000 + "}"
    with pytest.raises(ValidationError, match=r"^malformed JSON: Exceeds the limit \(4300 digits\)"):
        jsonio.load_json(io.StringIO(text))


def test_dump_json_writes_and_returns(tmp_path):
    path = tmp_path / "out.json"
    text = jsonio.dump_json({"k": [1, 2]}, str(path))
    assert path.read_text() == text
    assert json.loads(text) == {"k": [1, 2]}
    assert text.endswith("\n")
    buf = io.StringIO()
    jsonio.dump_json({"z": 0}, buf)
    assert json.loads(buf.getvalue()) == {"z": 0}


def test_cell_keys_past_int64_are_refused_before_sorting():
    # with m = 2^40 the keys (k m + i) m + j wrap in int64, and the
    # entries came back out of (k, i, j) order
    m = 2**40
    obj = {"n": 1, "m": m, "matrices": [{"entries": [
        {"i": i, "j": j, "sign": "+" if i == j else "-", "val": 0}
        for i, j in ((2**39 + 1, 2**39 + 1), (1, m), (2, 2))]}]}
    with pytest.raises(ValidationError, match="too large"):
        jsonio.pencil_from_json(obj)
