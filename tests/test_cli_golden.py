"""Byte-for-byte CLI outputs: stdout, stderr and exit code of every case.

``cli_golden.json`` holds the expected outputs of ``CASES``.  An argv
element ``{running}`` or ``{dominion}`` names an example file, ``{gen:N:M:S}``
the pencil of ``gen --n N --m M --seed S`` and ``{file:NAME}`` the JSON
object ``FILES[NAME]``; each is written to a temporary file first.

An intended change of output is recorded by regenerating the golden file,
``PYTHONPATH=src python tests/test_cli_golden.py``, which prints a line for
each case whose bytes change, and reviewing its diff.
"""

import contextlib
import io
import json
import os
import re
import tempfile
from fractions import Fraction

import pytest

from tropsdp import jsonio
from tropsdp.bench import GenSpec, gen_random
from tropsdp.cli import run

from conftest import example_path

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "cli_golden.json")

RUNNING_MATRICES = [
    {"entries": [{"i": 1, "j": 2, "sign": "-", "val": "0"},
                 {"i": 2, "j": 2, "sign": "+", "val": "-1"}]},
    {"entries": [{"i": 2, "j": 2, "sign": "-", "val": "0"},
                 {"i": 3, "j": 3, "sign": "+", "val": "9/4"}]},
    {"entries": [{"i": 1, "j": 1, "sign": "+", "val": "1"},
                 {"i": 1, "j": 3, "sign": "-", "val": "3/4"},
                 {"i": 2, "j": 2, "sign": "+", "val": "-5/4"},
                 {"i": 2, "j": 3, "sign": "-", "val": "0"}]},
]
NON_METZLER = [{"entries": [{"i": 1, "j": 1, "sign": "+", "val": "0"},
                            {"i": 1, "j": 2, "sign": "+", "val": "1"},
                            {"i": 2, "j": 2, "sign": "-", "val": "0"}]}]
NO_NEGATIVE = [{"entries": [{"i": 1, "j": 1, "sign": "+", "val": "0"}]}]
# the running example's game with every Min reward lowered by 1/10
LOSING_GAME = {
    "n": 3, "m": 3,
    "min_actions": [[{"to": [1, 2], "reward": "-1/10"}],
                    [{"to": [2], "reward": "-1/10"}],
                    [{"to": [1, 3], "reward": "-17/20"},
                     {"to": [2, 3], "reward": "-1/10"}]],
    "max_actions": [[{"to": 3, "reward": "1"}],
                    [{"to": 1, "reward": "-1"}, {"to": 3, "reward": "-5/4"}],
                    [{"to": 2, "reward": "9/4"}]],
}
# the running example on rows 1, 3 and 4, plus variable 2, which dies on
# row 2 (no positive diagonal there); rows 2 and 5 (empty) then go
REDUCIBLE_MATRICES = [
    {"entries": [{"i": 1, "j": 3, "sign": "-", "val": "0"},
                 {"i": 3, "j": 3, "sign": "+", "val": "-1"}]},
    {"entries": [{"i": 1, "j": 2, "sign": "-", "val": "1/3"},
                 {"i": 2, "j": 2, "sign": "-", "val": "2"}]},
    {"entries": [{"i": 3, "j": 3, "sign": "-", "val": "0"},
                 {"i": 4, "j": 4, "sign": "+", "val": "9/4"}]},
    {"entries": [{"i": 1, "j": 1, "sign": "+", "val": "1"},
                 {"i": 1, "j": 4, "sign": "-", "val": "3/4"},
                 {"i": 3, "j": 3, "sign": "+", "val": "-5/4"},
                 {"i": 3, "j": 4, "sign": "-", "val": "0"}]},
]
# every policy pair has the gain 1/12 at both states, so the optimal pair is
# the tie-break alone: the first sigma and the first tau in product order
TIED_GAME = {
    "n": 2, "m": 2,
    "min_actions": [[{"to": [1], "reward": "-1/3"}, {"to": [1, 2], "reward": "-1/3"}],
                    [{"to": [2], "reward": "-1/3"}, {"to": [1, 2], "reward": "-1/3"}]],
    "max_actions": [[{"to": 1, "reward": "1/2"}, {"to": 2, "reward": "1/2"}],
                    [{"to": 1, "reward": "1/2"}, {"to": 2, "reward": "1/2"}]],
}


def _raised(matrices, shift) -> list:
    """The matrices with every negatively signed modulus raised by shift,
    which lowers every Min reward of the game by shift."""
    raise_val = lambda e: dict(e, val=jsonio.format_rational(
        jsonio.parse_rational(e["val"]) + shift))
    return [{"entries": [raise_val(e) if e["sign"] == "-" else e
                         for e in mat["entries"]]}
            for mat in matrices]


# the running example's value per Shapley step is 1/28; these move it to
# +-10^-5, where the iterate takes about 69 000 and 41 000 steps to clear
# 10^-8 in every entry
NEAR = Fraction(1, 10**5)
NEAR_FEASIBLE = _raised(RUNNING_MATRICES, Fraction(1, 28) - NEAR)
NEAR_INFEASIBLE = _raised(RUNNING_MATRICES, Fraction(1, 28) + NEAR)
# and this to value exactly 0, where the iterate never leaves a band around 0
AT_MARGIN = _raised(RUNNING_MATRICES, Fraction(1, 28))
# a general pencil: positively signed off-diagonal entries, negatively
# signed diagonal entries, and row 3 entirely -inf
GENERAL_MATRICES = [
    {"entries": [{"i": 1, "j": 1, "sign": "+", "val": "1"},
                 {"i": 1, "j": 2, "sign": "+", "val": "1/2"},
                 {"i": 2, "j": 2, "sign": "-", "val": "0"}]},
    {"entries": [{"i": 1, "j": 1, "sign": "-", "val": "2"},
                 {"i": 1, "j": 2, "sign": "-", "val": "1"},
                 {"i": 2, "j": 2, "sign": "+", "val": "3/2"}]},
    {"entries": [{"i": 1, "j": 2, "sign": "+", "val": "-1"},
                 {"i": 2, "j": 2, "sign": "+", "val": "0"}]},
]
# moduli over the denominators 3 and 7
MIXED_DEN_MATRICES = [
    {"entries": [{"i": 1, "j": 1, "sign": "+", "val": "1/3"},
                 {"i": 1, "j": 2, "sign": "-", "val": "2/7"}]},
    {"entries": [{"i": 1, "j": 1, "sign": "-", "val": "5/3"},
                 {"i": 1, "j": 2, "sign": "+", "val": "1/3"},
                 {"i": 2, "j": 2, "sign": "+", "val": "2/7"}]},
]
# examples/dominion_game.json translated to a pencil (`pencil_from_game`),
# with the affine flag set
DOMINION_AFFINE = {
    "n": 4, "m": 3, "affine": True,
    "matrices": [
        {"entries": [{"i": 1, "j": 1, "sign": "-", "val": "0"}]},
        {"entries": [{"i": 2, "j": 3, "sign": "-", "val": "0"}]},
        {"entries": [{"i": 2, "j": 2, "sign": "+", "val": "0"}]},
        {"entries": [{"i": 3, "j": 3, "sign": "-", "val": "0"}]}],
}
# an affine pencil whose game has five dominions; the only winning one,
# {4}, does not contain state 1
LOSING_AFFINE = {
    "n": 4, "m": 4, "affine": True,
    "matrices": [
        {"entries": [{"i": 1, "j": 1, "sign": "+", "val": "1"},
                     {"i": 1, "j": 2, "sign": "-", "val": "1"},
                     {"i": 1, "j": 3, "sign": "-", "val": "-3/2"},
                     {"i": 3, "j": 3, "sign": "+", "val": "1/2"},
                     {"i": 3, "j": 4, "sign": "-", "val": "0"},
                     {"i": 4, "j": 4, "sign": "+", "val": "-3/2"}]},
        {"entries": [{"i": 1, "j": 3, "sign": "-", "val": "-1/2"},
                     {"i": 1, "j": 4, "sign": "-", "val": "0"},
                     {"i": 2, "j": 2, "sign": "-", "val": "2"},
                     {"i": 2, "j": 3, "sign": "-", "val": "-1/2"},
                     {"i": 2, "j": 4, "sign": "-", "val": "1"},
                     {"i": 3, "j": 4, "sign": "-", "val": "-3/2"}]},
        {"entries": [{"i": 1, "j": 1, "sign": "+", "val": "2"},
                     {"i": 2, "j": 2, "sign": "-", "val": "1/2"},
                     {"i": 2, "j": 3, "sign": "-", "val": "-1"},
                     {"i": 2, "j": 4, "sign": "-", "val": "-3/2"},
                     {"i": 3, "j": 4, "sign": "-", "val": "-2"}]},
        {"entries": [{"i": 1, "j": 1, "sign": "+", "val": "1"},
                     {"i": 1, "j": 2, "sign": "-", "val": "-3/2"},
                     {"i": 2, "j": 2, "sign": "+", "val": "-3/2"}]}],
}
# ``pencil_from_game`` of the 3-Min / 4-Max game where Min 1 moves to Max
# 1 or 3, Min 2 to Max 1 or 2, Min 3 to Max 3 or 4 (all rewards 0), Max 1
# and 2 go to Min 2 receiving 1 and Max 3 and 4 to Min 3 receiving -1, with
# the affine flag: chi = (0, 1/2, -1/2), and the only winning dominion {2}
# misses state 1, although chi is nonnegative there on the whole game
CHANCE_SPLIT_AFFINE = {
    "n": 3, "m": 4, "affine": True,
    "matrices": [
        {"entries": [{"i": 1, "j": 3, "sign": "-", "val": "0"}]},
        {"entries": [{"i": 1, "j": 1, "sign": "+", "val": "1"},
                     {"i": 1, "j": 2, "sign": "-", "val": "0"},
                     {"i": 2, "j": 2, "sign": "+", "val": "1"}]},
        {"entries": [{"i": 3, "j": 3, "sign": "+", "val": "-1"},
                     {"i": 3, "j": 4, "sign": "-", "val": "0"},
                     {"i": 4, "j": 4, "sign": "+", "val": "-1"}]}],
}
# the running example on rows 1-3 beside a losing variable 4 on rows 4 and
# 5 (value -1), coupled by a Max action of row 1 into variable 4 that Max
# never takes: the whole game has chi_4 < 0, its dominion {1, 2, 3} wins
DIRECT_SUM_AFFINE = {
    "n": 4, "m": 5, "affine": True,
    "matrices": RUNNING_MATRICES + [
        {"entries": [{"i": 1, "j": 1, "sign": "+", "val": "-5"},
                     {"i": 4, "j": 4, "sign": "+", "val": "0"},
                     {"i": 4, "j": 5, "sign": "-", "val": "1"},
                     {"i": 5, "j": 5, "sign": "+", "val": "0"}]}],
}
CERT = {"kind": "Feasibility",
        "vector": ["4550473850856407/4503599627370496", "0",
                   "4872159469020117/4503599627370496"],
        "lambda": "1/100", "strict": True}
# what `certify --lambda=1/100 {running}` prints: its witness snapped to the
# grid 1/64
SNAPPED_CERT = {"kind": "Feasibility", "vector": ["35/64", "-31/64", "39/64"],
                "lambda": "1/100", "strict": True}



def _one_matrix(*records) -> dict:
    """A 1 x 2 pencil whose single matrix lists these entry records."""
    return {"n": 1, "m": 2, "matrices": [{"entries": list(records)}]}


OK_RECORD = {"i": 1, "j": 1, "sign": "+", "val": "1"}
MALFORMED = {
    "duplicate_entry": _one_matrix(
        OK_RECORD, {"i": 1, "j": 2, "sign": "-", "val": "0"},
        {"i": 1, "j": 2, "sign": "-", "val": "1"}),
    "bad_sign": _one_matrix(OK_RECORD, {"i": 2, "j": 2, "sign": "*",
                                        "val": "0"}),
    "float_val": _one_matrix(OK_RECORD, {"i": 2, "j": 2, "sign": "-",
                                         "val": 0.5}),
    "index_out_of_range": _one_matrix(OK_RECORD, {"i": 1, "j": 3,
                                                  "sign": "-", "val": "0"}),
    "non_integer_index": _one_matrix(OK_RECORD, {"i": 1, "j": "2",
                                                 "sign": "-", "val": "0"}),
    # a bad sign in the second record and a bad index in the third: the
    # error names the one that comes first
    "two_faults": _one_matrix(OK_RECORD, {"i": 2, "j": 2, "sign": "-+",
                                          "val": "0"},
                              {"i": 2, "j": 1, "sign": "-", "val": "0"}),
}

FILES = {
    **MALFORMED,
    "reducible_affine": {"n": 4, "m": 5, "affine": True,
                         "matrices": REDUCIBLE_MATRICES},
    "running_affine": {"n": 3, "m": 3, "affine": True,
                       "matrices": RUNNING_MATRICES},
    "non_metzler": {"n": 1, "m": 2, "affine": False, "matrices": NON_METZLER},
    "non_metzler_affine": {"n": 1, "m": 2, "affine": True,
                           "matrices": NON_METZLER},
    "no_negative": {"n": 1, "m": 1, "affine": False, "matrices": NO_NEGATIVE},
    "no_negative_affine": {"n": 1, "m": 1, "affine": True,
                           "matrices": NO_NEGATIVE},
    "losing_game": LOSING_GAME,
    "tied_game": TIED_GAME,
    "near_feasible": {"n": 3, "m": 3, "matrices": NEAR_FEASIBLE},
    "near_infeasible": {"n": 3, "m": 3, "matrices": NEAR_INFEASIBLE},
    "at_margin": {"n": 3, "m": 3, "matrices": AT_MARGIN},
    "cert": CERT,
    "cert_tampered": dict(CERT, vector=["100"] + CERT["vector"][1:]),
    "snapped_cert": SNAPPED_CERT,
    "general": {"n": 3, "m": 3, "matrices": GENERAL_MATRICES},
    "mixed_den": {"n": 2, "m": 2, "matrices": MIXED_DEN_MATRICES},
    "dominion_affine": DOMINION_AFFINE,
    "losing_affine": LOSING_AFFINE,
    "chance_split_affine": CHANCE_SPLIT_AFFINE,
    "direct_sum_affine": DIRECT_SUM_AFFINE,
    # a dense game: every nonempty state set is a dominion
    "dense_affine": dict(jsonio.pencil_to_json(gen_random(GenSpec(5, 3, 1, 8))),
                         affine=True),
}

PENCIL_COMMANDS = (["check"], ["exact"], ["game"], ["normalize"],
                   ["certify", "--lambda=1/100"], ["affine"])

CASES = (
    [[*cmd, "{running}"] for cmd in (
        ["check"], ["exact"], ["exact", "--policies"], ["exact", "--dump-chain"],
        ["exact", "--policies", "--dump-chain"], ["game"], ["normalize"],
        ["metzlerize"], ["affine"], ["certify"],
        ["certify", "--lambda=1/100"],
        ["certify", "--lambda=1"], ["certify", "--lambda=-1/100"],
        ["certify", "--check", "{file:cert}"],
        ["certify", "--check", "{file:cert_tampered}"],
        ["certify", "--check", "{file:snapped_cert}"])]
    + [[*cmd, "{dominion}"] for cmd in (
        ["exact"], ["exact", "--policies", "--dump-chain"],
        ["certify", "--lambda=1/100", "--max-iters", "200"])]
    + [[*cmd, "{file:losing_game}"] for cmd in (
        ["exact"], ["certify", "--lambda=-1/100"])]
    + [["gen", "--n", "3", "--m", "3", "--seed", "0"]]
    + [[cmd, f"{{gen:{n}:{m}:{seed}}}"]
       for n, m, seed in ((3, 3, 0), (3, 3, 1), (3, 3, 2), (30, 4, 3))
       for cmd in ("check", "exact", "game", "normalize")]
    + [[*cmd, f"{{file:{name}}}"]
       for name in ("non_metzler", "non_metzler_affine", "running_affine",
                    "no_negative")
       for cmd in PENCIL_COMMANDS]
    + [["metzlerize", "{file:non_metzler}"]]
    # `game` and `certify` on no_negative_affine are left out: they print
    # the translation error without the affine note before it
    # (test_cli::test_untranslatable_affine_pencil_prints_no_note)
    + [[*cmd, "{file:no_negative_affine}"]
       for cmd in (["check"], ["exact"], ["normalize"], ["affine"])]
    + [["check", f"{{file:{name}}}"] for name in MALFORMED]
    + [[cmd, "{file:reducible_affine}"]
       for cmd in ("check", "normalize", "exact", "affine")]
    # the optimal pair's tie-break among equal replies
    + [["exact", "--policies", "--dump-chain", f"{{gen:3:3:{seed}}}"]
       for seed in (0, 1, 2)]
    + [["exact", "{gen:2:4:0}"], ["exact", "--policies", "{file:tied_game}"]]
    # near the boundary: decided by the iterate checked after 32 steps
    + [[*cmd, f"{{file:{name}}}"]
       for name in ("near_feasible", "near_infeasible")
       for cmd in (["check"],)]
    + [["certify", "--lambda=24993/700000", "{running}"]]  # 1/28 - 1/10^5
    + [["metzlerize", arg]
       for arg in ("{gen:3:3:0}", "{file:general}", "{file:mixed_den}")]
    + [["affine", f"{{file:{name}}}"]
       for name in ("dominion_affine", "losing_affine", "chance_split_affine",
                    "direct_sum_affine", "dense_affine")]
    # value exactly 0: decided by the iterate checked after 16 steps
    + [["check", "{file:at_margin}"], ["certify", "--lambda=1/28", "{running}"]]
)


def _materialize(directory) -> dict:
    """Placeholder -> path of a file holding its input."""
    paths = {"{running}": example_path("running.json"),
             "{dominion}": example_path("dominion_game.json")}
    for name, obj in FILES.items():
        path = os.path.join(directory, f"{name}.json")
        jsonio.dump_json(obj, path)
        paths[f"{{file:{name}}}"] = path
    for arg in {a for argv in CASES for a in argv}:
        found = re.fullmatch(r"\{gen:(\d+):(\d+):(\d+)\}", arg)
        if found:
            n, m, seed = map(int, found.groups())
            path = os.path.join(directory, f"gen_{n}_{m}_{seed}.json")
            jsonio.dump_json(jsonio.pencil_to_json(
                gen_random(GenSpec(n, m, seed))), path)
            paths[arg] = path
    return paths


def _run(argv, paths):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([paths.get(a, a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _golden() -> list:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)["cases"]


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return _materialize(str(tmp_path_factory.mktemp("golden")))


def test_golden_file_covers_every_case():
    assert [case["argv"] for case in _golden()] == CASES


@pytest.mark.parametrize("case", _golden(), ids=lambda c: " ".join(c["argv"]))
def test_cli_output_is_unchanged(case, paths):
    assert _run(case["argv"], paths) == (case["exit"], case["stdout"],
                                         case["stderr"])


def test_one_process_writes_the_corpus_in_either_order(paths):
    # every run shares one parser: no run may leave state for the next
    cases = _golden()
    for case in cases + cases[::-1]:
        assert _run(case["argv"], paths) == (case["exit"], case["stdout"],
                                             case["stderr"])


AFFINE_NOTE = ("note: affine flag ignored here; use `tropsdp affine` for the "
               "affine question\n")


def test_exact_prints_alike_for_a_pencil_and_its_game_file(paths, tmp_path):
    # every input of the corpus that `game` translates: exact on the game
    # file prints what exact on the pencil prints, but for the affine note
    translated = []
    for arg in sorted(paths):
        game = str(tmp_path / f"game{len(translated)}.json")
        if _run(["game", paths[arg], "-o", game], {})[0]:
            continue
        translated.append(arg)
        for flags in ([], ["--policies", "--dump-chain"]):
            code, out, err = _run(["exact", *flags, arg], paths)
            assert _run(["exact", *flags, game], {}) == \
                (code, out, err.replace(AFFINE_NOTE, "")), (arg, flags)
    assert translated == [
        "{file:at_margin}", "{file:chance_split_affine}", "{file:dense_affine}",
        "{file:direct_sum_affine}", "{file:losing_affine}",
        "{file:near_feasible}", "{file:near_infeasible}",
        "{file:running_affine}", "{gen:2:4:0}", "{gen:30:4:3}", "{gen:3:3:0}",
        "{gen:3:3:1}", "{gen:3:3:2}", "{running}"]


def _outcome(case) -> str:
    """The exit code, and for a JSON report its verdict and iterations."""
    try:
        report = json.loads(case["stdout"])
    except ValueError:
        report = None
    if isinstance(report, dict) and "verdict" in report:
        return (f"exit {case['exit']} {report['verdict']} "
                f"iterations {report['iterations']}")
    return f"exit {case['exit']}"


def main() -> None:
    """Rewrite the golden file, printing a line for each case whose bytes
    change: its argv and its outcome before -> after (``_outcome``)."""
    old = {json.dumps(case["argv"]): case
           for case in (_golden() if os.path.exists(GOLDEN) else [])}
    with tempfile.TemporaryDirectory() as directory:
        paths = _materialize(directory)
        cases = []
        for argv in CASES:
            code, out, err = _run(argv, paths)
            case = {"argv": argv, "exit": code, "stdout": out, "stderr": err}
            before = old.get(json.dumps(argv))
            if before != case:
                was = "(new)" if before is None else _outcome(before)
                print(f"{' '.join(argv)}: {was} -> {_outcome(case)}")
            cases.append(case)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"cases": cases}, fh, indent=1, ensure_ascii=False)
        fh.write("\n")


if __name__ == "__main__":
    main()
