"""JSON (de)serialization for pencils, games, reports, and certificates.

File formats use 1-based matrix/state indices and decimal-free rational
strings ("p/q" or plain integers); the in-memory API is 0-based.  Signed
tropical entries serialize as {"sign": "+"|"-", "val": "p/q"}, with the
string "-inf" (or simply omitting the entry) standing for minus infinity.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import IO, Union

from .certify import Certificate
from .errors import ValidationError
from .game import MaxAction, MinAction, StochGame
from .pencil import Pencil
from .shapley import IterationReport
from .tropical import TROP_ZERO, SignedTrop


def parse_rational(value) -> Fraction:
    """Exact rational from an int or a string ("p/q", "-3", "0.25")."""
    if isinstance(value, bool):
        raise ValidationError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational literal {value!r}") from exc
    if isinstance(value, float):
        raise ValidationError(
            f"rationals must be strings or integers, not floats ({value!r}); "
            'write "1/10" instead of 0.1')
    raise ValidationError(f"expected a rational, got {type(value).__name__}")


def _json_int(obj: dict, key: str, what: str) -> int:
    """obj[key], required to be a JSON integer (``bool`` is a subclass of
    ``int`` but not a JSON integer)."""
    value = obj[key]
    if type(value) is not int:
        raise ValidationError(f'{what} "{key}" must be an integer, got {value!r}')
    return value


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def signed_to_json(entry: SignedTrop):
    if entry.is_zero:
        return "-inf"
    return {"sign": "+" if entry.sign > 0 else "-",
            "val": format_rational(entry.modulus)}


def signed_from_json(obj) -> SignedTrop:
    if obj == "-inf":
        return TROP_ZERO
    if not isinstance(obj, dict) or set(obj) != {"sign", "val"}:
        raise ValidationError(f"bad signed tropical entry: {obj!r}")
    val = parse_rational(obj["val"])
    if obj["sign"] == "+":
        return SignedTrop.pos(val)
    if obj["sign"] == "-":
        return SignedTrop.neg(val)
    raise ValidationError(f'sign must be "+" or "-", got {obj["sign"]!r}')


# ---------------------------------------------------------------------------
# Pencils
# ---------------------------------------------------------------------------

def pencil_to_json(P: Pencil) -> dict:
    matrices = []
    for k in range(P.n):
        entries = []
        for i in range(P.m):
            for j in range(i, P.m):
                e = P.entry(k, i, j)
                if e.is_zero:
                    continue
                record = signed_to_json(e)
                entries.append({"i": i + 1, "j": j + 1,
                                "sign": record["sign"], "val": record["val"]})
        matrices.append({"entries": entries})
    return {"n": P.n, "m": P.m, "affine": P.affine, "matrices": matrices}


def pencil_from_json(obj) -> Pencil:
    if not isinstance(obj, dict):
        raise ValidationError("pencil file must contain a JSON object")
    try:
        n, m = _json_int(obj, "n", "pencil"), _json_int(obj, "m", "pencil")
        matrices = obj["matrices"]
    except KeyError as exc:
        raise ValidationError(f"pencil object is missing key {exc}") from exc
    affine = obj.get("affine", False)
    if type(affine) is not bool:
        raise ValidationError(f'pencil "affine" must be true or false, got {affine!r}')
    if not isinstance(matrices, list) or len(matrices) != n:
        raise ValidationError(f"expected {n} matrices, got "
                              f"{len(matrices) if isinstance(matrices, list) else '?'}")
    entries = []
    for k, mat in enumerate(matrices):
        if not isinstance(mat, dict):
            raise ValidationError(f"matrix {k + 1} must be an object "
                                  f"with an \"entries\" list")
        recs = mat.get("entries", [])
        if not isinstance(recs, list):
            raise ValidationError(f"entries of matrix {k + 1} must be a list")
        seen = set()
        for rec in recs:
            try:
                i, j = rec["i"], rec["j"]
                sign = {"sign": rec["sign"], "val": rec["val"]}
            except (KeyError, TypeError) as exc:
                raise ValidationError(f"bad entry record {rec!r}") from exc
            if type(i) is not int or type(j) is not int:
                raise ValidationError(
                    f"entry indices must be integers, got (i={i!r}, j={j!r}) "
                    f"in matrix {k + 1}")
            if not (1 <= i <= j <= m):
                raise ValidationError(
                    f"entry indices must satisfy 1 <= i <= j <= m, got "
                    f"(i={i}, j={j}) in matrix {k + 1}")
            if (i, j) in seen:
                raise ValidationError(
                    f"duplicate entry ({i},{j}) in matrix {k + 1}")
            seen.add((i, j))
            entries.append((k, i - 1, j - 1, signed_from_json(sign)))
    return Pencil.from_entries(n, m, entries, affine=affine)


# ---------------------------------------------------------------------------
# Games
# ---------------------------------------------------------------------------

def game_to_json(G: StochGame) -> dict:
    return {
        "n": G.n,
        "m": G.m,
        "min_actions": [
            [{"to": [t + 1 for t in a.targets],
              "reward": format_rational(a.reward)} for a in acts]
            for acts in G.min_actions
        ],
        "max_actions": [
            [{"to": a.target + 1, "reward": format_rational(a.reward)}
             for a in acts]
            for acts in G.max_actions
        ],
    }


def game_from_json(obj) -> StochGame:
    if not isinstance(obj, dict):
        raise ValidationError("game file must contain a JSON object")
    try:
        n, m = _json_int(obj, "n", "game"), _json_int(obj, "m", "game")
        raw_min, raw_max = obj["min_actions"], obj["max_actions"]
    except KeyError as exc:
        raise ValidationError(f"game object is missing key {exc}") from exc
    if not isinstance(raw_min, list) or not isinstance(raw_max, list):
        raise ValidationError("min_actions and max_actions must be lists")
    min_actions = []
    for k, acts in enumerate(raw_min):
        if not isinstance(acts, list):
            raise ValidationError(f"actions of Min state {k + 1} must be a list")
        row = []
        for rec in acts:
            if not isinstance(rec, dict):
                raise ValidationError(f"bad action record {rec!r}")
            targets = rec.get("to")
            if (not isinstance(targets, list) or not 1 <= len(targets) <= 2
                    or not all(type(t) is int for t in targets)):
                raise ValidationError(
                    f'Min action "to" must list one or two row states, got '
                    f"{targets!r} at state {k + 1}")
            row.append(MinAction(tuple(t - 1 for t in targets),
                                 parse_rational(rec.get("reward", 0))))
        min_actions.append(tuple(row))
    max_actions = []
    for i, acts in enumerate(raw_max):
        if not isinstance(acts, list):
            raise ValidationError(f"actions of Max state {i + 1} must be a list")
        row = []
        for rec in acts:
            if not isinstance(rec, dict):
                raise ValidationError(f"bad action record {rec!r}")
            target = rec.get("to")
            if type(target) is not int:
                raise ValidationError(
                    f'Max action "to" must be a column state index, got '
                    f"{target!r} at state {i + 1}")
            row.append(MaxAction(target - 1, parse_rational(rec.get("reward", 0))))
        max_actions.append(tuple(row))
    return StochGame(n, m, tuple(min_actions), tuple(max_actions))


# ---------------------------------------------------------------------------
# Reports and certificates
# ---------------------------------------------------------------------------

def report_to_json(report: IterationReport) -> dict:
    return {
        "verdict": report.verdict,
        "iterations": report.iterations,
        "witness": [format_rational(x) for x in report.witness],
        "epsilon": format_rational(report.epsilon),
    }


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "kind": cert.kind,
        "vector": [format_rational(x) for x in cert.vector],
        "lambda": format_rational(cert.lam),
        "strict": cert.strict,
    }


def certificate_from_json(obj) -> Certificate:
    if not isinstance(obj, dict):
        raise ValidationError("certificate file must contain a JSON object")
    try:
        kind = obj["kind"]
        vector = tuple(parse_rational(x) for x in obj["vector"])
        lam = parse_rational(obj["lambda"])
        strict = bool(obj.get("strict", False))
    except KeyError as exc:
        raise ValidationError(f"certificate object is missing key {exc}") from exc
    if kind not in ("Feasibility", "Infeasibility"):
        raise ValidationError(f"unknown certificate kind {kind!r}")
    return Certificate(kind, vector, lam, strict)


# ---------------------------------------------------------------------------
# File plumbing
# ---------------------------------------------------------------------------

def load_json(source: Union[str, IO]) -> object:
    """Parse JSON from a path, "-" (stdin), or an open file object."""
    if hasattr(source, "read"):
        text = source.read()
    elif source == "-":
        import sys
        text = sys.stdin.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON: {exc}") from exc


def dump_json(obj, destination: Union[str, IO, None] = None) -> str:
    """Serialize with stable formatting; write to a path or "-"/None for
    stdout-style usage (the string is returned either way)."""
    text = json.dumps(obj, indent=2, sort_keys=False) + "\n"
    if destination is None or destination == "-":
        return text
    if hasattr(destination, "write"):
        destination.write(text)
        return text
    with open(destination, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
