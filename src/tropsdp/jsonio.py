"""JSON (de)serialization for pencils, games, reports, and certificates.

File formats use 1-based matrix/state indices and decimal-free rational
strings ("p/q" or plain integers); the in-memory API is 0-based.  A pencil
entry serializes as {"i": i, "j": j, "sign": "+"|"-", "val": "p/q"} with
i <= j; omitted entries stand for minus infinity.

Pencil records are checked column by column with array masks, and their
values, JSON integers or "p" and "p/q" in JSON integers, parsed by one
``json.loads``; any other record sends the pencil through a per-record loop
that words every error.  Game records always go through such a loop into
``StochGame``'s build step, and both writers read the arrays.
"""

from __future__ import annotations

import gc
import json
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import IO, Union

import numpy as np

from .certify import Certificate
from .errors import ValidationError
from .game import StochGame, _blocks, _canonical, _check_shape
from .pencil import Pencil, _check_size, int_array
from .shapley import IterationReport
from .tropical import NEG, POS


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
    value = value if isinstance(value, Fraction) else Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_rationals(num: np.ndarray, den: int) -> list:
    """``format_rational`` of each num[e] / den, for an integer array num."""
    return [format_rational(Fraction(p, den)) for p in num.tolist()]


# ---------------------------------------------------------------------------
# Pencils
# ---------------------------------------------------------------------------

def pencil_to_json(P: Pencil) -> dict:
    matrices = [{"entries": []} for _ in range(P.n)]
    for k, i, j, sign, val in zip(*(a.tolist() for a in (P.k, P.i, P.j, P.sign)),
                                  format_rationals(P.num, P.den)):
        matrices[k]["entries"].append({
            "i": i + 1, "j": j + 1, "sign": "+" if sign > 0 else "-", "val": val})
    return {"n": P.n, "m": P.m, "affine": P.affine, "matrices": matrices}


def _columns(n: int, m: int, matrices: list):
    """(k, i, j, sign, num, den) of the records, checked column by column, or
    None if one is malformed or its "val" is neither a JSON integer nor "p"
    or "p/q" (q > 0) in JSON integers."""
    try:
        entries = [mat["entries"] for mat in matrices]
        recs = list(chain.from_iterable(entries))
        i, j, sign, val = (list(map(itemgetter(key), recs))
                           for key in ("i", "j", "sign", "val"))
        types = set(map(type, val))
        # str() of an int past its digit limit raises ValueError
        text = (",".join(val) if types == {str} else
                ",".join(map(str, val)) if types <= {str, int} else "")
    except (KeyError, TypeError, ValueError):
        return None
    raw = text.encode() if text.isascii() else b""
    if (not raw or raw.translate(None, b"0123456789-/,")  # a byte of no JSON integer
            or text.count(",") != len(val) - 1  # "1,2" is not one number
            or set(map(type, entries)) != {list} or set(map(type, i + j)) != {int}
            or sign.count("+") + sign.count("-") != len(sign)):
        return None
    commas, cuts = (np.flatnonzero(np.frombuffer(raw, np.uint8) == ord(c)) for c in ",/")
    slashes = np.bincount(np.searchsorted(commas, cuts), minlength=len(val))
    try:  # huge indices, or not JSON integers, or beyond int()'s digit limit
        i, j = np.array(i, dtype=np.int64), np.array(j, dtype=np.int64)
        flat = int_array(json.loads("[" + text.replace("/", ",") + "]"))
    except (OverflowError, ValueError):
        return None
    k = np.repeat(np.arange(n), list(map(len, entries)))
    key = np.sort((k * m + i - 1) * m + j - 1, kind="stable")
    start = np.arange(len(val)) + np.cumsum(slashes) - slashes
    num, den, split = flat[start], np.ones(len(val), dtype=flat.dtype), slashes == 1
    den[split] = flat[start[split] + 1]
    if not (((1 <= i) & (i <= j) & (j <= m)).all() and (key[1:] != key[:-1]).all()
            and slashes.max() <= 1 and (den > 0).all()):
        return None
    plus = np.frombuffer("".join(sign).encode(), dtype=np.uint8) == ord("+")
    return k, i - 1, j - 1, np.where(plus, POS, NEG), num, den


def pencil_from_json(obj) -> Pencil:
    """The pencil of a JSON object, read by ``_columns`` or, if it declines,
    validated record by record in one pass that words every error."""
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
    _check_size(n, m)  # so the cell keys of _columns fit in int64
    # _columns holds lists of some 10^5 ints and strs, which form no cycles; a
    # collection that starts while they are young walks every item for nothing,
    # so the collector waits until they are freed.
    collecting = gc.isenabled()
    gc.disable()
    try:
        columns = _columns(n, m, matrices)
    finally:
        if collecting:
            gc.enable()
    if columns is not None:
        return Pencil.from_arrays(n, m, *columns, affine)
    counts, cells, nums, dens = [], [], [], []
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
                i, j, sign, val = rec["i"], rec["j"], rec["sign"], rec["val"]
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
            value = parse_rational(val)
            if sign != "+" and sign != "-":
                raise ValidationError(f'sign must be "+" or "-", got {sign!r}')
            cells += (i - 1, j - 1, POS if sign == "+" else NEG)
            nums.append(value.numerator)
            dens.append(value.denominator)
        counts.append(len(seen))
    cells = np.array(cells, dtype=np.intp).reshape(-1, 3)
    return Pencil.from_arrays(n, m, np.repeat(np.arange(len(counts)), counts),
                              cells[:, 0], cells[:, 1], cells[:, 2],
                              int_array(nums), int_array(dens), affine)


# ---------------------------------------------------------------------------
# Games
# ---------------------------------------------------------------------------

def game_to_json(G: StochGame) -> dict:
    mins = [{"to": [i + 1] if i == j else [i + 1, j + 1], "reward": r}
            for i, j, r in zip(G.min_i.tolist(), G.min_j.tolist(),
                               format_rationals(G.min_p, G.den))]
    maxs = [{"to": t + 1, "reward": r}
            for t, r in zip(G.max_t.tolist(), format_rationals(G.max_p, G.den))]
    return {"n": G.n, "m": G.m, "min_actions": _blocks(mins, G.min_seg),
            "max_actions": _blocks(maxs, G.max_seg)}


def game_from_json(obj) -> StochGame:
    """The game of a JSON object, read by one per-record loop."""
    if not isinstance(obj, dict):
        raise ValidationError("game file must contain a JSON object")
    try:
        n, m = _json_int(obj, "n", "game"), _json_int(obj, "m", "game")
        raw_min, raw_max = obj["min_actions"], obj["max_actions"]
    except KeyError as exc:
        raise ValidationError(f"game object is missing key {exc}") from exc
    if not isinstance(raw_min, list) or not isinstance(raw_max, list):
        raise ValidationError("min_actions and max_actions must be lists")
    rows = {"Min": [], "Max": []}
    for player, states in (("Min", raw_min), ("Max", raw_max)):
        for s, acts in enumerate(states):
            if not isinstance(acts, list):
                raise ValidationError(f"actions of {player} state {s + 1} must be a list")
            if not acts:
                raise ValidationError(f"{player} state {s + 1} has no actions")
            for rec in acts:
                if not isinstance(rec, dict):
                    raise ValidationError(f"bad action record {rec!r}")
                to = rec.get("to")
                if player == "Min" and (
                        not isinstance(to, list) or not 1 <= len(to) <= 2
                        or not all(type(t) is int and 1 <= t <= m for t in to)):
                    raise ValidationError(
                        f'Min action "to" must list one or two row states in '
                        f"1..{m}, got {to!r} at state {s + 1}")
                if player == "Max" and (type(to) is not int or not 1 <= to <= n):
                    raise ValidationError(
                        f'Max action "to" must be a column state index in 1..{n}, '
                        f"got {to!r} at state {s + 1}")
                to = (min(to) - 1, max(to) - 1) if player == "Min" else (to - 1,)
                rows[player].append((s, *to, parse_rational(rec.get("reward", 0))))
    _check_shape(n, m, len(raw_min), len(raw_max))
    return StochGame.from_arrays(*_canonical(n, m, rows["Min"], rows["Max"]))


# ---------------------------------------------------------------------------
# Reports and certificates
# ---------------------------------------------------------------------------

def report_to_json(report: IterationReport) -> dict:
    return {
        "verdict": report.verdict,
        "iterations": report.iterations,
        "witness": [format_rational(x) for x in report.witness],
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
        kind, vector, lam = obj["kind"], obj["vector"], obj["lambda"]
    except KeyError as exc:
        raise ValidationError(f"certificate object is missing key {exc}") from exc
    if not isinstance(vector, list):
        raise ValidationError(f'certificate "vector" must be a list, got {vector!r}')
    vector, lam = tuple(parse_rational(x) for x in vector), parse_rational(lam)
    strict = obj.get("strict", False)
    if type(strict) is not bool:
        raise ValidationError(f'certificate "strict" must be true or false, got {strict!r}')
    if kind not in ("Feasibility", "Infeasibility"):
        raise ValidationError(f"unknown certificate kind {kind!r}")
    return Certificate(kind, vector, lam, strict)


# ---------------------------------------------------------------------------
# File plumbing
# ---------------------------------------------------------------------------

def load_json(source: Union[str, IO]) -> object:
    """Parse JSON from a path, "-" (stdin), or an open file object."""
    try:
        if hasattr(source, "read"):
            text = source.read()
        elif source == "-":
            import sys
            text = sys.stdin.read()
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"input is not UTF-8 text: {exc}") from exc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad syntax, or an integer past int()'s digit limit
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
