"""Seeded inputs and exact oracles for the three benchmark workloads.

Each workload writes its pencils as JSON files (the program under test sees
only these files) and knows how to judge what one CLI op returned for one
of them.  Inputs come from the benchmark's own ``random.Random`` stream, so
they depend on the seed alone and not on ``tropsdp.bench``.

* ``dense``: ``tropsdp check`` on random dense Metzler pencils, drawn like
  ``gen_random`` draws them (positive diagonal, negative off-diagonal,
  moduli uniform on {0, 1/2^31, ..., 1}).  Far on the feasible side, so the
  time goes to parsing, building the game and verifying the witness.
* ``boundary``: ``tropsdp check`` on the running example with every
  negatively signed modulus raised by 1/28 - g, which makes the value per
  Shapley step exactly g.  One pencil per sign of g; |g| is tiny, so the
  time goes to the value-iteration loop (about 1/|g| steps).
* ``exact``: ``tropsdp exact`` on random 3 x 3 pencils from the dense
  generator (729 policy pairs each), which runs policy enumeration and the
  exact Markov-chain analysis.

Oracles run outside the timed region.  Each returns ``None`` for a correct
op and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import os
import random
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from tropsdp import (MaxAction, MinAction, StochGame, TropSdpError,
                     game_from_pencil, game_value_bruteforce, jsonio,
                     solve_tmsdfp, verify_subharmonic)

GRID = 2**31
EXIT_FEASIBLE, EXIT_INFEASIBLE = 0, 10


@dataclass(frozen=True)
class Instance:
    """One input file plus what its oracle needs to know about it."""

    name: str
    path: str
    truth: object  # moduli for the random pencils, g for the boundary ones
    size: tuple  # (n, m)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _grid_rational(p: int) -> str:
    """p / 2^31 in lowest terms, formatted like ``jsonio.format_rational``."""
    if p == 0:
        return "0"
    shift = min((p & -p).bit_length() - 1, 31)
    num, den = p >> shift, GRID >> shift
    return str(num) if den == 1 else f"{num}/{den}"


def draw_moduli(rng: random.Random, n: int, m: int) -> array:
    """Grid numerators, matrix after matrix, each matrix's upper triangle in
    row-major order; a flat array keeps set-up memory small."""
    return array("q", (rng.randrange(GRID + 1) for _ in range(n * m * (m + 1) // 2)))


def _rows(moduli: array, m: int):
    """(k, [((i, j), numerator), ...]) per matrix."""
    cells = [(i, j) for i in range(m) for j in range(i, m)]
    for k in range(len(moduli) // len(cells)):
        yield k, zip(cells, moduli[k * len(cells):(k + 1) * len(cells)])


def write_random_pencil(path: str, moduli: array, m: int) -> None:
    """Write the dense Metzler pencil with these grid numerators as JSON."""
    n = len(moduli) // (m * (m + 1) // 2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f'{{"n": {n}, "m": {m}, "affine": false, "matrices": [')
        for k, row in _rows(moduli, m):
            entries = ", ".join(
                f'{{"i": {i + 1}, "j": {j + 1}, "sign": "{"+" if i == j else "-"}", '
                f'"val": "{_grid_rational(p)}"}}' for (i, j), p in row)
            fh.write(f'{", " if k else ""}{{"entries": [{entries}]}}')
        fh.write("]}\n")


def random_game(moduli: array, m: int) -> StochGame:
    """The game of a dense pencil, built straight from its numerators (not
    through ``jsonio`` or ``game_from_pencil``)."""
    min_actions, max_actions = [], [[] for _ in range(m)]
    for k, row in _rows(moduli, m):
        acts = []
        for (i, j), p in row:
            if i == j:
                max_actions[i].append(MaxAction(k, Fraction(p, GRID)))
            else:
                acts.append(MinAction((i, j), -Fraction(p, GRID)))
        min_actions.append(tuple(acts))
    return StochGame(len(min_actions), m, tuple(min_actions),
                     tuple(tuple(a) for a in max_actions))


def _random_instances(workload: str, seed: int, workdir: str, n: int, m: int,
                      count: int) -> list:
    rng = _rng(workload, seed)
    out = []
    for t in range(count):
        moduli = draw_moduli(rng, n, m)
        path = os.path.join(workdir, f"{workload}{t}.json")
        write_random_pencil(path, moduli, m)
        out.append(Instance(f"{workload}{t}", path, moduli, (n, m)))
    return out


class _Wrong(Exception):
    """An op's output disagrees with the oracle."""


def _parse_report(rc: int, text: str, expected_rc: int) -> dict:
    if rc != expected_rc:
        raise _Wrong(f"exit code {rc}, expected {expected_rc}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise _Wrong(f"output is not JSON: {exc}") from exc


def _digits(entry: str) -> int:
    return sum(c.isdigit() for c in entry)


class Workload:
    """Inputs of one workload and the oracle that judges ops on them."""

    name = ""
    command = ""

    def instances(self, seed: int, workdir: str) -> list:
        raise NotImplementedError

    def _judge(self, inst: Instance, rc: int, text: str) -> None:
        raise NotImplementedError

    def witness(self, text: str) -> list:
        """The emitted witness entries (rational strings) of a correct op."""
        raise NotImplementedError

    def judge(self, inst: Instance, rc: int, text: str) -> Optional[str]:
        """None when the op's exit code and output are right, else why not."""
        try:
            self._judge(inst, rc, text)
        except _Wrong as exc:
            return str(exc)
        except (KeyError, TypeError, ValueError, TropSdpError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"
        return None

    def witness_digits(self, text: str) -> int:
        return max((_digits(e) for e in self.witness(text)), default=0)


class Dense(Workload):
    """Four pencils of size (1000, 8), about a second per op.

    m is 8 rather than 20 because a (1000, 20) op takes 5-8 s, and a run of
    three or four such ops cannot average out the host's bursts of load.
    With n = 1000 matrices every seeded instance tried stayed Feasible; at
    (200, 20) about one in five was Infeasible.  The oracle builds each
    input's game once."""

    name, command = "dense", "check"

    def __init__(self, n: int = 1000, m: int = 8, pool: int = 4):
        self.n, self.m, self.pool = n, m, pool
        self._game_of = None  # (instance name, its game): one held at a time

    def instances(self, seed, workdir):
        return _random_instances(self.name, seed, workdir, self.n, self.m, self.pool)

    def _judge(self, inst, rc, text):
        report = _parse_report(rc, text, EXIT_FEASIBLE)
        if report["verdict"] != "Feasible":
            raise _Wrong(f"verdict {report['verdict']}, expected Feasible")
        witness = [jsonio.parse_rational(x) for x in report["witness"]]
        if self._game_of is None or self._game_of[0] != inst.name:
            self._game_of = None  # drop the previous game before building
            self._game_of = (inst.name, random_game(inst.truth, self.m))
        holds, _ = verify_subharmonic(self._game_of[1], witness)
        if not holds:
            raise _Wrong("witness is not subharmonic on the input's game")

    def witness(self, text):
        return json.loads(text)["witness"]


# The running example: the Metzler pencil of the 3-Min / 3-Max game pinned
# in the acceptance tests, whose margin is 1/28.
RUNNING_PENCIL = {
    "n": 3, "m": 3, "affine": False,
    "matrices": [
        {"entries": [{"i": 1, "j": 2, "sign": "-", "val": "0"},
                     {"i": 2, "j": 2, "sign": "+", "val": "-1"}]},
        {"entries": [{"i": 2, "j": 2, "sign": "-", "val": "0"},
                     {"i": 3, "j": 3, "sign": "+", "val": "9/4"}]},
        {"entries": [{"i": 1, "j": 1, "sign": "+", "val": "1"},
                     {"i": 1, "j": 3, "sign": "-", "val": "3/4"},
                     {"i": 2, "j": 2, "sign": "+", "val": "-5/4"},
                     {"i": 2, "j": 3, "sign": "-", "val": "0"}]},
    ],
}
RUNNING_MARGIN = Fraction(1, 28)


def running_game(shift=Fraction(0)) -> StochGame:
    """The running example's game with every Min reward lowered by shift."""
    F = Fraction
    return StochGame(
        3, 3,
        min_actions=(
            (MinAction((0, 1), -shift),),
            (MinAction((1,), -shift),),
            (MinAction((0, 2), F(-3, 4) - shift), MinAction((1, 2), -shift)),
        ),
        max_actions=(
            (MaxAction(2, F(1)),),
            (MaxAction(0, F(-1)), MaxAction(2, F(-5, 4))),
            (MaxAction(1, F(9, 4)),),
        ),
    )


def shifted_pencil(shift: Fraction) -> dict:
    """The running example with every negatively signed modulus raised."""
    mats = []
    for mat in RUNNING_PENCIL["matrices"]:
        entries = []
        for e in mat["entries"]:
            if e["sign"] == "-":
                val = jsonio.parse_rational(e["val"]) + shift
                e = dict(e, val=jsonio.format_rational(val))
            entries.append(e)
        mats.append({"entries": entries})
    return dict(RUNNING_PENCIL, matrices=mats)


class Boundary(Workload):
    """Value per Shapley step +g (Feasible) or -g (Infeasible).

    The seed picks g from a narrow band on each side.  The infeasible side
    sits a little closer to 0 so that both sides need about the same number
    of iterations (~69 000).  Every feasible g in the band yields a double
    witness that passes the exact check: a failed check would rerun the
    loop in rationals, which at this gap does not end within a run.
    """

    name, command = "boundary", "check"
    BAND = 64

    def feasible_gap(self, j: int) -> Fraction:
        return Fraction(100000 + 8 * j, 10**10)

    def infeasible_gap(self, j: int) -> Fraction:
        return -Fraction(60000 + 5 * j, 10**10)

    def instances(self, seed, workdir):
        pencil = jsonio.pencil_from_json(RUNNING_PENCIL)
        if game_from_pencil(pencil) != running_game():
            raise RuntimeError("embedded running example does not translate "
                               "to its game")
        if solve_tmsdfp(pencil).margin != RUNNING_MARGIN:
            raise RuntimeError("running example margin is not 1/28")
        rng = _rng(self.name, seed)
        gaps = [self.feasible_gap(rng.randrange(self.BAND)),
                self.infeasible_gap(rng.randrange(self.BAND))]
        out = []
        for side, g in zip(("feasible", "infeasible"), gaps):
            shift = RUNNING_MARGIN - g
            obj = shifted_pencil(shift)
            if game_from_pencil(jsonio.pencil_from_json(obj)) != running_game(shift):
                raise RuntimeError(f"shifted pencil ({side}) does not translate "
                                   "to the shifted game")
            path = os.path.join(workdir, f"boundary_{side}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(jsonio.dump_json(obj))
            out.append(Instance(f"boundary_{side}", path, g, (3, 3)))
        return out

    def _judge(self, inst, rc, text):
        g = inst.truth
        want = "Feasible" if g > 0 else "Infeasible"
        report = _parse_report(rc, text, EXIT_FEASIBLE if g > 0 else EXIT_INFEASIBLE)
        if report["verdict"] != want:
            raise _Wrong(f"verdict {report['verdict']}, expected {want}")
        if g > 0:
            witness = [jsonio.parse_rational(x) for x in report["witness"]]
            holds, _ = verify_subharmonic(running_game(RUNNING_MARGIN - g), witness)
            if not holds:
                raise _Wrong("witness is not subharmonic on the shifted game")

    def witness(self, text):
        return json.loads(text)["witness"]


class Exact(Workload):
    """The witness of an ``exact`` op is its value vector chi.

    Op cost varies by about a third between instances, so a run spreads its
    ops over twelve of them, about as many as a 25 s run gets through once:
    a run's figures then average over nearly the same instances whatever
    the host's speed.  The oracle, as costly as an op, evaluates only the
    instances a run used.
    """

    name, command = "exact", "exact"

    def __init__(self, n: int = 3, m: int = 3, pool: int = 12):
        self.n, self.m, self.pool = n, m, pool
        self._values = {}  # instance name -> GameValue, computed once

    def instances(self, seed, workdir):
        return _random_instances(self.name, seed, workdir, self.n, self.m, self.pool)

    def _judge(self, inst, rc, text):
        if inst.name not in self._values:
            self._values[inst.name] = game_value_bruteforce(
                random_game(inst.truth, self.m))
        value = self._values[inst.name]
        margin = 2 * max(value.chi)
        status = "Nontrivial" if margin >= 0 else "Trivial"
        out = _parse_report(rc, text, EXIT_FEASIBLE if margin >= 0 else EXIT_INFEASIBLE)
        if out["status"] != status:
            raise _Wrong(f"status {out['status']}, expected {status}")
        if jsonio.parse_rational(out["margin"]) != margin:
            raise _Wrong(f"margin {out['margin']}, expected {margin}")
        chi = tuple(jsonio.parse_rational(c) for c in out["value"]["chi"])
        if chi != value.chi:
            raise _Wrong("value vector chi differs from policy enumeration")
        if out["value"]["saddle_verified"] is not True:
            raise _Wrong("saddle point not verified")

    def witness(self, text):
        return json.loads(text)["value"]["chi"]


WORKLOADS = {"dense": Dense, "boundary": Boundary, "exact": Exact}
