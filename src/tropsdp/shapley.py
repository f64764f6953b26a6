"""Shapley operator of a game and feasibility checking by value iteration.

The Shapley operator F sends x in T^n to the vector of one-turn optimal
values: at Min state k,

    F(x)_k = min over a = {i, j} of  r^a_k + (y_i(x) + y_j(x)) / 2,

where y_i(x) = max over Max actions {l} at i of r^b_i + x_l, and a singleton
action {i} contributes r^a_k + y_i(x).  Points with x <= F(x) ("subharmonic"
vectors) are exactly the points of the spectrahedron attached to the game,
so feasibility reduces to deciding whether a nontrivial subharmonic vector
exists.  That is what the value-iteration procedure here does: iterate
u := F(u) from 0 while keeping the running entrywise maximum v; if all
entries of u drop to -epsilon the problem is infeasible, and if they all
climb to +epsilon then v itself is a feasible point.

The loop also stops at the first checked iterate that is an exact
certificate.  After 64 steps, and at every doubling of the step count (128,
256, ...), it tests the current iterate u in integers: u <= F(u) makes u a
feasible point, and F(u) < u in every entry drives F^t(0) to -oo, so the
spectrahedron is trivial.  This is the bound min(F(u) - u) <= chi <=
max(F(u) - u) on the game's value chi; near the boundary, where the
epsilon exits take about (span + epsilon) / |chi| steps, it decides after
64 or 128.  Runs that decide within 64 steps never reach a check.

The iteration runs on the arrays a `StochGame` stores: `StochGame.step`
evaluates F on them and one loop (`_iterate`) iterates it, over doubles or
over Fractions.  `_decide` runs it in doubles and accepts an epsilon exit
only after its vector passes a check in integers (`StochGame.doubled_step`,
int64 when a bit bound allows, Python ints otherwise): a Feasible exit
needs v <= F(v), an Infeasible one F(u) < u for the last iterate u or for
the tilted running minimum of the iterates (`_tilted_min`).  A vector that
fails, or an epsilon that is 0 as a double, reruns the loop in Fractions,
whose exits pass the same checks by construction.  So every verdict is
checked exactly; whether all states share one mean payoff bears only on
whether an epsilon exit comes.  `recession` runs the same kernel with zero
rewards over Fractions and -oo.  `apply_F` evaluates F over Fractions and
-oo from the game's action tuples; it is the exact reference the arrays are
tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .game import StochGame
from .pencil import Pencil
from .tropical import MINUS_INF, ExtReal, as_fraction

GUARANTEED = "Guaranteed"
UNKNOWN = "Unknown"

# Value iteration tests its iterate for an exact certificate at this step
# count and at every doubling of it.
FIRST_CHECK = 64


def _check_point(G: StochGame, x: Sequence) -> None:
    if len(x) != G.n:
        raise ValidationError(f"point has {len(x)} coordinates, expected {G.n}")


def _max_values(G: StochGame, x: Sequence[ExtReal]) -> list:
    """y_i(x) = best Max move value at each Max state."""
    out = []
    for acts in G.max_actions:
        best: ExtReal = MINUS_INF
        for b in acts:
            xv = x[b.target]
            if xv is MINUS_INF:
                continue
            v = b.reward + xv
            if v > best:
                best = v
        out.append(best)
    return out


def _action_value(a, y) -> ExtReal:
    yi = y[a.targets[0]]
    yj = y[a.targets[-1]]
    if yi is MINUS_INF or yj is MINUS_INF:
        return MINUS_INF
    return a.reward + (yi + yj) / 2


def apply_F(G: StochGame, x: Sequence[ExtReal]) -> tuple:
    """One exact evaluation of the Shapley operator."""
    _check_point(G, x)
    y = _max_values(G, x)
    return tuple(
        min(_action_value(a, y) for a in acts) for acts in G.min_actions
    )


def recession(G: StochGame, x: Sequence[ExtReal]) -> tuple:
    """Recession operator lim_{gamma->oo} F(gamma x)/gamma: the Shapley
    operator of the same game with all rewards set to zero."""
    _check_point(G, x)
    return tuple(G._apply(np.array(x, dtype=object), 0, 0,
                          Fraction(1, 2)).tolist())


def structural_constant_value_check(P: Pencil) -> str:
    """"Guaranteed" when every entry of every matrix is finite — a
    structural condition under which value iteration's constant-mean-payoff
    hypothesis is automatic; "Unknown" otherwise."""
    finite = len(P.sign) == P.n * P.m * (P.m + 1) // 2
    return GUARANTEED if finite else UNKNOWN


# ---------------------------------------------------------------------------
# Value iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IterationReport:
    """Outcome of the value-iteration feasibility check.

    witness is a vector checked in integers: v <= F(v) for a Feasible
    verdict (the running maximum v of the iterates, or the checked iterate
    at a certificate stop), and F(u) < u in every entry for an Infeasible
    one (the last iterate, or the tilted running minimum of the iterates);
    for Indeterminate it is the last iterate.  Entries are exact rationals
    (doubles convert losslessly), and an Infeasible witness's entries need
    not be <= -epsilon.  engine names the arithmetic of the iteration that
    produced them: "double", or "rational" when epsilon is 0 as a double
    or a double witness failed its check.  exit names the stop that
    decided: "epsilon", "certificate" or "budget"; it is None for a report
    that no iteration produced.
    """

    verdict: str  # "Feasible" | "Infeasible" | "Indeterminate"
    iterations: int
    witness: tuple
    epsilon: Fraction
    engine: str = "double"
    exit: str | None = None


def _certificate(G: StochGame, u) -> str | None:
    """"feasible" if u <= F(u), "infeasible" if F(u) < u in every entry,
    None otherwise; decided in integers (``StochGame.doubled_step``), never
    in the arithmetic of u."""
    x2, fx2 = G.doubled_step(u)
    if np.all(x2 <= fx2):
        return "feasible"
    if np.all(fx2 < x2):
        return "infeasible"
    return None


def _start(G: StochGame, exact: bool):
    """The step F and the start vector 0, over doubles or Fractions."""
    if exact:
        return G.exact_step(), np.array([Fraction(0)] * G.n, dtype=object)
    return G.step, np.zeros(G.n)


def _iterate(G: StochGame, epsilon, max_iters: int, exact: bool):
    """Iterate u := F(u) from 0, keeping the running entrywise maximum v
    and minimum w, until every entry of u is <= -epsilon ("infeasible") or
    >= epsilon ("feasible"), or max_iters steps ran ("indeterminate").

    After FIRST_CHECK steps, and again whenever the step count doubles, the
    current iterate is tested exactly (``_certificate``): if u <= F(u) it
    is a feasible point and the loop stops "feasible"; if F(u) < u in every
    entry it is a strict infeasibility certificate and the loop stops
    "infeasible".  Either way u is returned in all three places, as the
    iterate, v and w.

    Runs over doubles, or over Fractions when ``exact``; returns (status,
    iterations, u, v, w, exit), the vectors as arrays in that arithmetic
    and exit the stop that ended the run: "epsilon", "certificate" or
    "budget".
    """
    step, u = _start(G, exact)
    if not exact:  # past the largest double no epsilon exit can come
        epsilon = float(min(epsilon, np.finfo(float).max))
    if not epsilon > 0:
        raise ValidationError(
            f"epsilon must be positive, got {epsilon} in the iteration's "
            "arithmetic")
    v = u.copy()
    w = u.copy()
    iters, checkpoint = 0, FIRST_CHECK
    while u.max() > -epsilon and u.min() < epsilon:
        if iters == checkpoint:
            checkpoint *= 2
            status = _certificate(G, u)
            if status is not None:
                return status, iters, u, u, u, "certificate"
        if iters >= max_iters:
            return "indeterminate", iters, u, v, w, "budget"
        np.maximum(v, u, out=v)
        np.minimum(w, u, out=w)
        u = step(u)
        iters += 1
    verdict = "infeasible" if u.max() <= -epsilon else "feasible"
    return verdict, iters, u, v, w, "epsilon"


def _tilted_min(G: StochGame, t: int, epsilon: Fraction, exact: bool):
    """z = min over 0 <= s < t of u_s + s delta, with delta = epsilon / t,
    for a run whose iterate u_t is <= -epsilon in every entry; rounded
    down to the grid 1/L with 1/L <= delta / 2.

    In exact arithmetic F(z) <= min_s F(u_s) + s delta = min_{1<=s<=t}
    (u_s + s delta) - delta <= z - delta, because u_t + t delta <= 0 = u_0
    (monotonicity and additive homogeneity); the rounding keeps
    F(z) < z - delta / 2 and the integers of the check small.  In doubles
    the iterates carry rounding errors, and only that check decides.
    Replays the run's t steps in its arithmetic.
    """
    step, u = _start(G, exact)
    delta = epsilon / t
    tilt = delta if exact else float(delta)
    z = u.copy()
    for s in range(1, t):
        u = step(u)
        np.minimum(z, u + s * tilt, out=z)
    scale = 1 << (math.ceil(2 / delta) - 1).bit_length()
    return np.array([Fraction(p * scale // q, scale)
                     for p, q in (x.as_integer_ratio() for x in z.tolist())],
                    dtype=object)


def _to_fractions(arr: np.ndarray) -> tuple:
    return tuple(Fraction(t) for t in arr.tolist())


def _decide(G: StochGame, epsilon: Fraction, max_iters: int):
    """Value iteration whose epsilon exits are checked in integers;
    returns (status, iterations, witness, engine, exit), the witness as a
    tuple of Fractions (see ``IterationReport``).

    A Feasible exit stands when v <= F(v); an Infeasible one when F(u) < u
    in every entry for the last iterate u, or else for ``_tilted_min``.
    The loop runs in doubles first, unless epsilon is 0 as a double; a
    vector that fails its check reruns it in Fractions, where the checks
    hold by construction.  Certificate and budget stops return the last
    iterate, already checked or undecided.
    """
    for exact in ((True,) if float(min(epsilon, 1)) == 0 else (False, True)):
        status, iters, u, v, _, stop = _iterate(G, epsilon, max_iters, exact)
        witness = u
        if stop == "epsilon" and status == "feasible":
            witness = v if G.is_subharmonic(v) else None
        elif stop == "epsilon" and _certificate(G, u) != "infeasible":
            z = _tilted_min(G, iters, epsilon, exact)
            witness = z if _certificate(G, z) == "infeasible" else None
        if witness is not None:
            return (status, iters, _to_fractions(witness),
                    "rational" if exact else "double", stop)
    raise AssertionError("a witness of the rational iteration failed its check")


def value_iteration_raw(G: StochGame, epsilon, max_iters: int, exact: bool):
    """The bare iteration loop, unchecked, also tracking the running
    entrywise minimum w: returns (status, iterations, u, v, w) with
    rational entries."""
    status, iters, *vectors, _ = _iterate(G, as_fraction(epsilon), max_iters,
                                          exact)
    return (status, iters, *map(_to_fractions, vectors))


def check_feasibility(G: StochGame, epsilon=Fraction(1, 10**8),
                      max_iters: int = 10**6) -> IterationReport:
    """Decide feasibility of {x : x <= F(x)} != {-oo} by value iteration.

    Every verdict is checked exactly: an epsilon exit by its witness in
    integers, with a rerun in rationals when the double witness fails (see
    ``_decide``), and a certificate stop (the iterate after 64, 128, 256,
    ... steps satisfying u <= F(u), or F(u) < u in every entry) by the
    same integer test; iterations is the step count of the run that
    decided.  An epsilon that is 0 as a double runs in rationals from the
    start.  Hitting ``max_iters`` yields Indeterminate: no epsilon exit,
    and no checked iterate was a certificate, as can happen at value 0 or
    with values of both signs.
    """
    epsilon = as_fraction(epsilon)
    status, iters, witness, engine, stop = _decide(G, epsilon, max_iters)
    verdict = {"feasible": "Feasible",
               "infeasible": "Infeasible"}.get(status, "Indeterminate")
    return IterationReport(verdict, iters, witness, epsilon, engine, stop)
