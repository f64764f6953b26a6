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
64 or 128.  Neither stop needs the constant-value hypothesis below, and
runs that decide within 64 steps never reach a check.

The iteration runs on the arrays a `StochGame` stores: `StochGame.step`
evaluates F on them and one loop (`_iterate`) iterates it, over doubles by
default and over Fractions in exact mode.  A witness claimed in doubles is
re-checked exactly by `StochGame.is_subharmonic`, which scales the rewards
and the witness to integers (int64 when a bit bound allows, Python ints
otherwise); if the check fails the loop reruns in rationals.  Correctness
of the epsilon verdicts under fixed-precision evaluation is part of the
procedure's contract, provided every state of the game has the same mean
payoff and it is nonzero.  `recession` runs the same kernel with zero
rewards over Fractions and -oo.  `apply_F` evaluates F over Fractions and
-oo from the game's action tuples; it is the exact reference the arrays are
tested against.
"""

from __future__ import annotations

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

    witness is the running-max vector v for a Feasible verdict (it satisfies
    v <= F(v) exactly) and the last iterate u otherwise; entries are exact
    rationals (doubles convert losslessly).  When the loop stopped at an
    exact certificate, the witness is that iterate: u <= F(u) for Feasible,
    and for Infeasible a strictly superharmonic u (F(u) < u in every entry)
    whose entries need not be <= -epsilon.  engine names the arithmetic of
    the iteration that produced them: "double", or "rational" under
    ``exact`` or after a double witness failed the exact check.  exit names
    the stop that decided: "epsilon" (only these verdicts rest on the
    constant-value hypothesis), "certificate" or "budget"; it is None for
    a report that no iteration produced.
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
    if exact:
        step, u = G.exact_step(), np.array([Fraction(0)] * G.n, dtype=object)
    else:
        step, u, epsilon = G.step, np.zeros(G.n), float(epsilon)
    if not epsilon > 0:
        raise ValidationError(
            f"epsilon must be positive, got {epsilon} in the iteration's "
            "arithmetic; an epsilon that underflows to 0 in floats needs "
            "exact iteration (--exact)")
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


def _to_fractions(arr: np.ndarray) -> tuple:
    return tuple(Fraction(t) for t in arr.tolist())


def value_iteration_raw(G: StochGame, epsilon, max_iters: int, exact: bool):
    """The bare iteration loop, also tracking the running entrywise minimum w
    (used for infeasibility certificates): returns (status, iterations,
    u, v, w) with rational entries."""
    status, iters, *vectors, _ = _iterate(G, as_fraction(epsilon), max_iters,
                                          exact)
    return (status, iters, *map(_to_fractions, vectors))


def check_feasibility(G: StochGame, epsilon=Fraction(1, 10**8),
                      max_iters: int = 10**6,
                      exact: bool = False) -> IterationReport:
    """Decide feasibility of {x : x <= F(x)} != {-oo} by value iteration.

    A verdict from an exact certificate (the iterate after 64, 128, 256,
    ... steps satisfying u <= F(u), or F(u) < u in every entry) is correct
    for every game; iterations is then that step count.  The epsilon
    verdicts are correct whenever all states of the game share the same
    nonzero mean payoff (use ``structural_constant_value_check`` for a
    structural sufficient condition).  Runs in doubles unless ``exact``; a
    Feasible witness that fails the exact subharmonicity check
    (``StochGame.is_subharmonic``) triggers a rerun of the loop in
    rationals, whose witness always passes; a certificate stop has already
    passed that check.  Hitting ``max_iters`` yields Indeterminate: no
    epsilon exit, and no checked iterate was a certificate.
    """
    epsilon = as_fraction(epsilon)
    status, iters, u, v, _, stop = _iterate(G, epsilon, max_iters, exact)
    engine = "rational" if exact else "double"
    if (stop == "epsilon" and status == "feasible" and not exact
            and not G.is_subharmonic(v)):
        engine = "rational"
        status, iters, u, v, _, stop = _iterate(G, epsilon, max_iters, True)
    verdict = {"feasible": "Feasible",
               "infeasible": "Infeasible"}.get(status, "Indeterminate")
    return IterationReport(verdict, iters,
                           _to_fractions(v if status == "feasible" else u),
                           epsilon, engine, stop)
