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

The iteration runs on the arrays a `StochGame` stores: `StochGame.step`
evaluates F on them and one loop (`_iterate`) iterates it, over doubles by
default and over Fractions in exact mode.  A witness claimed in doubles is
re-checked exactly by `StochGame.is_subharmonic`, which scales the rewards
and the witness to integers (int64 when a bit bound allows, Python ints
otherwise); if the check fails the loop reruns in rationals.  Correctness
of plain verdicts under fixed-precision evaluation is part of the
procedure's contract, provided every state of the game has the same mean
payoff and it is nonzero.  `apply_F` and `recession` evaluate F and its
recession operator over Fractions and -oo from the game's action tuples;
`apply_F` is the exact reference the arrays are tested against.
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
    y = []
    for acts in G.max_actions:
        best: ExtReal = MINUS_INF
        for b in acts:
            xv = x[b.target]
            if xv is not MINUS_INF and xv > best:
                best = xv
        y.append(best)
    out = []
    for acts in G.min_actions:
        best = None
        for a in acts:
            yi, yj = y[a.targets[0]], y[a.targets[-1]]
            v = MINUS_INF if (yi is MINUS_INF or yj is MINUS_INF) else (yi + yj) / 2
            if best is None or v < best:
                best = v
        out.append(best)
    return tuple(out)


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
    rationals (doubles convert losslessly).  engine names the arithmetic
    of the iteration that produced them: "double", or "rational" under
    ``exact`` or after a double witness failed the exact check.
    """

    verdict: str  # "Feasible" | "Infeasible" | "Indeterminate"
    iterations: int
    witness: tuple
    epsilon: Fraction
    engine: str = "double"


def _iterate(step, u: np.ndarray, epsilon, max_iters: int):
    """Iterate u := step(u), keeping the running entrywise maximum v and
    minimum w, until every entry of u is <= -epsilon ("infeasible") or
    >= epsilon ("feasible"), or max_iters steps ran ("indeterminate").

    Works on float arrays with a float epsilon and on object arrays of
    Fractions with a rational one; returns (status, iterations, u, v, w).
    """
    if not epsilon > 0:
        raise ValidationError(
            f"epsilon must be positive, got {epsilon} in the iteration's "
            "arithmetic; an epsilon that underflows to 0 in floats needs "
            "exact iteration (--exact)")
    v = u.copy()
    w = u.copy()
    iters = 0
    while u.max() > -epsilon and u.min() < epsilon:
        if iters >= max_iters:
            return "indeterminate", iters, u, v, w
        np.maximum(v, u, out=v)
        np.minimum(w, u, out=w)
        u = step(u)
        iters += 1
    verdict = "infeasible" if u.max() <= -epsilon else "feasible"
    return verdict, iters, u, v, w


def value_iteration_raw(G: StochGame, epsilon, max_iters: int, exact: bool):
    """The bare iteration loop, also tracking the running entrywise minimum w
    (used for infeasibility certificates): returns (status, iterations,
    u, v, w) with rational entries."""
    epsilon = as_fraction(epsilon)
    if exact:
        zeros = np.array([Fraction(0)] * G.n, dtype=object)
        status, iters, u, v, w = _iterate(G.exact_step(), zeros, epsilon,
                                          max_iters)
        return status, iters, tuple(u), tuple(v), tuple(w)
    status, iters, u, v, w = _iterate(G.step, np.zeros(G.n),
                                      float(epsilon), max_iters)
    to_frac = lambda arr: tuple(Fraction(t) for t in arr.tolist())
    return status, iters, to_frac(u), to_frac(v), to_frac(w)


def check_feasibility(G: StochGame, epsilon=Fraction(1, 10**8),
                      max_iters: int = 10**6,
                      exact: bool = False) -> IterationReport:
    """Decide feasibility of {x : x <= F(x)} != {-oo} by value iteration.

    Correct whenever all states of the game share the same nonzero mean
    payoff (use ``structural_constant_value_check`` for a structural
    sufficient condition).  Runs in doubles unless ``exact``; a Feasible
    witness that fails the exact subharmonicity check
    (``StochGame.is_subharmonic``) triggers a rerun of the loop in
    rationals, whose witness always passes.  Hitting ``max_iters`` yields
    Indeterminate — typically a (near-)degenerate instance with mean payoff
    around zero.
    """
    epsilon = as_fraction(epsilon)
    status, iters, u, v, w = value_iteration_raw(G, epsilon, max_iters, exact)
    engine = "rational" if exact else "double"
    if status == "feasible" and not exact and not G.is_subharmonic(v):
        engine = "rational"
        status, iters, u, v, w = value_iteration_raw(
            G, epsilon, max_iters, exact=True)
    verdict = {"feasible": "Feasible",
               "infeasible": "Infeasible"}.get(status, "Indeterminate")
    return IterationReport(verdict, iters, v if status == "feasible" else u,
                           epsilon, engine)
