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

The whole loop runs on one value bracket.  After 1, 2, 4, ... steps it
computes step(u) for the current iterate u, in integers, and the bracket
[min(F(u) - u), max(F(u) - u)], which holds the game's value chi: u <=
F(u) makes u a feasible point, and F(u) < u in every entry drives F^t(0)
to -oo, so the spectrahedron is trivial.  The bracket only narrows along
the orbit: the floor step below is monotone and commutes with integer
shifts, so X + c <= step(X) for an integer c gives step(X) + c <=
step(step(X)).  An iterate that is a certificate at step t is one at every
later step, so the check at the first power of two from t on decides,
after about log2 t checks.  Near the boundary, where the epsilon exits
take about (span + epsilon) / |chi| steps, the running example at value
+-10^-5 per step is decided at step 32.

The iteration runs in integers on a dyadic grid, and every part of it
takes a margin lambda (0 by default).  On the grid S = lcm(den, lambda's
denominator) 2^K, one step sends the numerators X of u = X / S to
floor(S (F - lambda)(X / S)) (``StochGame.operator``), exactly, in int64
while a bound on the iterate and its growth to the next checkpoint allows
and in Python ints from then on.  This floor step is monotone, commutes
with integer shifts and lies below F - lambda, so at a Feasible epsilon
exit lambda + v <= F(v) holds by construction; ``_decide`` still checks it
in integers, with one step.  An Infeasible exit stands when F(u) < lambda
+ u in every entry for the last iterate u or for the tilted running
minimum of the iterates (``_tilted_min``).  A vector that fails its check
reruns the loop with K doubled, from K0 = 8 on; once K reaches the step
count the grid holds F^t(0) exactly, where both checks hold, so the reruns
are bounded.  Every verdict is thus checked exactly; whether all states
share one mean payoff bears only on whether an epsilon exit comes.

A step of the loop costs the kernel and the running maximum, and the
epsilon test runs only where an exit can come: every later move of the
iterate lies in the last check's bracket, so a test that finds no exit
bounds how soon the iterate's minimum can climb to +epsilon or its maximum
fall to -epsilon, and the next test waits that long.  A failed check's
step is the next iterate, so a check costs no kernel call of its own, only
its bracket and the int64 bound.
`recession` runs the same kernel with zero rewards over Fractions and -oo.
`apply_F` evaluates F over Fractions and -oo from the game's action tuples;
it is the exact reference the arrays are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .game import StochGame, _widened
from .pencil import Pencil
from .tropical import MINUS_INF, ExtReal, as_fraction

GUARANTEED = "Guaranteed"
UNKNOWN = "Unknown"

# The first grid width K: the loop starts on the grid 1 / (lcm(den,
# lambda's denominator) 2^K0), and doubles K when a witness fails its check.
K0 = 8


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
    doubled = G._apply(np.array(x, dtype=object), 0, 0, halve=False)
    return tuple((doubled * Fraction(1, 2)).tolist())


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
    on the run's dyadic grid, and an Infeasible witness's entries need not
    be <= -epsilon.  iterations is the step count of that run's stop, a
    power of two at a certificate stop: the first of 1, 2, 4, ... steps
    whose iterate is a certificate.  bits is the grid width K of the run
    that decided: K0, or a doubling of it after a witness failed its
    check.  exit names the stop that decided: "epsilon", "certificate" or
    "budget".  Both are None for a report that no iteration produced.
    """

    verdict: str  # "Feasible" | "Infeasible" | "Indeterminate"
    iterations: int
    witness: tuple
    epsilon: Fraction
    bits: int | None = None
    exit: str | None = None


def _bracket(x, fx) -> tuple:
    """(lo, hi) = (min, max) of fx - x for fx = step(x) of
    ``StochGame.operator``: the value bracket of u = X / S in units of the
    grid.  It decides lam + u <= F(u) (lo >= 0) and F(u) < lam + u in every
    entry (hi < 0) exactly, since for an integer X and a real y, X <= y iff
    X <= floor(y) and y < X iff floor(y) < X."""
    d = fx - x
    return int(d.min()), int(d.max())


def _certificate(lo: int, hi: int) -> str | None:
    """"feasible" if the bracket (``_bracket``) makes u subharmonic,
    "infeasible" if it makes u strictly superharmonic, None otherwise."""
    if lo >= 0:
        return "feasible"
    if hi < 0:
        return "infeasible"
    return None


def _iterate(grid: tuple, n: int, epsilon: Fraction, max_iters: int):
    """Iterate X := step(X) from 0 on a grid (S, R, step) of
    ``StochGame.operator``, keeping the running entrywise maximum V, until
    every entry of X is <= -epsilon S ("infeasible") or >= epsilon S
    ("feasible"), or max_iters steps ran ("indeterminate").

    The whole loop runs on the bracket [lo, hi] of step(X) - X
    (``_bracket``), [-R, R] until the first check.  After 1, 2, 4, ...
    steps the current iterate is checked: its step gives the bracket, and
    the loop stops there, with X in place of V, if the bracket makes X a
    certificate (``_certificate``); otherwise the check's step(X) is the
    next iterate.  A certificate at step t holds at every later step, as
    the bracket only narrows along the orbit, so the loop stops at the
    first power of two from t on.  Each check tests the int64 bound again
    up to the next check's own step, and X, its step and V become Python
    ints when it fails.

    The epsilon test runs only where an exit can come.  Until a check
    passes, lo < 0 <= hi, and every later move lies in [lo, hi], so a test
    at X_t that finds low = min X_t < bound and high = max X_t > -bound
    (bound = ceil(epsilon S)) bounds min X_s <= low + (s - t) hi and max
    X_s >= high + (s - t) lo: no exit comes before s - t reaches
    ceil((bound - low) / hi) (when hi > 0) or ceil((high + bound) / -lo),
    and the next test waits for the nearer one.

    Returns (status, iterations, X, V, exit), exit naming the stop that
    ended the run: "epsilon", "certificate" or "budget".
    """
    scale, reach, step = grid
    bound = math.ceil(epsilon * scale)  # X >= epsilon S iff X >= bound
    x = _widened(np.zeros(n, dtype=np.int64), 2 * reach)
    v, kernel, fx = x.copy(), step.bind(x.dtype), None
    iters, checkpoint, test = 0, 1, 0
    lo, hi = -reach, reach
    while True:
        tested = iters == test
        if tested:
            low, high = int(x.min()), int(x.max())
            if high <= -bound:
                return "infeasible", iters, x, v, "epsilon"
            if low >= bound:
                return "feasible", iters, x, v, "epsilon"
        if iters == checkpoint:
            fx = kernel(x)
            lo, hi = _bracket(x, fx)
            status = _certificate(lo, hi)
            if status is not None:
                return status, iters, x, x, "certificate"
            x = _widened(x, reach * (checkpoint + 1))
            fx, v = fx.astype(x.dtype, copy=False), v.astype(x.dtype, copy=False)
            kernel = step.bind(x.dtype)
            checkpoint *= 2
        if iters >= max_iters:
            return "indeterminate", iters, x, v, "budget"
        if tested:
            wait = -((high + bound) // lo)
            test = iters + (min(wait, -((low - bound) // hi)) if hi else wait)
        np.maximum(v, x, out=v)
        if fx is None:
            fx = kernel(x)
        x, fx = fx, None
        iters += 1


def _tilted_min(G: StochGame, grid, t: int, epsilon: Fraction, bits: int, lam=0):
    """z = floor(S' min over 0 <= s < t of (u_s + s delta)), delta = epsilon
    / t, for the run's iterates u_s on its grid S of ``bits``, where
    ``grid`` is the run's operator and S' = S 2^j the coarsest such grid
    with delta S' >= 2; returns (z, the grid of S').

    For exact iterates F(u_s) - lam = u_(s+1), and a run whose u_t is <=
    -epsilon in every entry gives F(z) - lam < z - delta / 2 in every entry
    by monotonicity and additive homogeneity, because u_t + t delta <= 0 =
    u_0; the run is exact once bits >= t.  On a coarser grid the iterates
    are rounded, and only the check decides.  Replays the run's t steps."""
    scale, _, step = grid
    p, q = (epsilon / t).as_integer_ratio()
    j = (-(-2 * q // (p * scale)) - 1).bit_length()
    fine = G.operator(lam, 1 << (bits + j))
    tilt = lambda s: s * p * fine[0] // q
    # |z| <= t R' + epsilon S', and one step from it adds R'
    x = _widened(np.zeros(G.n, dtype=np.int64), (t + 1) * fine[1] + tilt(t))
    z, kernel = x.copy(), step.bind(x.dtype)
    for s in range(1, t):
        x = kernel(x)
        np.minimum(z, (x << j) + tilt(s), out=z)
    return z, fine


def _to_fractions(x: np.ndarray, scale: int) -> tuple:
    return tuple(Fraction(t, scale) for t in x.tolist())


def _decide(G: StochGame, epsilon: Fraction, max_iters: int, lam=0):
    """Value iteration on F - lam whose epsilon exits are checked in
    integers; returns (status, iterations, witness, bits, exit), the
    witness as a tuple of Fractions (see ``IterationReport``).

    A Feasible exit stands when lam + v <= F(v); an Infeasible one when
    F(u) < lam + u in every entry for the last iterate u, or else for
    ``_tilted_min``.  The loop runs on the grid of K0 bits first; a vector
    that fails its check reruns it with the bits doubled, until they reach
    the step count, where the checks hold by construction.  Certificate and
    budget stops return the last iterate, already checked or undecided.
    """
    if not epsilon > 0:
        raise ValidationError(f"epsilon must be positive, got {epsilon}")
    bits = K0
    while True:
        grid = G.operator(lam, 1 << bits)
        status, iters, x, v, stop = _iterate(grid, G.n, epsilon, max_iters)
        checked = lambda step, y: _certificate(*_bracket(y, step(y)))
        witness = x
        if stop == "epsilon" and status == "feasible":
            witness = v if checked(grid[2], v) == "feasible" else None
        elif stop == "epsilon" and checked(grid[2], x) != "infeasible":
            z, grid = _tilted_min(G, grid, iters, epsilon, bits, lam)
            witness = z if checked(grid[2], z) == "infeasible" else None
        if witness is not None:
            return status, iters, _to_fractions(witness, grid[0]), bits, stop
        if bits >= iters:
            raise AssertionError("a witness of the exact iteration failed its check")
        bits *= 2


def value_iteration_raw(G: StochGame, epsilon, max_iters: int, exact: bool):
    """The bare iteration loop of ``_decide``, unchecked, on the grid of K0
    bits, or of max_iters bits when ``exact``, where the iterates are
    F^t(0) exactly.  Returns (status, iterations, u, v, None) with rational
    entries; the last slot, once the running minimum, is always None."""
    grid = G.operator(0, 1 << (max_iters if exact else K0))
    status, iters, x, v, _ = _iterate(grid, G.n, as_fraction(epsilon), max_iters)
    return status, iters, _to_fractions(x, grid[0]), _to_fractions(v, grid[0]), None


def check_feasibility(G: StochGame, epsilon=Fraction(1, 10**8),
                      max_iters: int = 10**6) -> IterationReport:
    """Decide feasibility of {x : x <= F(x)} != {-oo} by value iteration.

    Every verdict is checked exactly: an epsilon exit by its witness in
    integers, with a rerun on a finer grid when the witness fails (see
    ``_decide``), and a certificate stop (the first iterate of those after
    1, 2, 4, ... steps satisfying u <= F(u), or F(u) < u in every entry) by
    the same integer test; iterations is the step count of the run that
    decided.  Hitting ``max_iters`` yields Indeterminate: no epsilon exit,
    and no checked iterate was a certificate, as can happen with values of
    both signs.
    """
    epsilon = as_fraction(epsilon)
    status, iters, witness, bits, stop = _decide(G, epsilon, max_iters)
    verdict = {"feasible": "Feasible",
               "infeasible": "Infeasible"}.get(status, "Indeterminate")
    return IterationReport(verdict, iters, witness, epsilon, bits, stop)
