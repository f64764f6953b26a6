"""Shapley operator of a game and feasibility checking by value iteration.

The Shapley operator F sends x in T^n to the vector of one-turn optimal
values: at Min state k,

    F(x)_k = min over a = {i, j} of  r^a_k + (y_i(x) + y_j(x)) / 2,

where y_i(x) = max over Max actions {l} at i of r^b_i + x_l, and a singleton
action {i} contributes r^a_k + y_i(x).  Points with x <= F(x) ("subharmonic"
vectors) are exactly the points of the spectrahedron attached to the game,
so feasibility reduces to deciding whether a nontrivial subharmonic vector
exists.  That is what the value-iteration procedure here does: it iterates
u := F(u) from 0, and after 1, 2, 4, ... steps it tests up to three vectors
u exactly: lambda + u <= F(u) makes u a feasible point, and F(u) < lambda +
u in every entry drives F^t(0) to -oo, so the spectrahedron is trivial.

The iteration runs in integers on a dyadic grid, and every part of it
takes a margin lambda (0 by default).  On the grid S = lcm(den, lambda's
denominator) 2^K, one step sends the numerators X of u = X / S to
floor(S (F - lambda)(X / S)) (``StochGame.operator``), exactly, in int64
while a bound on the iterate and its growth to the next checkpoint allows
and in Python ints from then on.  This floor step is monotone, commutes
with integer shifts and lies below F - lambda, and a vector's test on the
grid (``_bracket``) is exact for F - lambda.  At the checkpoint after c
steps the loop computes step(X_c) and the bracket [min(step(X_c) - X_c),
max(step(X_c) - X_c)], which holds the game's value chi, and tests:

- (a) the iterate X_c, by its bracket.  The bracket only narrows along the
  orbit: X + k <= step(X) for an integer k gives step(X) + k <=
  step(step(X)).  An iterate that is a certificate at step t is one at
  every later step, so the check at the first power of two from t on
  decides, after about log2 t checks.  The running example at value
  +-10^-5 per step is decided at step 32.
- (b) the running maximum V_c = max(X_0, ..., X_c), only where every entry
  of max(X_1, ..., X_(c+1)) is >= 0, X_(c+1) being the check's own step.
  Monotonicity then gives step(V_c) >= max(X_1, ..., X_(c+1)) >= V_c, so
  the test costs a kernel call only where it passes.  It comes by the
  checkpoint after any step whose iterate is >= 0 in every entry.
- (c) once max X_c < 0 and (a) has failed, the tilted minimum of the
  iterates (``_tilted_min``) with the margin M = -max X_c.  It passes by
  construction once K reaches c, where the grid holds F^t(0) exactly;
  when it fails, the loop reruns with K doubled, from K0 = 8 on, so the
  reruns are bounded.

Every verdict is thus checked exactly, and the budget of steps is the only
limit.  A failed check's step is the next iterate, so (a) costs no kernel
call of its own, only its bracket and the int64 bound.
`recession` runs the same kernel with zero rewards over Fractions and -oo.
`apply_F` evaluates F over Fractions and -oo from the game's action tuples;
it is the exact reference the arrays are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .game import StochGame, _widened
from .pencil import Pencil
from .tropical import MINUS_INF, ExtReal

GUARANTEED = "Guaranteed"
UNKNOWN = "Unknown"

# The first grid width K: the loop starts on the grid 1 / (lcm(den,
# lambda's denominator) 2^K0), and doubles K when a tilted minimum fails its
# check.
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
    verdict (the checked iterate, or the running maximum of the iterates),
    and F(u) < u in every entry for an Infeasible one (the checked iterate,
    or the tilted minimum of the iterates); for Indeterminate it is the
    last iterate.  Entries are exact rationals on the run's dyadic grid.
    iterations is the step count of that run's stop, a power of two unless
    the budget ended the run.  bits is the grid width K of the run that
    decided: K0, or a doubling of it after a tilted minimum failed its
    check.  exit names the stop that decided: "certificate" (the iterate),
    "running-max", "tilted-min" or "budget".  Both are None for a report
    that no iteration produced.
    """

    verdict: str  # "Feasible" | "Infeasible" | "Indeterminate"
    iterations: int
    witness: tuple
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


def _iterate(grid: tuple, n: int, max_iters: int):
    """Iterate X := step(X) from 0 on a grid (S, R, step) of
    ``StochGame.operator`` until a checkpoint stops it or max_iters steps
    ran ("budget"), keeping W_t = max(X_1, ..., X_t).

    After c = 1, 2, 4, ... steps the check computes step(X_c) and stops
    the loop at the first of
    - (a) X_c, if its bracket (``_bracket``) makes it a certificate
      (``_certificate``): "certificate";
    - (b) V_c = max(0, W_c), if max(W_c, step(X_c)) >= 0 in every entry,
      which makes V_c <= step(V_c), and the bracket of V_c confirms it:
      "running-max";
    - (c) X_c, unchecked, if max X_c < 0: "tilted-min", whose tilted
      minimum ``_decide`` tests.
    Otherwise the check's step(X_c) is the next iterate.  Each check tests
    the int64 bound again up to the next check's own step, and X, its step
    and W become Python ints when it fails; V_c lies between 0 and the
    iterates, inside the same bound.

    Returns (status, iterations, X, exit), X the stop's vector.
    """
    reach, step = grid[1:]
    x = _widened(np.zeros(n, dtype=np.int64), 2 * reach)
    kernel, fx, w = step.bind(x.dtype), None, None
    iters, checkpoint = 0, 1
    while True:
        if iters == checkpoint:
            fx = kernel(x)
            status = _certificate(*_bracket(x, fx))
            if status is not None:
                return status, iters, x, "certificate"
            if np.maximum(w, fx).min() >= 0:
                v = np.maximum(w, 0)
                if _certificate(*_bracket(v, kernel(v))) == "feasible":
                    return "feasible", iters, v, "running-max"
            if x.max() < 0:
                return "infeasible", iters, x, "tilted-min"
            x = _widened(x, reach * (checkpoint + 1))
            fx, w = fx.astype(x.dtype, copy=False), w.astype(x.dtype, copy=False)
            kernel = step.bind(x.dtype)
            checkpoint *= 2
        if iters >= max_iters:
            return "indeterminate", iters, x, "budget"
        if fx is None:
            fx = kernel(x)
        x, fx = fx, None
        w = x.copy() if w is None else np.maximum(w, x, out=w)
        iters += 1


def _tilted_min(G: StochGame, grid, t: int, margin: int, bits: int, lam=0):
    """z = floor(S' min over 0 <= s < t of (u_s + s delta)), delta = M / t
    for the margin M = margin / S, over the run's iterates u_s on its grid
    S of ``bits``, where ``grid`` is the run's operator and S' = S 2^j the
    coarsest such grid with delta S' >= 2; returns (z, the grid of S').

    For exact iterates F(u_s) - lam = u_(s+1), and a run whose u_t is <=
    -M in every entry gives F(z) - lam < z - delta / 2 in every entry by
    monotonicity and additive homogeneity, because u_t + t delta <= 0 =
    u_0; the run is exact once bits >= t.  On a coarser grid the iterates
    are rounded, and only the check decides.  Replays the run's t steps."""
    step = grid[2]
    j = (-(-2 * t // margin) - 1).bit_length()
    fine = G.operator(lam, 1 << (bits + j))
    tilt = lambda s: (s * margin << j) // t
    # |z| <= t R' + M S', and one step from it adds R'
    x = _widened(np.zeros(G.n, dtype=np.int64), (t + 1) * fine[1] + tilt(t))
    z, kernel = x.copy(), step.bind(x.dtype)
    for s in range(1, t):
        x = kernel(x)
        np.minimum(z, (x << j) + tilt(s), out=z)
    return z, fine


def _to_fractions(x: np.ndarray, scale: int) -> tuple:
    return tuple(Fraction(t, scale) for t in x.tolist())


def _decide(G: StochGame, max_iters: int, lam=0):
    """Value iteration on F - lam (``_iterate``) whose every stop is
    checked in integers; returns (status, iterations, witness, bits, exit),
    the witness as a tuple of Fractions (see ``IterationReport``).

    The loop runs on the grid of K0 bits first.  A tilted-min stop at step
    t stands when F(z) < lam + z in every entry for ``_tilted_min``'s z;
    otherwise the loop reruns with the bits doubled, until they reach t,
    where z passes by construction.  The other stops return the loop's
    vector, already checked or undecided.
    """
    bits = K0
    while True:
        grid = G.operator(lam, 1 << bits)
        status, iters, x, stop = _iterate(grid, G.n, max_iters)
        if stop != "tilted-min":
            return status, iters, _to_fractions(x, grid[0]), bits, stop
        z, (scale, _, step) = _tilted_min(G, grid, iters, -int(x.max()), bits, lam)
        if _certificate(*_bracket(z, step(z))) == "infeasible":
            return status, iters, _to_fractions(z, scale), bits, stop
        if bits >= iters:
            raise AssertionError("a tilted minimum of the exact iteration "
                                 "failed its check")
        bits *= 2


def value_iteration_raw(G: StochGame, epsilon, max_iters: int, exact: bool):
    """The bare iteration loop of ``_decide``, with no check of a tilted
    minimum, on the grid of K0 bits, or of max_iters bits when ``exact``,
    where the iterates are F^t(0) exactly.  Returns (status, iterations, w,
    w, None), w the loop's vector with rational entries.  epsilon is
    unused; the signature is kept for the benchmark's traced ``check``,
    and the ROADMAP lists the function for removal."""
    grid = G.operator(0, 1 << (max_iters if exact else K0))
    status, iters, x, _ = _iterate(grid, G.n, max_iters)
    w = _to_fractions(x, grid[0])
    return status, iters, w, w, None


def check_feasibility(G: StochGame, max_iters: int = 10**6) -> IterationReport:
    """Decide feasibility of {x : x <= F(x)} != {-oo} by value iteration.

    Every verdict is checked exactly: each checkpoint after 1, 2, 4, ...
    steps tests its iterate, the running maximum and the tilted minimum of
    the iterates in integers (see ``_iterate`` and ``_decide``), and
    iterations is the step count of the run that decided.  Hitting
    ``max_iters`` yields Indeterminate: no vector tested was a
    certificate, as can happen with values of both signs or of exactly 0.
    """
    status, iters, witness, bits, stop = _decide(G, max_iters)
    verdict = {"feasible": "Feasible",
               "infeasible": "Infeasible"}.get(status, "Indeterminate")
    return IterationReport(verdict, iters, witness, bits, stop)
