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

One loop (`_iterate`) serves both arithmetics and the sweeps in `bench`.
It runs in double precision by default, stepping with `_DoubleEngine`, the
flat-array form of a game (each step is a few vectorized array operations),
and in exact mode over Fractions with `apply_F`.  Any witness claimed in
doubles is re-checked in exact rational arithmetic, falling back to the
rational loop if the check fails; correctness of plain verdicts under
fixed-precision evaluation is part of the procedure's contract, provided
every state of the game has the same mean payoff and it is nonzero.
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


def apply_F_sigma(G: StochGame, sigma: Sequence[int], x: Sequence[ExtReal]) -> tuple:
    """Shapley operator with Min committed to the policy sigma."""
    _check_point(G, x)
    _check_min_policy(G, sigma)
    y = _max_values(G, x)
    return tuple(
        _action_value(G.min_actions[k][sigma[k]], y) for k in range(G.n)
    )


def apply_F_tau(G: StochGame, tau: Sequence[int], x: Sequence[ExtReal]) -> tuple:
    """Shapley operator with Max committed to the policy tau."""
    _check_point(G, x)
    _check_max_policy(G, tau)
    y = _fixed_max_values(G, tau, x)
    return tuple(
        min(_action_value(a, y) for a in acts) for acts in G.min_actions
    )


def apply_F_sigma_tau(G: StochGame, sigma: Sequence[int], tau: Sequence[int],
                      x: Sequence[ExtReal]) -> tuple:
    """Shapley operator with both players committed; an affine map of x."""
    _check_point(G, x)
    _check_min_policy(G, sigma)
    _check_max_policy(G, tau)
    y = _fixed_max_values(G, tau, x)
    return tuple(
        _action_value(G.min_actions[k][sigma[k]], y) for k in range(G.n)
    )


def _fixed_max_values(G, tau, x) -> list:
    out = []
    for i, acts in enumerate(G.max_actions):
        b = acts[tau[i]]
        xv = x[b.target]
        out.append(MINUS_INF if xv is MINUS_INF else b.reward + xv)
    return out


def _check_min_policy(G, sigma):
    if len(sigma) != G.n or any(
        not 0 <= sigma[k] < len(G.min_actions[k]) for k in range(G.n)
    ):
        raise ValidationError("invalid Min policy index")


def _check_max_policy(G, tau):
    if len(tau) != G.m or any(
        not 0 <= tau[i] < len(G.max_actions[i]) for i in range(G.m)
    ):
        raise ValidationError("invalid Max policy index")


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
    finite = all(
        not e.is_zero for mat in P.matrices for row in mat for e in row
    )
    return GUARANTEED if finite else UNKNOWN


# ---------------------------------------------------------------------------
# Value iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IterationReport:
    """Outcome of the value-iteration feasibility check.

    witness is the running-max vector v for a Feasible verdict (it satisfies
    v <= F(v) exactly) and the last iterate u otherwise; entries are exact
    rationals (doubles convert losslessly).
    """

    verdict: str  # "Feasible" | "Infeasible" | "Indeterminate"
    iterations: int
    witness: tuple
    epsilon: Fraction


@dataclass(eq=False)
class _DoubleEngine:
    """Flat-array evaluator of F over float vectors: the one array form of
    a game that the float iteration runs on.

    Actions are laid out state-major, each state's actions starting at its
    entry of ``max_seg`` / ``min_seg``, so each evaluation is two gather-add
    passes and two segmented reductions.  Max action a moves to variable
    ``max_t[a]`` with reward ``max_r[a]``; Min action a moves to rows
    ``min_i[a]`` and ``min_j[a]`` (equal for a singleton) with reward
    ``min_r[a]``.
    """

    max_r: np.ndarray
    max_t: np.ndarray
    max_seg: np.ndarray
    min_r: np.ndarray
    min_i: np.ndarray
    min_j: np.ndarray
    min_seg: np.ndarray

    @classmethod
    def from_game(cls, G: StochGame) -> "_DoubleEngine":
        max_r, max_t, max_seg = [], [], []
        for acts in G.max_actions:
            max_seg.append(len(max_r))
            for b in acts:
                max_r.append(float(b.reward))
                max_t.append(b.target)
        min_r, min_i, min_j, min_seg = [], [], [], []
        for acts in G.min_actions:
            min_seg.append(len(min_r))
            for a in acts:
                min_r.append(float(a.reward))
                min_i.append(a.targets[0])
                min_j.append(a.targets[-1])
        index = lambda seq: np.array(seq, dtype=np.intp)
        return cls(np.array(max_r), index(max_t), index(max_seg),
                   np.array(min_r), index(min_i), index(min_j), index(min_seg))

    def step(self, x: np.ndarray) -> np.ndarray:
        y = np.maximum.reduceat(self.max_r + x[self.max_t], self.max_seg)
        vals = self.min_r + 0.5 * (y[self.min_i] + y[self.min_j])
        return np.minimum.reduceat(vals, self.min_seg)


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
        step = lambda x: np.array(apply_F(G, x), dtype=object)
        zeros = np.array([Fraction(0)] * G.n, dtype=object)
        status, iters, u, v, w = _iterate(step, zeros, epsilon, max_iters)
        return status, iters, tuple(u), tuple(v), tuple(w)
    status, iters, u, v, w = _iterate(_DoubleEngine.from_game(G).step,
                                      np.zeros(G.n), float(epsilon), max_iters)
    to_frac = lambda arr: tuple(Fraction(t) for t in arr.tolist())
    return status, iters, to_frac(u), to_frac(v), to_frac(w)


def check_feasibility(G: StochGame, epsilon=Fraction(1, 10**8),
                      max_iters: int = 10**6, exact: bool = False,
                      verify: bool = True) -> IterationReport:
    """Decide feasibility of {x : x <= F(x)} != {-oo} by value iteration.

    Correct whenever all states of the game share the same nonzero mean
    payoff (use ``structural_constant_value_check`` for a structural
    sufficient condition).  Runs in doubles unless ``exact``; with
    ``verify`` (the default), a Feasible witness that fails the exact
    subharmonicity check triggers a rerun of the loop in rationals, whose
    witness always passes.  Hitting ``max_iters`` yields Indeterminate —
    typically a (near-)degenerate instance with mean payoff around zero.
    """
    epsilon = as_fraction(epsilon)
    status, iters, u, v, w = value_iteration_raw(G, epsilon, max_iters, exact)
    if status == "feasible":
        if verify and not exact:
            fv = apply_F(G, v)
            if not all(a <= b for a, b in zip(v, fv)):
                status, iters, u, v, w = value_iteration_raw(
                    G, epsilon, max_iters, exact=True)
        if status == "feasible":
            return IterationReport("Feasible", iters, v, epsilon)
    if status == "infeasible":
        return IterationReport("Infeasible", iters, u, epsilon)
    return IterationReport("Indeterminate", iters, u, epsilon)
