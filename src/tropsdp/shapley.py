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

The iteration runs on `CompiledGame`, the flat-array form of a game
built once from a pencil (`from_pencil`), a `StochGame` (`from_game`) or
generated numerators (`bench`): target and segment arrays plus integer
reward numerators over one common denominator.  One kernel evaluates F on
those arrays and one loop (`_iterate`) iterates it: over doubles by
default, over Fractions in exact mode.  A witness claimed in doubles is
re-checked exactly by `CompiledGame.is_subharmonic`, which scales the
rewards and the witness to integers (int64 when a bit bound allows, Python
ints otherwise); if the check fails the loop reruns in rationals.
Correctness of plain verdicts under fixed-precision evaluation is part of
the procedure's contract, provided every state of the game has the same
mean payoff and it is nonzero.  `apply_F` evaluates F over Fractions and
-oo straight from a `StochGame`; it is the exact reference the array form
is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .errors import AssumptionViolated, ValidationError
from .game import MaxAction, MinAction, StochGame
from .pencil import Pencil
from .tropical import MINUS_INF, NEG, POS, ExtReal, as_fraction

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
    rationals (doubles convert losslessly).  engine names the arithmetic
    of the iteration that produced them: "double", or "rational" under
    ``exact`` or after a double witness failed the exact check.
    """

    verdict: str  # "Feasible" | "Infeasible" | "Indeterminate"
    iterations: int
    witness: tuple
    epsilon: Fraction
    engine: str = "double"


def _int_array(values: list) -> np.ndarray:
    """Python ints as an int64 array when every one fits, else as an object
    array of the ints themselves."""
    fits = max(abs(p) for p in values).bit_length() <= 63
    return np.array(values, dtype=np.int64 if fits else object)


def _float_view(p: np.ndarray, den: int) -> np.ndarray:
    """p / den rounded to the nearest double, as ``float(Fraction(p, den))``
    rounds it.  Below 2^53 both operands are exact doubles and one IEEE
    division rounds the quotient correctly; otherwise Python's int true
    division does."""
    if p.dtype != object and den < 2**53 and int(np.abs(p).max()) < 2**53:
        return p / den
    return np.array([q / den for q in p.tolist()])


def _max_bits(p: np.ndarray) -> int:
    return int(np.abs(p).max()).bit_length()


@dataclass(eq=False)
class CompiledGame:
    """Flat-array form of a game: the one form that value iteration and the
    exact witness check run on.

    Actions are laid out state-major, each state's actions starting at its
    entry of ``max_seg`` / ``min_seg``, so each evaluation of F is two
    gather-add passes and two segmented reductions.  Max action a moves to
    Min state ``max_t[a]`` and receives ``max_p[a] / den``; Min action a
    moves to Max states ``min_i[a]`` and ``min_j[a]`` (equal for a
    singleton) with reward ``min_p[a] / den``.  The reward numerators share
    the one denominator ``den``; they are int64 arrays when they fit and
    object arrays of Python ints otherwise.  ``max_r`` and ``min_r`` are
    the rewards as correctly rounded doubles.
    """

    max_t: np.ndarray
    max_seg: np.ndarray
    max_p: np.ndarray
    min_i: np.ndarray
    min_j: np.ndarray
    min_seg: np.ndarray
    min_p: np.ndarray
    den: int
    max_r: np.ndarray = field(init=False)
    min_r: np.ndarray = field(init=False)

    def __post_init__(self):
        self.max_r = _float_view(self.max_p, self.den)
        self.min_r = _float_view(self.min_p, self.den)

    @property
    def n(self) -> int:
        return len(self.min_seg)

    @property
    def m(self) -> int:
        return len(self.max_seg)

    @classmethod
    def _from_lists(cls, max_t, max_seg, max_gain, min_i, min_j, min_seg,
                    min_cost) -> "CompiledGame":
        """Arrays from per-action lists of Fraction Max rewards and Min
        costs (the negated Min rewards)."""
        den = math.lcm(*{q.denominator for q in max_gain},
                       *{q.denominator for q in min_cost})
        max_p = [q.numerator * (den // q.denominator) for q in max_gain]
        min_p = [-q.numerator * (den // q.denominator) for q in min_cost]
        index = lambda seq: np.array(seq, dtype=np.intp)
        return cls(index(max_t), index(max_seg), _int_array(max_p),
                   index(min_i), index(min_j), index(min_seg),
                   _int_array(min_p), den)

    @classmethod
    def from_pencil(cls, P: Pencil) -> "CompiledGame":
        """The game of a Metzler pencil, read straight off its entries.

        Min state k gets an action per negatively signed entry of Q^(k): {i}
        paying -|Q^(k)_ii| from the diagonal, {i,j} paying -|Q^(k)_ij| from
        above the diagonal.  Max state i gets an action {k} rewarding
        Q^(k)_ii per positively signed diagonal entry.  Actions come in the
        order ``StochGame`` sorts them.  The pencil must be Metzler (see
        ``require_metzler``); raises AssumptionViolated when some state
        would end up with no action, which ``normalize`` repairs.
        """
        by_row = [[] for _ in range(P.m)]  # (k, Q^(k)_ii) per Max state i
        min_i, min_j, min_seg, min_cost = [], [], [], []
        for k, mat in enumerate(P.matrices):
            min_seg.append(len(min_cost))
            for i, row in enumerate(mat):
                for j in range(i, P.m):
                    e = row[j]
                    if e.sign == NEG:
                        min_i.append(i)
                        min_j.append(j)
                        min_cost.append(e.modulus)
                    elif e.sign == POS and i == j:
                        by_row[i].append((k, e.modulus))
            if len(min_cost) == min_seg[-1]:
                raise AssumptionViolated(
                    f"matrix {k} has no negatively signed entry; run normalize first")
        max_t, max_seg, max_gain = [], [], []
        for i, acts in enumerate(by_row):
            if not acts:
                raise AssumptionViolated(
                    f"row {i} has no positively signed diagonal entry; run normalize first")
            max_seg.append(len(max_t))
            for k, q in acts:
                max_t.append(k)
                max_gain.append(q)
        return cls._from_lists(max_t, max_seg, max_gain, min_i, min_j,
                               min_seg, min_cost)

    @classmethod
    def from_game(cls, G: StochGame) -> "CompiledGame":
        """The arrays of a StochGame, actions in its (sorted) order."""
        max_t, max_seg, max_gain = [], [], []
        for acts in G.max_actions:
            max_seg.append(len(max_t))
            for b in acts:
                max_t.append(b.target)
                max_gain.append(b.reward)
        min_i, min_j, min_seg, min_cost = [], [], [], []
        for acts in G.min_actions:
            min_seg.append(len(min_i))
            for a in acts:
                min_i.append(a.targets[0])
                min_j.append(a.targets[-1])
                min_cost.append(-a.reward)
        return cls._from_lists(max_t, max_seg, max_gain, min_i, min_j,
                               min_seg, min_cost)

    def _fractions(self) -> tuple:
        """The rewards (Max, Min) as object arrays of Fractions."""
        frac = lambda p: np.array([Fraction(q, self.den) for q in p.tolist()],
                                  dtype=object)
        return frac(self.max_p), frac(self.min_p)

    def to_game(self) -> StochGame:
        """The same game as a ``StochGame``, rewards as Fractions."""
        max_r, min_r = self._fractions()
        max_t, min_i, min_j = (a.tolist() for a in (self.max_t, self.min_i, self.min_j))
        bounds = lambda seg, total: zip(seg.tolist(), seg.tolist()[1:] + [total])
        max_actions = tuple(
            tuple(MaxAction(max_t[a], max_r[a]) for a in range(lo, hi))
            for lo, hi in bounds(self.max_seg, len(max_t)))
        min_actions = tuple(
            tuple(MinAction((min_i[a], min_j[a]), min_r[a]) for a in range(lo, hi))
            for lo, hi in bounds(self.min_seg, len(min_i)))
        return StochGame(self.n, self.m, min_actions, max_actions)

    def _apply(self, x: np.ndarray, max_r: np.ndarray, min_r: np.ndarray,
               half) -> np.ndarray:
        y = np.maximum.reduceat(max_r + x[self.max_t], self.max_seg)
        return np.minimum.reduceat(min_r + half * (y[self.min_i] + y[self.min_j]),
                                   self.min_seg)

    def step(self, x: np.ndarray) -> np.ndarray:
        """F(x) for a float vector x."""
        return self._apply(x, self.max_r, self.min_r, 0.5)

    def exact_step(self):
        """F over object arrays of Fractions: the kernel of ``step`` with
        the rewards and the coin's 1/2 as Fractions."""
        max_r, min_r = self._fractions()
        half = Fraction(1, 2)
        return lambda x: self._apply(x, max_r, min_r, half)

    def _scaled(self, v: Sequence) -> tuple:
        """(Max rewards, Min rewards, v), all multiplied by L = lcm(den, the
        denominators of v) and so integers: int64 arrays when the bound
        below rules out overflow, object arrays of Python ints otherwise."""
        if len(v) != self.n:
            raise ValidationError(f"point has {len(v)} coordinates, expected {self.n}")
        ratios = [t.as_integer_ratio() for t in v]
        scale = math.lcm(self.den, *(d for _, d in ratios))
        s = scale // self.den
        x = [p * (scale // d) for p, d in ratios]
        # Every |x_k| and every scaled reward |p * s| is below 2^B, so the
        # Max values y = r + x stay below 2^(B+1) and the doubled Min values
        # 2 r + y_i + y_j below 2^(B+1) + 2^(B+2) < 2^(B+3): B <= 60 keeps
        # every intermediate inside int64.
        bits = max(max(abs(t) for t in x).bit_length(),
                   max(_max_bits(self.max_p), _max_bits(self.min_p))
                   + s.bit_length())
        dtype = np.int64 if bits <= 60 else object
        return (self.max_p.astype(dtype) * s, self.min_p.astype(dtype) * s,
                np.array(x, dtype=dtype))

    def is_subharmonic(self, v: Sequence) -> bool:
        """Exact test of v <= F(v) for a finite rational vector v (floats,
        ints or Fractions), in integers: with rewards and v scaled to
        integers R and X, it checks 2 X_k <= 2 R_a + Y_i + Y_j for every
        Min action a = {i, j} of every state k, Y being the Max values
        of X."""
        max_r, min_r, x = self._scaled(v)
        y = np.maximum.reduceat(max_r + x[self.max_t], self.max_seg)
        fx2 = np.minimum.reduceat(2 * min_r + y[self.min_i] + y[self.min_j],
                                  self.min_seg)
        return bool(np.all(2 * x <= fx2))


def _compiled(G) -> CompiledGame:
    return G if isinstance(G, CompiledGame) else CompiledGame.from_game(G)


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


Game = Union[StochGame, CompiledGame]


def value_iteration_raw(G: Game, epsilon, max_iters: int, exact: bool):
    """The bare iteration loop, also tracking the running entrywise minimum w
    (used for infeasibility certificates): returns (status, iterations,
    u, v, w) with rational entries.  A StochGame is compiled on entry."""
    game = _compiled(G)
    epsilon = as_fraction(epsilon)
    if exact:
        zeros = np.array([Fraction(0)] * game.n, dtype=object)
        status, iters, u, v, w = _iterate(game.exact_step(), zeros, epsilon,
                                          max_iters)
        return status, iters, tuple(u), tuple(v), tuple(w)
    status, iters, u, v, w = _iterate(game.step, np.zeros(game.n),
                                      float(epsilon), max_iters)
    to_frac = lambda arr: tuple(Fraction(t) for t in arr.tolist())
    return status, iters, to_frac(u), to_frac(v), to_frac(w)


def check_feasibility(G: Game, epsilon=Fraction(1, 10**8),
                      max_iters: int = 10**6, exact: bool = False,
                      verify: bool = True) -> IterationReport:
    """Decide feasibility of {x : x <= F(x)} != {-oo} by value iteration.

    Correct whenever all states of the game share the same nonzero mean
    payoff (use ``structural_constant_value_check`` for a structural
    sufficient condition).  Takes a StochGame, compiled on entry, or a
    CompiledGame.  Runs in doubles unless ``exact``; with ``verify`` (the
    default), a Feasible witness that fails the exact subharmonicity check
    (``CompiledGame.is_subharmonic``) triggers a rerun of the loop in
    rationals, whose witness always passes.  Hitting ``max_iters`` yields
    Indeterminate — typically a (near-)degenerate instance with mean payoff
    around zero.
    """
    game = _compiled(G)
    epsilon = as_fraction(epsilon)
    status, iters, u, v, w = value_iteration_raw(game, epsilon, max_iters, exact)
    engine = "rational" if exact else "double"
    if status == "feasible" and verify and not exact \
            and not game.is_subharmonic(v):
        engine = "rational"
        status, iters, u, v, w = value_iteration_raw(
            game, epsilon, max_iters, exact=True)
    verdict = {"feasible": "Feasible",
               "infeasible": "Infeasible"}.get(status, "Indeterminate")
    return IterationReport(verdict, iters, v if status == "feasible" else u,
                           epsilon, engine)
