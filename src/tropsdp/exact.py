"""Exact game values by policy enumeration, and exact feasibility verdicts.

Positional policies suffice for both players of these games, and fixing a
pair of policies turns the play into a finite Markov chain whose average
reward is a ratio of integers.  At desk scale we can therefore obtain the
exact value vector chi by brute force, evaluating every policy pair once on
the game arrays, a block of whole sigma rows against every tau at a time.
Max moves deterministically, so a pair's chain folds onto the Min states,
each state moving to at most two of them with probability 1/2.  Its limit
law depends only on the unordered successor pairs, the chain shape, and
the laws of all shapes come from two batched fraction-free integer
eliminations on arrays, one for the stationary laws and one for the
absorption probabilities; over the shapes' common denominator, the gains
of a block are integer numerators, one matrix-vector product per pair.
The min over sigma of the best replies of Max is the min-max value, the
max over tau of the best replies of Min the max-min value; the two must
agree (the saddle point property), and a specific optimal pair must attain
them, as its Poisson equations, checked in integers, prove.  Any mismatch
aborts, since it can only come from an implementation bug.
``markov.analyze`` of the optimal pair's full chain is left to the tests and
to the report of ``--dump-chain`` (``optimal_chain``).

On top of the solver sit the two exact feasibility procedures: nontriviality
of a Metzler spectrahedron (with its margin, the largest reinforcement
lambda that keeps it nontrivial, which equals 2 max_k chi_k), and the affine
variant asking for a point whose distinguished coordinate 0 is finite: does
the largest winning dominion, found in at most n solves, contain state 0?
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .errors import (
    PolicySpaceTooLarge,
    SaddlePointError,
    UnsupportedInstance,
    ValidationError,
)
from .game import (StochGame, dominions, game_from_pencil, induced_subgame,
                   is_dominion, largest_dominion, reachable)
from .markov import ChainAnalysis, analyze, chain_from_policies
from .pencil import (
    NormalizeResult,
    Pencil,
    _extract,
    _forced_reductions,
    all_positive_variables,
    normalize,
    require_metzler,
)

DEFAULT_PAIR_CAP = 10**6
_BLOCK = 1 << 15  # (policy pair, Min state) entries per block of sigmas


@dataclass(frozen=True)
class GameValue:
    """Exact value chi per initial Min state, with an optimal policy pair.

    eta = 2 chi is the mean payoff per full turn (one Min move plus one Max
    move).  The optimal pair attains chi componentwise: chi_k equals the
    chain gain g_k(sigma, tau) for every k, as the pair's Poisson equations
    prove in integers before the value is returned.  ``optimal_chain``
    analyses the pair's unfolded chain on demand.
    """

    chi: tuple
    eta: tuple
    optimal_pair: tuple
    saddle_verified: bool


def _bareiss(a: np.ndarray, b: np.ndarray) -> tuple:
    """Solve the stack of square integer systems a[s] x = b[s] (b[s] holds
    one or more right-hand columns) by fraction-free Gauss-Jordan
    elimination (Bareiss): (d, y) with x[s] = y[s] / d[s], every division
    on the way exact.  Each member pivots on its first row with a nonzero
    entry in the column; a member without one raises ArithmeticError.

    Every entry met on the way is a minor of [a b].  When the entries of
    [a b] are at most c in absolute value, Hadamard's bound puts a k x k
    minor, k <= size, at most (c^2 size)^(size/2), so once (c^2 size)^size
    < 2^62 every product p v and f w of two minors is below 2^62 and the
    difference p v - f w fits in int64.  The elimination runs in int64
    then, and in Python ints (object arrays) otherwise.
    """
    m = np.concatenate([a, b], axis=-1)
    count, size = a.shape[:2]
    c = int(np.abs(m).max())
    m = m.astype(np.int64 if (c * c * size) ** size < 2**62 else object)
    members = np.arange(count)
    prev = np.ones(count, dtype=m.dtype)
    for col in range(size):
        nonzero = m[:, col:, col] != 0
        if not nonzero.any(axis=1).all():
            raise ArithmeticError("singular linear system")
        pivot = col + nonzero.argmax(axis=1)
        row = m[members, pivot]
        m[members, pivot] = m[:, col]
        m[:, col] = row
        p = row[:, col]
        m = (p[:, None, None] * m
             - m[:, :, col, None] * row[:, None, :]) // prev[:, None, None]
        m[:, col] = row
        prev = p
    return prev, m[:, :, size:]


def _policies(seg: np.ndarray, total: int) -> np.ndarray:
    """Every policy of the states whose ``total`` actions ``seg`` lays out,
    one row of global action indices per policy, in product order (the last
    state's action varies fastest)."""
    count = tuple(np.diff(seg, append=total).tolist())
    return np.indices(count).reshape(len(count), -1).T + seg


def _shape_ids(first: np.ndarray, second: np.ndarray, shapes: dict) -> np.ndarray:
    """The chain shape of every pair of a block, as an index into
    ``shapes``, which gains the shapes not seen before.

    Under the pair at ``[s, t]``, Min state k moves to Min states
    ``first[s, t, k]`` and ``second[s, t, k]``.  A move to (a, b) is the
    same as one to (b, a), so a shape is the tuple of the sorted pairs,
    each coded lo * n + hi."""
    n = first.shape[-1]
    code = np.minimum(first, second) * n + np.maximum(first, second)
    code = code.reshape(-1, n)
    # rank the rows lexicographically one state at a time, which keeps
    # every intermediate below rows * n^2
    rank = np.zeros(len(code), dtype=np.int64)
    for column in code.T:
        _, where, rank = np.unique(rank * (n * n) + column,
                                   return_index=True, return_inverse=True)
    ids = np.array([shapes.setdefault(key, len(shapes))
                    for key in map(tuple, code[where].tolist())])
    return ids.astype(np.min_scalar_type(len(shapes)))[
        rank.reshape(first.shape[:-1])]


def _coefficients(codes: np.ndarray) -> tuple:
    """(coef, L): the limiting matrix of every chain shape over the one
    common denominator L, the lcm of the shapes' own denominators.

    Row s of ``codes`` is a chain shape: Min state u moves to lo and hi,
    coded ``codes[s, u] = lo * n + hi``, with probability 1/2 each.
    ``coef[s, u]`` lists u's long-run law under shape s as nonnegative
    integers summing to L, so a pair's gain at u is ``coef[s, u] @ r / (L
    scale)`` for its reward numerators r over ``scale``; coef is int64
    when L < 2^63 and holds Python ints otherwise.

    All shapes are solved together on the weights W = 2 P.  Reachability
    is the reflexive closure of W > 0, squared; u is recurrent when every
    state it reaches reaches it back, and its class is represented by the
    first state it reaches and is reached from.  One solve gives the
    stationary laws pi, x M = 2 [recurrent] with M = 2 I - W + 2 K on the
    recurrent states (K[u, v] = [same class]) and the identity elsewhere:
    W's rows sum to 2, so x sums to 1 over each class and is stationary
    there.  Another gives the absorption probabilities a[u, r] into the
    class represented by r: N a = [recurrent and represented by r], N
    being 2 I - W on the transient rows and the identity on the recurrent
    ones.  The law of u is a[u, rep(v)] pi[v] at v, reduced by its gcd.
    """
    count, n = codes.shape
    state = np.arange(n)
    w = np.zeros((count, n, n), dtype=np.int64)
    for succ in divmod(codes, n):
        np.add.at(w, (np.arange(count)[:, None], state, succ), 1)
    reach = (w > 0) | np.eye(n, dtype=bool)
    for _ in range((n - 1).bit_length()):
        reach = reach @ reach
    mutual = reach & reach.transpose(0, 2, 1)
    recurrent = (mutual == reach).all(axis=2)
    rep = mutual.argmax(axis=2)
    eye = np.eye(n, dtype=np.int64)
    m = np.where(recurrent[:, :, None] & recurrent[:, None, :],
                 2 * eye - w + 2 * mutual, eye)
    d_pi, pi = _bareiss(m.transpose(0, 2, 1), 2 * recurrent[:, :, None])
    d_a, a = _bareiss(np.where(recurrent[:, :, None], eye, 2 * eye - w),
                      recurrent[:, :, None] & (rep[:, :, None] == state))
    # in int64, both solves' outputs are minors below 2^31, so the products
    # fit; a solve in Python ints makes them Python ints
    weights = np.take_along_axis(a, rep[:, None, :], axis=2) * pi[:, None, :, 0]
    den = (d_a * d_pi)[:, None]
    # weights and den share their sign, so the scaling below leaves the
    # laws nonnegative whatever it is
    g = np.gcd(np.gcd.reduce(weights, axis=2), den)
    weights, d = weights // g[:, :, None], den // g
    lcm = math.lcm(*set(d.ravel().tolist()))
    dtype = np.int64 if lcm < 2**63 else object
    return weights.astype(dtype) * (lcm // d.astype(dtype))[:, :, None], lcm


def _gains(coef: np.ndarray, ids: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The gain numerators of a block of policy pairs: at pair (b, t) and
    Min state u, ``coef[ids[b, t], u] @ r[b, t]``."""
    # one gather of a law column per state keeps the temporaries at the
    # block's size
    return sum(coef[ids, :, v] * r[..., v, None] for v in range(r.shape[-1]))


def _attains(G: StochGame, sigma: np.ndarray, tau: np.ndarray, chi: tuple,
             law: np.ndarray, lcm: int) -> None:
    """Raise SaddlePointError unless the policy pair (sigma, tau), rows of
    global action indices, earns chi_k per step of its chain from every
    Min state k.

    On the chain folded onto the Min states, W = 2 P moves k to the Min
    states a_k and b_k that tau picks at sigma's targets, and a turn earns
    c_k = (2 p + q_i + q_j) / (2 den).  The gain per turn is g = 2 chi when
    g and some bias h solve the Poisson equations W g = 2 g and
    2 h + 2 g = 2 c + W h: the limiting matrix P* of P fixes g by the
    first, and turns the second into P* g = P* c.  h comes from one
    ``_bareiss`` solve of (2 L I - L W + 2 law) h = 2 L (c - g), where
    ``law`` is L P* for the common denominator L of ``_coefficients``;
    I - P + P* is invertible and its solution solves the equations when
    g = P* c.  h is not trusted: the check holds for the true gain only,
    so a wrong law can make it fail but never pass.  Everything runs in
    Python ints over S = lcm(2 den, the denominators of chi), h being y / d
    for the solve's numerators y and determinant d.
    """
    i, j = tau[G.min_i[sigma]], tau[G.min_j[sigma]]
    a, b = G.max_t[i].tolist(), G.max_t[j].tolist()
    scale = math.lcm(2 * G.den, *(x.denominator for x in chi))
    unit = scale // (2 * G.den)
    g = [2 * x.numerator * (scale // x.denominator) for x in chi]
    c = [(2 * p + qi + qj) * unit for p, qi, qj in
         zip(G.min_p[sigma].tolist(), G.max_p[i].tolist(), G.max_p[j].tolist())]
    m = 2 * law.astype(object)
    for k in range(len(g)):
        m[k, k] += 2 * lcm
        m[k, a[k]] -= lcm
        m[k, b[k]] -= lcm
    rhs = np.array([[2 * lcm * (x - z)] for x, z in zip(c, g)], dtype=object)
    try:
        d, y = _bareiss(m[None], rhs[None])
    except ArithmeticError as exc:  # I - P + P* is invertible: the law is wrong
        raise SaddlePointError("optimal pair does not attain the value vector") from exc
    d, y = int(d[0]), y[0, :, 0].tolist()
    step = lambda x: [x[u] + x[v] for u, v in zip(a, b)]
    if (step(g) != [2 * z for z in g]
            or [2 * (x + d * z) for x, z in zip(y, g)]
            != [2 * d * x + w for x, w in zip(c, step(y))]):
        raise SaddlePointError("optimal pair does not attain the value vector")


def game_value_bruteforce(G: StochGame, max_pairs: int = DEFAULT_PAIR_CAP) -> GameValue:
    """chi_k = min over sigma of max over tau of the exact chain gain.

    Every policy pair (guarded by ``max_pairs``) is evaluated once, on its
    chain folded onto the Min states, block by block: a block holds whole
    rows of sigmas against every tau, read off the game arrays at once.
    Under a pair, Min state k takes sigma's action {i, j} (reward p) and
    moves to tau's targets t_i and t_j with probability 1/2 each, earning
    (2 p + q_i + q_j) / (4 den) per step of the unfolded chain, half of a
    turn's reward, where q holds tau's rewards.  A first pass finds each
    pair's chain shape, the sorted successor pairs, which the rewards do
    not enter; ``_coefficients`` solves all shapes in one batch and
    brings their laws to one common denominator L.  A second pass computes
    the gains of a whole block as integer numerators over 4 den L
    (``_gains``), keeping per sigma the componentwise max over tau and per
    tau the componentwise min over sigma.  The numerators are int64 when a bit
    bound rules out overflow and Python ints otherwise; only the returned
    chi are Fractions.

    It then verifies the saddle point property — max-min equals min-max
    componentwise and the first sigma and the first tau (in product order)
    whose replies equal chi attain it together, as ``_attains`` proves in
    integers from their shape's law — raising SaddlePointError instead of
    returning questionable output.
    """
    pairs = G.policy_count()
    if pairs > max_pairs:
        raise PolicySpaceTooLarge(
            f"{pairs} policy pairs exceed the cap of {max_pairs}")
    n = G.n
    sigmas = _policies(G.min_seg, len(G.min_p))
    taus = _policies(G.max_seg, len(G.max_p))
    rows = max(1, _BLOCK // (len(taus) * n))
    blocks = [sigmas[lo:lo + rows] for lo in range(0, len(sigmas), rows)]

    def at_targets(x, sigma):
        """x, one entry per Max state and tau, at the Max states i and j of
        the block's Min actions: two (sigma, tau, Min state) arrays."""
        return (x[G.min_i[sigma]].transpose(0, 2, 1),
                x[G.min_j[sigma]].transpose(0, 2, 1))

    shapes = {}  # sorted successor pairs -> shape index
    t = G.max_t[taus].T
    ids = [_shape_ids(*at_targets(t, sigma), shapes) for sigma in blocks]
    coef, lcm = _coefficients(np.array(list(shapes)))
    # |2 p + q_i + q_j| < 2^(B+2) when every |reward numerator| < 2^B, and
    # a law's coefficients are nonnegative with sum L, so every gain
    # numerator and partial sum is below 2^(bits(L) + B + 2).
    bits = G._top().bit_length()
    dtype = np.int64 if lcm.bit_length() + bits + 2 <= 63 else object
    coef = coef.astype(dtype)
    q, p2 = G.max_p[taus].T.astype(dtype), 2 * G.min_p.astype(dtype)
    h = []  # per sigma block: componentwise max over tau of the gains
    l = None  # per tau: componentwise min over sigma of the gains
    for sigma, shape in zip(blocks, ids):
        qi, qj = at_targets(q, sigma)
        g = _gains(coef, shape, p2[sigma][:, None, :] + qi + qj)
        h.append(g.max(axis=1))
        l = g.min(axis=0) if l is None else np.minimum(l, g.min(axis=0))
    h = np.concatenate(h)
    low = h.min(axis=0)
    # the first sigma (tau) whose best replies equal the min-max value
    first = lambda best: next(iter(np.flatnonzero((best == low).all(axis=1))), None)
    sigma_bar, tau_bar = first(h), first(l)
    scale = 4 * G.den * lcm
    value = lambda v: tuple(Fraction(c, scale) for c in v.tolist())
    chi, chi_dual = value(low), value(l.max(axis=0))
    if chi != chi_dual or sigma_bar is None or tau_bar is None:
        missing = sigma_bar is None or tau_bar is None
        raise SaddlePointError(
            f"saddle point verification failed: min-max {chi}, max-min {chi_dual}, "
            f"uniform optimal pair {'missing' if missing else 'found'}")
    shape = ids[sigma_bar // rows][sigma_bar % rows, tau_bar]
    _attains(G, sigmas[sigma_bar], taus[tau_bar], chi, coef[shape], lcm)
    return GameValue(
        chi=chi,
        eta=tuple(2 * c for c in chi),
        optimal_pair=(tuple((sigmas[sigma_bar] - G.min_seg).tolist()),
                      tuple((taus[tau_bar] - G.max_seg).tolist())),
        saddle_verified=True,
    )


def optimal_chain(G: StochGame, value: GameValue) -> ChainAnalysis:
    """``markov.analyze`` of the unfolded chain of value's optimal pair on
    G: the chain that `exact` and `solve-game` print under --dump-chain."""
    return analyze(chain_from_policies(G, *value.optimal_pair))


@dataclass(frozen=True)
class SolveResult:
    """Exact nontriviality verdict for a Metzler spectrahedron.

    margin is the largest lambda such that the lambda-reinforced
    spectrahedron stays nontrivial (2 max_k chi_k of the associated game);
    None means unconstrained — either every lambda works (Nontrivial found
    by an all-positive matrix) or none does (Trivial by forced
    eliminations).  game is the game of the normalized pencil that value
    was computed on, None when ``normalize`` decided.
    """

    status: str  # "Nontrivial" | "Trivial"
    margin: Optional[Fraction]
    value: Optional[GameValue]
    normalization: NormalizeResult
    game: Optional[StochGame] = None


def solve_tmsdfp(P: Pencil, max_pairs: int = DEFAULT_PAIR_CAP) -> SolveResult:
    """Exact feasibility of a tropical Metzler semidefinite problem.

    Normalizes the pencil, converts to a game, and reads the verdict off
    the exact value: nontrivial iff max_k chi_k >= 0.
    """
    res = normalize(P)
    if res.kind == "trivial":
        return SolveResult("Trivial", None, None, res)
    if res.kind == "nontrivial":
        return SolveResult("Nontrivial", None, None, res)
    game = game_from_pencil(res.pencil)
    value = game_value_bruteforce(game, max_pairs)
    margin = 2 * max(value.chi)
    status = "Nontrivial" if margin >= 0 else "Trivial"
    return SolveResult(status, margin, value, res, game)


def is_winning_dominion(G: StochGame, D: Iterable) -> bool:
    """Is D a dominion whose induced subgame has all mean payoffs >= 0?"""
    dset = frozenset(D)
    return is_dominion(G, dset) and min(
        game_value_bruteforce(induced_subgame(G, dset)).chi) >= 0


def winning_dominions(G: StochGame, max_states: int = 16) -> list:
    """All winning dominions, smallest first, filtered from ``dominions``:
    the reference for ``affine_feasibility``.  Refuses n > max_states."""
    return [D for D in dominions(G, max_states) if is_winning_dominion(G, D)]


def affine_feasibility(P: Pencil) -> bool:
    """Does the spectrahedron contain a point with x_0 finite?

    Variable 0 is the distinguished (affine) one.  A matrix without
    negative entries makes its own variable free; that settles the question
    when the variable is 0 itself, and is out of scope otherwise (no game
    encodes such a pencil).  Forced eliminations, run to their fixpoint
    (``_forced_reductions``), never kill or make a free variable, and
    either kill variable 0 (infeasible) or leave a well-formed pencil whose
    game decides the question: feasible iff some winning dominion contains
    state 0.

    At most n exact solves (each under ``DEFAULT_PAIR_CAP``) find the
    largest winning dominion in the dominion R of states reachable from state
    0: from D = R, solve D's subgame, drop the states with chi_k < 0 and
    shrink the rest to its largest dominion.  A winning dominion W in D
    survives, since chi^D >= chi^W >= 0 on W, and W & R is one if W is.
    """
    if not P.affine:
        raise ValidationError("affine_feasibility needs a pencil with the affine flag")
    require_metzler(P)
    free = all_positive_variables(P)
    if 0 in free:
        return True
    var, row, _, _ = _forced_reductions(P)
    if not var[0]:
        return False
    if free:
        raise UnsupportedInstance(
            f"variables {free} are unconstrained (all-positive matrices); the dominion "
            "method cannot decide finiteness of x_0 on such instances")
    # the renumbering is monotone, so the live variable 0 is state 0
    game = game_from_pencil(_extract(P, var, row))
    inside = reachable(game, 0)
    while inside[0]:
        states = np.flatnonzero(inside)
        chi = game_value_bruteforce(induced_subgame(game, states.tolist())).chi
        if min(chi) >= 0:
            return True
        inside[states[np.array(chi) < 0]] = False
        inside = largest_dominion(game, inside)
    return False
