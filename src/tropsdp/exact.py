"""Exact game values by policy enumeration, and exact feasibility verdicts.

Positional policies suffice for both players of these games, and fixing a
pair of policies turns the play into a finite Markov chain whose average
reward is a ratio of integers.  At desk scale we can therefore obtain the
exact value vector chi by brute force: one pass over all policy pairs
evaluates each pair once, folding its gain into the best reply of Max to
each Min policy and of Min to each Max policy.  Max moves
deterministically, so a pair's chain folds onto the Min states, each state
moving to at most two of them with probability 1/2; its gains come from
fraction-free integer elimination on that folded chain, and
``markov.analyze`` of the full chain rechecks the optimal pair.  The min of
the former is the min-max value, the max of the latter the max-min value;
the two must agree (the saddle point property), and a specific optimal pair
must attain them.  Any mismatch aborts, since it can only come from an
implementation bug.

On top of the solver sit the two exact feasibility procedures: nontriviality
of a Metzler spectrahedron (with its margin, the largest reinforcement
lambda that keeps it nontrivial, which equals 2 max_k chi_k), and the affine
variant asking for a point whose distinguished coordinate 0 is finite
(decided through winning dominions containing state 0).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (
    PolicySpaceTooLarge,
    SaddlePointError,
    UnsupportedInstance,
    ValidationError,
)
from .game import StochGame, game_from_pencil, winning_dominions
from .markov import (_strongly_connected_components, analyze,
                     chain_from_policies)
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


@dataclass(frozen=True)
class GameValue:
    """Exact value chi per initial Min state, with an optimal policy pair.

    eta = 2 chi is the mean payoff per full turn (one Min move plus one Max
    move).  The optimal pair attains chi componentwise: chi_k equals the
    chain gain g_k(sigma, tau) for every k.
    """

    chi: tuple
    eta: tuple
    optimal_pair: tuple
    saddle_verified: bool


def _solve_int(a: list, b: list) -> tuple:
    """Solve the square integer system a x = b (b holds one or more
    right-hand columns) by fraction-free Gauss-Jordan elimination (Bareiss):
    (d, y) with x = y / d, every division on the way exact."""
    size = len(a)
    m = [list(a[r]) + list(b[r]) for r in range(size)]
    prev = 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col]), None)
        if pivot is None:
            raise ArithmeticError("singular linear system")
        m[col], m[pivot] = m[pivot], m[col]
        p = m[col][col]
        for r in range(size):
            if r != col:
                f = m[r][col]
                m[r] = [(p * v - f * w) // prev for v, w in zip(m[r], m[col])]
        prev = p
    return prev, [row[size:] for row in m]


def _limit_rows(succ: tuple) -> list:
    """The limiting matrix of the folded chain in which state u moves to
    succ[u][0] and succ[u][1] with probability 1/2 each, in integers.

    Returns groups (states, row, d) covering every state once: each state
    u of ``states`` has long-run law row[v] / d at the states v that
    ``row`` lists as (v, weight) pairs.  The states of a closed class share
    its stationary law pi; a transient state wholly absorbed by one class
    joins that class's group, any other gets the mix of the class laws
    weighted by its absorption probabilities.  pi and the absorption
    probabilities come from fraction-free elimination over the weights
    w[u][v] = 2 P[u][v].
    """
    n = len(succ)
    w = [dict.fromkeys(s, 0) for s in succ]
    for u, s in enumerate(succ):
        for v in s:
            w[u][v] += 1
    comps = _strongly_connected_components([list(wu) for wu in w])
    closed = [c for c in comps if all(v in c for u in c for v in w[u])]
    groups = []
    for members in closed:
        first, rest = members[0], members[1:]
        # pi_first = d; the rest solve their balance equations
        # sum_u pi_u w[u][v] = 2 pi_v, moved to the left but for pi_first
        d, y = _solve_int(
            [[2 * (u == v) - w[u].get(v, 0) for u in rest] for v in rest],
            [[w[first].get(v, 0)] for v in rest])
        pi = [d] + [col[0] for col in y]
        groups.append((members, list(zip(members, pi)), sum(pi)))
    transient = [u for u in range(n) if all(u not in c for c in closed)]
    if transient:
        # absorption: 2 a_u - sum over transient v of w[u][v] a_v is the
        # weight u puts on the class directly
        d, y = _solve_int(
            [[2 * (u == v) - w[u].get(v, 0) for v in transient] for u in transient],
            [[sum(w[u].get(v, 0) for v in c) for c in closed] for u in transient])
        for u, absorbed in zip(transient, y):
            if d in absorbed:  # absorbed by one class with probability 1
                groups[absorbed.index(d)][0].append(u)
                continue
            # row[v] / den = sum over classes of a / d * pi_v / total
            parts = [(a, law, total)
                     for a, (_, law, total) in zip(absorbed, groups) if a]
            lcm = math.lcm(*(total for _, _, total in parts))
            groups.append(([u], [(v, a * pi * (lcm // total))
                                  for a, law, total in parts for v, pi in law],
                           d * lcm))
    return groups


def _gains(moves: tuple, reply: tuple, limits: dict, scale: int) -> tuple:
    """The chain gain g_k(sigma, tau) at every Min state k, on the chain
    folded onto the Min states.

    ``moves[k] = (i, j, 2 p)`` is sigma's action at Min state k and
    ``reply = (t, q)`` holds tau's target t[i] and reward q[i] at each Max
    state, rewards being numerators over ``den`` and ``scale = 4 den``.
    Under the pair, Min state k moves to Min states t[i] and t[j] with
    probability 1/2 each and earns (2 p + q[i] + q[j]) / (4 den) per step of
    the unfolded chain, half of a turn's reward.  ``limits`` caches
    ``_limit_rows`` by successor structure, which the rewards do not enter.
    """
    t, q = reply
    succ = tuple((t[i], t[j]) for i, j, _ in moves)
    groups = limits.get(succ)
    if groups is None:
        groups = limits[succ] = _limit_rows(succ)
    r = [p2 + q[i] + q[j] for i, j, p2 in moves]
    gains = [None] * len(moves)
    for states, row, d in groups:
        g = Fraction(sum(c * r[v] for v, c in row), d * scale)
        for u in states:
            gains[u] = g
    return tuple(gains)


def game_value_bruteforce(G: StochGame, max_pairs: int = DEFAULT_PAIR_CAP) -> GameValue:
    """chi_k = min over sigma of max over tau of the exact chain gain.

    One pass over every policy pair (guarded by ``max_pairs``) evaluates
    each pair once on its folded chain (``_gains``), keeping per sigma the
    componentwise max over tau and per tau the componentwise min over
    sigma.  It then verifies the saddle point property — max-min equals
    min-max componentwise and the first sigma and the first tau (in product
    order) whose replies equal chi attain it together, as ``markov.analyze``
    of their unfolded chain confirms — raising SaddlePointError instead of
    returning questionable output.
    """
    pairs = G.policy_count()
    if pairs > max_pairs:
        raise PolicySpaceTooLarge(
            f"{pairs} policy pairs exceed the cap of {max_pairs}")
    min_i, min_j, min_p = G.min_i.tolist(), G.min_j.tolist(), G.min_p.tolist()
    max_t, max_p = G.max_t.tolist(), G.max_p.tolist()

    def per_state(seg, size, action):
        starts = seg.tolist() + [size]
        return [[action(a) for a in range(lo, hi)]
                for lo, hi in zip(starts, starts[1:])]

    min_moves = per_state(G.min_seg, len(min_p),
                          lambda a: (min_i[a], min_j[a], 2 * min_p[a]))
    max_moves = per_state(G.max_seg, len(max_p), lambda a: (max_t[a], max_p[a]))
    policies = lambda moves: itertools.product(*(range(len(acts)) for acts in moves))
    sigma_space = zip(policies(min_moves), itertools.product(*min_moves))
    replies = [(tau, tuple(zip(*choice))) for tau, choice in
               zip(policies(max_moves), itertools.product(*max_moves))]
    limits = {}
    scale = 4 * G.den
    h = {}  # sigma -> componentwise max over tau of the gain
    l = {}  # tau -> componentwise min over sigma of the gain
    for sigma, moves in sigma_space:
        for tau, reply in replies:
            g = _gains(moves, reply, limits, scale)
            h[sigma] = tuple(map(max, h.get(sigma, g), g))
            l[tau] = tuple(map(min, l.get(tau, g), g))
    chi = tuple(map(min, zip(*h.values())))
    chi_dual = tuple(map(max, zip(*l.values())))
    sigma_bar = next((sigma for sigma, hs in h.items() if hs == chi), None)
    tau_bar = next((tau for tau, ls in l.items() if ls == chi), None)

    if chi != chi_dual or sigma_bar is None or tau_bar is None:
        missing = sigma_bar is None or tau_bar is None
        raise SaddlePointError(
            f"saddle point verification failed: min-max {chi}, max-min {chi_dual}, "
            f"uniform optimal pair {'missing' if missing else 'found'}")
    if analyze(chain_from_policies(G, sigma_bar, tau_bar)).gain[: G.n] != chi:
        raise SaddlePointError("optimal pair does not attain the value vector")
    return GameValue(
        chi=chi,
        eta=tuple(2 * c for c in chi),
        optimal_pair=(sigma_bar, tau_bar),
        saddle_verified=True,
    )


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


def affine_feasibility(P: Pencil, max_states: int = 16) -> bool:
    """Does the spectrahedron contain a point with x_0 finite?

    Variable 0 is the distinguished (affine) one.  Forced eliminations, run
    to their fixpoint (``_forced_reductions``), either kill variable 0
    (infeasible) or leave a well-formed pencil whose game decides the
    question: feasible iff some winning dominion contains state 0.  A
    matrix without negative entries makes its own variable free; that
    settles the question when the variable is 0 itself, and is out of scope
    otherwise (no game encodes such a pencil).  ``max_states`` caps the
    dominion enumeration; each dominion's subgame is solved under
    ``DEFAULT_PAIR_CAP``.
    """
    if not P.affine:
        raise ValidationError("affine_feasibility needs a pencil with the affine flag")
    require_metzler(P)
    vars_alive, rows_alive, _, _ = _forced_reductions(P)
    if 0 not in vars_alive:
        return False
    if not rows_alive:
        return True
    free = all_positive_variables(P, vars_alive, rows_alive)
    if 0 in free:
        return True
    if free:
        raise UnsupportedInstance(
            f"variables {free} are unconstrained (all-positive matrices); the dominion "
            "method cannot decide finiteness of x_0 on such instances")
    reduced = _extract(P, vars_alive, rows_alive)
    state0 = vars_alive.index(0)
    game = game_from_pencil(reduced)
    return any(state0 in D for D in winning_dominions(game, max_states))
