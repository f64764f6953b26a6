"""Exact game values by policy enumeration, and exact feasibility verdicts.

Positional policies suffice for both players of these games, and fixing a
pair of policies turns the play into a finite Markov chain whose average
reward is a ratio of integers.  At desk scale we can therefore obtain the
exact value vector chi by brute force: one pass over all policy pairs
analyses each pair's chain exactly once, folding its gain into the best
reply of Max to each Min policy and of Min to each Max policy.  The min of
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
from .markov import analyze, chain_from_policies
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


def _gains(G: StochGame, sigma, tau) -> tuple:
    chain = chain_from_policies(G, sigma, tau)
    return analyze(chain).gain[: G.n]


def game_value_bruteforce(G: StochGame, max_pairs: int = DEFAULT_PAIR_CAP) -> GameValue:
    """chi_k = min over sigma of max over tau of the exact chain gain.

    One pass over every policy pair (guarded by ``max_pairs``) analyses
    each chain once, keeping per sigma the componentwise max over tau and
    per tau the componentwise min over sigma.  It then verifies the saddle
    point property — max-min equals min-max componentwise and the first
    sigma and the first tau (in product order) whose replies equal chi
    attain it together — raising SaddlePointError instead of returning
    questionable output.
    """
    pairs = G.policy_count()
    if pairs > max_pairs:
        raise PolicySpaceTooLarge(
            f"{pairs} policy pairs exceed the cap of {max_pairs}")
    sigma_space = itertools.product(*[range(len(a)) for a in G.min_actions])
    tau_space = itertools.product(*[range(len(b)) for b in G.max_actions])
    h = {}  # sigma -> componentwise max over tau of the gain
    l = {}  # tau -> componentwise min over sigma of the gain
    for sigma, tau in itertools.product(sigma_space, tau_space):
        g = _gains(G, sigma, tau)
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
    if _gains(G, sigma_bar, tau_bar) != chi:
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
