"""Stochastic mean payoff games in the bipartite form used by the solver.

The games alternate between n states owned by player Min and m states owned
by player Max.  At a Min state k, Min picks an action a = {i} or {i, j},
pays its reward r^a_k, and nature moves to Max state i or j with probability
1/2 each.  At a Max state i, Max picks an action {k}, receives r^b_i, and
play moves to Min state k.  Both players always have at least one action.

A Metzler pencil turns into such a game by reading negatively signed entries
of Q^(k) as Min actions of state k and positively signed diagonal entries
Q^(k)_ii as Max actions of state i.  The reverse construction packs a game
back into matrices; when a Min action {i} of k and a Max action {k} of i
compete for the single diagonal slot (k, i, i), the entry keeping the
sublevel sets {x : lambda + x <= F(x)} intact is the negatively signed one
if -r^a_k > r^b_i and the positively signed one otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import NotADominion, PolicySpaceTooLarge, ValidationError
from .pencil import Pencil, require_metzler
from .tropical import SignedTrop, as_fraction


@dataclass(frozen=True)
class MinAction:
    """Min moves to one of ``targets`` (1 or 2 Max states, fair coin) and
    pays ``reward``."""

    targets: tuple
    reward: Fraction

    def __post_init__(self):
        t = tuple(sorted(set(self.targets)))
        if len(t) not in (1, 2):
            raise ValidationError(f"Min action needs 1 or 2 targets, got {self.targets!r}")
        object.__setattr__(self, "targets", t)
        object.__setattr__(self, "reward", as_fraction(self.reward))


@dataclass(frozen=True)
class MaxAction:
    """Max moves to Min state ``target`` and receives ``reward``."""

    target: int
    reward: Fraction

    def __post_init__(self):
        object.__setattr__(self, "reward", as_fraction(self.reward))


@dataclass(frozen=True)
class StochGame:
    n: int
    m: int
    min_actions: tuple  # per Min state, a nonempty tuple of MinAction
    max_actions: tuple  # per Max state, a nonempty tuple of MaxAction

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValidationError(f"game needs n >= 1 and m >= 1, got ({self.n}, {self.m})")
        if len(self.min_actions) != self.n:
            raise ValidationError("min_actions must list every Min state")
        if len(self.max_actions) != self.m:
            raise ValidationError("max_actions must list every Max state")
        canon_min = []
        for k, actions in enumerate(self.min_actions):
            if not actions:
                raise ValidationError(f"Min state {k} has no actions")
            for a in actions:
                if not all(0 <= i < self.m for i in a.targets):
                    raise ValidationError(f"Min state {k} action targets {a.targets} out of range")
            canon_min.append(tuple(sorted(set(actions), key=lambda a: (a.targets, a.reward))))
        canon_max = []
        for i, actions in enumerate(self.max_actions):
            if not actions:
                raise ValidationError(f"Max state {i} has no actions")
            for b in actions:
                if not 0 <= b.target < self.n:
                    raise ValidationError(f"Max state {i} action target {b.target} out of range")
            canon_max.append(tuple(sorted(set(actions), key=lambda b: (b.target, b.reward))))
        object.__setattr__(self, "min_actions", tuple(canon_min))
        object.__setattr__(self, "max_actions", tuple(canon_max))

    def policy_count(self) -> int:
        total = 1
        for actions in self.min_actions:
            total *= len(actions)
        for actions in self.max_actions:
            total *= len(actions)
        return total


# ---------------------------------------------------------------------------
# Pencil <-> game
# ---------------------------------------------------------------------------

def game_from_pencil(P: Pencil) -> StochGame:
    """Game whose sublevel sets {x : lambda + x <= F(x)} are the reinforced
    spectrahedra of the (well-formed Metzler) pencil.

    The translation is ``shapley.CompiledGame.from_pencil``, which says
    which entry becomes which action; raises AssumptionViolated when some
    state would end up with no action, which ``normalize`` repairs.
    """
    from .shapley import CompiledGame  # deferred: shapley depends on this module

    require_metzler(P)
    return CompiledGame.from_pencil(P).to_game()


def pencil_from_game(G: StochGame) -> Pencil:
    """Metzler pencil whose reinforced spectrahedra are the sublevel sets
    {x : lambda + x <= F(x)} of the game.

    Off-diagonal entries come from two-target Min actions.  A diagonal slot
    (k, i, i) wanted by both a Min action {i} of k and a Max action {k} of i
    keeps whichever constraint is binding: the negatively signed entry when
    -r^a_k > r^b_i, the positively signed one when r^b_i >= -r^a_k.  (With
    several parallel actions only the dominant reward matters: the smallest
    for Min, the largest for Max.)
    """
    neg_best: dict = {}  # (k, i, j) i <= j -> modulus = max of -reward
    for k, actions in enumerate(G.min_actions):
        for a in actions:
            i, j = a.targets[0], a.targets[-1]
            key = (k, i, j)
            mod = -a.reward
            if key not in neg_best or mod > neg_best[key]:
                neg_best[key] = mod
    pos_best: dict = {}  # (k, i) -> max reward
    for i, actions in enumerate(G.max_actions):
        for b in actions:
            key = (b.target, i)
            if key not in pos_best or b.reward > pos_best[key]:
                pos_best[key] = b.reward

    entries: list[list] = [[] for _ in range(G.n)]
    for (k, i, j), mod in neg_best.items():
        if i != j:
            entries[k].append((i, j, SignedTrop.neg(mod)))
    for k in range(G.n):
        for i in range(G.m):
            neg = neg_best.get((k, i, i))
            pos = pos_best.get((k, i))
            if neg is None and pos is None:
                continue
            if pos is None or (neg is not None and neg > pos):
                entries[k].append((i, i, SignedTrop.neg(neg)))
            else:
                entries[k].append((i, i, SignedTrop.pos(pos)))
    flat = [(k, i, j, v) for k, triplets in enumerate(entries)
            for i, j, v in triplets]
    return Pencil.from_entries(G.n, G.m, flat)


# ---------------------------------------------------------------------------
# Dominions
# ---------------------------------------------------------------------------

def is_dominion(G: StochGame, D: Iterable) -> bool:
    """Can Max keep the play inside the Min states D forever?

    True iff every action of every state in D leads only to Max states that
    have at least one action back into D.
    """
    dset = frozenset(D)
    if not dset or not all(0 <= k < G.n for k in dset):
        raise ValidationError("D must be a nonempty subset of the Min states")
    covered = [any(b.target in dset for b in acts) for acts in G.max_actions]
    return all(
        covered[i]
        for k in dset
        for a in G.min_actions[k]
        for i in a.targets
    )


def induced_subgame(G: StochGame, D: Iterable) -> StochGame:
    """Restriction of the game to the dominion D: Min keeps all its actions,
    Max keeps the actions leading back into D.  State numbering follows
    sorted(D) and the sorted list of Max states reachable from D."""
    dset = frozenset(D)
    if not is_dominion(G, dset):
        raise NotADominion(f"{sorted(dset)} is not a dominion")
    min_states = sorted(dset)
    max_states = sorted({i for k in min_states for a in G.min_actions[k] for i in a.targets})
    min_index = {k: idx for idx, k in enumerate(min_states)}
    max_index = {i: idx for idx, i in enumerate(max_states)}
    min_actions = tuple(
        tuple(MinAction(tuple(max_index[i] for i in a.targets), a.reward)
              for a in G.min_actions[k])
        for k in min_states
    )
    max_actions = tuple(
        tuple(MaxAction(min_index[b.target], b.reward)
              for b in G.max_actions[i] if b.target in dset)
        for i in max_states
    )
    return StochGame(len(min_states), len(max_states), min_actions, max_actions)


def is_winning_dominion(G: StochGame, D: Iterable) -> bool:
    """Is D a dominion whose induced subgame has all mean payoffs >= 0?"""
    from .exact import game_value_bruteforce  # deferred: exact depends on this module

    dset = frozenset(D)
    if not is_dominion(G, dset):
        return False
    value = game_value_bruteforce(induced_subgame(G, dset))
    return all(chi >= 0 for chi in value.chi)


def winning_dominions(G: StochGame, max_states: int = 16) -> list:
    """All winning dominions, smallest first, filtered from ``dominions``.

    Exponential in n; refuses games with n > max_states.
    """
    return [D for D in dominions(G, max_states) if is_winning_dominion(G, D)]


def dominions(G: StochGame, max_states: int = 16) -> list:
    """All dominions (not necessarily winning), smallest first."""
    if G.n > max_states:
        raise PolicySpaceTooLarge(
            f"dominion enumeration over 2^{G.n} subsets exceeds the cap of n = {max_states}")
    found = []
    for mask in range(1, 1 << G.n):
        D = frozenset(k for k in range(G.n) if mask >> k & 1)
        if is_dominion(G, D):
            found.append(D)
    return sorted(found, key=lambda d: (len(d), sorted(d)))


def minimal_dominions(G: StochGame, max_states: int = 16) -> list:
    """For each state, the inclusion-minimal dominions containing it,
    deduplicated across states and sorted smallest first.

    Note this is not the set of globally minimal dominions: a state that
    only appears in large dominions contributes its large minimum.
    """
    every = dominions(G, max_states)
    keep = set()
    for k in range(G.n):
        containing = [D for D in every if k in D]
        for D in containing:
            if not any(E < D for E in containing):
                keep.add(D)
    return sorted(keep, key=lambda d: (len(d), sorted(d)))
