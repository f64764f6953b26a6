"""Stochastic mean payoff games in the bipartite form used by the solver.

The games alternate between n states owned by player Min and m states owned
by player Max.  At a Min state k, Min picks an action a = {i} or {i, j},
pays its reward r^a_k, and nature moves to Max state i or j with probability
1/2 each.  At a Max state i, Max picks an action {k}, receives r^b_i, and
play moves to Min state k.  Both players always have at least one action.

``StochGame`` is the one game class: it stores the flat integer arrays that
value iteration, the exact witness check, the translation back to a pencil,
the JSON writer and the dominion fixpoint ``largest_dominion`` run on.  The
constructor and the JSON reader build them in one step, ``_canonical``;
tuples of actions with Fraction rewards are a view built on first read.
Every evaluation of F on the arrays runs in integers, through the one front
end ``StochGame.operator``: on a dyadic grid for value iteration, and on a
grid that holds F(v) exactly for the check of a rational vector v.
``INT64_ROOM`` is the one bound under which these integers stay int64.

A Metzler pencil turns into such a game (``game_from_pencil``) by reading
negatively signed entries of Q^(k) as Min actions of state k and positively
signed diagonal entries Q^(k)_ii as Max actions of state i.  The reverse
construction packs a game back into matrices; when a Min action {i} of k
and a Max action {k} of i compete for the single diagonal slot (k, i, i),
the entry keeping the sublevel sets {x : lambda + x <= F(x)} intact is the
negatively signed one if -r^a_k > r^b_i and the positively signed one
otherwise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable

import numpy as np

from .errors import (AssumptionViolated, NotADominion, PolicySpaceTooLarge,
                     ValidationError)
from .pencil import Pencil, int_array, require_metzler
from .tropical import NEG, POS, as_fraction


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


def _segment_starts(count) -> np.ndarray:
    """Where each state's block of actions starts, from the per-state
    action counts."""
    return np.concatenate(([0], np.cumsum(count)[:-1])).astype(np.intp)


def _owners(seg: np.ndarray, total: int) -> np.ndarray:
    """The state of each of the ``total`` actions laid out by ``seg``."""
    return np.repeat(np.arange(len(seg)), np.diff(seg, append=total))


def _blocks(items: list, seg: np.ndarray) -> list:
    """items, one per action, cut into the states' blocks laid out by seg."""
    cuts = seg.tolist()
    return [items[lo:hi] for lo, hi in zip(cuts, cuts[1:] + [len(items)])]


def _check_shape(n: int, m: int, min_states: int, max_states: int) -> None:
    if n < 1 or m < 1:
        raise ValidationError(f"game needs n >= 1 and m >= 1, got ({n}, {m})")
    if min_states != n:
        raise ValidationError("min_actions must list every Min state")
    if max_states != m:
        raise ValidationError("max_actions must list every Max state")


def _canonical(n: int, m: int, min_rows: list, max_rows: list) -> tuple:
    """The arrays of ``StochGame.from_arrays`` from one row per action:
    (k, i, j, reward) for Min state k with targets i <= j (j = i for a
    singleton), (i, k, reward) for Max state i with target k; every state
    owns a row.  The Fraction rewards go over the lcm of their denominators,
    one stable lexsort per player orders the rows, and equal rows go."""
    den = math.lcm(*{row[-1].denominator for row in chain(min_rows, max_rows)})

    def rows(table: list, states: int) -> tuple:
        *keys, rewards = zip(*table)
        keys = [*(np.array(key, dtype=np.intp) for key in keys),
                int_array([q.numerator * (den // q.denominator) for q in rewards])]
        order = np.lexsort(keys[::-1])
        keys = [key[order] for key in keys]
        new = np.append(True, np.any([key[1:] != key[:-1] for key in keys], axis=0))
        state, *cols = (key[new] for key in keys)
        return _segment_starts(np.bincount(state, minlength=states)), *cols

    max_seg, max_t, max_p = rows(max_rows, m)
    min_seg, min_i, min_j, min_p = rows(min_rows, n)
    return max_t, max_seg, max_p, min_i, min_j, min_seg, min_p, den


class StochGame:
    """A game with n Min states and m Max states, stored as flat arrays.

    Actions are laid out state-major, each state's actions starting at its
    entry of ``max_seg`` / ``min_seg``, so each evaluation of F is two
    gather-add passes and two segmented reductions.  Max action a moves to
    Min state ``max_t[a]`` and receives ``max_p[a] / den``; Min action a
    moves to Max states ``min_i[a]`` and ``min_j[a]`` (equal for a
    singleton) with reward ``min_p[a] / den``.  The reward numerators share
    the one denominator ``den``; they are int64 arrays when they fit and
    object arrays of Python ints otherwise.  These integers are the game:
    ``operator`` evaluates F - lambda on them in integers.

    ``StochGame(n, m, min_actions, max_actions)`` builds the game from one
    nonempty tuple of ``MinAction`` per Min state and of ``MaxAction`` per
    Max state, in the step ``_canonical`` that the JSON reader shares:
    duplicates are dropped and each state's actions sorted by targets, then
    reward.  The game keeps only the arrays; ``min_actions`` and
    ``max_actions`` read the actions back in that order, as tuples built on
    first read.  Two games are equal when they have the same actions in the
    same order.
    """

    def __init__(self, n: int, m: int, min_actions: tuple, max_actions: tuple):
        _check_shape(n, m, len(min_actions), len(max_actions))
        min_rows, max_rows = [], []
        for k, actions in enumerate(min_actions):
            if not actions:
                raise ValidationError(f"Min state {k} has no actions")
            for a in actions:
                if not all(0 <= i < m for i in a.targets):
                    raise ValidationError(f"Min state {k} action targets {a.targets} out of range")
                min_rows.append((k, a.targets[0], a.targets[-1], a.reward))
        for i, actions in enumerate(max_actions):
            if not actions:
                raise ValidationError(f"Max state {i} has no actions")
            for b in actions:
                if not 0 <= b.target < n:
                    raise ValidationError(f"Max state {i} action target {b.target} out of range")
                max_rows.append((i, b.target, b.reward))
        self._store(*_canonical(n, m, min_rows, max_rows))

    @classmethod
    def from_arrays(cls, max_t, max_seg, max_p, min_i, min_j, min_seg, min_p,
                    den: int) -> "StochGame":
        """The game stored in these arrays, whose actions must come in the
        canonical order of ``_canonical``."""
        game = cls.__new__(cls)
        game._store(max_t, max_seg, max_p, min_i, min_j, min_seg, min_p, den)
        return game

    def _store(self, max_t, max_seg, max_p, min_i, min_j, min_seg, min_p, den):
        self.max_t, self.max_seg, self.max_p = max_t, max_seg, max_p
        self.min_i, self.min_j, self.min_seg, self.min_p = min_i, min_j, min_seg, min_p
        self.den = den
        self.n, self.m = len(min_seg), len(max_seg)
        self._tuples = None

    @property
    def min_actions(self) -> tuple:
        """Per Min state, its MinActions (built on first read)."""
        return self._actions()[0]

    @property
    def max_actions(self) -> tuple:
        """Per Max state, its MaxActions (built on first read)."""
        return self._actions()[1]

    def _actions(self) -> tuple:
        if self._tuples is None:
            min_r, max_r = ([Fraction(q, self.den) for q in p.tolist()]
                            for p in (self.min_p, self.max_p))
            mins = [MinAction((i, j), r) for i, j, r in
                    zip(self.min_i.tolist(), self.min_j.tolist(), min_r)]
            maxs = [MaxAction(t, r) for t, r in zip(self.max_t.tolist(), max_r)]
            self._tuples = tuple(tuple(map(tuple, _blocks(acts, seg))) for acts, seg
                                 in ((mins, self.min_seg), (maxs, self.max_seg)))
        return self._tuples

    def __eq__(self, other):
        if not isinstance(other, StochGame):
            return NotImplemented
        scaled = lambda p, den: [q * den for q in p.tolist()]
        return (all(np.array_equal(getattr(self, name), getattr(other, name))
                    for name in ("max_t", "max_seg", "min_i", "min_j", "min_seg"))
                and scaled(self.max_p, other.den) == scaled(other.max_p, self.den)
                and scaled(self.min_p, other.den) == scaled(other.min_p, self.den))

    def policy_count(self) -> int:
        return math.prod(np.diff(self.min_seg, append=len(self.min_p)).tolist()
                         + np.diff(self.max_seg, append=len(self.max_p)).tolist())

    def _apply(self, x: np.ndarray, max_r, min_r, halve: bool = True) -> np.ndarray:
        """The kernel: Max values y = max (max_r + x), then per Min state the
        min of min_r + (y_i + y_j) >> 1, or of min_r + y_i + y_j when not
        ``halve``.  When ``halve``, an integer result is at most
        |x| + max |max_r| + max |min_r| in magnitude, and no intermediate
        exceeds twice that."""
        y = np.maximum.reduceat(max_r + x[self.max_t], self.max_seg)
        pair = y[self.min_i] + y[self.min_j]
        return np.minimum.reduceat(min_r + (pair >> 1 if halve else pair),
                                   self.min_seg)

    def _top(self) -> int:
        """The largest |reward numerator|, at least 1."""
        return max(int(np.abs(self.max_p).max()), int(np.abs(self.min_p).max()), 1)

    def operator(self, lam=0, unit: int = 1) -> tuple:
        """(S, R, step) on the grid S = lcm(den, the denominator of lam) unit.

        step sends integer numerators X over S to floor(S (F - lam)(X / S)):
        the kernel ``_apply`` on the rewards over S, the Min ones shifted by
        -lam, with the halving rounded down, which is exact because min and
        floor commute with integer shifts.  R bounds |step(X) - X|.  The
        rewards take the dtype of X; an int64 X is safe while |X| + R <
        INT64_ROOM (see ``_widened``).

        The reward arrays are built once per dtype: ``step.bind(dtype)`` is
        the step on arrays of that dtype, bound to them, and step(X) looks
        up the binding for X's dtype.  A loop that knows its dtype calls the
        bound step and skips that lookup."""
        p, q = lam.as_integer_ratio()
        scale = math.lcm(self.den, q) * unit
        factor, shift = scale // self.den, p * (scale // q)
        reach = 2 * self._top() * factor + abs(shift)

        @functools.cache
        def bind(dtype):
            max_r = self.max_p.astype(dtype) * factor
            min_r = self.min_p.astype(dtype) * factor - shift
            return lambda x: self._apply(x, max_r, min_r)

        step = lambda x: bind(x.dtype)(x)
        step.bind = bind
        return scale, reach, step


# An int64 X of ``StochGame.operator`` stays below this bound with the
# growth of its next steps on top, which keeps every intermediate of the
# kernel below 2^62: the one int64 rule of the loop and the checks.
INT64_ROOM = 2**61


def _widened(x: np.ndarray, growth: int) -> np.ndarray:
    """x as Python ints unless |x| + growth < INT64_ROOM keeps it int64."""
    if x.dtype != object and int(np.abs(x).max()) + growth >= INT64_ROOM:
        return x.astype(object)
    return x


# ---------------------------------------------------------------------------
# Pencil <-> game
# ---------------------------------------------------------------------------

def game_from_pencil(P: Pencil) -> StochGame:
    """Game whose sublevel sets {x : lambda + x <= F(x)} are the reinforced
    spectrahedra of the Metzler pencil, read straight off its entry arrays.

    Min state k gets an action per negatively signed entry of Q^(k): {i}
    paying -|Q^(k)_ii| from the diagonal, {i,j} paying -|Q^(k)_ij| from
    above the diagonal, in (i, j) order.  Max state i gets an action {k}
    rewarding Q^(k)_ii per positively signed diagonal entry, in k order.
    The rewards keep the pencil's denominator.  Raises ``require_metzler``'s
    ValidationError on a positively signed off-diagonal entry and otherwise
    AssumptionViolated when some state would end up with no action, which
    ``normalize`` repairs.
    """
    require_metzler(P)
    pos, neg = P.sign == POS, P.sign == NEG
    min_count = np.bincount(P.k[neg], minlength=P.n)
    if not min_count.all():
        raise AssumptionViolated(
            f"matrix {int(np.argmin(min_count))} has no negatively signed "
            "entry; run normalize first")
    max_count = np.bincount(P.i[pos], minlength=P.m)
    if not max_count.all():
        raise AssumptionViolated(
            f"row {int(np.argmin(max_count))} has no positively signed "
            "diagonal entry; run normalize first")
    by_row = np.argsort(P.i[pos], kind="stable")  # entries come sorted by k
    return StochGame.from_arrays(
        P.k[pos][by_row], _segment_starts(max_count),
        int_array(P.num[pos][by_row]), P.i[neg], P.j[neg],
        _segment_starts(min_count), int_array(-P.num[neg]), P.den)


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
    # Every action as a candidate entry; per position the last one in
    # (position, modulus, sign) order wins.
    k = np.concatenate((_owners(G.min_seg, len(G.min_p)), G.max_t))
    i = np.concatenate((G.min_i, _owners(G.max_seg, len(G.max_p))))
    j = np.concatenate((G.min_j, i[len(G.min_i):]))
    sign = np.repeat(np.array([NEG, POS], dtype=np.int8),
                     (len(G.min_p), len(G.max_p)))
    num = np.concatenate((-G.min_p, G.max_p))
    key = (k * G.m + i) * G.m + j
    order = np.lexsort((sign, num, key))
    last = np.append(key[order][1:] != key[order][:-1], True)
    win = order[last]
    return Pencil.from_arrays(G.n, G.m, k[win], i[win], j[win], sign[win],
                              num[win], G.den)


# ---------------------------------------------------------------------------
# Dominions
# ---------------------------------------------------------------------------

def _state_mask(G: StochGame, D: Iterable) -> np.ndarray:
    dset = frozenset(D)
    if not dset or not all(0 <= k < G.n for k in dset):
        raise ValidationError("D must be a nonempty subset of the Min states")
    inside = np.zeros(G.n, dtype=bool)
    inside[list(dset)] = True
    return inside


def largest_dominion(G: StochGame, inside: np.ndarray) -> np.ndarray:
    """The mask of the largest dominion inside this mask of Min states.

    Each pass keeps the states whose actions all lead to Max states with an
    action back into the mask, until the mask stops changing (at most n
    passes).  Every dominion inside survives each pass, so a mask is a
    dominion iff it comes back unchanged.  A pass is the kernel on the 0/1
    support with zero rewards: the Max maximum says some action lands inside,
    the halved pair sum that both targets do, the Min minimum that all
    actions do."""
    while True:
        kept = inside & G._apply(inside.view(np.int8), 0, 0).view(bool)
        if np.array_equal(kept, inside):
            return kept
        inside = kept


def reachable(G: StochGame, k: int) -> np.ndarray:
    """The mask of the Min states that plays from Min state k reach: a dominion."""
    min_owner = _owners(G.min_seg, len(G.min_p))
    max_owner = _owners(G.max_seg, len(G.max_p))
    inside = np.arange(G.n) == k
    while True:
        rows, acts = np.zeros(G.m, dtype=bool), inside[min_owner]
        rows[G.min_i[acts]] = rows[G.min_j[acts]] = True
        kept = inside | (np.bincount(G.max_t[rows[max_owner]], minlength=G.n) > 0)
        if np.array_equal(kept, inside):
            return kept
        inside = kept


def is_dominion(G: StochGame, D: Iterable) -> bool:
    """Can Max keep the play inside the Min states D forever?

    True iff every action of every state in D leads only to Max states that
    have at least one action back into D.
    """
    inside = _state_mask(G, D)
    return np.array_equal(largest_dominion(G, inside), inside)


def induced_subgame(G: StochGame, D: Iterable) -> StochGame:
    """Restriction of the game to the dominion D: Min keeps all its actions,
    Max keeps the actions leading back into D.  State numbering follows
    sorted(D) and the sorted list of Max states reachable from D."""
    inside = _state_mask(G, D)
    if not np.array_equal(largest_dominion(G, inside), inside):
        raise NotADominion(f"{np.flatnonzero(inside).tolist()} is not a dominion")
    min_keep = inside[_owners(G.min_seg, len(G.min_p))]
    reached = np.zeros(G.m, dtype=bool)
    reached[G.min_i[min_keep]] = reached[G.min_j[min_keep]] = True
    max_owner = _owners(G.max_seg, len(G.max_p))
    max_keep = reached[max_owner] & inside[G.max_t]
    # monotone renumberings keep each state's actions in sorted order
    min_index, max_index = np.cumsum(inside) - 1, np.cumsum(reached) - 1
    return StochGame.from_arrays(
        min_index[G.max_t[max_keep]],
        _segment_starts(np.bincount(max_index[max_owner[max_keep]])),
        int_array(G.max_p[max_keep]),
        max_index[G.min_i[min_keep]], max_index[G.min_j[min_keep]],
        _segment_starts(np.diff(G.min_seg, append=len(G.min_p))[inside]),
        int_array(G.min_p[min_keep]), G.den)


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
