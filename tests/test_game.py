"""Pencil <-> game translation and dominion machinery."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropsdp import (
    AssumptionViolated,
    MaxAction,
    MinAction,
    NotADominion,
    Pencil,
    PolicySpaceTooLarge,
    SignedTrop,
    StochGame,
    ValidationError,
    dominions,
    game_from_pencil,
    induced_subgame,
    is_dominion,
    membership_metzler,
    minimal_dominions,
    normalize,
    pencil_from_game,
    winning_dominions,
)
from tropsdp.game import largest_dominion
from tropsdp.pencil import NOT_METZLER, int_array
from tropsdp.shapley import K0
from tropsdp.shapley import apply_F
from tropsdp.tropical import MINUS_INF

from conftest import games, overlap_free_games, sparse_json_games, trop_points

F = Fraction


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_min_action_canonicalizes_targets():
    a = MinAction((2, 0), F(1))
    assert a.targets == (0, 2)
    assert MinAction((1, 1), F(0)).targets == (1,)


def test_min_action_rejects_bad_target_counts():
    with pytest.raises(ValidationError):
        MinAction((), F(0))
    with pytest.raises(ValidationError):
        MinAction((0, 1, 2), F(0))


def test_game_rejects_out_of_range_targets():
    with pytest.raises(ValidationError):
        StochGame(1, 1, ((MinAction((1,), F(0)),),), ((MaxAction(0, F(0)),),))
    with pytest.raises(ValidationError):
        StochGame(1, 1, ((MinAction((0,), F(0)),),), ((MaxAction(3, F(0)),),))


def test_game_rejects_actionless_states():
    with pytest.raises(ValidationError):
        StochGame(1, 1, ((),), ((MaxAction(0, F(0)),),))
    with pytest.raises(ValidationError):
        StochGame(1, 1, ((MinAction((0,), F(0)),),), ((),))


def test_game_dedupes_and_sorts_actions():
    g = StochGame(
        1, 2,
        (
            (
                MinAction((1, 0), F(2)),
                MinAction((0, 1), F(2)),  # duplicate after sorting targets
                MinAction((0,), F(-1)),
            ),
        ),
        ((MaxAction(0, F(0)),), (MaxAction(0, F(5)), MaxAction(0, F(0)))),
    )
    assert g.min_actions[0] == (MinAction((0,), F(-1)), MinAction((0, 1), F(2)))
    assert g.max_actions[1] == (MaxAction(0, F(0)), MaxAction(0, F(5)))
    assert g.policy_count() == 2 * 1 * 1 * 2


# ---------------------------------------------------------------------------
# pencil -> game on the worked example
# ---------------------------------------------------------------------------

def test_worked_example_game(running_pencil):
    g = game_from_pencil(running_pencil)
    assert (g.n, g.m) == (3, 3)
    assert g.min_actions == (
        (MinAction((0, 1), F(0)),),
        (MinAction((1,), F(0)),),
        (MinAction((0, 2), F(-3, 4)), MinAction((1, 2), F(0))),
    )
    assert g.max_actions == (
        (MaxAction(2, F(1)),),
        (MaxAction(0, F(-1)), MaxAction(2, F(-5, 4))),
        (MaxAction(1, F(9, 4)),),
    )


def test_translation_requires_negative_entry_per_matrix():
    P = Pencil.from_entries(1, 1, [(0, 0, 0, SignedTrop.pos(F(0)))])
    with pytest.raises(AssumptionViolated) as info:
        game_from_pencil(P)
    assert str(info.value) == (
        "matrix 0 has no negatively signed entry; run normalize first")


def test_translation_requires_positive_diagonal_per_row():
    P = Pencil.from_entries(1, 1, [(0, 0, 0, SignedTrop.neg(F(0)))])
    with pytest.raises(AssumptionViolated) as info:
        game_from_pencil(P)
    assert str(info.value) == (
        "row 0 has no positively signed diagonal entry; run normalize first")


@pytest.mark.parametrize("bare_first", [False, True])
def test_translation_rejects_positive_off_diagonal(bare_first):
    # the entry (0, 1) of the non-Metzler matrix would otherwise be read as
    # no action at all; the Metzler error also wins over a matrix without
    # any negatively signed entry, before or after it
    pos, neg = SignedTrop.pos, SignedTrop.neg
    non_metzler = [(0, 0, pos(F(0))), (0, 1, pos(F(1))), (1, 1, neg(F(0)))]
    bare = [(0, 0, pos(F(2))), (1, 1, pos(F(0)))]
    mats = [bare, non_metzler] if bare_first else [non_metzler, bare]
    P = Pencil.from_entries(2, 2, [(k, i, j, v) for k, mat in enumerate(mats)
                                   for i, j, v in mat])
    with pytest.raises(ValidationError) as info:
        game_from_pencil(P)
    assert str(info.value) == NOT_METZLER


COMPILED_ARRAYS = ("max_t", "max_seg", "max_p", "min_i", "min_j", "min_seg",
                   "min_p")


def random_metzler_pencil(rng):
    """Each slot is -oo, negatively signed, or (on the diagonal) positively
    signed, with moduli over mixed denominators."""
    n, m = rng.randint(1, 4), rng.randint(1, 4)
    entries = []
    for k in range(n):
        for i in range(m):
            for j in range(i, m):
                signs = ("zero", "neg", "pos") if i == j else ("zero", "neg")
                sign = rng.choice(signs)
                if sign == "zero":
                    continue
                mod = F(rng.randint(-9, 9), rng.choice((1, 2, 3, 8, 10**9 + 7)))
                entries.append((k, i, j, SignedTrop.neg(mod) if sign == "neg"
                                else SignedTrop.pos(mod)))
    return Pencil.from_entries(n, m, entries)


def test_int_array_keeps_int64_up_to_its_bound():
    assert int_array([2**63 - 1, -(2**63 - 1)]).dtype == np.int64
    assert int_array([2**63]).dtype == object
    assert int_array([-(2**63)]).dtype == object


def with_object_numerators(g):
    """The same game with its numerators as object arrays over twice the
    denominator."""
    big = lambda p: p.astype(object) * 2
    return StochGame.from_arrays(g.max_t, g.max_seg, big(g.max_p), g.min_i,
                                 g.min_j, g.min_seg, big(g.min_p), 2 * g.den)


def test_translated_game_equals_game_of_its_tuples():
    rng = random.Random(5)
    translated = 0
    for _ in range(400):
        P = random_metzler_pencil(rng)
        norm = normalize(P)
        for Q in (P, norm.pencil):
            if Q is None:
                continue
            try:
                G = game_from_pencil(Q)
            except AssumptionViolated:
                continue
            translated += 1
            assert pencil_from_game(G) == Q
            rebuilt = StochGame(G.n, G.m, G.min_actions, G.max_actions)
            assert G == rebuilt
            assert rebuilt.den == G.den
            for name in COMPILED_ARRAYS:
                a, b = getattr(G, name), getattr(rebuilt, name)
                assert a.dtype == b.dtype, name
                np.testing.assert_array_equal(a, b, err_msg=name)
            scale, _, step = G.operator(0, 1 << K0)
            x = np.array([rng.randint(-2 * scale, 2 * scale) for _ in range(G.n)])
            np.testing.assert_array_equal(step(x), rebuilt.operator(0, 1 << K0)[2](x))
            assert with_object_numerators(G) == rebuilt
            assert rebuilt == with_object_numerators(rebuilt)
    assert translated >= 100


def test_game_equality_compares_actions():
    g = StochGame(1, 2, ((MinAction((0, 1), F(1, 3)),),),
                  ((MaxAction(0, F(0)),), (MaxAction(0, F(1)),)))
    assert g == StochGame(1, 2, ((MinAction((1, 0), F(2, 6)),),),
                          ((MaxAction(0, F(0)),), (MaxAction(0, F(1)),)))
    assert g != StochGame(1, 2, ((MinAction((0, 1), F(1, 2)),),),
                          ((MaxAction(0, F(0)),), (MaxAction(0, F(1)),)))
    assert g != StochGame(1, 2, ((MinAction((0,), F(1, 3)),),),
                          ((MaxAction(0, F(0)),), (MaxAction(0, F(1)),)))
    assert g != StochGame(1, 2, ((MinAction((0, 1), F(1, 3)),),),
                          ((MaxAction(0, F(0)),), (MaxAction(0, F(1)),
                                                   MaxAction(0, F(2)))))
    assert g != "not a game"


# ---------------------------------------------------------------------------
# game -> pencil
# ---------------------------------------------------------------------------

def test_diagonal_slot_keeps_binding_constraint():
    # Min wants -oo... the slot (0, 0, 0) twice over: negatively with
    # modulus -reward, positively with the Max reward.  The larger modulus
    # wins; ties go to the positive side.  With parallel actions on both
    # sides, the strongest of each side meet.
    def slot(min_rewards, max_rewards):
        g = StochGame(
            1, 1,
            (tuple(MinAction((0,), r) for r in min_rewards),),
            (tuple(MaxAction(0, r) for r in max_rewards),),
        )
        return pencil_from_game(g).matrices[0][0][0]

    assert slot([F(-5)], [F(3)]) == SignedTrop.neg(F(5))
    assert slot([F(-2)], [F(3)]) == SignedTrop.pos(F(3))
    assert slot([F(-3)], [F(3)]) == SignedTrop.pos(F(3))
    assert slot([F(-5), F(-1)], [F(5), F(-7)]) == SignedTrop.pos(F(5))
    assert slot([F(-1), F(-6)], [F(-7), F(5)]) == SignedTrop.neg(F(6))
    assert slot([F(2), F(3, 2)], [F(-3, 2), F(-2)]) == SignedTrop.pos(F(-3, 2))
    assert slot([F(2), F(3)], [F(-4), F(-3)]) == SignedTrop.neg(F(-2))


def test_parallel_actions_collapse_to_dominant():
    g = StochGame(
        1, 2,
        ((MinAction((0, 1), F(-1)), MinAction((0, 1), F(-4))),),
        ((MaxAction(0, F(2)), MaxAction(0, F(7))), (MaxAction(0, F(0)),)),
    )
    P = pencil_from_game(g)
    assert P.matrices[0][0][1] == SignedTrop.neg(F(4))
    assert P.matrices[0][0][0] == SignedTrop.pos(F(7))
    # Min state 0: three parallel {0, 1} actions and two singletons {1}
    # whose strongest ties with Max state 1's strongest action back to 0;
    # Min state 1: a singleton {0} that beats Max state 0's actions to 1
    g = StochGame(
        2, 2,
        ((MinAction((0, 1), F(-1)), MinAction((0, 1), F(-9, 4)),
          MinAction((0, 1), F(3)), MinAction((1,), F(-2)),
          MinAction((1,), F(1, 3))),
         (MinAction((0,), F(-4)),)),
        ((MaxAction(0, F(1)), MaxAction(1, F(3)), MaxAction(1, F(7, 2))),
         (MaxAction(0, F(2)), MaxAction(0, F(-5)))),
    )
    assert pencil_from_game(g) == Pencil.from_entries(2, 2, [
        (0, 0, 0, SignedTrop.pos(F(1))),
        (0, 0, 1, SignedTrop.neg(F(9, 4))),
        (0, 1, 1, SignedTrop.pos(F(2))),
        (1, 0, 0, SignedTrop.neg(F(4))),
    ])


def test_round_trip_reproduces_worked_pencil(running_pencil):
    # no Min singleton of the example competes with a Max action for its
    # diagonal slot, so the translation inverts exactly
    assert pencil_from_game(game_from_pencil(running_pencil)) == running_pencil


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip_preserves_operator_on_overlap_free_games(data):
    g = data.draw(overlap_free_games())
    back = game_from_pencil(pencil_from_game(g))
    x = data.draw(trop_points(g.n))
    assert apply_F(back, x) == apply_F(g, x)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_pencil_membership_is_the_zero_sublevel_set(data):
    # at lambda = 0 the spectrahedron of the packed pencil is exactly
    # {x : x <= F(x)}, diagonal-slot conflicts included
    g = data.draw(games())
    P = pencil_from_game(g)
    x = data.draw(trop_points(g.n))
    fx = apply_F(g, x)
    in_sublevel = all(xk <= fk if xk is not MINUS_INF else True
                      for xk, fk in zip(x, fx))
    assert membership_metzler(P, x) == in_sublevel


# ---------------------------------------------------------------------------
# dominions
# ---------------------------------------------------------------------------

def test_dominion_enumeration(dominion_game):
    got = dominions(dominion_game)
    expected = [
        {0}, {2}, {3},
        {0, 2}, {0, 3}, {2, 3},
        {0, 2, 3}, {1, 2, 3},
        {0, 1, 2, 3},
    ]
    assert got == [frozenset(d) for d in expected]


def test_minimal_dominions_per_state(dominion_game):
    got = minimal_dominions(dominion_game)
    assert got == [frozenset({0}), frozenset({2}), frozenset({3}),
                   frozenset({1, 2, 3})]


def test_winning_dominions(dominion_game):
    assert winning_dominions(dominion_game) == [frozenset({2})]


def test_is_dominion_rejects_bad_subsets(dominion_game):
    with pytest.raises(ValidationError):
        is_dominion(dominion_game, ())
    with pytest.raises(ValidationError):
        is_dominion(dominion_game, {0, 7})


def test_induced_subgame_requires_dominion(dominion_game):
    assert not is_dominion(dominion_game, {1})
    with pytest.raises(NotADominion):
        induced_subgame(dominion_game, {1})


def test_induced_subgame_renumbers_states(dominion_game):
    sub = induced_subgame(dominion_game, {1, 2, 3})
    # Min states 1,2,3 -> 0,1,2; reachable Max states 1,2 -> 0,1
    assert (sub.n, sub.m) == (3, 2)
    assert sub.min_actions == (
        (MinAction((0, 1), F(0)),),
        (MinAction((0,), F(2)),),
        (MinAction((1,), F(0)),),
    )
    assert sub.max_actions == (
        (MaxAction(1, F(0)),),
        (MaxAction(2, F(-1)),),
    )


def test_enumeration_refuses_large_games(dominion_game):
    with pytest.raises(PolicySpaceTooLarge):
        dominions(dominion_game, max_states=3)
    with pytest.raises(PolicySpaceTooLarge):
        winning_dominions(dominion_game, max_states=3)


def state_sets(n):
    return (frozenset(D) for size in range(1, n + 1)
            for D in itertools.combinations(range(n), size))


def test_is_dominion_matches_the_tuple_rule():
    seen = {True: 0, False: 0}
    for G in sparse_json_games(21, 150):
        for D in state_sets(G.n):
            covered = [any(b.target in D for b in acts) for acts in G.max_actions]
            closed = all(covered[i] for k in D for a in G.min_actions[k]
                         for i in a.targets)
            assert is_dominion(G, D) == closed
            seen[closed] += 1
    assert min(seen.values()) >= 300


def test_largest_dominion_is_the_union_of_the_dominions_inside():
    shrunk = 0
    for G in sparse_json_games(23, 150):
        closed = {D for D in state_sets(G.n) if all(
            any(b.target in D for b in G.max_actions[i])
            for k in D for a in G.min_actions[k] for i in a.targets)}
        for S in [frozenset()] + list(state_sets(G.n)):
            inside = np.isin(np.arange(G.n), list(S))
            got = largest_dominion(G, inside)
            expected = frozenset().union(*(D for D in closed if D <= S))
            assert np.flatnonzero(got).tolist() == sorted(expected)
            shrunk += bool(expected) and expected != S
    assert shrunk >= 50


def largest_dominion_by_or_and(G, inside):
    """``largest_dominion`` by boolean reductions: a Max state is covered
    when some action lands inside, a Min state kept when every target of
    every action is covered."""
    while True:
        covered = np.logical_or.reduceat(inside[G.max_t], G.max_seg)
        kept = inside & np.logical_and.reduceat(covered[G.min_i] & covered[G.min_j],
                                                G.min_seg)
        if np.array_equal(kept, inside):
            return kept
        inside = kept


def test_largest_dominion_on_the_kernel_matches_boolean_reductions():
    rng = random.Random(29)
    nonempty = 0
    for G in sparse_json_games(29, 3000):
        inside = np.array([rng.random() < 0.7 for _ in range(G.n)])
        got = largest_dominion(G, inside.copy())
        assert got.dtype == bool
        assert np.array_equal(got, largest_dominion_by_or_and(G, inside))
        nonempty += bool(got.any())
    assert nonempty >= 1000


def test_induced_subgame_is_the_game_of_the_filtered_tuples():
    subgames = 0
    for G in sparse_json_games(22, 150):
        for D in state_sets(G.n):
            if not is_dominion(G, D):
                with pytest.raises(NotADominion):
                    induced_subgame(G, D)
                continue
            min_states = sorted(D)
            max_states = sorted({i for k in min_states
                                 for a in G.min_actions[k] for i in a.targets})
            expected = StochGame(
                len(min_states), len(max_states),
                tuple(tuple(MinAction(tuple(max_states.index(i) for i in a.targets),
                                      a.reward) for a in G.min_actions[k])
                      for k in min_states),
                tuple(tuple(MaxAction(min_states.index(b.target), b.reward)
                            for b in G.max_actions[i] if b.target in D)
                      for i in max_states))
            sub = induced_subgame(G, D)
            assert sub == expected
            assert (sub.min_actions, sub.max_actions) == (
                expected.min_actions, expected.max_actions)
            subgames += 1
    assert subgames >= 300


@settings(max_examples=40, deadline=None)
@given(g=games(max_n=4, max_m=3))
def test_full_state_set_is_always_a_dominion(g):
    assert is_dominion(g, range(g.n))


@settings(max_examples=30, deadline=None)
@given(g=games(max_n=4, max_m=3))
def test_dominions_are_closed_under_union(g):
    found = dominions(g)
    for a in found:
        for b in found:
            assert frozenset(a | b) in found
