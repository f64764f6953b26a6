"""The Shapley operator and value-iteration feasibility checking."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropsdp import (
    MaxAction,
    MinAction,
    Pencil,
    SignedTrop,
    StochGame,
    ValidationError,
    apply_F,
    check_feasibility,
    game_from_pencil,
    verify_subharmonic,
)
from tropsdp.markov import chain_from_policies
from tropsdp.shapley import (
    GUARANTEED,
    UNKNOWN,
    CompiledGame,
    recession,
    structural_constant_value_check,
    value_iteration_raw,
)
from tropsdp.tropical import MINUS_INF

from conftest import dyadic_rationals, games, small_rationals, trop_points

F = Fraction


@pytest.fixture(scope="module")
def worked_game(running_pencil):
    return game_from_pencil(running_pencil)


def cycle_game(min_reward, max_reward):
    """One Min state feeding one Max state and back."""
    return StochGame(
        1, 1,
        ((MinAction((0,), F(min_reward)),),),
        ((MaxAction(0, F(max_reward)),),),
    )


# ---------------------------------------------------------------------------
# operator evaluation
# ---------------------------------------------------------------------------

def test_operator_on_worked_example(worked_game):
    assert apply_F(worked_game, (0, 0, 0)) == (0, -1, F(5, 8))


def test_operator_propagates_minus_inf(worked_game):
    assert apply_F(worked_game, (MINUS_INF, 0, 0)) == (F(-1, 8), F(-5, 4), F(1, 2))
    assert apply_F(worked_game, (MINUS_INF,) * 3) == (MINUS_INF,) * 3


def test_operator_checks_dimensions(worked_game):
    with pytest.raises(ValidationError):
        apply_F(worked_game, (0, 0))


def committed(g, sigma=None, tau=None):
    """The game with Min bound to sigma and/or Max bound to tau: each
    committed state keeps only the action its policy picks."""
    mins = g.min_actions if sigma is None else tuple(
        (acts[s],) for acts, s in zip(g.min_actions, sigma))
    maxs = g.max_actions if tau is None else tuple(
        (acts[t],) for acts, t in zip(g.max_actions, tau))
    return StochGame(g.n, g.m, mins, maxs)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_fixing_policies_brackets_the_operator(data):
    g = data.draw(games())
    sigma = tuple(data.draw(st.integers(0, len(a) - 1)) for a in g.min_actions)
    tau = tuple(data.draw(st.integers(0, len(b) - 1)) for b in g.max_actions)
    x = data.draw(trop_points(g.n))
    fx = apply_F(g, x)
    f_sigma = apply_F(committed(g, sigma=sigma), x)
    f_tau = apply_F(committed(g, tau=tau), x)
    both = apply_F(committed(g, sigma, tau), x)
    assert all(lo <= mid for lo, mid in zip(f_tau, fx))
    assert all(mid <= hi for mid, hi in zip(fx, f_sigma))
    assert all(lo <= b for lo, b in zip(f_tau, both))
    assert all(b <= hi for b, hi in zip(both, f_sigma))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_committed_operator_is_the_chain_affine_map(data):
    g = data.draw(games(max_n=3, max_m=3))
    sigma = tuple(data.draw(st.integers(0, len(a) - 1)) for a in g.min_actions)
    tau = tuple(data.draw(st.integers(0, len(b) - 1)) for b in g.max_actions)
    x = data.draw(st.lists(small_rationals, min_size=g.n, max_size=g.n))
    chain = chain_from_policies(g, sigma, tau)
    ext = list(x) + [None] * g.m  # Max-state coordinates never read below
    expected = tuple(
        chain.rewards[k]
        + sum(
            chain.p[k][v] * (chain.rewards[v]
                             + sum(chain.p[v][w] * ext[w]
                                   for w in range(g.n) if chain.p[v][w]))
            for v in range(g.n, g.n + g.m) if chain.p[k][v]
        )
        for k in range(g.n)
    )
    assert apply_F(committed(g, sigma, tau), x) == expected


@settings(max_examples=60, deadline=None)
@given(data=st.data(), t=small_rationals)
def test_additive_homogeneity(data, t):
    g = data.draw(games())
    x = data.draw(st.lists(small_rationals, min_size=g.n, max_size=g.n))
    shifted = apply_F(g, [t + xi for xi in x])
    assert shifted == tuple(t + fi for fi in apply_F(g, x))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_monotonicity(data):
    g = data.draw(games())
    x = data.draw(trop_points(g.n))
    bumps = data.draw(st.lists(
        st.fractions(min_value=F(0), max_value=F(2), max_denominator=4),
        min_size=g.n, max_size=g.n))
    y = [xi if xi is MINUS_INF else xi + b for xi, b in zip(x, bumps)]
    assert all(a <= b for a, b in zip(apply_F(g, x), apply_F(g, y)))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sup_norm_nonexpansiveness(data):
    g = data.draw(games())
    x = data.draw(st.lists(small_rationals, min_size=g.n, max_size=g.n))
    y = data.draw(st.lists(small_rationals, min_size=g.n, max_size=g.n))
    gap = max(abs(a - b) for a, b in zip(x, y))
    fgap = max(abs(a - b) for a, b in zip(apply_F(g, x), apply_F(g, y)))
    assert fgap <= gap


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_recession_is_the_zero_reward_operator(data):
    g = data.draw(games())
    zeroed = StochGame(
        g.n, g.m,
        tuple(tuple(MinAction(a.targets, F(0)) for a in acts)
              for acts in g.min_actions),
        tuple(tuple(MaxAction(b.target, F(0)) for b in acts)
              for acts in g.max_actions),
    )
    x = data.draw(trop_points(g.n))
    assert recession(g, x) == apply_F(zeroed, x)


def test_structural_check(running_pencil):
    assert structural_constant_value_check(running_pencil) == UNKNOWN
    dense = Pencil.from_entries(2, 2, [
        (0, 0, 0, SignedTrop.pos(F(1))),
        (0, 0, 1, SignedTrop.neg(F(0))),
        (0, 1, 1, SignedTrop.neg(F(2))),
        (1, 0, 0, SignedTrop.neg(F(1))),
        (1, 0, 1, SignedTrop.neg(F(1, 2))),
        (1, 1, 1, SignedTrop.pos(F(0))),
    ])
    assert structural_constant_value_check(dense) == GUARANTEED


# ---------------------------------------------------------------------------
# value iteration
# ---------------------------------------------------------------------------

def test_worked_example_feasible_in_twenty_iterations(worked_game):
    report = check_feasibility(worked_game)
    assert report.verdict == "Feasible"
    assert report.iterations == 20
    assert report.epsilon == F(1, 10**8)
    assert report.witness == (F(2139951, 2**21), F(0), F(2289749, 2**21))
    fw = apply_F(worked_game, report.witness)
    assert all(a <= b for a, b in zip(report.witness, fw))


def test_exact_engine_matches_on_worked_example(worked_game):
    fast = check_feasibility(worked_game)
    slow = check_feasibility(worked_game, exact=True)
    assert (fast.verdict, fast.iterations, fast.witness) == \
        (slow.verdict, slow.iterations, slow.witness)
    assert (fast.engine, slow.engine) == ("double", "rational")


def test_negative_cycle_is_infeasible():
    report = check_feasibility(cycle_game(-1, 0))
    assert report.verdict == "Infeasible"
    assert report.iterations == 1
    assert report.witness == (F(-1),)


def test_zero_cycle_is_indeterminate():
    report = check_feasibility(cycle_game(0, 0), max_iters=50)
    assert report.verdict == "Indeterminate"
    assert report.iterations == 50


def test_raw_iteration_exposes_running_envelopes(worked_game):
    status, iters, u, v, w = value_iteration_raw(
        worked_game, F(1, 10**8), 10**6, exact=True)
    assert status == "feasible"
    assert iters == 20
    assert all(vi >= 0 for vi in v)
    assert all(wi <= 0 for wi in w)
    assert all(wi <= ui for wi, ui in zip(w, u))


def test_epsilon_must_be_positive(worked_game):
    with pytest.raises(ValidationError):
        check_feasibility(worked_game, epsilon=0)
    with pytest.raises(ValidationError):
        check_feasibility(worked_game, epsilon=F(-1, 2))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_double_engine_agrees_with_exact_on_dyadic_games(data):
    # rewards are multiples of 1/16 and values stay below 128 in magnitude,
    # so forty halving steps fit in the double mantissa without rounding
    g = data.draw(games(rewards=dyadic_rationals))
    fast = value_iteration_raw(g, F(1, 2**10), 40, exact=False)
    slow = value_iteration_raw(g, F(1, 2**10), 40, exact=True)
    assert fast == slow


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_exact_kernel_matches_apply_F(data):
    # the compiled kernel over Fractions against the StochGame operator
    g = data.draw(games())
    step = CompiledGame.from_game(g).exact_step()
    x = np.array([F(0)] * g.n, dtype=object)
    ref = (F(0),) * g.n
    for _ in range(8):
        x, ref = step(x), apply_F(g, ref)
        assert tuple(x) == ref


# ---------------------------------------------------------------------------
# exact witness check in integers
# ---------------------------------------------------------------------------

def random_game(rng, denominators):
    """A seeded game with 1-3 actions per state and rewards k/q, q drawn
    from the given denominators."""
    n, m = rng.randint(1, 4), rng.randint(1, 4)
    reward = lambda: F(rng.randint(-40, 40), rng.choice(denominators))
    min_actions = tuple(
        tuple(MinAction(tuple(rng.sample(range(m), rng.randint(1, min(2, m)))),
                        reward()) for _ in range(rng.randint(1, 3)))
        for _ in range(n))
    max_actions = tuple(
        tuple(MaxAction(rng.randrange(n), reward())
              for _ in range(rng.randint(1, 3)))
        for _ in range(m))
    return StochGame(n, m, min_actions, max_actions)


def tied(g, v):
    """The game with each Min state's rewards shifted so that F(v) = v."""
    fv = apply_F(g, v)
    return StochGame(g.n, g.m, tuple(
        tuple(MinAction(a.targets, a.reward + v[k] - fv[k]) for a in acts)
        for k, acts in enumerate(g.min_actions)), g.max_actions)


def witnesses(g):
    """Pairs (x, from the iteration?): the float vectors u, v, w after a
    few steps, and each of them with one coordinate nudged up or down by
    one ulp (a nudged 0 is subnormal, which needs Python ints)."""
    out = []
    for iters in (1, 3, 12):
        _, _, *vectors = value_iteration_raw(g, F(1, 10**8), iters, exact=False)
        for vec in vectors:
            base = np.array([float(t) for t in vec])
            out.append((base, True))
            for k in range(g.n):
                for toward in (np.inf, -np.inf):
                    nudged = base.copy()
                    nudged[k] = np.nextafter(nudged[k], toward)
                    out.append((nudged, False))
    return out


@pytest.mark.parametrize("denominators,branches", [
    ((1, 2, 16), {np.int64}),  # dyadic: the iterates fit in int64
    ((3, 7, 10**9 + 7), {np.int64, object}),  # a 0 witness still fits
])
def test_integer_witness_check_matches_fraction_check(denominators, branches):
    rng = random.Random(7)
    outcomes, seen = set(), set()
    for _ in range(40):
        g = random_game(rng, denominators)
        if 3 in denominators:  # every game carries all three denominators
            g = tied(g, [F(1, 3), F(1, 7), F(1, 10**9 + 7), F(1, 5)][:g.n])
        for h in (g, tied(g, [F(k, 4) for k in range(g.n)])):
            compiled = CompiledGame.from_game(h)
            for x, iterate in witnesses(h):
                if iterate:
                    seen.add(compiled._scaled(x)[2].dtype.type)
                expected = verify_subharmonic(h, [F(t) for t in x])[0]
                assert compiled.is_subharmonic(x) == expected
                assert compiled.is_subharmonic([F(t) for t in x]) == expected
                outcomes.add(expected)
        # an exact tie at a float witness of the iteration
        x = witnesses(g)[0][0]
        h = tied(g, [F(t) for t in x])
        assert CompiledGame.from_game(h).is_subharmonic(x)
    assert outcomes == {True, False}
    assert seen == {np.dtype(t).type for t in branches}


def test_integer_witness_check_validates_length(worked_game):
    with pytest.raises(ValidationError):
        CompiledGame.from_game(worked_game).is_subharmonic([0.0, 0.0])


def test_rounded_witness_triggers_rational_rerun():
    # rewards in thirds: the double iteration's witness misses v <= F(v) by
    # a rounding error, so check_feasibility reruns the loop in rationals
    g = StochGame(2, 2, (
        (MinAction((1,), F(2)),),
        (MinAction((0, 1), F(-5, 3)), MinAction((0, 1), F(-2, 3))),
    ), (
        (MaxAction(0, F(-1, 3)),),
        (MaxAction(1, F(5, 3)),),
    ))
    status, _, _, v, _ = value_iteration_raw(g, F(1, 10**8), 10**6, exact=False)
    assert status == "feasible"
    assert not CompiledGame.from_game(g).is_subharmonic(v)
    assert not verify_subharmonic(g, v)[0]
    report = check_feasibility(g)
    assert report == check_feasibility(g, exact=True)
    assert report.engine == "rational"
    assert verify_subharmonic(g, report.witness)[0]
