"""The Shapley operator and value-iteration feasibility checking."""

import math
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
    game_value_bruteforce,
    solve_tmsdfp,
    verify_subharmonic,
)
from tropsdp.bench import GenSpec, gen_random
from tropsdp.certify import _superharmonic
from tropsdp.markov import chain_from_policies
from tropsdp import shapley
from tropsdp.shapley import (
    FIRST_CHECK,
    GUARANTEED,
    K0,
    UNKNOWN,
    _certificate,
    _iterate,
    _tilted_min,
    recession,
    structural_constant_value_check,
    value_iteration_raw,
)
from tropsdp.tropical import MINUS_INF

from conftest import (dyadic_rationals, floor_of_F, games, shift_of_the_tuples,
                      small_rationals, sparse_json_games, trop_points)

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


def test_recession_on_seeded_games_and_points_with_minus_inf():
    rng = random.Random(23)
    for g in sparse_json_games(23, 200):
        zeroed = StochGame(
            g.n, g.m,
            tuple(tuple(MinAction(a.targets, F(0)) for a in acts)
                  for acts in g.min_actions),
            tuple(tuple(MaxAction(b.target, F(0)) for b in acts)
                  for acts in g.max_actions))
        for _ in range(10):
            x = [MINUS_INF if rng.random() < 0.4
                 else F(rng.randint(-6, 6), rng.choice([1, 2, 3]))
                 for _ in range(g.n)]
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
    assert report.witness == (F(521, 512), F(0), F(279, 256))
    assert (report.exit, report.bits) == ("epsilon", K0)
    fw = apply_F(worked_game, report.witness)
    assert all(a <= b for a, b in zip(report.witness, fw))


def test_exact_engine_matches_on_worked_example(worked_game):
    # the exact run holds F^t(0) itself, so its running maximum has 2^21
    # in the denominator after 20 steps; the K0 grid rounds it down
    fast = check_feasibility(worked_game)
    status, iters, _, v, _ = value_iteration_raw(
        worked_game, F(1, 10**8), 10**6, exact=True)
    assert (fast.verdict, fast.iterations, status) == ("Feasible", iters, "feasible")
    assert v == (F(2139951, 2**21), F(0), F(2289749, 2**21))
    assert all(a <= b for a, b in zip(fast.witness, v))


def test_negative_cycle_is_infeasible():
    report = check_feasibility(cycle_game(-1, 0))
    assert report.verdict == "Infeasible"
    assert report.iterations == 1
    assert report.witness == (F(-1),)


def test_zero_cycle_is_indeterminate():
    report = check_feasibility(cycle_game(0, 0), max_iters=50)
    assert report.verdict == "Indeterminate"
    assert report.iterations == 50
    assert report.exit == "budget"


def test_zero_cycle_is_decided_at_the_first_check(monkeypatch):
    # F(0) = 0: the iterate 0 is subharmonic, though no epsilon exit comes;
    # the certificate stop proved that in integers, so the witness is not
    # checked a second time
    checked = []
    is_subharmonic = StochGame.is_subharmonic
    monkeypatch.setattr(StochGame, "is_subharmonic",
                        lambda self, v, lam=0: checked.append(v)
                        or is_subharmonic(self, v, lam))
    report = check_feasibility(cycle_game(0, 0))
    assert report.verdict == "Feasible"
    assert report.iterations == FIRST_CHECK
    assert report.witness == (F(0),)
    assert report.exit == "certificate"
    assert checked == []


def test_raw_iteration_exposes_running_envelopes(worked_game):
    # the running maximum v of u_0 = 0, ..., u_19; no running minimum
    for exact in (False, True):
        status, iters, u, v, w = value_iteration_raw(
            worked_game, F(1, 10**8), 10**6, exact=exact)
        assert (status, iters, w) == ("feasible", 20, None)
        assert all(vi >= 0 for vi in v)
        assert all(ui >= F(1, 10**8) for ui in u)


def test_epsilon_must_be_positive(worked_game):
    with pytest.raises(ValidationError):
        check_feasibility(worked_game, epsilon=0)
    with pytest.raises(ValidationError):
        check_feasibility(worked_game, epsilon=F(-1, 2))


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_double_engine_agrees_with_exact_on_dyadic_games(data):
    # the default engine (the grid of K0 bits, which replaced the doubles)
    # rounds nothing in its first K0 steps: there it equals the exact run
    g = data.draw(games(rewards=dyadic_rationals))
    fast = value_iteration_raw(g, F(1, 2**10), K0, exact=False)
    slow = value_iteration_raw(g, F(1, 2**10), K0, exact=True)
    assert fast == slow


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_exact_kernel_matches_apply_F(data):
    # on the grid of 8 bits the first 8 steps from 0 round nothing: the
    # integer kernel against the operator on the tuples
    g = data.draw(games())
    scale, _, step = g.operator(0, 8)
    x = np.zeros(g.n, dtype=np.int64)
    ref = (F(0),) * g.n
    for _ in range(8):
        x, ref = step(x), apply_F(g, ref)
        assert tuple(F(t, scale) for t in x.tolist()) == ref


@settings(max_examples=80, deadline=None)
@given(g=games(), bits=st.integers(0, 12), lam=small_rationals,
       data=st.data())
def test_grid_step_is_the_floor_of_the_operator(g, bits, lam, data):
    # step(X) = floor(S (F - lam)(X / S)) on any integer X, over int64 and
    # over Python ints, for X near 0 and near the int64 bound
    scale, reach, step = g.operator(lam, bits)
    assert reach >= scale // g.den
    top = data.draw(st.sampled_from([4 * scale, 2**61 - reach]))
    X = data.draw(st.lists(st.integers(-top, top), min_size=g.n, max_size=g.n))
    expected = floor_of_F(g, X, scale, lam)
    assert step(np.array(X, dtype=object)).tolist() == expected
    if max(map(abs, X)) + reach < 2**62:
        out = step(np.array(X, dtype=np.int64))
        assert (out.dtype, out.tolist()) == (np.int64, expected)


@settings(max_examples=80, deadline=None)
@given(g=games(), bits=st.integers(0, 12), lam=small_rationals,
       sign=st.sampled_from([1, -1]), data=st.data())
def test_grid_step_is_nonexpansive(g, bits, lam, sign, data):
    # |step(X) - step(Y)| <= |X - Y| in the sup norm, over int64 and over
    # Python ints, with lambda of both signs: the loop's epsilon tests rest
    # on it, since no move of the iterate then exceeds an earlier one
    scale, reach, step = g.operator(sign * lam, bits)
    top = data.draw(st.sampled_from([4 * scale, 2**61 - reach]))
    X = data.draw(st.lists(st.integers(-top, top), min_size=g.n, max_size=g.n))
    spread = data.draw(st.sampled_from([1, scale, top]))
    Y = [max(-top, min(top, t + data.draw(st.integers(-spread, spread))))
         for t in X]
    gap = max(abs(a - b) for a, b in zip(X, Y))
    for dtype in (np.int64, object):
        fx, fy = (step(np.array(Z, dtype=dtype)).tolist() for Z in (X, Y))
        assert max(abs(a - b) for a, b in zip(fx, fy)) <= gap


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
    """Pairs (x, from the iteration?): the vectors u and v after a few
    steps as doubles, and each of them with one coordinate nudged up or
    down by one ulp (a nudged 0 is subnormal, which needs Python ints)."""
    out = []
    for iters in (1, 3, 12):
        _, _, u, v, _ = value_iteration_raw(g, F(1, 10**8), iters, exact=False)
        for vec in (u, v):
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
            for x, iterate in witnesses(h):
                if iterate:
                    seen.add(h._scaled(x)[2].dtype.type)
                expected = verify_subharmonic(h, [F(t) for t in x])[0]
                assert h.is_subharmonic(x) == expected
                assert h.is_subharmonic([F(t) for t in x]) == expected
                outcomes.add(expected)
        # an exact tie at a float witness of the iteration
        x = witnesses(g)[0][0]
        h = tied(g, [F(t) for t in x])
        assert h.is_subharmonic(x)
    assert outcomes == {True, False}
    assert seen == {np.dtype(t).type for t in branches}


def test_integer_witness_check_validates_length(worked_game):
    with pytest.raises(ValidationError):
        worked_game.is_subharmonic([0.0, 0.0])


def test_rounded_witness_triggers_rational_rerun():
    # a pencil of value exactly 0 at every state: on the grid of K0 bits the
    # rounded-down iterate drifts to an Infeasible epsilon exit after 266
    # steps, whose witnesses fail their check (no strict certificate exists
    # at value 0); the rerun on the grid of 2 K0 bits runs to the budget,
    # and no false Infeasible verdict comes out
    g = game_from_pencil(gen_random(GenSpec(3, 3, 744536, 2)))
    assert set(game_value_bruteforce(g).chi) == {0}
    grid = g.operator(0, K0)
    status, iters, x, _, _ = _iterate(grid, g.n, F(1, 10**8), 3000)
    assert (status, iters, _certificate(grid[2], x)) == ("infeasible", 266, None)
    report = check_feasibility(g, max_iters=3000)
    assert (report.verdict, report.iterations, report.bits, report.exit) == \
        ("Indeterminate", 3000, 2 * K0, "budget")


@pytest.mark.parametrize("reward, max_iters, dtype", [
    (17 * 10**307, 10**6, object),  # F(0) = -3.4e308 would overflow doubles
    (10**400, 10**6, object),  # past the largest double
    (2**40, 10**6, np.int64),
    (2**40, 2**200, np.int64),  # the bound counts the steps to the next check
], ids=["sum-overflows", "reward-overflows", "fits", "budget-overflows"])
def test_the_loop_runs_in_doubles_only_where_none_can_overflow(
        reward, max_iters, dtype, kernel_dtypes):
    # the loop makes no doubles at all: it runs in int64 where no int64 can
    # overflow and in Python ints otherwise.  F(x) = x - 2 reward:
    # Infeasible after one step
    report = check_feasibility(cycle_game(-reward, -reward), max_iters=max_iters)
    assert (report.verdict, report.iterations, report.witness, report.bits) == \
        ("Infeasible", 1, (-2 * reward,), K0)
    assert set(kernel_dtypes) == {np.dtype(dtype)}


# ---------------------------------------------------------------------------
# the certificate stop
# ---------------------------------------------------------------------------

RUNNING_MARGIN = F(1, 28)  # the running example's value per Shapley step


def digits(t: Fraction) -> int:
    return len(str(abs(t.numerator))) + len(str(t.denominator))


# an epsilon of 0 as a double runs the loop in rationals
UNDERFLOWING = F(1, 10**400)


@pytest.mark.parametrize("exact", [False, True], ids=["double", "exact"])
@pytest.mark.parametrize("side", [1, -1], ids=["above", "below"])
@pytest.mark.parametrize("k", range(3, 10))
def test_near_boundary_is_decided_by_a_checked_iterate(worked_game, k, side,
                                                       exact):
    # the running example with value +-10^-k per step: the epsilon exits
    # would need about 7 * 10^(k-1) steps, and from k = 7 on more than the
    # default max_iters
    g = shift_of_the_tuples(worked_game, side * F(1, 10**k) - RUNNING_MARGIN)
    report = check_feasibility(g, epsilon=UNDERFLOWING if exact else F(1, 10**8))
    assert report.verdict == ("Feasible" if side > 0 else "Infeasible")
    assert report.exit == "certificate"
    assert FIRST_CHECK <= report.iterations <= 2 * FIRST_CHECK
    if side > 0:
        assert verify_subharmonic(g, report.witness)[0]
    else:
        assert _superharmonic(g, report.witness, 0) == (True, True)
    assert report.bits == K0
    assert max(map(digits, report.witness)) < 100


def two_cycles(a, b):
    """Two one-state cycles, F(x) = (a + x_0, b + x_1) exactly.  Min pays
    a - 1/3 and Max receives 1/3 on each, so the doubles round."""
    return StochGame(2, 2, (
        (MinAction((0,), F(a) - F(1, 3)),),
        (MinAction((1,), F(b) - F(1, 3)),),
    ), (
        (MaxAction(0, F(1, 3)),),
        (MaxAction(1, F(1, 3)),),
    ))


def test_certificate_is_decided_in_integers():
    # u = (1/2, 1/2) on the grid of K0 bits, in int64 and in Python ints;
    # a tie in one entry is subharmonic, but not strictly superharmonic
    for dtype in (np.int64, object):
        cases = [((0, 1), "feasible"), ((0, -1), None), ((0, 0), "feasible"),
                 ((-1, -1), "infeasible"), ((1, -1), None)]
        for (a, b), expected in cases:
            scale, _, step = two_cycles(a, b).operator(0, K0)
            u = np.array([scale // 2] * 2, dtype=dtype)
            assert _certificate(step, u) == expected
    # gaps of half a unit, which the floor step rounds: F(u)_0 = (u_0 +
    # u_1) / 2 and F(u)_1 = u_1 + r, at u = (0, +-1) units
    for r, u1, expected in ((0, 1, "feasible"), (0, -1, None),
                            (-1, -1, "infeasible")):
        g = StochGame(2, 2, ((MinAction((0, 1), F(0)),), (MinAction((1,), F(r)),)),
                      ((MaxAction(0, F(0)),), (MaxAction(1, F(0)),)))
        step = g.operator(0, K0)[2]
        assert _certificate(step, np.array([0, u1])) == expected


@pytest.mark.parametrize("exact", [False, True], ids=["double", "exact"])
def test_checks_come_at_doublings_of_the_first(exact, monkeypatch):
    # value 0 at state 0, where nothing settles the iterate, and -1/2 per
    # step at state 1: u = (0, -t/2) is subharmonic at no step t, strictly
    # superharmonic at none, and never within the epsilon exits; on the
    # grid of K0 bits ("double", the default) and of max_iters bits
    g = two_cycles(0, F(-1, 2))
    scale = g.operator(0, 1000 if exact else K0)[0]
    checked = []
    certificate = shapley._certificate

    def counted(step, x, fx=None):
        checked.append(F(max(map(abs, x.tolist())), scale) * 2)  # 2 |u_1| = t
        return certificate(step, x, fx)

    monkeypatch.setattr(shapley, "_certificate", counted)
    status, iters, *_ = value_iteration_raw(g, F(1, 10**8), 1000, exact)
    assert (status, iters) == ("indeterminate", 1000)
    assert checked == [64, 128, 256, 512]


def test_a_step_calls_the_kernel_once(monkeypatch):
    # the same 1 000-step run: a failed check's step is the next iterate,
    # so the four checks at 64, ..., 512 add no kernel call
    calls = []
    apply = StochGame._apply

    def counted(self, x, max_r, min_r, halve=True):
        calls.append(len(x))
        return apply(self, x, max_r, min_r, halve)

    monkeypatch.setattr(StochGame, "_apply", counted)
    status, iters, *_ = value_iteration_raw(two_cycles(0, F(-1, 2)),
                                            F(1, 10**8), 1000, False)
    assert (status, iters, len(calls)) == ("indeterminate", 1000, 1000)


# ---------------------------------------------------------------------------
# the epsilon tests of the loop
# ---------------------------------------------------------------------------

def every_step_iterate(grid, n, epsilon, max_iters):
    """The loop with an epsilon test at every step and a check whose step
    is discarded: the reference of ``_iterate``."""
    scale, reach, step = grid
    bound = math.ceil(epsilon * scale)
    x = shapley._widened(np.zeros(n, dtype=np.int64), reach * FIRST_CHECK)
    v = x.copy()
    iters, checkpoint = 0, FIRST_CHECK
    while x.max() > -bound and x.min() < bound:
        if iters == checkpoint:
            status = _certificate(step, x)
            if status is not None:
                return status, iters, x, x, "certificate"
            x = shapley._widened(x, reach * checkpoint)
            v = v.astype(x.dtype, copy=False)
            checkpoint *= 2
        if iters >= max_iters:
            return "indeterminate", iters, x, v, "budget"
        np.maximum(v, x, out=v)
        x = step(x)
        iters += 1
    verdict = "infeasible" if x.max() <= -bound else "feasible"
    return verdict, iters, x, v, "epsilon"


def swapped(a):
    """F(x) = (a + x_1, x_0 - a): from 0 the iterate alternates between
    (a, -a) and (-a, a), across the epsilon band, so every step is tested."""
    return StochGame(2, 2, ((MinAction((0,), F(a)),), (MinAction((1,), F(-a)),)),
                     ((MaxAction(1, F(0)),), (MaxAction(0, F(0)),)))


def settling():
    """F(x) = (min(x_0 + 1, x_1 + 1/2), x_1): the iterate is the fixed
    point (1/2, 0) from step 1 on, a move of 0."""
    return StochGame(2, 2, ((MinAction((0,), F(1)), MinAction((1,), F(1, 2))),
                            (MinAction((1,), F(0)),)),
                     ((MaxAction(0, F(0)),), (MaxAction(1, F(0)),)))


def loop_corpus(worked_game):
    """(game, epsilon, max_iters) runs of every kind of stop."""
    for side in (1, -1):  # the running example at value +-10^-5 per step
        g = shift_of_the_tuples(worked_game, side * F(1, 10**5) - RUNNING_MARGIN)
        for max_iters in (0, 63, 64, 65, 200):
            yield g, F(1, 10**8), max_iters
    rng = random.Random(23)
    for grid in (2, 8, 2**10, 2**31):
        for _ in range(25):
            spec = GenSpec(rng.randint(1, 8), rng.randint(2, 6),
                           rng.randrange(10**6), grid)
            g = game_from_pencil(gen_random(spec))
            for max_iters in (0, 1, 63, 64, 65, 200, 3000):
                yield g, F(1, 10**8), max_iters
            yield g, F(1, 100), 3000
    for p in range(3, 40):  # the 10^8 family
        a = 10**8 + F(1, p)
        for q in range(3, 40):
            yield game_from_pencil(one_variable(a + F(1, q), a - F(1, q), a)), \
                F(1, 10**8), 10**6
    c = (2**46 - 1) // 3 + 1  # widens at step 128, from test_certify
    wide = StochGame(2, 2, ((MinAction((0,), F(c)),), (MinAction((1,), F(-c)),)),
                     ((MaxAction(0, F(0)),), (MaxAction(1, F(0)),)))
    # F(x) = x +- 1/256 moves by exactly 1/256 per step, and reaches the
    # exit +-1/16 in exactly 16 steps: the last quiet step is the one
    # before the exit
    drifts = [cycle_game(d, d) for d in (F(1, 512), F(-1, 512))]
    for g in (wide, cycle_game(-2**51, -2**51), two_cycles(2**51, -2**51),
              settling(), swapped(F(1, 3)), two_cycles(0, F(-1, 2)), *drifts):
        for max_iters in (0, 1, 63, 64, 65, 127, 128, 129, 200, 1000):
            for epsilon in (F(1, 10**8), F(1, 16)):
                yield g, epsilon, max_iters


def test_epsilon_tests_where_an_exit_can_come_change_no_run(worked_game):
    # _iterate skips the epsilon tests that no exit can pass and reuses the
    # check's step: the same stop, step count, iterates and dtypes as the
    # loop that tests every step
    def comparable(run):
        return [(t.dtype, t.tolist()) if isinstance(t, np.ndarray) else t
                for t in run]

    stops = set()
    for g, epsilon, max_iters in loop_corpus(worked_game):
        grid = g.operator(0, K0)
        got = _iterate(grid, g.n, epsilon, max_iters)
        want = every_step_iterate(grid, g.n, epsilon, max_iters)
        assert comparable(got) == comparable(want), (g, epsilon, max_iters)
        stops.add((got[0], got[4], got[2].dtype.type))
    assert {s[:2] for s in stops} == {
        ("feasible", "epsilon"), ("infeasible", "epsilon"),
        ("feasible", "certificate"), ("infeasible", "certificate"),
        ("indeterminate", "budget")}
    assert {s[2] for s in stops} == {np.int64, np.object_}


# ---------------------------------------------------------------------------
# checked epsilon exits
# ---------------------------------------------------------------------------

def one_variable(q11, q22, q12):
    """The 1 x 2 pencil with diagonal moduli q11, q22 and off-diagonal
    modulus q12 (tropically negative)."""
    return Pencil.from_entries(1, 2, [
        (0, 0, 0, SignedTrop.pos(q11)), (0, 0, 1, SignedTrop.neg(q12)),
        (0, 1, 1, SignedTrop.pos(q22))])


def assert_agrees_with_policy_enumeration(P):
    """check_feasibility decides P's game, as policy enumeration does, with
    a witness that passes its check; returns the report."""
    g = game_from_pencil(P)
    report = check_feasibility(g)
    nontrivial = solve_tmsdfp(P).status == "Nontrivial"
    assert report.verdict == ("Feasible" if nontrivial else "Infeasible"), P
    if nontrivial:
        assert verify_subharmonic(g, report.witness)[0]
    else:
        assert _superharmonic(g, report.witness, 0) == (True, True)
    return report


@pytest.mark.parametrize("p", range(3, 40))
def test_moduli_near_10_to_the_8_agree_with_policy_enumeration(p):
    # a = 10^8 + 1/p, Q11 and Q22 = a +- 1/q, Q12 = -a: doubles round the
    # thirds, fifths, ... of these moduli, and without the Infeasible check
    # 176 of the 1 369 pencils came out Infeasible although feasible
    a = 10**8 + F(1, p)
    for q in range(3, 40):
        assert_agrees_with_policy_enumeration(
            one_variable(a + F(1, q), a - F(1, q), a))


@pytest.mark.parametrize("base", [2**53 - 1, 2**53, 2**53 + 1, 2**60 + 1,
                                  2**64 + 1, 10**20 + 1])
def test_moduli_near_and_above_2_to_the_53_agree_with_policy_enumeration(base):
    # numerators at and beyond the double mantissa: at 2^53 + 1 a loop in
    # doubles misjudges 90 of these 324 pencils; the grid of K0 bits
    # decides every one
    widths = set()
    for p in range(3, 9):
        a = base + F(1, p)
        for q in range(3, 9):
            for d in (-1, 0, 1):
                widths.add(assert_agrees_with_policy_enumeration(
                    one_variable(a + F(1, q) + d, a - F(1, q), a)).bits)
    assert widths == {K0}


# generated pencils whose Infeasible exit ends at an iterate u that is not
# strictly superharmonic; the tilted running minimum is.  The first is in
# the sweep of criterion 10; on the others, over the grid 1/8, the untilted
# running minimum was not strictly superharmonic either.
U_FAILS = [GenSpec(10, 5, 2549989531), GenSpec(3, 5, 46, 8),
               GenSpec(5, 5, 13, 8), GenSpec(5, 5, 46, 8),
               GenSpec(10, 5, 54, 8)]


@pytest.mark.parametrize("spec", U_FAILS, ids=lambda s: f"{s.n}x{s.m}-{s.seed}")
def test_infeasible_exit_is_certified_by_the_tilted_minimum(spec):
    g = game_from_pencil(gen_random(spec))
    grid = g.operator(0, K0)
    status, iters, x, _, _ = _iterate(grid, g.n, F(1, 10**8), 10**6)
    assert (status, _certificate(grid[2], x)) == ("infeasible", None)
    report = check_feasibility(g)
    assert (report.verdict, report.iterations, report.bits, report.exit) == \
        ("Infeasible", iters, K0, "epsilon")
    assert _superharmonic(g, report.witness, 0) == (True, True)


@pytest.mark.parametrize("exact", [False, True], ids=["double", "exact"])
@pytest.mark.parametrize("spec", U_FAILS[:3], ids=lambda s: f"{s.n}x{s.m}-{s.seed}")
def test_tilted_minimum_is_rounded_down_to_its_grid(spec, exact):
    # z is the tilted minimum min_s (u_s + s delta) of the run's iterates,
    # delta = epsilon / t, rounded down to the coarsest grid S' = S 2^j
    # with delta S' >= 2; the run on the grid of K0 bits ("double", the
    # default) or of t bits, where it is exact
    g = game_from_pencil(gen_random(spec))
    epsilon = F(1, 10**8)
    t = _iterate(g.operator(0, K0), g.n, epsilon, 10**6)[1]
    bits = t if exact else K0
    grid = g.operator(0, bits)
    scale, _, step = grid
    assert _iterate(grid, g.n, epsilon, 10**6)[1] == t
    z, (fine, _, fine_step) = _tilted_min(g, t, epsilon, bits)
    delta = epsilon / t
    assert fine % scale == 0 and delta * fine >= 2
    assert fine == scale or delta * fine < 4
    x, exact_u = np.zeros(g.n, dtype=object), (F(0),) * g.n
    reference = list(exact_u)
    for s in range(1, t):
        x, exact_u = step(x), apply_F(g, exact_u)
        u = tuple(F(xk, scale) for xk in x.tolist())
        assert u == exact_u if exact else all(map(F.__le__, u, exact_u))
        reference = [min(r, uk + s * delta) for r, uk in zip(reference, u)]
    assert z.tolist() == [math.floor(r * fine) for r in reference]
    assert _certificate(fine_step, z) == "infeasible"
