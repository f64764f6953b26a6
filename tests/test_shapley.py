"""The Shapley operator and value-iteration feasibility checking."""

import contextlib
import functools
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
from tropsdp.errors import CertificateInvalid
from tropsdp.certify import (_check_pair, margin_certificate,
                             verify_superharmonic)
from tropsdp.markov import chain_from_policies
from tropsdp import shapley
from tropsdp.shapley import (
    GUARANTEED,
    K0,
    UNKNOWN,
    _iterate,
    _snapped,
    _tilted_min,
    _to_fractions,
    recession,
    structural_constant_value_check,
    value_iteration_raw,
)
from tropsdp.tropical import MINUS_INF

from conftest import (certificate_of, dyadic_rationals,
                      first_checked_certificate, floor_of_F, games,
                      shift_of_the_tuples, small_rationals, sparse_json_games,
                      trop_points)

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

def test_worked_example_feasible_in_eight_iterations(worked_game):
    # the iterate of step 8, (161/256, -209/512, 713/1024), is strictly
    # subharmonic, and its slack puts it on the grid 1/32
    report = check_feasibility(worked_game)
    assert report.verdict == "Feasible"
    assert report.iterations == 8
    assert report.witness == (F(5, 8), F(-13, 32), F(11, 16))
    assert (report.exit, report.bits) == ("certificate", K0)
    fw = apply_F(worked_game, report.witness)
    assert all(a <= b for a, b in zip(report.witness, fw))


def test_exact_engine_matches_on_worked_example(worked_game):
    # the exact run holds F^t(0) itself; both stop at the certificate of
    # step 8, and the K0 grid rounds nothing in its first K0 steps, so
    # both return the same iterate
    fast = check_feasibility(worked_game)
    status, iters, u, v, _ = value_iteration_raw(
        worked_game, None, 10**6, exact=True)
    assert (fast.verdict, fast.iterations, status) == ("Feasible", iters, "feasible")
    assert (iters, fast.bits) == (K0, K0)
    assert u == v == fast.witness


def test_negative_cycle_is_infeasible():
    report = check_feasibility(cycle_game(-1, 0))
    assert report.verdict == "Infeasible"
    assert report.iterations == 1
    assert report.witness == (F(-1),)


def test_values_of_both_signs_are_indeterminate(both_signs_pencil):
    report = check_feasibility(game_from_pencil(both_signs_pencil), max_iters=50)
    assert report.verdict == "Indeterminate"
    assert report.iterations == 50
    assert report.witness == (F(50), F(-100))
    assert report.exit == "budget"


@pytest.mark.parametrize("decide", [
    lambda G: check_feasibility(G, 0),
    lambda G: margin_certificate(G, F(1, 100), -5),
], ids=["check-zero", "certificate-negative"])
def test_a_budget_below_one_step_is_refused(worked_game, decide):
    with pytest.raises(ValidationError, match="^max_iters must be at least 1, got"):
        decide(worked_game)


def test_zero_cycle_is_decided_at_the_first_check(monkeypatch):
    # F(0) = 0: the iterate 0 is subharmonic, though it never climbs above
    # 0; the certificate stop proved that in integers, so the witness is not
    # checked a second time: one check, at step 1, after the kernel call of
    # the first step and the check's own step
    calls, checked = [], []
    apply, bracket = StochGame._apply, shapley._bracket

    def applied(self, x, max_r, min_r, halve=True):
        calls.append(len(x))
        return apply(self, x, max_r, min_r, halve)

    def counted(x, fx):
        checked.append(len(calls))
        return bracket(x, fx)

    monkeypatch.setattr(StochGame, "_apply", applied)
    monkeypatch.setattr(shapley, "_bracket", counted)
    report = check_feasibility(cycle_game(0, 0))
    assert report.verdict == "Feasible"
    assert report.iterations == 1
    assert report.witness == (F(0),)
    assert report.exit == "certificate"
    assert checked == [2]
    assert len(calls) == 2


def test_raw_iteration_exposes_running_envelopes():
    # the iterate alternates between (1, -1) and (-1, 1) while it drifts up
    # by d per step, so no checked iterate is a certificate; u_1 = (1 + d,
    # -1 + d) and u_2 = (2 d, 2 d) are >= 0 between them, so the running
    # maximum max(u_0, u_1) = (1 + d, 0) stops the loop at step 1, and the
    # raw loop returns it in both vector slots
    d = F(1, 10**8) / 20
    for exact in (False, True):
        assert value_iteration_raw(swapped(1, d), None, 10**6, exact=exact) \
            == ("feasible", 1, (1 + d, 0), (1 + d, 0), None)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_double_engine_agrees_with_exact_on_dyadic_games(data):
    # the default engine (the grid of K0 bits, which replaced the doubles)
    # rounds nothing in its first K0 steps: there it equals the exact run
    g = data.draw(games(rewards=dyadic_rationals))
    fast = value_iteration_raw(g, None, K0, exact=False)
    slow = value_iteration_raw(g, None, K0, exact=True)
    assert fast == slow


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_exact_kernel_matches_apply_F(data):
    # on the grid of 8 bits the first 8 steps from 0 round nothing: the
    # integer kernel against the operator on the tuples
    g = data.draw(games())
    scale, _, step = g.operator(0, 1 << 8)
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
    scale, reach, step = g.operator(lam, 1 << bits)
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
    # Python ints, with lambda of both signs: a property of the operator
    # (Crandall and Tartar, Proc. AMS 1980), as the step is monotone and
    # commutes with integer shifts
    scale, reach, step = g.operator(sign * lam, 1 << bits)
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
    """Pairs (x, from the iteration?): the loop's vector after a few
    steps as doubles, and each of them with one coordinate nudged up or
    down by one ulp (a nudged 0 is subnormal, which needs Python ints),
    each double as its exact Fraction."""
    out = []
    for iters in (1, 3, 12):
        u = value_iteration_raw(g, None, iters, exact=False)[2]
        base = np.array([float(t) for t in u])
        out.append((base, True))
        for k in range(g.n):
            for toward in (np.inf, -np.inf):
                nudged = base.copy()
                nudged[k] = np.nextafter(nudged[k], toward)
                out.append((nudged, False))
    return [([F(t) for t in x.tolist()], iterate) for x, iterate in out]


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
                    seen.add(_check_pair(h, x, 0)[0].dtype.type)
                expected = all(t <= f for t, f in zip(x, apply_F(h, x)))
                assert verify_subharmonic(h, x)[0] == expected
                outcomes.add(expected)
        # an exact tie at a float witness of the iteration
        x = witnesses(g)[0][0]
        h = tied(g, x)
        assert verify_subharmonic(h, x) == (True, False)
    assert outcomes == {True, False}
    assert seen == {np.dtype(t).type for t in branches}


def test_integer_witness_check_validates_length(worked_game):
    with pytest.raises(ValidationError, match="point has 2 coordinates, expected 3"):
        verify_subharmonic(worked_game, [F(0), F(0)])


def test_rounded_witness_triggers_rational_rerun():
    # a pencil of value exactly 0 at every state: on the grid of K0 bits the
    # rounded-down iterate drifts below 0 in every entry by the check at
    # step 512, where neither it nor its tilted minimum passes its check (no
    # strict certificate exists at value 0); the rerun on the grid of 2 K0
    # bits runs to the budget, and no false Infeasible verdict comes out
    g = game_from_pencil(gen_random(GenSpec(3, 3, 744536, 2)))
    assert set(game_value_bruteforce(g).chi) == {0}
    grid = g.operator(0, 1 << K0)
    status, iters, x, stop, _ = _iterate(grid, g.n, 3000)
    assert (status, iters, stop) == ("infeasible", 512, "tilted-min")
    z, fine = _tilted_min(g, grid, iters, -int(x.max()), K0)
    assert certificate_of(grid[2], x) is None
    assert certificate_of(fine[2], z) is None
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


@pytest.mark.parametrize("exact", [False, True], ids=["double", "exact"])
@pytest.mark.parametrize("side", [1, -1], ids=["above", "below"])
@pytest.mark.parametrize("k", range(3, 10))
def test_near_boundary_is_decided_by_a_checked_iterate(worked_game, k, side,
                                                       exact):
    # the running example with value +-10^-k per step: the iterate reaches
    # +-10^-8 in every entry only after about 7 * 10^(k-1) steps, yet a
    # checked iterate decides at step 16 or 32, the first whose iterate is
    # a certificate on the grid of K0 bits ("double", where the run goes)
    # and on the grid of 1024 bits ("exact", where the orbit is F^t(0))
    g = shift_of_the_tuples(worked_game, side * F(1, 10**k) - RUNNING_MARGIN)
    report = check_feasibility(g)
    assert report.verdict == ("Feasible" if side > 0 else "Infeasible")
    assert report.exit == "certificate"
    grid = g.operator(0, 1 << (1024 if exact else K0))
    stop, status = first_checked_certificate(grid, g.n, 1024)
    assert (report.iterations, status) == (stop, report.verdict.lower())
    if side > 0:
        assert verify_subharmonic(g, report.witness)[0]
    else:
        assert verify_superharmonic(g, report.witness) == (True, True)
    assert report.bits == K0
    assert max(map(digits, report.witness)) < 100


def test_near_boundary_stops_at_step_32_after_34_kernel_calls(worked_game,
                                                               monkeypatch):
    # the running example at value +-10^-5 per step: the checks at 1, ...,
    # 16 fail, and each one's step is the next iterate; the check at 32
    # passes with one kernel call of its own, and the snapped witness's
    # check makes one more
    calls = []
    apply = StochGame._apply

    def counted(self, x, max_r, min_r, halve=True):
        calls.append(len(x))
        return apply(self, x, max_r, min_r, halve)

    monkeypatch.setattr(StochGame, "_apply", counted)
    for side in (1, -1):
        g = shift_of_the_tuples(worked_game, side * F(1, 10**5) - RUNNING_MARGIN)
        calls.clear()
        report = check_feasibility(g)
        assert (report.exit, report.iterations, len(calls)) == \
            ("certificate", 32, 34)


@settings(max_examples=80, deadline=None)
@given(g=games(), lam=small_rationals, bits=st.integers(0, K0))
def test_certificate_bounds_persist_along_the_orbit(g, lam, bits):
    # the step is monotone and commutes with integer shifts, so X + c <=
    # step(X) gives step(X) + c <= step(step(X)): along the orbit of 0,
    # min(step(X) - X) never falls and max(step(X) - X) never rises, and a
    # certificate at one step is one at every later step
    step = g.operator(lam, 1 << bits)[2]
    x = np.zeros(g.n, dtype=object)
    low, high = -math.inf, math.inf
    for _ in range(40):
        fx = step(x)
        moves = (fx - x).tolist()
        assert low <= min(moves) and max(moves) <= high
        low, high, x = min(moves), max(moves), fx


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
            scale, _, step = two_cycles(a, b).operator(0, 1 << K0)
            u = np.array([scale // 2] * 2, dtype=dtype)
            assert certificate_of(step, u) == expected
    # gaps of half a unit, which the floor step rounds: F(u)_0 = (u_0 +
    # u_1) / 2 and F(u)_1 = u_1 + r, at u = (0, +-1) units
    for r, u1, expected in ((0, 1, "feasible"), (0, -1, None),
                            (-1, -1, "infeasible")):
        g = StochGame(2, 2, ((MinAction((0, 1), F(0)),), (MinAction((1,), F(r)),)),
                      ((MaxAction(0, F(0)),), (MaxAction(1, F(0)),)))
        step = g.operator(0, 1 << K0)[2]
        assert certificate_of(step, np.array([0, u1])) == expected


@pytest.mark.parametrize("exact", [False, True], ids=["double", "exact"])
def test_checks_come_at_doublings_of_the_first(exact, monkeypatch):
    # value 0 at state 0, where nothing settles the iterate, and -1/2 per
    # step at state 1: u = (0, -t/2) is subharmonic at no step t, strictly
    # superharmonic at none, and neither >= 0 nor < 0 in every entry, so
    # only the iterate is tested; on the grid of K0 bits ("double", the
    # default) and of max_iters bits
    g = two_cycles(0, F(-1, 2))
    scale = g.operator(0, 1 << (1000 if exact else K0))[0]
    checked = []
    bracket = shapley._bracket

    def counted(x, fx):
        checked.append(F(max(map(abs, x.tolist())), scale) * 2)  # 2 |u_1| = t
        return bracket(x, fx)

    monkeypatch.setattr(shapley, "_bracket", counted)
    status, iters, *_ = value_iteration_raw(g, None, 1000, exact)
    assert (status, iters) == ("indeterminate", 1000)
    assert checked == [1 << k for k in range(1000 .bit_length())]


def test_a_step_calls_the_kernel_once(monkeypatch):
    # the same 1 000-step run: a failed check's step is the next iterate,
    # so the ten checks at 1, 2, 4, ..., 512 add no kernel call
    calls = []
    apply = StochGame._apply

    def counted(self, x, max_r, min_r, halve=True):
        calls.append(len(x))
        return apply(self, x, max_r, min_r, halve)

    monkeypatch.setattr(StochGame, "_apply", counted)
    status, iters, *_ = value_iteration_raw(two_cycles(0, F(-1, 2)),
                                            None, 1000, False)
    assert (status, iters, len(calls)) == ("indeterminate", 1000, 1000)


# ---------------------------------------------------------------------------
# the stops of the loop
# ---------------------------------------------------------------------------

def every_step_iterate(grid, n, max_iters):
    """The loop that keeps every iterate and steps each one on its own:
    the reference of ``_iterate``.  At every step it asserts that
    min(step(X) - X) has not fallen and max(step(X) - X) has not risen, so
    that a certificate persists.  At every check after 1, 2, 4, ... steps
    it asserts that the iterate passes iff some iterate so far was a
    certificate, and that the running maximum max(X_0, ..., X_c) passes
    wherever max(X_1, ..., X_(c+1)) >= 0 in every entry.  Returns what
    ``_iterate`` returns, the bracket of the stop's vector included."""
    reach, step = grid[1:]
    x = shapley._widened(np.zeros(n, dtype=np.int64), 2 * reach)
    orbit = [x]
    iters, checkpoint = 0, 1
    low, high, certified = -math.inf, math.inf, False
    while True:
        moves = step(x) - x
        assert low <= moves.min() and moves.max() <= high
        low, high = int(moves.min()), int(moves.max())
        certified = certified or low >= 0 or high < 0
        if iters == checkpoint:
            status = certificate_of(step, x)
            assert (status is not None) == certified
            if status is not None:
                return status, iters, x, "certificate", (low, high)
            v = functools.reduce(np.maximum, orbit).astype(x.dtype)
            if functools.reduce(np.maximum, orbit[1:] + [step(x)]).min() >= 0:
                assert certificate_of(step, v) == "feasible"
                return ("feasible", iters, v, "running-max",
                        shapley._bracket(v, step(v)))
            if x.max() < 0:
                return "infeasible", iters, x, "tilted-min", (low, high)
            x = shapley._widened(x, reach * (checkpoint + 1))
            checkpoint *= 2
        if iters >= max_iters:
            return "indeterminate", iters, x, "budget", None
        x = step(x)
        orbit.append(x)
        iters += 1


def swapped(a, drift=0):
    """F(x) = (a + x_1, x_0 - a) + drift: from 0 the iterate alternates
    between (a, -a) and (-a, a), and moves up by drift at each step.  F(u)
    - u is (a, -a) or (-a, a), plus drift, so while |drift| < a no iterate
    is a certificate; the running maximum is one from step 1 on."""
    return StochGame(2, 2, ((MinAction((0,), F(a) + drift),),
                            (MinAction((1,), F(-a) + drift),)),
                     ((MaxAction(1, F(0)),), (MaxAction(0, F(0)),)))


def settling():
    """F(x) = (min(x_0 + 1, x_1 + 1/2), x_1): the iterate is the fixed
    point (1/2, 0) from step 1 on, a move of 0."""
    return StochGame(2, 2, ((MinAction((0,), F(1)), MinAction((1,), F(1, 2))),
                            (MinAction((1,), F(0)),)),
                     ((MaxAction(0, F(0)),), (MaxAction(1, F(0)),)))


def loop_corpus(worked_game):
    """(game, max_iters) runs of every kind of stop."""
    for side in (1, -1):  # the running example at value +-10^-5 per step
        g = shift_of_the_tuples(worked_game, side * F(1, 10**5) - RUNNING_MARGIN)
        for max_iters in (0, 1, 2, 31, 32, 33, 200):
            yield g, max_iters
    rng = random.Random(23)
    for grid in (2, 8, 2**10, 2**31):
        for _ in range(25):
            spec = GenSpec(rng.randint(1, 8), rng.randint(2, 6),
                           rng.randrange(10**6), grid)
            g = game_from_pencil(gen_random(spec))
            for max_iters in (0, 1, 2, 3, 64, 200, 3000):
                yield g, max_iters
    for spec in (GenSpec(8, 5, 753276, 8), *U_FAILS):  # running-max, tilted-min
        yield game_from_pencil(gen_random(spec)), 3000
    for p in range(3, 40):  # the 10^8 family
        a = 10**8 + F(1, p)
        for q in range(3, 40):
            yield game_from_pencil(one_variable(a + F(1, q), a - F(1, q), a)), 10**6
    c = (2**52 - 1) // 193 + 1  # widens at step 128, from test_certify
    wide = StochGame(2, 2, ((MinAction((0,), F(c)),), (MinAction((1,), F(-c)),)),
                     ((MaxAction(0, F(0)),), (MaxAction(1, F(0)),)))
    for g in (wide, cycle_game(-2**51, -2**51), two_cycles(2**51, -2**51),
              settling(), swapped(F(1, 3)), two_cycles(0, F(-1, 2))):
        for max_iters in (0, 1, 63, 64, 65, 127, 128, 129, 200, 1000):
            yield g, max_iters


def comparable(run):
    return [(t.dtype, t.tolist()) if isinstance(t, np.ndarray) else t
            for t in run]


def test_checkpoint_stops_change_no_run(worked_game):
    # _iterate keeps only the running maximum of the orbit and reuses the
    # check's step: the same stop, step count, vector and dtype as the loop
    # that keeps every iterate, whose certificate stop is the first check
    # from the first certified iterate on
    stops = set()
    for g, max_iters in loop_corpus(worked_game):
        grid = g.operator(0, 1 << K0)
        got = _iterate(grid, g.n, max_iters)
        want = every_step_iterate(grid, g.n, max_iters)
        assert comparable(got) == comparable(want), (g, max_iters)
        stops.add((got[0], got[3], got[2].dtype.type))
    assert {s[:2] for s in stops} == {
        ("feasible", "running-max"), ("infeasible", "tilted-min"),
        ("feasible", "certificate"), ("infeasible", "certificate"),
        ("indeterminate", "budget")}
    assert {s[2] for s in stops} == {np.int64, np.object_}


@settings(max_examples=200, deadline=None)
@given(g=games(), lam=small_rationals, bits=st.integers(0, 8),
       max_iters=st.integers(0, 300))
def test_iterate_equals_the_loop_that_tests_every_step(g, lam, bits, max_iters):
    # random rewards and margins of both signs give orbits that stop at
    # every kind of checkpoint, with a running maximum far from the iterate
    grid = g.operator(lam, 1 << bits)
    assert comparable(_iterate(grid, g.n, max_iters)) == \
        comparable(every_step_iterate(grid, g.n, max_iters))


@settings(max_examples=400, deadline=None)
@given(g=games(), lam=small_rationals, bits=st.integers(0, 8))
def test_running_maximum_passes_wherever_its_gate_holds(g, lam, bits):
    # at every checkpoint c up to 64 where max(X_1, ..., X_(c+1)) >= 0 in
    # every entry, V_c = max(X_0, ..., X_c) passes its integer check, by
    # monotonicity of the floor step alone: step(V_c) >= max(X_1, ...,
    # X_(c+1)) >= V_c.  The run goes on past its stops, to reach every c.
    step = g.operator(lam, 1 << bits)[2]
    orbit = [np.zeros(g.n, dtype=object)]
    for _ in range(65):
        orbit.append(step(orbit[-1]))
    for c in (1, 2, 4, 8, 16, 32, 64):
        if functools.reduce(np.maximum, orbit[1:c + 2]).min() >= 0:
            v = functools.reduce(np.maximum, orbit[:c + 1])
            assert certificate_of(step, v) == "feasible"


@pytest.mark.parametrize("make, stop", [
    (lambda: game_from_pencil(gen_random(GenSpec(8, 5, 753276, 8))), 1),
    (lambda: list(sparse_json_games(7, 600))[215], 2),
], ids=["8x5-753276", "sparse-215"])
def test_running_maximum_decides_where_no_iterate_does(make, stop):
    # the iterate is a certificate at no check up to 10^4 steps, yet the
    # running maximum decides Feasible at the check whose own step is the
    # first iterate >= 0 in every entry: X_2 for the first game, X_3 for
    # the second
    g = make()
    report = check_feasibility(g, max_iters=10**4)
    assert (report.verdict, report.iterations, report.exit, report.bits) == \
        ("Feasible", stop, "running-max", K0)
    assert verify_subharmonic(g, report.witness)[0]
    assert first_checked_certificate(g.operator(0, 1 << K0), g.n, 10**4) is None


def test_running_maximum_is_checked_by_the_kernel():
    # a fake step that is not monotone: at step 1 the gate of the running
    # maximum holds, max(X_1, X_2) = (2, 1), but V_1 = (2, 0) is sent to
    # (0, 0), so V_1 fails its check and the loop goes on to the fixed
    # point X_2, a certificate at step 2
    table = {(0, 0): (2, -1), (2, -1): (1, 1), (2, 0): (0, 0)}

    def step(x):
        key = tuple(x.tolist())
        return np.array(table.get(key, key), dtype=x.dtype)

    step.bind = lambda dtype: step
    assert comparable(_iterate((1, 4, step), 2, 100)) == \
        comparable(("feasible", 2, np.array([1, 1]), "certificate", (0, 0)))


# ---------------------------------------------------------------------------
# checked stops
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
        assert verify_superharmonic(g, report.witness) == (True, True)
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


# generated pencils whose iterate, once < 0 in every entry, is not yet
# strictly superharmonic; the tilted running minimum is.  The first is in
# the sweep of criterion 10, and its iterate is a certificate by step 16;
# the others stop by the tilted minimum at step 2.  Over the grid 1/8 the
# untilted running minimum is not strictly superharmonic on them either.
U_FAILS = [GenSpec(10, 5, 2549989531), GenSpec(3, 5, 46, 8),
               GenSpec(5, 5, 13, 8), GenSpec(5, 5, 46, 8),
               GenSpec(10, 5, 54, 8)]


@pytest.mark.parametrize("spec", U_FAILS, ids=lambda s: f"{s.n}x{s.m}-{s.seed}")
def test_infeasible_exit_is_certified_by_the_tilted_minimum(spec):
    g = game_from_pencil(gen_random(spec))
    grid = g.operator(0, 1 << K0)
    status, iters, x, stop, _ = _iterate(grid, g.n, 10**6)
    assert (status, iters, stop) == \
        (("infeasible", 16, "certificate") if spec is U_FAILS[0]
         else ("infeasible", 2, "tilted-min"))
    assert x.max() < 0
    assert (certificate_of(grid[2], x) is None) == (stop == "tilted-min")
    report = check_feasibility(g)
    assert (report.verdict, report.iterations, report.bits, report.exit) == \
        ("Infeasible", iters, K0, stop)
    assert verify_superharmonic(g, report.witness) == (True, True)


@pytest.mark.parametrize("exact", [False, True], ids=["double", "exact"])
@pytest.mark.parametrize("spec", U_FAILS[:3], ids=lambda s: f"{s.n}x{s.m}-{s.seed}")
def test_tilted_minimum_is_rounded_down_to_its_grid(spec, exact):
    # z is the tilted minimum min_s (u_s + s delta) of the run's iterates,
    # delta = M / t for M = -max u_t, rounded down to the coarsest grid S' =
    # S 2^j with delta S' >= 2; the run on the grid of K0 bits ("double",
    # the default) or of t bits, where it is exact
    g = game_from_pencil(gen_random(spec))
    t = _iterate(g.operator(0, 1 << K0), g.n, 10**6)[1]
    bits = t if exact else K0
    grid = g.operator(0, 1 << bits)
    scale, _, step = grid
    _, stop, x, *_ = _iterate(grid, g.n, 10**6)
    assert stop == t
    z, (fine, _, fine_step) = _tilted_min(g, grid, t, -int(x.max()), bits)
    delta = F(-int(x.max()), scale) / t
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
    assert certificate_of(fine_step, z) == "infeasible"


# ---------------------------------------------------------------------------
# snapped witnesses
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def snaps():
    """Every call of ``shapley._snapped`` in the block, as (args, result,
    the kernel calls it made)."""
    seen, snapped, apply = [], shapley._snapped, StochGame._apply
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return apply(self, *args, **kwargs)

    def recorded(*args):
        before = len(calls)
        seen.append((args, snapped(*args)))
        seen[-1] += (len(calls) - before,)
        return seen[-1][1]

    shapley._snapped, StochGame._apply = recorded, counted
    try:
        yield seen
    finally:
        shapley._snapped, StochGame._apply = snapped, apply


def slack_bound(scale, lo, hi):
    """The slack of u = X / S that a bracket (lo, hi) proves: lo / S where
    F(u) > lam + u, (-hi - 1/2) / S where F(u) < lam + u, as a step is the
    floor of a multiple of half a unit; <= 0 where u is not strict."""
    return F(lo, scale) if lo > 0 else F(-2 * hi - 1, 2 * scale)


def assert_snapped(seen, witness) -> bool:
    """The last snap of ``seen`` made ``witness`` from the stop's vector u =
    X / S of slack s: u rounded to the nearest multiple of 1/q for the least
    power of two q with q s > 1, with one kernel call to check it, unless u
    is not strict, q >= S or an entry's lowest denominator is below q and
    does not divide it, where it is u itself and no kernel call is made.  A
    strict witness passes its check strictly, and no entry of a snapped one
    has more digits than it had in u.  Returns whether u was snapped."""
    (G, lam, x, scale, bracket), got, calls = seen[-1]
    assert got == tuple(witness)
    u = tuple(F(t, scale) for t in x.tolist())
    s = slack_bound(scale, *bracket) if bracket else 0
    if s > 0:
        verify = verify_subharmonic if bracket[0] > 0 else verify_superharmonic
        assert verify(G, witness, lam) == (True, True)
        q = 1
        while q * s <= 1:
            q *= 2
        rounded = tuple(F(math.floor(t * q + F(1, 2)), q) for t in u)
    if s <= 0 or q >= scale or any(t.denominator < q and q % t.denominator
                                   for t in u):
        assert (got, calls) == (u, 0)
        return False
    assert (got, calls) == (rounded, 1)
    # its denominators divide q, and q / 2 would break q s > 1
    assert all(q % t.denominator == 0 for t in witness)
    assert q == 1 or q * s / 2 <= 1
    assert all(map(int.__le__, map(digits, witness), map(digits, u)))
    return True


@pytest.mark.parametrize("side", [1, -1], ids=["above", "below"])
@pytest.mark.parametrize("k", range(1, 7))
def test_tight_witnesses_snap_to_the_coarsest_grid(worked_game, k, side):
    # the running example at value +-10^-k per step, and at +-2 10^-k with
    # the margin +-10^-k: slack about 10^-k, on grids of 10^k or more
    g = shift_of_the_tuples(worked_game, side * F(1, 10**k) - RUNNING_MARGIN)
    with snaps() as seen:
        report = check_feasibility(g)
    assert report.verdict == ("Feasible" if side > 0 else "Infeasible")
    assert assert_snapped(seen, report.witness)
    g = shift_of_the_tuples(worked_game, side * F(2, 10**k) - RUNNING_MARGIN)
    with snaps() as seen:
        cert = margin_certificate(g, side * F(1, 10**k))
    assert cert.strict and assert_snapped(seen, cert.vector)


@settings(max_examples=300, deadline=None)
@given(g=games(), lam=small_rationals, max_iters=st.integers(1, 200))
def test_strict_witnesses_snap_to_the_coarsest_grid(g, lam, max_iters):
    # every stop goes through the snap, strict or not
    with snaps() as seen:
        report = check_feasibility(g, max_iters)
    assert len(seen) == 1
    assert_snapped(seen, report.witness)
    if lam != 0:
        with snaps() as seen:
            try:
                cert = margin_certificate(g, lam, max_iters)
            except CertificateInvalid:
                return
        assert_snapped(seen, cert.vector)


@pytest.mark.parametrize("make, stop, bracket", [
    (lambda g: shift_of_the_tuples(g, -RUNNING_MARGIN), 16, (0, 0)),
    (lambda g: swapped(1, F(1, 10**8) / 20), 1, (0, 512)),
], ids=["at-margin", "running-max"])
def test_witnesses_that_are_not_strict_are_not_snapped(worked_game, make,
                                                       stop, bracket):
    # the running example at value 0, whose iterate of step 16 is
    # subharmonic with lo = hi = 0, and the running maximum (1 + d, 0) of
    # ``swapped`` with lo = 0 < hi: no slack to round away
    g = make(worked_game)
    with snaps() as seen:
        report = check_feasibility(g)
    assert (report.verdict, report.iterations) == ("Feasible", stop)
    assert seen[-1][0][4] == bracket
    assert not assert_snapped(seen, report.witness)
    assert verify_subharmonic(g, report.witness) == (True, False)


def averaging(r, s):
    """F(x) = ((x_1 + x_2) / 2, x_1 + r, x_2 + s)."""
    return StochGame(3, 3, ((MinAction((1, 2), F(0)),), (MinAction((1,), r),),
                            (MinAction((2,), s),)),
                     tuple((MaxAction(i, F(0)),) for i in range(3)))


def test_a_witness_without_room_to_round_is_kept_unchecked():
    # F(u)_0 - u_0 = 1 unit of the grid S = 4 2^8 at u = (0, 0, 2) / S, so
    # q = 2 S: u is returned as it is, with no kernel call
    g = averaging(F(1, 4), F(1, 4))
    scale, _, step = g.operator(0, 1 << K0)
    x = np.array([0, 0, 2])
    bracket = shapley._bracket(x, step(x))
    assert (scale, bracket) == (1024, (1, 256))
    with snaps() as seen:
        assert shapley._snapped(g, 0, x, scale, bracket) == (0, 0, F(1, 512))
    assert not assert_snapped(seen, (0, 0, F(1, 512)))


def test_the_floor_step_hides_half_a_unit_of_slack():
    # on the grid S = 11 2^8, u = (15, 7, 18) / S has F(u)_0 - u_0 = -5/2
    # units, and the floor step makes it -3.  With -hi = 3 units of slack,
    # q = 1024 would round u to (5, 3, 7) / 1024, which is not strict; the
    # true 5/2 units need q = 2048, on which 18 / S = 9 / 1408 could gain
    # digits, so u stays as it is
    g = averaging(F(-1, 11), F(-1, 11))
    scale, _, step = g.operator(0, 1 << K0)
    x = np.array([15, 7, 18])
    lo, hi = shapley._bracket(x, step(x))
    assert (scale, hi) == (2816, -3)
    assert _snapped(g, 0, x, scale, (lo, hi)) == _to_fractions(x, scale)
    assert verify_superharmonic(g, (F(5, 1024), F(3, 1024), F(7, 1024))) == \
        (True, False)


def test_a_snapped_witness_that_fails_its_check_raises():
    # the check does not trust the bracket: u = 0 with F(u) = u, passed with
    # a bracket that claims a slack of 1, is rounded to the grid 1/2 and
    # then fails its strict check
    g = averaging(F(0), F(0))
    scale = g.operator(0, 1 << K0)[0]
    with pytest.raises(AssertionError, match="a snapped witness failed its check"):
        _snapped(g, 0, np.zeros(3, dtype=np.int64), scale, (scale, scale))
