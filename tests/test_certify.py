"""Certificates, their verification, and archimedean lift thresholds."""

import math
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tropsdp import (
    Certificate,
    CertificateInvalid,
    DeltaTooLarge,
    MaxAction,
    MinAction,
    StochGame,
    ValidationError,
    apply_F,
    archimedean_threshold,
    check_certificate,
    check_feasibility,
    game_from_pencil,
    margin_certificate,
    verify_subharmonic,
    verify_superharmonic,
)
from tropsdp.bench import GenSpec, gen_random
from tropsdp.certify import _check_pair
from tropsdp.cli import run
from tropsdp.game import INT64_ROOM
from tropsdp.pencil import int_array
from tropsdp.shapley import K0
from tropsdp.tropical import MINUS_INF

from conftest import (example_path, floor_of_F, games, shift_of_the_tuples,
                      small_rationals, trop_points)

F = Fraction


@pytest.fixture(scope="module")
def worked_game(running_pencil):
    return game_from_pencil(running_pencil)


@pytest.fixture(scope="module")
def losing_game():
    # single cycle losing 1 per full turn: value -1/2, margin -1
    return StochGame(
        1, 1,
        ((MinAction((0,), F(-1)),),),
        ((MaxAction(0, F(0)),),),
    )


# ---------------------------------------------------------------------------
# verification helpers
# ---------------------------------------------------------------------------

def test_iteration_witness_is_strictly_subharmonic(worked_game):
    v = check_feasibility(worked_game).witness
    assert verify_subharmonic(worked_game, v) == (True, True)
    assert verify_subharmonic(worked_game, v, lam=F(1)) == (False, False)


def test_verification_needs_finite_vectors(worked_game):
    with pytest.raises(ValidationError):
        verify_subharmonic(worked_game, (MINUS_INF, 0, 0))
    with pytest.raises(ValidationError):
        verify_superharmonic(worked_game, (0, MINUS_INF, 0), F(-1))


def assert_grid_step(G, lam, bits, X, reference):
    """The grid step of G at margin lam on the integers X equals
    reference, over Python ints, and over int64 where the bound allows."""
    _, reach, step = G.operator(lam, 1 << bits)
    assert step(np.array(X, dtype=object)).tolist() == reference
    if max(map(abs, X)) + reach < 2**62:
        out = step(np.array(X, dtype=np.int64))
        assert (out.dtype, out.tolist()) == (np.int64, reference)


def test_shifting_min_rewards_shifts_the_operator(worked_game):
    x = (F(1, 4), F(0), F(-2))
    scale, _, step = worked_game.operator(F(-5, 7), 1 << K0)
    assert scale == 28 * 2**K0
    assert step(np.array([t * scale for t in x], dtype=np.int64)).tolist() == \
        [math.floor((F(5, 7) + f) * scale) for f in apply_F(worked_game, x)]
    # subharmonicity at margin lam is plain subharmonicity after a -lam shift
    v = check_feasibility(worked_game).witness
    lam = F(1, 100)
    assert verify_subharmonic(worked_game, v, lam) == \
        verify_subharmonic(shift_of_the_tuples(worked_game, -lam), v)


@settings(max_examples=80, deadline=None)
@given(g=games(), data=st.data())
def test_integer_verification_matches_apply_F(g, data):
    # lam at the smallest and largest gap F(v) - v makes some coordinate tight
    v = data.draw(trop_points(g.n, allow_minus_inf=False))
    gaps = [b - a for a, b in zip(v, apply_F(g, v))]
    for lam in (min(gaps), max(gaps), data.draw(small_rationals)):
        assert verify_subharmonic(g, v, lam) == (all(lam <= t for t in gaps),
                                                 all(lam < t for t in gaps))
        assert verify_superharmonic(g, v, lam) == (all(t <= lam for t in gaps),
                                                   all(t < lam for t in gaps))


@pytest.mark.parametrize("r", [1, -2])
def test_the_check_keeps_the_half_units_of_F(r):
    # F(v) = ((v_0 + v_1) / 2, v_1 + r) at v = (0, 1) over the denominator
    # 1: a floor step on the grid 1 would round the gap 1/2 down to 0, and
    # the check's grid, twice that, holds it
    G = StochGame(2, 2, ((MinAction((0, 1), F(0)),), (MinAction((1,), F(r)),)),
                  ((MaxAction(0, F(0)),), (MaxAction(1, F(0)),)))
    v = [F(0), F(1)]
    gaps = [b - a for a, b in zip(v, apply_F(G, v))]
    assert gaps == [F(1, 2), F(r)]
    assert verify_subharmonic(G, v) == (min(gaps) >= 0, min(gaps) > 0)
    assert verify_superharmonic(G, v) == (max(gaps) <= 0, max(gaps) < 0)


@pytest.mark.parametrize("delta", [F(5, 7), F(-1, 100000), F(0), F(2**70, 3)])
def test_shift_on_the_arrays_equals_the_shift_of_the_tuples(worked_game, delta):
    # the grid step at margin -delta against the floor of the operator of
    # the game whose Min rewards were shifted by delta
    generated = game_from_pencil(gen_random(GenSpec(30, 4, seed=3)))
    rng = random.Random(7)
    for G in (worked_game, generated):
        expected = shift_of_the_tuples(G, delta)
        for bits in (0, K0):
            scale = G.operator(-delta, 1 << bits)[0]
            X = [rng.randint(-4 * scale, 4 * scale) for _ in range(G.n)]
            assert_grid_step(G, -delta, bits, X, floor_of_F(expected, X, scale))


# ---------------------------------------------------------------------------
# the margin inside the operator and the integer check
# ---------------------------------------------------------------------------

def widened(G, factor):
    """G with every reward numerator multiplied by factor over the same
    denominator: the rewards times factor."""
    wide = lambda p: int_array(p.astype(object) * factor)
    return StochGame.from_arrays(G.max_t, G.max_seg, wide(G.max_p), G.min_i,
                                 G.min_j, G.min_seg, wide(G.min_p), G.den)


def margin_corpus():
    """(game, v, lam) triples: grids 8 and 2^31, numerators past 2^63,
    margins of both signs with denominators up to 2^89 - 1, and vectors
    of doubles (as their exact Fractions), small fractions and fractions
    over large primes."""
    rng = random.Random(11)
    dens = [1, 3, 100, 2**31, 10**9 + 7, 2**61 - 1, 2**89 - 1]
    for seed in range(6):
        base = game_from_pencil(gen_random(GenSpec(
            rng.randint(1, 6), rng.randint(2, 5), seed, (8, 2**31)[seed % 2])))
        for G in (base, widened(base, 2**40 + 1)):
            for _ in range(8):
                q = rng.choice(dens)
                lam = F(rng.randint(-3 * q, 3 * q), q)
                vq = rng.choice(dens)
                v = rng.choice([
                    [F(rng.uniform(-2, 2)) for _ in range(G.n)],
                    [F(rng.randint(-4 * vq, 4 * vq), vq) for _ in range(G.n)],
                    [F(0)] * G.n])
                yield G, v, lam


def at_the_int64_bound(over):
    """(game, v, lam) whose largest shifted Min numerator is +-(2^63 - 1 +
    over): one Min reward +-1/q and lam = -+(2^63 - 2 + over)/q."""
    for q in (1, 3):
        for sign in (1, -1):
            G = StochGame(1, 1, ((MinAction((0,), F(sign, q)),),),
                          ((MaxAction(0, F(0)),),))
            yield G, [F(1, 2)], F(-sign * (2**63 - 2 + over), q)


def operator_corpus():
    yield from margin_corpus()
    for over in (0, 1):
        yield from at_the_int64_bound(over)


def test_operator_at_a_margin_equals_the_operator_of_the_shifted_tuples():
    # the grid step at margin lam, at v rounded down to the grid, against
    # the floor of F - lam and of the operator of the shifted tuples
    for G, v, lam in operator_corpus():
        scale = G.operator(lam, 1 << K0)[0]
        X = [math.floor(F(t) * scale) for t in v]
        reference = floor_of_F(G, X, scale, lam)
        assert floor_of_F(shift_of_the_tuples(G, -lam), X, scale) == reference
        assert_grid_step(G, lam, K0, X, reference)


def two_cycles(c):
    """F(x) = (x_0 + c, x_1 - c) over the denominator 1: the iterate
    grows like t c in both directions, and no checked iterate decides."""
    return StochGame(2, 2, ((MinAction((0,), F(c)),), (MinAction((1,), F(-c)),)),
                     ((MaxAction(0, F(0)),), (MaxAction(1, F(0)),)))


@pytest.mark.parametrize("over", [0, 1], ids=["int64", "object"])
def test_operator_at_the_int64_bound(over, kernel_dtypes):
    # on the grid 2^K0 a step moves the iterate by at most R = 2^(K0+1) c,
    # and at step 128 the bound |X| + 129 R on the steps to the next check
    # and that check's own step is 193 2^9 c: 2^61 - 177 2^9 for
    # c = (2^52 - 1) // 193, which stays in int64, and 2^61 + 2^13 for
    # c + 1, which goes on in Python ints
    c = (2**52 - 1) // 193 + over
    report = check_feasibility(two_cycles(c), max_iters=200)
    assert (report.verdict, report.iterations, report.exit) == \
        ("Indeterminate", 200, "budget")
    assert report.witness == (200 * c, -200 * c)
    widths = {np.int64, object} if over else {np.int64}
    assert set(kernel_dtypes) == set(map(np.dtype, widths))


def test_the_loop_widens_before_int64_could_overflow(monkeypatch):
    # rewards 2^51 over the grid 2^K0 leave no room for the first steps, so
    # the loop starts in Python ints; rewards 2^50 fit int64, and so do the
    # first iterates, but not for long.  The bound counts the growth to the
    # next check and that check's own step, so no int64 iterate X_t plus
    # (next check - t + 1) R reaches INT64_ROOM, and the loop widens at the
    # first check where one would, at step 2; with rewards 2^46 - 1 that
    # is step 64
    inputs, apply = [], StochGame._apply

    def recorded(self, x, max_r, min_r, halve=True):
        inputs.append((x.dtype, int(np.abs(x).max())))
        return apply(self, x, max_r, min_r, halve)

    monkeypatch.setattr(StochGame, "_apply", recorded)
    for c, widened in ((2**51, 0), (2**50, 2), (2**46 - 1, 64)):
        G = two_cycles(c)
        reach = G.operator(0, 1 << K0)[1]
        inputs.clear()
        report = check_feasibility(G, max_iters=100)
        assert report.witness == (100 * c, -100 * c)
        # one kernel call per step, on X_t: int64 up to the check at step
        # `widened`, then ints from its step X_(widened + 1) on; widened 0
        # is the start, before any int64 call
        assert len(inputs) == 100
        calls = widened + 1 if widened else 0
        dtypes = [dtype for dtype, _ in inputs]
        assert dtypes == [np.dtype(np.int64)] * calls + \
            [np.dtype(object)] * (100 - calls)
        next_check = max(2 * widened, 1)
        assert inputs[widened][1] + (next_check - widened + 1) * reach >= INT64_ROOM
        for t, (_, top) in enumerate(inputs[:calls]):
            next_check = 1 << max(t - 1, 0).bit_length()
            assert top + (next_check - t + 1) * reach < INT64_ROOM


def reference_pair(G, v, lam):
    return _check_pair(shift_of_the_tuples(G, -lam), v, 0)


def assert_checks_match_the_shifted_game(G, v, lam):
    """The pair (X, step(X)) of the check at margin lam, and the answers of
    both checks, equal those of the game whose Min rewards were shifted by
    -lam, at margin 0; returns the pair."""
    x, fx = _check_pair(G, v, lam)
    ref_x, ref_fx = reference_pair(G, v, lam)
    assert (x.tolist(), fx.tolist()) == (ref_x.tolist(), ref_fx.tolist())
    shifted = shift_of_the_tuples(G, -lam)
    assert verify_subharmonic(G, v, lam) == verify_subharmonic(shifted, v)
    assert verify_superharmonic(G, v, lam) == verify_superharmonic(shifted, v)
    return x, fx


def test_margin_check_equals_the_check_of_the_shifted_game():
    seen = set()
    for G, v, lam in margin_corpus():
        seen.add(assert_checks_match_the_shifted_game(G, v, lam)[1].dtype.type)
    assert seen == {np.int64, np.object_}


@pytest.mark.parametrize("over", [0, 1], ids=["int64", "object"])
def test_margin_check_at_the_int64_bound(over):
    # grid 8 and v = 0: the check's grid is S = 16, so X = 0 and R = 4 top
    # + 16 |lam|, and lam = (2^60 - 1 - 2 top) / 8 puts R at 2^61 - 2, the
    # last value that keeps |X| + R below INT64_ROOM = 2^61 and int64
    G = game_from_pencil(gen_random(GenSpec(4, 3, 5, 8)))
    assert (G.den, INT64_ROOM) == (8, 2**61)
    v = [F(0)] * G.n
    for sign in (1, -1):
        lam = sign * F(2**60 - 1 - 2 * G._top + over, 8)
        x, fx = assert_checks_match_the_shifted_game(G, v, lam)
        assert x.dtype == fx.dtype == (object if over else np.int64)


def test_the_scale_factor_counts_in_the_int64_bound():
    # all rewards 0: only the factor S / den = 2^71 of the check's grid
    # leaves int64, so the bound must count that factor
    G = StochGame(1, 1, ((MinAction((0,), F(0)),),), ((MaxAction(0, F(0)),),))
    lam = F(1, 2**70)
    x, fx = _check_pair(G, [F(0)], lam)
    assert (x.tolist(), fx.tolist(), fx.dtype) == ([0], [-2], object)
    assert (verify_subharmonic(G, [F(0)], lam),
            verify_superharmonic(G, [F(0)], lam)) == ((False, False), (True, True))
    scale, reach, step = G.operator(lam)
    assert (scale, reach) == (2**70, 2**71 + 1)
    assert step(np.zeros(1, dtype=object)).tolist() == [-1]


@pytest.fixture
def built_games(monkeypatch):
    """The games built (by either constructor) while the test runs."""
    built = []
    store = StochGame._store

    def counted(self, *arrays):
        built.append(self)
        store(self, *arrays)

    monkeypatch.setattr(StochGame, "_store", counted)
    return built


def test_checks_build_no_game(worked_game, built_games):
    v = check_feasibility(worked_game).witness
    cert = margin_certificate(worked_game, F(1, 100))
    built_games.clear()
    assert verify_subharmonic(worked_game, v, F(1, 100)) == (True, True)
    assert verify_superharmonic(worked_game, v, F(-1)) == (False, False)
    assert check_certificate(worked_game, cert) == (True, True)
    assert built_games == []


def test_certify_builds_no_game_besides_the_input(built_games, capsys):
    assert run(["certify", example_path("running.json"), "--lambda=1/100"]) == 0
    assert len(built_games) == 1  # the pencil's game
    cert = capsys.readouterr().out
    assert '"strict": true' in cert


def test_check_certify_and_phase_make_no_doubles(kernel_dtypes, capsys):
    # the loop and every check run the one kernel in int64 or Python ints
    running = example_path("running.json")
    for argv in (["check", running], ["certify", running, "--lambda=1/100"],
                 ["phase", "--n-list", "3", "--m-list", "2", "--samples", "2",
                  "--no-timing"]):
        assert run(argv) == 0
    assert kernel_dtypes
    assert set(kernel_dtypes) <= {np.dtype(np.int64), np.dtype(object)}


def test_margin_check_allocates_no_second_game():
    G = game_from_pencil(gen_random(GenSpec(1000, 30, 0)))
    v = [F(0)] * G.n
    tracemalloc.start()
    try:
        verify_subharmonic(G, v, F(1, 100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


# ---------------------------------------------------------------------------
# certificate production
# ---------------------------------------------------------------------------

def test_feasibility_certificate_below_margin(worked_game):
    cert = margin_certificate(worked_game, F(1, 100))
    assert cert.kind == "Feasibility"
    assert cert.lam == F(1, 100)
    holds, strict = check_certificate(worked_game, cert)
    assert holds
    assert strict == cert.strict


def test_feasibility_certificate_above_margin(worked_game):
    # the margin is 1/28; at lambda = 1 the shifted game is clearly losing
    with pytest.raises(CertificateInvalid):
        margin_certificate(worked_game, F(1))


def test_feasibility_certificate_at_the_margin(worked_game):
    # shifting by the exact margin zeroes the mean payoff, so the iterate
    # never leaves a band around 0; the iterate on the floor grid at step
    # 16 is a certificate all the same, though not a strict one
    cert = margin_certificate(worked_game, F(1, 28), max_iters=200)
    assert cert.vector == (F(2449, 7168), F(-4975, 7168), F(423, 1024))
    assert check_certificate(worked_game, cert) == (True, False)


def test_feasibility_certificate_needs_positive_lambda(worked_game):
    # a positive lambda names a feasibility certificate; lambda = 0 names none
    with pytest.raises(ValidationError):
        margin_certificate(worked_game, F(0))
    assert margin_certificate(worked_game, F(1, 100)).kind == "Feasibility"


def test_infeasibility_certificate(losing_game):
    cert = margin_certificate(losing_game, F(-1, 2))
    assert cert.kind == "Infeasibility"
    assert cert.strict
    holds, strict = check_certificate(losing_game, cert)
    assert holds and strict
    assert verify_superharmonic(losing_game, cert.vector, cert.lam) == \
        (True, True)


def test_infeasibility_certificate_below_margin(losing_game):
    # shifting Min rewards up by 2 makes the cycle winning
    with pytest.raises(CertificateInvalid):
        margin_certificate(losing_game, F(-2))


def test_infeasibility_certificate_needs_negative_lambda(losing_game):
    # a negative lambda names an infeasibility certificate; lambda = 0 none
    with pytest.raises(ValidationError):
        margin_certificate(losing_game, F(0))
    assert margin_certificate(losing_game, F(-1, 2)).kind == "Infeasibility"


def holds_exactly(G, cert) -> bool:
    """The certificate's inequality in rationals, by ``apply_F`` on the
    action tuples rather than the integer check."""
    fv = apply_F(G, cert.vector)
    if cert.kind == "Feasibility":
        return all(cert.lam + v <= f for v, f in zip(cert.vector, fv))
    return all(f < cert.lam + u for u, f in zip(cert.vector, fv))


def test_exact_mode_produces_a_valid_certificate(worked_game):
    # the certificates at a margin of +-1/100 hold in exact rationals too
    cert = margin_certificate(worked_game, F(1, 100))
    assert check_certificate(worked_game, cert)[0]
    assert holds_exactly(worked_game, cert)
    losing = shift_of_the_tuples(worked_game, F(-1, 10))  # value -9/140
    cert = margin_certificate(losing, F(-1, 100))
    assert check_certificate(losing, cert) == (True, True)
    assert holds_exactly(losing, cert)


@pytest.mark.parametrize("exact", [False, True], ids=["double", "exact"])
def test_certificates_10_to_the_minus_7_from_the_value(worked_game, exact):
    # the shifted games have value +-10^-7 per step: the iterate would
    # take about 7 * 10^5 steps to clear 10^-8, a checked iterate certifies
    # after 32; checked in integers ("double") or in rationals ("exact")
    near = F(1, 10**7)
    verify = holds_exactly if exact else \
        (lambda G, cert: check_certificate(G, cert) == (True, True))
    cert = margin_certificate(worked_game, F(1, 28) - near)
    assert verify(worked_game, cert)
    # the running example with Min rewards lowered by 1/10: value -9/140
    losing = shift_of_the_tuples(worked_game, F(-1, 10))
    cert = margin_certificate(losing, F(-9, 140) + near)
    assert cert.strict
    assert verify(losing, cert)


# ---------------------------------------------------------------------------
# certificate checking guards
# ---------------------------------------------------------------------------

def test_check_certificate_sign_guards(worked_game):
    with pytest.raises(CertificateInvalid):
        check_certificate(worked_game, Certificate("Feasibility", (0, 0, 0), F(-1), False))
    with pytest.raises(CertificateInvalid):
        check_certificate(worked_game, Certificate("Infeasibility", (0, 0, 0), F(1), False))
    with pytest.raises(CertificateInvalid):
        check_certificate(worked_game, Certificate("Harmonic", (0, 0, 0), F(1), False))


def test_tampered_certificate_fails_cleanly(worked_game):
    cert = margin_certificate(worked_game, F(1, 100))
    bumped = Certificate(cert.kind, (cert.vector[0] + 10,) + cert.vector[1:],
                         cert.lam, cert.strict)
    holds, _ = check_certificate(worked_game, bumped)
    assert not holds


# ---------------------------------------------------------------------------
# archimedean thresholds and monomial lifts
# ---------------------------------------------------------------------------

def test_threshold_off_diagonal():
    thr = archimedean_threshold(F(1, 56), F(0), m=3, n=3)
    assert (thr.base, thr.exponent) == (12, F(28))
    assert str(thr) == "t > 12^28"
    assert thr.numeric(digits=40) == Decimal(12 ** 28)


def test_threshold_diagonal_case():
    thr = archimedean_threshold(F(1, 2), F(0), m=3, n=4, diagonal=True)
    assert (thr.base, thr.exponent) == (4, F(1))
    assert thr.numeric() == Decimal(4)


def test_threshold_accounts_for_slack():
    thr = archimedean_threshold(F(1, 2), F(1, 4), m=3, n=3)
    assert (thr.base, thr.exponent) == (12, F(2))


def test_threshold_guards():
    with pytest.raises(ValidationError):
        archimedean_threshold(F(0), F(0), m=3, n=3)
    with pytest.raises(ValidationError):
        archimedean_threshold(F(1, 2), F(-1), m=3, n=3)
    with pytest.raises(DeltaTooLarge):
        archimedean_threshold(F(1, 4), F(1, 2), m=3, n=3)
    with pytest.raises(DeltaTooLarge):
        archimedean_threshold(F(1, 4), F(1, 4), m=3, n=3)
    with pytest.raises(ValidationError):
        archimedean_threshold(F(1, 2), F(0), m=1, n=3)
    assert archimedean_threshold(F(1, 2), F(0), m=1, n=3, diagonal=True).base == 3


def test_threshold_shrinks_as_the_margin_grows():
    wide = archimedean_threshold(F(1), F(0), m=3, n=3)
    narrow = archimedean_threshold(F(1, 56), F(0), m=3, n=3)
    assert wide.exponent < narrow.exponent
    # negative margins use |lambda|: same bound either side of zero
    assert archimedean_threshold(F(-1), F(0), m=3, n=3) == wide

