"""Certificates, their verification, and archimedean lift thresholds."""

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
    feasibility_certificate,
    game_from_pencil,
    infeasibility_certificate,
    verify_subharmonic,
    verify_superharmonic,
)
from tropsdp.bench import GenSpec, gen_random
from tropsdp.certify import _superharmonic
from tropsdp.cli import run
from tropsdp.pencil import int_array
from tropsdp.tropical import MINUS_INF

from conftest import (example_path, games, shift_of_the_tuples,
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


def test_shifting_min_rewards_shifts_the_operator(worked_game):
    x = (F(1, 3), F(0), F(-2))
    shifted = worked_game.operator(F(-5, 7), exact=True)
    assert tuple(shifted(np.array(x, dtype=object))) == \
        tuple(F(5, 7) + f for f in apply_F(worked_game, x))
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
        assert _superharmonic(g, v, lam) == (all(t <= lam for t in gaps),
                                             all(t < lam for t in gaps))


@pytest.mark.parametrize("delta", [F(5, 7), F(-1, 100000), F(0), F(2**70, 3)])
def test_shift_on_the_arrays_equals_the_shift_of_the_tuples(worked_game, delta):
    # the operator at margin -delta against the game whose Min rewards
    # were shifted by delta, over doubles bit for bit and over Fractions
    generated = game_from_pencil(gen_random(GenSpec(30, 4, seed=3)))
    rng = np.random.default_rng(7)
    for G in (worked_game, generated):
        expected = shift_of_the_tuples(G, delta)
        x = rng.uniform(-4, 4, G.n)
        assert G.operator(-delta)(x).tobytes() == expected.operator()(x).tobytes()
        q = np.array([F(t) for t in x.tolist()], dtype=object)
        assert tuple(G.operator(-delta, exact=True)(q)) == apply_F(expected, tuple(q))


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
    of doubles, small fractions and fractions over large primes."""
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
                    [rng.uniform(-2, 2) for _ in range(G.n)],
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
    for G, v, lam in operator_corpus():
        x = np.array([float(t) for t in v])
        out = G.operator(lam)(x)
        assert out.tobytes() == shift_of_the_tuples(G, -lam).operator()(x).tobytes()
        exact = G.operator(lam, exact=True)(np.array([F(t) for t in v], dtype=object))
        assert tuple(exact) == tuple(f - lam for f in apply_F(G, [F(t) for t in v]))


@pytest.mark.parametrize("over", [0, 1], ids=["int64", "object"])
def test_operator_at_the_int64_bound(over, float_views):
    # the shifted Min numerators 2^63 - 1 fit in int64 and are shifted
    # there; 2^63 does not, and is shifted in Python ints
    for G, v, lam in at_the_int64_bound(over):
        float_views.clear()
        G.operator(lam)
        assert [p.dtype for p in float_views] == [np.dtype(object if over else np.int64)] * 2
        assert abs(float_views[1][0]) == 2**63 - 1 + over


def reference_pair(G, v, lam):
    return shift_of_the_tuples(G, -lam).doubled_step(v)


def test_margin_check_equals_the_check_of_the_shifted_game():
    seen = set()
    for G, v, lam in margin_corpus():
        x2, fx2 = G.doubled_step(v, lam)
        ref_x2, ref_fx2 = reference_pair(G, v, lam)
        assert (x2.tolist(), fx2.tolist()) == (ref_x2.tolist(), ref_fx2.tolist())
        seen.add(fx2.dtype.type)
    assert seen == {np.int64, np.object_}


@pytest.mark.parametrize("over", [0, 1], ids=["int64", "object"])
def test_margin_check_at_the_int64_bound(over):
    # grid 8 and v = 0: the scale is 8, so the largest scaled Min reward is
    # top + 8 |lam|, and lam = (2^60 - 1 - top) / 8 puts it at 2^60 - 1,
    # the last value the bound keeps in int64
    G = game_from_pencil(gen_random(GenSpec(4, 3, 5, 8)))
    top = int(max(np.abs(G.max_p).max(), np.abs(G.min_p).max()))
    v = [F(0)] * G.n
    for sign in (1, -1):
        lam = sign * F(2**60 - 1 - top + over, 8)
        x2, fx2 = G.doubled_step(v, lam)
        assert fx2.dtype == (object if over else np.int64)
        ref_x2, ref_fx2 = reference_pair(G, v, lam)
        assert (x2.tolist(), fx2.tolist()) == (ref_x2.tolist(), ref_fx2.tolist())


def test_the_scale_factor_counts_in_the_int64_bound():
    # all rewards 0: only the factor S / den = 2^70 of the scaling leaves
    # int64, so the bound must count that factor
    G = StochGame(1, 1, ((MinAction((0,), F(0)),),), ((MaxAction(0, F(0)),),))
    lam = F(1, 2**70)
    x2, fx2 = G.doubled_step([F(0)], lam)
    assert (x2.tolist(), fx2.tolist()) == ([0], [-2])
    assert G.operator(lam)(np.zeros(1)).tolist() == [-2.0**-70]


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
    cert = feasibility_certificate(worked_game, F(1, 100))
    built_games.clear()
    assert verify_subharmonic(worked_game, v, F(1, 100)) == (True, True)
    assert verify_superharmonic(worked_game, v, F(-1)) is False
    assert check_certificate(worked_game, cert) == (True, True)
    assert built_games == []


def test_certify_builds_no_game_besides_the_input(built_games, capsys):
    assert run(["certify", example_path("running.json"), "--lambda=1/100"]) == 0
    assert len(built_games) == 1  # the pencil's game
    cert = capsys.readouterr().out
    assert '"strict": true' in cert


def test_certify_makes_doubles_only_inside_the_loop(float_views, capsys):
    # one operator over doubles for the iteration, none for the checks
    assert run(["certify", example_path("running.json"), "--lambda=1/100"]) == 0
    assert len(float_views) == 2  # its Max and Min rewards


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
    cert = feasibility_certificate(worked_game, F(1, 100))
    assert cert.kind == "Feasibility"
    assert cert.lam == F(1, 100)
    holds, strict = check_certificate(worked_game, cert)
    assert holds
    assert strict == cert.strict


def test_feasibility_certificate_above_margin(worked_game):
    # the margin is 1/28; at lambda = 1 the shifted game is clearly losing
    with pytest.raises(CertificateInvalid):
        feasibility_certificate(worked_game, F(1))


def test_feasibility_certificate_at_margin_is_indeterminate(worked_game):
    # shifting by the exact margin zeroes the mean payoff
    with pytest.raises(CertificateInvalid):
        feasibility_certificate(worked_game, F(1, 28), max_iters=200)


def test_feasibility_certificate_needs_positive_lambda(worked_game):
    with pytest.raises(ValidationError):
        feasibility_certificate(worked_game, F(0))
    with pytest.raises(ValidationError):
        feasibility_certificate(worked_game, F(-1, 2))


def test_infeasibility_certificate(losing_game):
    cert = infeasibility_certificate(losing_game, F(-1, 2))
    assert cert.kind == "Infeasibility"
    assert cert.strict
    holds, strict = check_certificate(losing_game, cert)
    assert holds and strict
    assert verify_superharmonic(losing_game, cert.vector, cert.lam)


def test_infeasibility_certificate_below_margin(losing_game):
    # shifting Min rewards up by 2 makes the cycle winning
    with pytest.raises(CertificateInvalid):
        infeasibility_certificate(losing_game, F(-2))


def test_infeasibility_certificate_needs_negative_lambda(losing_game):
    with pytest.raises(ValidationError):
        infeasibility_certificate(losing_game, F(0))
    with pytest.raises(ValidationError):
        infeasibility_certificate(losing_game, F(3))


# an epsilon of 0 as a double runs the loop in rationals
UNDERFLOWING = F(1, 10**400)


def test_exact_mode_produces_a_valid_certificate(worked_game):
    cert = feasibility_certificate(worked_game, F(1, 100), UNDERFLOWING)
    assert check_certificate(worked_game, cert)[0]
    losing = shift_of_the_tuples(worked_game, F(-1, 10))  # value -9/140
    cert = infeasibility_certificate(losing, F(-1, 100), UNDERFLOWING)
    assert check_certificate(losing, cert) == (True, True)


@pytest.mark.parametrize("exact", [False, True], ids=["double", "exact"])
def test_certificates_10_to_the_minus_7_from_the_value(worked_game, exact):
    # the shifted games have value +-10^-7 per step: the epsilon exits would
    # take about 7 * 10^5 steps, a checked iterate certifies after 64
    near = F(1, 10**7)
    epsilon = UNDERFLOWING if exact else F(1, 10**8)
    cert = feasibility_certificate(worked_game, F(1, 28) - near, epsilon)
    assert check_certificate(worked_game, cert) == (True, True)
    # the running example with Min rewards lowered by 1/10: value -9/140
    losing = shift_of_the_tuples(worked_game, F(-1, 10))
    cert = infeasibility_certificate(losing, F(-9, 140) + near, epsilon)
    assert cert.strict
    assert check_certificate(losing, cert) == (True, True)


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
    cert = feasibility_certificate(worked_game, F(1, 100))
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

