"""Certificates, their verification, and archimedean lift thresholds."""

from decimal import Decimal
from fractions import Fraction

import pytest

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
from tropsdp.certify import shift_min_rewards
from tropsdp.tropical import MINUS_INF

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
    shifted = shift_min_rewards(worked_game, F(5, 7))
    x = (F(1, 3), F(0), F(-2))
    assert apply_F(shifted, x) == tuple(F(5, 7) + f for f in apply_F(worked_game, x))
    # subharmonicity at margin lam is plain subharmonicity after a -lam shift
    v = check_feasibility(worked_game).witness
    lam = F(1, 100)
    assert verify_subharmonic(worked_game, v, lam) == \
        verify_subharmonic(shift_min_rewards(worked_game, -lam), v)


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


def test_exact_mode_produces_a_valid_certificate(worked_game):
    cert = feasibility_certificate(worked_game, F(1, 100), exact=True)
    assert check_certificate(worked_game, cert)[0]


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

