"""Machine-checkable certificates for feasibility and infeasibility.

A feasibility certificate at margin lambda > 0 is a finite rational vector v
with lambda + v <= F(v); it proves the lambda-reinforced spectrahedron
nonempty, and (by the monomial-lift lemma) turns into an honest point
(t^{v_1}, ..., t^{v_n}) of any classical spectrahedron whose matrices have
these signed valuations, for every parameter t above the archimedean
threshold computed here.  An infeasibility certificate at lambda < 0 is a
finite rational u with F(u) <= lambda + u, which caps the game value below
zero and hence proves the spectrahedron trivial.

Both kinds are produced by running value iteration on the game with all Min
rewards shifted by -lambda (the sublevel sets of the shifted operator are
exactly the reinforced spectrahedra): the running entrywise maximum of the
iterates certifies feasibility, and the running entrywise minimum certifies
infeasibility.  Every emitted certificate is re-verified in exact rational
arithmetic; verification helpers are exposed for checking third-party
certificates too.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

from .errors import CertificateInvalid, DeltaTooLarge, ValidationError
from .game import MinAction, StochGame
from .shapley import apply_F, value_iteration_raw
from .tropical import MINUS_INF, as_fraction


def _finite_vector(x: Sequence) -> tuple:
    out = []
    for entry in x:
        if entry is MINUS_INF:
            raise ValidationError("vector must be finite (no -oo entries)")
        out.append(as_fraction(entry))
    return tuple(out)


def verify_subharmonic(G: StochGame, v: Sequence, lam=Fraction(0)):
    """Exact check of lambda + v <= F(v); returns (holds, strict)."""
    v = _finite_vector(v)
    lam = as_fraction(lam)
    fv = apply_F(G, v)
    holds = all(lam + a <= b for a, b in zip(v, fv))
    strict = all(lam + a < b for a, b in zip(v, fv))
    return holds, strict


def _superharmonic(G: StochGame, u: Sequence, lam):
    """Exact check of F(u) <= lambda + u; returns (holds, strict)."""
    u = _finite_vector(u)
    lam = as_fraction(lam)
    fu = apply_F(G, u)
    holds = all(b <= lam + a for a, b in zip(u, fu))
    strict = all(b < lam + a for a, b in zip(u, fu))
    return holds, strict


def verify_superharmonic(G: StochGame, u: Sequence, lam) -> bool:
    """Exact check of F(u) <= lambda + u."""
    return _superharmonic(G, u, lam)[0]


@dataclass(frozen=True)
class Certificate:
    """A rational vector certifying (in)feasibility at margin ``lam``.

    Feasibility: lam > 0 and lam + vector <= F(vector); Infeasibility:
    lam < 0 and F(vector) <= lam + vector.  strict records whether the
    inequalities hold strictly in every coordinate.  (The JSON field for
    ``lam`` is spelled "lambda".)
    """

    kind: str  # "Feasibility" | "Infeasibility"
    vector: tuple
    lam: Fraction
    strict: bool


def shift_min_rewards(G: StochGame, delta) -> StochGame:
    """Copy of the game with every Min reward shifted by delta; its
    subharmonic points at level 0 are the original's at level -delta."""
    delta = as_fraction(delta)
    shifted = tuple(
        tuple(MinAction(a.targets, a.reward + delta) for a in acts)
        for acts in G.min_actions
    )
    return StochGame(G.n, G.m, shifted, G.max_actions)


def check_certificate(G: StochGame, cert: Certificate):
    """Re-verify a certificate against a game; returns (holds, strict)."""
    if cert.kind == "Feasibility":
        if cert.lam <= 0:
            raise CertificateInvalid("feasibility certificates need lambda > 0")
        return verify_subharmonic(G, cert.vector, cert.lam)
    if cert.kind == "Infeasibility":
        if cert.lam >= 0:
            raise CertificateInvalid("infeasibility certificates need lambda < 0")
        return _superharmonic(G, cert.vector, cert.lam)
    raise CertificateInvalid(f"unknown certificate kind {cert.kind!r}")


def _shifted_certificate(G: StochGame, lam: Fraction, kind: str, epsilon,
                         max_iters: int, exact: bool) -> Certificate:
    """Run value iteration on the game with Min rewards shifted down by lam
    and certify with its running maximum (Feasibility) or minimum
    (Infeasibility).  F is evaluated once per witness; a witness from
    doubles that fails the exact check triggers one rational rerun."""
    feasible = kind == "Feasibility"
    wanted = "feasible" if feasible else "infeasible"
    verify = verify_subharmonic if feasible else _superharmonic
    shifted = shift_min_rewards(G, -lam)
    for exact_run in ((True,) if exact else (False, True)):
        status, _, _, v, w = value_iteration_raw(
            shifted, epsilon, max_iters, exact_run)
        if status != wanted:
            raise CertificateInvalid(
                f"value iteration on the lambda-shifted game returned "
                f"{status!r}; no {kind.lower()} certificate at this margin")
        vector = v if feasible else w
        holds, strict = verify(G, vector, lam)
        if holds:
            return Certificate(kind, tuple(vector), lam, strict)
    raise CertificateInvalid("shifted iteration produced an invalid witness")


def feasibility_certificate(G: StochGame, lam, epsilon=Fraction(1, 10**8),
                            max_iters: int = 10**6, exact: bool = False) -> Certificate:
    """Produce a vector v with lam + v <= F(v), for lam > 0.

    Runs value iteration on the game with Min rewards shifted down by lam;
    the running maximum of the iterates is the certificate.  Raises
    CertificateInvalid when the iteration concludes the reinforced problem
    is infeasible (lam at or above the margin) or cannot decide.
    """
    lam = as_fraction(lam)
    if lam <= 0:
        raise ValidationError("feasibility certificates need lambda > 0")
    return _shifted_certificate(G, lam, "Feasibility", epsilon, max_iters,
                                exact)


def infeasibility_certificate(G: StochGame, lam, epsilon=Fraction(1, 10**8),
                              max_iters: int = 10**6, exact: bool = False) -> Certificate:
    """Produce a finite vector u with F(u) <= lam + u, for lam < 0.

    The running entrywise minimum w of the shifted iteration works: once
    every entry of the final iterate is <= -epsilon, monotonicity gives
    F(w) <= min(F(0), ..., F^l(0)) <= w (the last iterate being entrywise
    negative absorbs the initial 0).
    """
    lam = as_fraction(lam)
    if lam >= 0:
        raise ValidationError("infeasibility certificates need lambda < 0")
    return _shifted_certificate(G, lam, "Infeasibility", epsilon, max_iters,
                                exact)


# ---------------------------------------------------------------------------
# Monomial lifts and archimedean thresholds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArchimedeanThreshold:
    """Symbolic bound base^exponent on the lift parameter t."""

    base: int
    exponent: Fraction

    def numeric(self, digits: int = 28) -> Decimal:
        """Evaluate base**exponent to the requested number of digits."""
        with localcontext() as ctx:
            ctx.prec = digits
            e = Decimal(self.exponent.numerator) / Decimal(self.exponent.denominator)
            return Decimal(self.base) ** e

    def __str__(self):
        return f"t > {self.base}^{self.exponent}"


def archimedean_threshold(lam, delta, m: int, n: int,
                          diagonal: bool = False) -> ArchimedeanThreshold:
    """Threshold above which a monomial lift is honest: any classical
    spectrahedron with these signed valuations (and valuation slack delta)
    is nonempty iff lam > 0, provided t > base^(1/(2|lam| - 2 delta)) with
    base = 2(m-1)n, or n when all matrices are diagonal."""
    lam = as_fraction(lam)
    delta = as_fraction(delta)
    if lam == 0:
        raise ValidationError("the threshold needs a nonzero margin lambda")
    if delta < 0:
        raise ValidationError("delta must be nonnegative")
    if delta >= abs(lam):
        raise DeltaTooLarge(f"delta {delta} must stay below |lambda| = {abs(lam)}")
    if diagonal:
        base = n
    else:
        if m < 2:
            raise ValidationError("the off-diagonal bound needs m >= 2; "
                                  "pass diagonal=True for diagonal matrices")
        base = 2 * (m - 1) * n
    return ArchimedeanThreshold(base=base, exponent=1 / (2 * abs(lam) - 2 * delta))

