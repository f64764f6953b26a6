"""Machine-checkable certificates for feasibility and infeasibility.

A feasibility certificate at margin lambda > 0 is a finite rational vector v
with lambda + v <= F(v); it proves the lambda-reinforced spectrahedron
nonempty, and (by the monomial-lift lemma) turns into an honest point
(t^{v_1}, ..., t^{v_n}) of any classical spectrahedron whose matrices have
these signed valuations, for every parameter t above the archimedean
threshold computed here.  An infeasibility certificate at lambda < 0 is a
finite rational u with F(u) <= lambda + u, which caps the game value below
zero and hence proves the spectrahedron trivial.

Both kinds are produced by value iteration on F - lambda, whose sublevel
sets are exactly the reinforced spectrahedra: its checked witness is the
certificate.  A feasibility certificate is the running entrywise maximum of
the iterates, and an infeasibility certificate the last iterate or the
tilted running minimum of the iterates, unless the iteration stopped at an
iterate that is itself an exact certificate.  Lambda is an argument of the
one operator, in the loop (``StochGame.operator``) and in every check, of
these or of third-party certificates, which runs in integers
(``StochGame.doubled_step``): no path builds a second game.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import CertificateInvalid, DeltaTooLarge, ValidationError
from .game import StochGame
from .shapley import _decide
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
    x2, fx2 = G.doubled_step(_finite_vector(v), as_fraction(lam))
    return bool(np.all(x2 <= fx2)), bool(np.all(x2 < fx2))


def _superharmonic(G: StochGame, u: Sequence, lam):
    """Exact check of F(u) <= lambda + u; returns (holds, strict)."""
    x2, fx2 = G.doubled_step(_finite_vector(u), as_fraction(lam))
    return bool(np.all(fx2 <= x2)), bool(np.all(fx2 < x2))


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


def _shifted_certificate(G: StochGame, lam, kind: str, epsilon,
                         max_iters: int) -> Certificate:
    """Run value iteration on F - lam, whose checked witness
    (``shapley._decide``) is the certificate: v <= F(v) - lam, or
    F(u) - lam < u in every entry, which is strict."""
    lam, feasible = as_fraction(lam), kind == "Feasibility"
    if not (lam > 0 if feasible else lam < 0):
        raise ValidationError(f"{kind.lower()} certificates need lambda {'>' if feasible else '<'} 0")
    status, _, vector, _, _ = _decide(G, as_fraction(epsilon), max_iters, lam)
    if status != ("feasible" if feasible else "infeasible"):
        raise CertificateInvalid(
            f"value iteration on the lambda-shifted game returned "
            f"{status!r}; no {kind.lower()} certificate at this margin")
    verify = verify_subharmonic if feasible else _superharmonic
    return Certificate(kind, vector, lam, verify(G, vector, lam)[1])


def feasibility_certificate(G: StochGame, lam, epsilon=Fraction(1, 10**8),
                            max_iters: int = 10**6) -> Certificate:
    """Produce a vector v with lam + v <= F(v), for lam > 0.

    Runs value iteration on F - lam; the running maximum of the iterates,
    or an iterate checked at a certificate stop, is the certificate.  Raises
    CertificateInvalid when the iteration concludes the reinforced problem
    is infeasible (lam at or above the margin) or cannot decide.
    """
    return _shifted_certificate(G, lam, "Feasibility", epsilon, max_iters)


def infeasibility_certificate(G: StochGame, lam, epsilon=Fraction(1, 10**8),
                              max_iters: int = 10**6) -> Certificate:
    """Produce a finite vector u with F(u) < lam + u in every entry, for
    lam < 0.

    The Infeasible witness of the iteration on F - lam works: its last
    iterate, or the tilted running minimum of its iterates, checked in
    integers to satisfy F(u) - lam < u, so the certificate is always
    strict.  Its entries need not be negative.
    """
    return _shifted_certificate(G, lam, "Infeasibility", epsilon, max_iters)


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

