"""Machine-checkable certificates for feasibility and infeasibility.

A feasibility certificate at margin lambda > 0 is a finite rational vector v
with lambda + v <= F(v); it proves the lambda-reinforced spectrahedron
nonempty, and (by the monomial-lift lemma) turns into an honest point
(t^{v_1}, ..., t^{v_n}) of any classical spectrahedron whose matrices have
these signed valuations, for every parameter t above the archimedean
threshold computed here.  An infeasibility certificate at lambda < 0 is a
finite rational u with F(u) <= lambda + u, which caps the game value below
zero and hence proves the spectrahedron trivial.

Both kinds come from ``margin_certificate``, the sign of lambda picking the
kind, by value iteration on F - lambda, whose sublevel sets are exactly the
reinforced spectrahedra: its checked witness is the certificate.  That is
the iterate that a checkpoint found to be one, or else the running entrywise
maximum of the iterates (feasibility) or their tilted running minimum
(infeasibility), on the coarsest dyadic grid its slack allows when strict.
Lambda is an argument of the one operator ``StochGame.operator``, in the
loop and in every check, of these or of third-party certificates: a check
runs the operator on a grid where F(v) is exact (``_check_pair``).  All of
it runs in integers, and no path builds a second game.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence

from .errors import CertificateInvalid, DeltaTooLarge, ValidationError
from .game import StochGame, _widened
from .pencil import int_array
from .shapley import _bracket, _check_point, _decide
from .tropical import MINUS_INF, as_fraction


def _check_pair(G: StochGame, v: Sequence, lam) -> tuple:
    """(X, step(X)) for a finite rational vector v at margin lam on the
    grid S = 2 lcm(den, the denominators of lam and v) of
    ``StochGame.operator``, where every reward and Max value is even, so
    X = S v and step(X) = S (F(v) - lam) exactly.  Its bracket
    (``shapley._bracket``) decides lam + v <= F(v), F(v) <= lam + v and
    their strict forms."""
    if any(t is MINUS_INF for t in v):
        raise ValidationError("vector must be finite (no -oo entries)")
    v, lam = tuple(map(as_fraction, v)), as_fraction(lam)
    _check_point(G, v)
    grid = math.lcm(G.den, lam.denominator)
    unit = 2 * (math.lcm(grid, *(t.denominator for t in v)) // grid)
    scale, reach, step = G.operator(lam, unit)
    x = _widened(int_array([t.numerator * (scale // t.denominator) for t in v]),
                 reach)
    return x, step(x)


def verify_subharmonic(G: StochGame, v: Sequence, lam=Fraction(0)):
    """Exact check of lambda + v <= F(v); returns (holds, strict)."""
    lo, _ = _bracket(*_check_pair(G, v, lam))
    return lo >= 0, lo > 0


def verify_superharmonic(G: StochGame, u: Sequence, lam=Fraction(0)):
    """Exact check of F(u) <= lambda + u; returns (holds, strict)."""
    _, hi = _bracket(*_check_pair(G, u, lam))
    return hi <= 0, hi < 0


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


_VERIFY = {"Feasibility": verify_subharmonic,
           "Infeasibility": verify_superharmonic}


def _kind(lam) -> str | None:
    """The certificate kind that the sign of lam names; None at 0."""
    return "Feasibility" if lam > 0 else "Infeasibility" if lam < 0 else None


def check_certificate(G: StochGame, cert: Certificate):
    """Re-verify a certificate against a game; returns (holds, strict)."""
    if cert.kind not in _VERIFY or _kind(cert.lam) != cert.kind:
        raise CertificateInvalid(
            f"no {cert.kind!r} certificate at lambda = {cert.lam}: the kinds "
            "are Feasibility at lambda > 0 and Infeasibility at lambda < 0")
    return _VERIFY[cert.kind](G, cert.vector, cert.lam)


def margin_certificate(G: StochGame, lam,
                       max_iters: int = 10**6) -> Certificate:
    """The certificate at margin lam != 0 whose kind the sign of lam names:
    the checked witness of value iteration on F - lam (``shapley._decide``),
    on the coarsest dyadic grid its slack allows when strict.

    lam > 0: Feasibility, v with lam + v <= F(v).  lam < 0: Infeasibility,
    u with F(u) < lam + u in every entry, so always strict; its entries need
    not be negative.  Raises ValidationError at lam = 0, and
    CertificateInvalid when the iteration decides the other way or cannot.
    """
    lam = as_fraction(lam)
    kind = _kind(lam)
    if kind is None:
        raise ValidationError("the margin lambda must be nonzero")
    status, _, vector, _, _ = _decide(G, max_iters, lam)
    if status != ("feasible" if lam > 0 else "infeasible"):
        outcome = (f"ran out of its budget of max_iters = {max_iters} steps"
                   if status == "indeterminate" else f"returned {status!r}")
        raise CertificateInvalid(
            f"value iteration on the lambda-shifted game {outcome}; no "
            f"{kind.lower()} certificate at this margin")
    return Certificate(kind, vector, lam, _VERIFY[kind](G, vector, lam)[1])


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

