"""Tropical matrix pencils and their spectrahedra.

A pencil is a list of n symmetric m x m matrices Q^(1), ..., Q^(n) over the
signed tropical numbers; it encodes the tropical "semidefinite" set of
points x in T^n satisfying, for the matrix Q(x) = x_1 Q^(1) + ... + x_n Q^(n):

  * order 1: Q_ii+(x) >= Q_ii-(x) for every i, and
  * order 2: Q_ii+(x) + Q_jj+(x) >= 2 Q_ij(x) for every i < j
    (general pencils may instead satisfy Q_ij+(x) = Q_ij-(x)),

where Q_ij+(x) = max over k with positively signed Q^(k)_ij of
|Q^(k)_ij| + x_k, and Q_ij-(x) mirrors it over negatively signed entries.

A pencil is *Metzler* when all off-diagonal entries are negatively signed or
-oo; general pencils reduce to Metzler ones by adding one slack variable per
matrix position above the diagonal (``metzlerize``).  ``normalize`` shrinks a
Metzler pencil until every matrix has a negative entry and every row has a
positive diagonal entry somewhere — the shape the game construction needs —
detecting obviously nontrivial or trivial instances along the way.

In memory a pencil is its entries on and above the diagonal that are not
-oo, as coordinate arrays; the structural checks, the reductions of
``normalize`` and the lifting of ``metzlerize`` are mask, ``bincount`` and
concatenation passes over them.  The matrices of ``SignedTrop`` are a view
for the membership tests, which are the exact reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
from .tropical import (
    MINUS_INF,
    NEG,
    POS,
    ExtReal,
    SignedTrop,
    TROP_ZERO,
    as_fraction,
)


def int_array(values) -> np.ndarray:
    """Integers as an int64 array when every |value| < 2^63, else as an
    object array of the Python ints themselves."""
    try:
        ints = np.asarray(values, dtype=np.int64)
        if not ints.size or ints.min() > np.iinfo(np.int64).min:
            return ints
    except OverflowError:
        pass
    return np.array(values, dtype=object)


def _over_common_denominator(p: np.ndarray, q) -> tuple:
    """(numerators, den) of the rationals p / q, for an integer array p and
    a positive integer q or one per entry: den is the lcm of the reduced
    denominators, the numerators an ``int_array``."""
    if isinstance(q, int):
        num, den = p, q
    else:
        den = math.lcm(*set(q.tolist()))
        bits = int(max(p.max(), -p.min())).bit_length() if p.size else 0
        if p.dtype == object or den.bit_length() + bits > 63:
            p, q = p.astype(object), q.astype(object)
        num = p * (den // q)
    # lcm of the reduced denominators = den / gcd(den, every numerator)
    g = math.gcd(den, *(num.tolist() if num.dtype == object
                        else [int(np.gcd.reduce(num))] if num.size else []))
    return int_array(num // g if g > 1 else num), den // g


class Pencil:
    """n symmetric m x m signed tropical matrices; variable k scales Q^(k).

    Entry e is the position (``k[e]``, ``i[e]``, ``j[e]``) with i <= j,
    holding the sign ``sign[e]`` (POS or NEG) and the modulus
    ``num[e] / den``; positions not listed, and their mirror images below
    the diagonal, are -oo.  Entries are sorted by (k, i, j).  ``den`` is the
    lcm of the moduli's reduced denominators and ``num`` an int64 array when
    every numerator fits, an object array of Python ints otherwise, as in
    ``StochGame``.  ``matrices`` (tuples of ``SignedTrop``) and ``entry``
    read the pencil back; that view is built on first read.

    ``Pencil(n, m, matrices)`` builds from full symmetric matrices,
    ``from_entries`` from sparse tuples and ``from_arrays`` from the arrays.
    When ``affine`` is set, variable 0 plays the role of the affine
    constant: the pencil encodes Q^(0) + x_1 Q^(1) + ... and feasibility
    questions ask for points whose 0-th coordinate is finite.
    """

    def __init__(self, n: int, m: int, matrices, affine: bool = False):
        _check_size(n, m)
        if len(matrices) != n:
            raise ValidationError(f"expected {n} matrices, got {len(matrices)}")
        for k, mat in enumerate(matrices):
            if len(mat) != m or any(len(row) != m for row in mat):
                raise ValidationError(f"matrix {k} is not {m}x{m}")
            for i in range(m):
                for j in range(i + 1, m):
                    if mat[i][j] != mat[j][i]:
                        raise ValidationError(
                            f"matrix {k} is not symmetric at ({i},{j})"
                        )
        self._store(n, m, *_coordinates(
            (k, i, j, mat[i][j]) for k, mat in enumerate(matrices)
            for i in range(m) for j in range(i, m)), affine)

    @classmethod
    def from_entries(cls, n: int, m: int, entries, affine: bool = False) -> "Pencil":
        """Build from sparse (k, i, j, value) tuples with 0-based i <= j;
        missing positions are -oo, (j, i) is filled in symmetrically, and a
        later tuple for the same position wins."""
        cells = {}
        for k, i, j, val in entries:
            if not 0 <= k < n:
                raise ValidationError(f"matrix index {k} out of range")
            if not (0 <= i <= j < m):
                raise ValidationError(f"entry index ({i},{j}) out of range")
            cells[k, i, j] = val
        return cls.from_arrays(n, m, *_coordinates(
            (k, i, j, val) for (k, i, j), val in cells.items()), affine)

    @classmethod
    def from_arrays(cls, n: int, m: int, k, i, j, sign, num, den,
                    affine: bool = False) -> "Pencil":
        """The pencil with entries at (k, i, j), i <= j, at most one per
        position and in any order, with signs ``sign`` and moduli
        ``num / den``: ``den`` is one positive integer or one per entry."""
        pencil = cls.__new__(cls)
        pencil._store(n, m, k, i, j, sign, num, den, affine)
        return pencil

    def _store(self, n, m, k, i, j, sign, num, den, affine):
        _check_size(n, m)
        k, i, j = (np.asarray(a, dtype=np.intp) for a in (k, i, j))
        sign = np.asarray(sign, dtype=np.int8)
        key = (k * m + i) * m + j
        if np.any(key[1:] < key[:-1]):
            order = np.argsort(key, kind="stable")
            k, i, j, sign, num = k[order], i[order], j[order], sign[order], num[order]
            den = den if isinstance(den, int) else den[order]
        self.n, self.m, self.affine = n, m, affine
        self.k, self.i, self.j, self.sign = k, i, j, sign
        self.num, self.den = _over_common_denominator(num, den)
        self._matrices = None

    @property
    def matrices(self) -> tuple:
        """The n matrices as m x m tuples of SignedTrop."""
        if self._matrices is None:
            self._matrices = self._matrix_view()
        return self._matrices

    def _matrix_view(self) -> tuple:
        grids = [[[TROP_ZERO] * self.m for _ in range(self.m)] for _ in range(self.n)]
        for k, i, j, s, p in zip(*(a.tolist() for a in (
                self.k, self.i, self.j, self.sign, self.num))):
            grids[k][i][j] = grids[k][j][i] = SignedTrop(s, Fraction(p, self.den))
        return tuple(tuple(tuple(row) for row in grid) for grid in grids)

    def entry(self, k: int, i: int, j: int) -> SignedTrop:
        return self.matrices[k][i][j]

    def is_metzler(self) -> bool:
        return not np.any((self.sign == POS) & (self.i != self.j))

    def __eq__(self, other):
        if not isinstance(other, Pencil):
            return NotImplemented
        return ((self.n, self.m, self.affine, self.den)
                == (other.n, other.m, other.affine, other.den)
                and all(np.array_equal(getattr(self, name), getattr(other, name))
                        for name in ("k", "i", "j", "sign", "num")))


def _check_size(n: int, m: int) -> None:
    if n < 1 or m < 1:
        raise ValidationError(f"pencil needs n >= 1 and m >= 1, got ({n}, {m})")
    if n * m * m >= 2**63:  # the cell keys (k m + i) m + j must fit in int64
        raise ValidationError(f"pencil of {n} matrices {m} x {m} is too large: "
                              "n m^2 must be below 2^63")


def _coordinates(cells) -> tuple:
    """(k, i, j, sign, numerators, denominators) of the finite values among
    (k, i, j, SignedTrop) tuples."""
    rows = [(k, i, j, v.sign, v.modulus.numerator, v.modulus.denominator)
            for k, i, j, v in cells if not v.is_zero]
    k, i, j, sign, p, q = zip(*rows) if rows else ((),) * 6
    return k, i, j, sign, int_array(p), int_array(q)


NOT_METZLER = ("operation requires a Metzler pencil "
               "(off-diagonal entries negatively signed or -oo)")


def require_metzler(P: Pencil) -> None:
    if not P.is_metzler():
        raise ValidationError(NOT_METZLER)


# ---------------------------------------------------------------------------
# Evaluation of the linear forms Q_ij(x)
# ---------------------------------------------------------------------------

def form_eval(P: Pencil, i: int, j: int, x: Sequence[ExtReal], sign: int) -> ExtReal:
    """max over k with sign(Q^(k)_ij) == sign of |Q^(k)_ij| + x_k."""
    best: ExtReal = MINUS_INF
    for k in range(P.n):
        e = P.matrices[k][i][j]
        if e.sign != sign:
            continue
        xk = x[k]
        if xk is MINUS_INF:
            continue
        v = e.modulus + xk
        if v > best:
            best = v
    return best


def support(x: Sequence[ExtReal]) -> frozenset:
    return frozenset(k for k, v in enumerate(x) if v is not MINUS_INF)


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def membership_metzler(P: Pencil, x: Sequence[ExtReal], lam=Fraction(0)) -> bool:
    """Does x lie in the lambda-reinforced spectrahedron of a Metzler pencil?

    Checks Q_ii+(x) >= lam + Q_ii-(x) for every i and
    Q_ii+(x) + Q_jj+(x) >= 2 (lam + Q_ij(x)) for every i < j.
    With lam = 0 this is plain membership.
    """
    require_metzler(P)
    if len(x) != P.n:
        raise ValidationError(f"point has {len(x)} coordinates, expected {P.n}")
    lam = as_fraction(lam)
    pos_diag = [form_eval(P, i, i, x, POS) for i in range(P.m)]
    for i in range(P.m):
        rhs = form_eval(P, i, i, x, NEG)
        if rhs is not MINUS_INF and pos_diag[i] < lam + rhs:
            return False
    for i in range(P.m):
        for j in range(i + 1, P.m):
            off = form_eval(P, i, j, x, NEG)
            if off is MINUS_INF:
                continue
            if pos_diag[i] + pos_diag[j] < 2 * (lam + off):
                return False
    return True


def membership_general(P: Pencil, x: Sequence[ExtReal]) -> bool:
    """Membership in the spectrahedron of a general (signed) pencil.

    Same order-1 condition; the order-2 condition allows the alternative
    that the off-diagonal form vanishes, i.e. Q_ij+(x) = Q_ij-(x).
    """
    if len(x) != P.n:
        raise ValidationError(f"point has {len(x)} coordinates, expected {P.n}")
    pos_diag = [form_eval(P, i, i, x, POS) for i in range(P.m)]
    for i in range(P.m):
        rhs = form_eval(P, i, i, x, NEG)
        if rhs is not MINUS_INF and pos_diag[i] < rhs:
            return False
    for i in range(P.m):
        for j in range(i + 1, P.m):
            plus = form_eval(P, i, j, x, POS)
            minus = form_eval(P, i, j, x, NEG)
            if plus == minus:
                continue  # vanishing off-diagonal entry
            off = max(plus, minus)
            if pos_diag[i] + pos_diag[j] < 2 * off:
                return False
    return True


# ---------------------------------------------------------------------------
# Metzlerization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Metzlerization:
    """A Metzler pencil over (x, y) whose projection to x is the original
    spectrahedron, plus the bookkeeping to construct witnesses.

    Variables 0..n-1 are the original ones; variable ``pair_var[(i, j)]``
    is the slack y_ij attached to matrix position (i, j), i < j.
    """

    pencil: Pencil
    source: Pencil
    pair_var: dict = field(hash=False)

    def witness(self, x: Sequence[ExtReal]) -> list:
        """Extend a point of the source pencil by candidate slack values:
        y_ij = -oo where the (i,j) forms vanish, else max(Q_ij+, Q_ij-)(x).

        For x in the source spectrahedron, (x, witness) lies in the lifted
        one; for x outside, no y works and this candidate fails membership.
        """
        n = self.source.n
        y: list[ExtReal] = [MINUS_INF] * len(self.pair_var)
        for (i, j), var in self.pair_var.items():
            plus = form_eval(self.source, i, j, x, POS)
            minus = form_eval(self.source, i, j, x, NEG)
            if plus == minus:
                y[var - n] = MINUS_INF
            else:
                y[var - n] = max(plus, minus)
        return list(x) + y


def metzlerize(P: Pencil) -> Metzlerization:
    """Rewrite a general pencil as a Metzler one with slack variables.

    One slack y_ij per position above the diagonal.  The output matrices
    are block diagonal; each block enforces one constraint family:

      * 1x1 per row i:        Q_ii+(x) >= Q_ii-(x)
      * 1x1 per pair (i,j):   max(y_ij, Q_ij+(x)) >= Q_ij-(x)
      * 1x1 per pair (i,j):   max(y_ij, Q_ij-(x)) >= Q_ij+(x)
      * 2x2 per pair (i,j):   Q_ii+(x) + Q_jj+(x) >= 2 y_ij

    A point x belongs to the source spectrahedron iff some (x, y) belongs
    to the lifted one; see ``Metzlerization.witness``.  Variables 0..n-1
    keep their indices, so the lift keeps the affine flag.
    """
    n, m = P.n, P.m
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    pair_var = {pair: n + idx for idx, pair in enumerate(pairs)}
    # pair (i, j), i < j, owns the four rows from base(i, j): families 2
    # and 3 on the first two, family 4's 2x2 block on the last two
    base = lambda i, j: m + 4 * (i * m - i * (i + 1) // 2 + j - i - 1)
    diag = P.i == P.j
    off = ~diag
    # families 2 and 3: the (i, j) entries, keeping resp. flipping the sign
    row23 = base(P.i[off], P.j[off])
    # family 4: a positive Q^(k)_rr once per pair with corner r, on the
    # block's row 2 when r is the pair's first corner and on row 3 otherwise
    pos_diag = np.flatnonzero(diag & (P.sign == POS))
    r = P.i[pos_diag][:, None]
    c = np.arange(m - 1)[None, :]
    c = c + (c >= r)  # the m - 1 other rows
    row4 = (base(np.minimum(r, c), np.maximum(r, c)) + 2 + (r > c)).ravel()
    pos_diag = pos_diag.repeat(m - 1)
    # the slack y_ij: +0 on rows 0 and 1 of its block, (-)0 off the diagonal
    slack = np.repeat(n + np.arange(len(pairs)), 3)
    slack_base = m + 4 * np.arange(len(pairs))[:, None]
    slack_i = (slack_base + [0, 1, 2]).ravel()
    slack_j = (slack_base + [0, 1, 3]).ravel()
    slack_sign = np.tile(np.array([POS, POS, NEG], dtype=np.int8), len(pairs))
    lifted = Pencil.from_arrays(
        n + len(pairs), m + 4 * len(pairs),
        np.concatenate((P.k[diag], P.k[off], P.k[off], P.k[pos_diag], slack)),
        np.concatenate((P.i[diag], row23, row23 + 1, row4, slack_i)),
        np.concatenate((P.i[diag], row23, row23 + 1, row4, slack_j)),
        np.concatenate((P.sign[diag], P.sign[off], -P.sign[off],
                        P.sign[pos_diag], slack_sign)),
        np.concatenate((P.num[diag], P.num[off], P.num[off], P.num[pos_diag],
                        np.zeros(len(slack), dtype=np.int64))),
        P.den, affine=P.affine)
    return Metzlerization(pencil=lifted, source=P, pair_var=pair_var)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalizeResult:
    """Outcome of shrinking a Metzler pencil to well-formed shape.

    kind is one of:
      * "nontrivial" — some matrix ended up with no negative entry, so the
        unit-support point of ``witness_variable`` (original index) lies in
        the spectrahedron; no reduced pencil is produced.
      * "trivial" — every variable was forced to -oo, so the spectrahedron
        contains only the trivial point.
      * "reduced" — ``pencil`` satisfies the well-formedness assumption;
        ``variable_map``/``row_map`` give the original index of each kept
        variable/row, and the eliminated variables were each forced to -oo
        (under every margin lambda, so margins carry over unchanged).
    """

    kind: str
    pencil: Optional[Pencil] = None
    witness_variable: Optional[int] = None
    eliminated_variables: tuple = ()
    removed_rows: tuple = ()
    variable_map: tuple = ()
    row_map: tuple = ()

    def embed_point(self, x_reduced: Sequence[ExtReal], n_original: int) -> list:
        """Lift a point of the reduced pencil back to original coordinates
        (eliminated variables become -oo)."""
        full: list[ExtReal] = [MINUS_INF] * n_original
        for new_k, orig_k in enumerate(self.variable_map):
            full[orig_k] = x_reduced[new_k]
        return full


def _forced_reductions(P: Pencil):
    """Apply the forced row/variable eliminations to a fixpoint: no variable
    left, or every row covered.

    Returns (var, row, eliminated, removed_rows): the masks of the live
    variables and rows, and what went, in order.  Each pass takes the first
    live row with no live positive diagonal entry and kills its negative
    diagonal variables, or else every variable with an entry on it (all
    negative off the diagonal of a Metzler pencil), or, with no live entry
    left on it, drops the row.  Sound for any question about the
    spectrahedron: eliminated variables are -oo at every point of it (for
    every reinforcement lambda), and removed rows constrain nothing.
    """
    var, row = np.ones(P.n, dtype=bool), np.ones(P.m, dtype=bool)
    eliminated: list[int] = []
    removed_rows: list[int] = []
    diag = P.i == P.j
    neg_diag, pos_diag = diag & (P.sign == NEG), diag & (P.sign == POS)
    while var.any():
        live = var[P.k]  # a row goes only once no live entry is left on it
        uncovered = row.copy()
        uncovered[P.i[live & pos_diag]] = False
        r = uncovered.argmax()
        if not uncovered[r]:
            break
        on_row = live & ((P.i == r) | (P.j == r))
        dead = P.k[on_row & neg_diag]
        if not dead.size:
            dead = np.unique(P.k[on_row])
        if dead.size:
            var[dead] = False
            eliminated += dead.tolist()
        else:
            row[r] = False
            removed_rows.append(int(r))
    return var, row, eliminated, removed_rows


def _extract(P: Pencil, var: np.ndarray, row: np.ndarray) -> Pencil:
    """The pencil of the variables and rows of these masks, renumbered in
    order; the renumbering is monotone, so i <= j holds."""
    keep = var[P.k] & row[P.i] & row[P.j]
    k, r = np.cumsum(var) - 1, np.cumsum(row) - 1
    return Pencil.from_arrays(
        int(var.sum()), int(row.sum()), k[P.k[keep]], r[P.i[keep]],
        r[P.j[keep]], P.sign[keep], P.num[keep], P.den,
        affine=P.affine and bool(var[0]))


def all_positive_variables(P: Pencil) -> list:
    """Variables whose matrix has no negative entry; the unit-support point
    of any of them lies in the spectrahedron.  Forced reductions never kill
    one and never make one, so this is read off the whole pencil."""
    negative = np.bincount(P.k[P.sign == NEG], minlength=P.n)
    return np.nonzero(negative == 0)[0].tolist()


def normalize(P: Pencil) -> NormalizeResult:
    """Iteratively shrink a Metzler pencil until every matrix has a negative
    coefficient and every row has a positive diagonal coefficient somewhere.

    A matrix with no negative coefficient proves the spectrahedron
    nontrivial at once (its unit-support point satisfies everything).  The
    reduction steps are all forced: a row with no positive diagonal bounds
    its constraints' left side by -oo, which kills every variable appearing
    on the right (negative diagonal entries first, then negative
    off-diagonal entries), and an all--oo row constrains nothing.  The
    steps never leave a surviving variable without a negative entry -- a
    row goes only once every live entry on it is -oo, and a variable dies
    only for a negative entry on a live row -- so the nontrivial exit is
    checked once, before the first step.
    """
    require_metzler(P)
    witnesses = all_positive_variables(P)
    if witnesses:
        return NormalizeResult(kind="nontrivial", witness_variable=witnesses[0],
                               variable_map=tuple(range(P.n)),
                               row_map=tuple(range(P.m)))
    var, row, eliminated, removed_rows = _forced_reductions(P)
    if not var.any():
        kind, reduced = "trivial", None
    else:
        kind = "reduced"
        reduced = _extract(P, var, row) if (eliminated or removed_rows) else P
    return NormalizeResult(
        kind=kind,
        pencil=reduced,
        eliminated_variables=tuple(eliminated),
        removed_rows=tuple(removed_rows),
        variable_map=tuple(np.nonzero(var)[0].tolist()),
        row_map=tuple(np.nonzero(row)[0].tolist()),
    )
