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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

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

Matrix = tuple  # m x m tuple-of-tuples of SignedTrop


@dataclass(frozen=True)
class Pencil:
    """n symmetric m x m signed tropical matrices; variable k scales Q^(k).

    When ``affine`` is set, variable 0 plays the role of the affine constant:
    the pencil encodes Q^(0) + x_1 Q^(1) + ... and feasibility questions ask
    for points whose 0-th coordinate is finite.
    """

    n: int
    m: int
    matrices: tuple
    affine: bool = False

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValidationError(f"pencil needs n >= 1 and m >= 1, got ({self.n}, {self.m})")
        if len(self.matrices) != self.n:
            raise ValidationError(f"expected {self.n} matrices, got {len(self.matrices)}")
        for k, mat in enumerate(self.matrices):
            if len(mat) != self.m or any(len(row) != self.m for row in mat):
                raise ValidationError(f"matrix {k} is not {self.m}x{self.m}")
            for i in range(self.m):
                for j in range(i + 1, self.m):
                    if mat[i][j] != mat[j][i]:
                        raise ValidationError(
                            f"matrix {k} is not symmetric at ({i},{j})"
                        )

    @staticmethod
    def from_entries(n: int, m: int, entries, affine: bool = False) -> "Pencil":
        """Build from sparse (k, i, j, value) tuples with 0-based i <= j;
        missing positions are -oo, (j, i) is filled in symmetrically."""
        grids = [[[TROP_ZERO] * m for _ in range(m)] for _ in range(n)]
        for k, i, j, val in entries:
            if not 0 <= k < n:
                raise ValidationError(f"matrix index {k} out of range")
            if not (0 <= i <= j < m):
                raise ValidationError(f"entry index ({i},{j}) out of range")
            grids[k][i][j] = val
            grids[k][j][i] = val
        mats = tuple(tuple(tuple(row) for row in grid) for grid in grids)
        return Pencil(n, m, mats, affine)

    def entry(self, k: int, i: int, j: int) -> SignedTrop:
        return self.matrices[k][i][j]

    def is_metzler(self) -> bool:
        return all(
            self.matrices[k][i][j].sign != POS
            for k in range(self.n)
            for i in range(self.m)
            for j in range(self.m)
            if i != j
        )


def require_metzler(P: Pencil) -> None:
    if not P.is_metzler():
        raise ValidationError("operation requires a Metzler pencil "
                              "(off-diagonal entries negatively signed or -oo)")


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
    to the lifted one; see ``Metzlerization.witness``.
    """
    n, m = P.n, P.m
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    pair_var = {pair: n + idx for idx, pair in enumerate(pairs)}
    order = m + 4 * len(pairs)
    total_vars = n + len(pairs)

    # entries[v] collects (row, col, value) for the matrix of variable v
    entries: list[list] = [[] for _ in range(total_vars)]

    for i in range(m):  # family 1: row blocks carry the diagonal forms as-is
        for k in range(n):
            e = P.matrices[k][i][i]
            if not e.is_zero:
                entries[k].append((i, i, e))

    for idx, (i, j) in enumerate(pairs):
        base = m + 4 * idx
        yv = pair_var[(i, j)]
        # family 2 at `base`, family 3 at `base + 1`: the slack appears
        # positively in both; the (i,j) entries keep resp. flip their sign.
        entries[yv].append((base, base, SignedTrop.pos(0)))
        entries[yv].append((base + 1, base + 1, SignedTrop.pos(0)))
        for k in range(n):
            e = P.matrices[k][i][j]
            if e.is_zero:
                continue
            entries[k].append((base, base, e))
            entries[k].append((base + 1, base + 1, e.negated()))
        # family 4: 2x2 block with the positive diagonal parts of rows i, j
        # on its diagonal and the slack on its off-diagonal.
        for k in range(n):
            di = P.matrices[k][i][i]
            if di.sign == POS:
                entries[k].append((base + 2, base + 2, di))
            dj = P.matrices[k][j][j]
            if dj.sign == POS:
                entries[k].append((base + 3, base + 3, dj))
        entries[yv].append((base + 2, base + 3, SignedTrop.neg(0)))

    flat = [(k, i, j, v) for k, triplets in enumerate(entries)
            for i, j, v in triplets]
    lifted = Pencil.from_entries(total_vars, order, flat)
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


def _positive_row_step(P: Pencil, vars_alive: list, rows_alive: list):
    """One forced reduction for a row lacking any positive diagonal entry.

    Returns ("vars", dead_list) or ("row", i), or None when every row is
    covered.  A row i with Q_ii+ identically -oo kills all variables with a
    negative entry on it (diagonal ones first, then off-diagonal ones), and
    disappears itself once entirely -oo.
    """
    for i in rows_alive:
        if any(P.matrices[k][i][i].sign == POS for k in vars_alive):
            continue
        dead = [k for k in vars_alive if P.matrices[k][i][i].sign == NEG]
        if dead:
            return "vars", dead
        if all(
            P.matrices[k][i][j].is_zero
            for k in vars_alive
            for j in rows_alive
        ):
            return "row", i
        dead = [
            k
            for k in vars_alive
            if any(P.matrices[k][i][j].sign == NEG for j in rows_alive if j != i)
        ]
        return "vars", dead
    return None


def _reduction_states(P: Pencil):
    """Apply the forced row/variable eliminations one step at a time.

    Yields (vars_alive, rows_alive, eliminated, removed_rows) before each
    step and, last, at the fixpoint: no variable left, or every row
    covered.  Each step is one ``_positive_row_step``; a consumer may stop
    early, as ``normalize`` does.
    """
    vars_alive = list(range(P.n))
    rows_alive = list(range(P.m))
    eliminated: list[int] = []
    removed_rows: list[int] = []
    while True:
        yield vars_alive, rows_alive, eliminated, removed_rows
        step = _positive_row_step(P, vars_alive, rows_alive) if vars_alive else None
        if step is None:
            return
        what, payload = step
        if what == "vars":
            vars_alive = [k for k in vars_alive if k not in payload]
            eliminated = eliminated + payload
        else:
            rows_alive = [i for i in rows_alive if i != payload]
            removed_rows = removed_rows + [payload]


def _forced_reductions(P: Pencil):
    """Apply the forced row/variable eliminations to a fixpoint.

    Returns (vars_alive, rows_alive, eliminated, removed_rows), the last
    state of ``_reduction_states``.  Sound for any question about the
    spectrahedron: eliminated variables are -oo at every point of it (for
    every reinforcement lambda), and removed rows constrain nothing.
    """
    for state in _reduction_states(P):
        pass
    return state


def _extract(P: Pencil, vars_alive: Sequence[int], rows_alive: Sequence[int]) -> Pencil:
    mats = tuple(
        tuple(tuple(P.matrices[k][i][j] for j in rows_alive) for i in rows_alive)
        for k in vars_alive
    )
    return Pencil(len(vars_alive), len(rows_alive), mats,
                  affine=P.affine and 0 in vars_alive)


def all_positive_variables(P: Pencil, vars_alive: Sequence[int],
                           rows_alive: Sequence[int]) -> list:
    """Variables whose matrix has no negative entry on the given rows; the
    unit-support point of any of them lies in the spectrahedron."""
    return [
        k
        for k in vars_alive
        if all(
            P.matrices[k][i][j].sign != NEG
            for i in rows_alive
            for j in rows_alive
        )
    ]


def normalize(P: Pencil) -> NormalizeResult:
    """Iteratively shrink a Metzler pencil until every matrix has a negative
    coefficient and every row has a positive diagonal coefficient somewhere.

    The reduction steps are all forced: a row with no positive diagonal
    bounds its constraints' left side by -oo, which kills every variable
    appearing on the right (negative diagonal entries first, then negative
    off-diagonal entries), and an all--oo row constrains nothing.
    A matrix with no negative coefficient immediately proves the
    spectrahedron nontrivial (its unit-support point satisfies everything).
    Both exits are checked on every state of ``_reduction_states`` before
    its next step is taken; the "reduced" outcome is its fixpoint.
    """
    require_metzler(P)
    kind, witness, reduced = "reduced", None, None
    for vars_alive, rows_alive, eliminated, removed_rows in _reduction_states(P):
        if not vars_alive:
            kind = "trivial"
            break
        witnesses = all_positive_variables(P, vars_alive, rows_alive)
        if witnesses:
            kind, witness = "nontrivial", witnesses[0]
            break
    else:
        reduced = _extract(P, vars_alive, rows_alive) if (eliminated or removed_rows) else P
    return NormalizeResult(
        kind=kind,
        pencil=reduced,
        witness_variable=witness,
        eliminated_variables=tuple(eliminated),
        removed_rows=tuple(removed_rows),
        variable_map=tuple(vars_alive),
        row_map=tuple(rows_alive),
    )

