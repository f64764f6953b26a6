"""Pencils: membership, Metzlerization and normalization."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tropsdp import (Pencil, ValidationError, apply_F, game_from_pencil,
                     membership_general, membership_metzler, metzlerize,
                     normalize, require_metzler, support)
from tropsdp.errors import AssumptionViolated
from tropsdp.pencil import (NormalizeResult, _extract, _forced_reductions,
                            all_positive_variables, int_array)
from tropsdp.tropical import MINUS_INF, NEG, POS, TROP_ZERO, SignedTrop

from conftest import entry_of

F = Fraction


def P(sign, val):
    return SignedTrop.pos(F(val)) if sign == "+" else SignedTrop.neg(F(val))


# -- strategies --------------------------------------------------------------

mods = st.fractions(min_value=F(-2), max_value=F(2), max_denominator=4)

metzler_diag = st.one_of(st.just(TROP_ZERO), st.builds(SignedTrop.pos, mods),
                         st.builds(SignedTrop.neg, mods))
metzler_off = st.one_of(st.just(TROP_ZERO), st.builds(SignedTrop.neg, mods))
any_entry = st.one_of(st.just(TROP_ZERO), st.builds(SignedTrop.pos, mods),
                      st.builds(SignedTrop.neg, mods))


@st.composite
def metzler_pencils(draw, max_n=3, max_m=3):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    entries = []
    for k in range(n):
        for i in range(m):
            entries.append((k, i, i, draw(metzler_diag)))
            for j in range(i + 1, m):
                entries.append((k, i, j, draw(metzler_off)))
    return Pencil.from_entries(n, m, entries)


@st.composite
def general_pencils(draw, max_n=3, max_m=3):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    entries = []
    for k in range(n):
        for i in range(m):
            entries.append((k, i, i, draw(metzler_diag)))
            for j in range(i + 1, m):
                entries.append((k, i, j, draw(any_entry)))
    return Pencil.from_entries(n, m, entries)


def points(n):
    coord = st.one_of(st.just(MINUS_INF), mods)
    return st.lists(coord, min_size=n, max_size=n)


# -- construction ------------------------------------------------------------

def test_from_entries_rejects_bad_indices():
    with pytest.raises(ValidationError):
        Pencil.from_entries(1, 2, [(0, 1, 0, P("-", 0))])  # i > j
    with pytest.raises(ValidationError):
        Pencil.from_entries(1, 2, [(2, 0, 0, P("+", 0))])  # k out of range


def test_pencil_sorts_entries_over_the_least_denominator():
    reference = Pencil.from_entries(2, 2, [
        (1, 0, 1, P("-", "1/3")), (0, 1, 1, P("+", "5/4")), (0, 0, 0, P("-", 2))])
    shuffled = Pencil(2, 2, [1, 0, 0], [0, 1, 0], [1, 1, 0], [NEG, POS, NEG],
                      np.array([2, 10, 4]), np.array([6, 8, 2]))
    assert shuffled == reference
    assert (reference.den, reference.k.tolist(), reference.num.tolist()) == \
        (12, [0, 0, 1], [24, 15, 4])
    assert entry_of(reference, 1, 1, 0) == P("-", "1/3")
    # without the entry over 3, the kept moduli share the denominator 4
    assert _extract(reference, np.array([True, False]),
                    np.array([True, True])).den == 4


# the 1 x 2 pencil with +1 at (1, 1) and -0 at (1, 2)
COLUMNS = dict(n=1, m=2, k=[0, 0], i=[0, 0], j=[0, 1], sign=[POS, NEG],
               num=np.array([1, 0]), den=1)


@pytest.mark.parametrize("change, reason", [
    ({"n": 0}, "n >= 1 and m >= 1, got \\(0, 2\\)"),
    ({"m": 0}, "n >= 1 and m >= 1, got \\(1, 0\\)"),
    ({"k": [0, 3]}, "0 <= k < 1 and 0 <= i <= j < 2"),
    ({"k": [-1, 0]}, "0 <= k < 1"),
    ({"k": [0.5, 0]}, "positions k, i, j must be integers"),
    ({"i": [-1, 0]}, "0 <= i <= j < 2"),
    ({"i": [0, 1], "j": [1, 0]}, "0 <= i <= j < 2"),
    ({"j": [0, 2]}, "0 <= i <= j < 2"),
    ({"j": [0, 0]}, "two entries at one position"),
    ({"k": [0, 0, 0], "i": [0, 0, 0], "j": [1, 0, 1], "sign": [NEG, POS, NEG],
      "num": np.array([0, 1, 2])}, "two entries at one position"),
    ({"sign": [POS, 0]}, "signs must be 1 or -1"),
    ({"sign": [2, NEG]}, "signs must be 1 or -1"),
    ({"den": 0}, "denominators must be positive"),
    ({"den": np.array([1, -2])}, "denominators must be positive"),
    ({"num": np.array([1])}, "columns differ in length"),
    ({"sign": [POS]}, "columns differ in length"),
    ({"den": np.array([1, 1, 1])}, "columns differ in length"),
], ids=["n-zero", "m-zero", "k-past-n", "k-negative", "k-fractional",
        "i-negative", "i-above-j", "j-past-m", "duplicate",
        "duplicate-unsorted", "sign-zero", "sign-two", "den-zero",
        "den-negative", "short-num", "short-sign", "long-den"])
def test_pencil_refuses_malformed_columns(change, reason):
    assert Pencil(**COLUMNS).num.tolist() == [1, 0]
    # no entries: the empty columns of from_entries are float arrays
    assert Pencil.from_entries(1, 2, []).k.size == 0
    with pytest.raises(ValidationError, match=reason):
        Pencil(**dict(COLUMNS, **change))


def test_pencil_equality_defers_to_other_types(running_pencil):
    assert running_pencil.__eq__("pencil") is NotImplemented
    assert running_pencil != "pencil"


def test_require_metzler(running_pencil):
    require_metzler(running_pencil)  # no raise
    bad = Pencil.from_entries(1, 2, [(0, 0, 1, P("+", 0))])
    with pytest.raises(ValidationError):
        require_metzler(bad)


def test_support():
    assert support([MINUS_INF, F(0), F(-3)]) == frozenset({1, 2})


# -- membership on the worked example ---------------------------------------

def test_running_example_membership(running_pencil):
    assert membership_metzler(running_pencil, [F(0), F(-1), F(0)])
    assert not membership_metzler(running_pencil, [F(0), F(-2), F(0)])


def test_running_example_reinforced_membership(running_pencil):
    # the margin of this instance is 1/28, so slightly smaller lambdas keep
    # a suitable point inside and larger ones empty the reinforced set
    x = [F(0), F(-1), F(0)]
    assert membership_metzler(running_pencil, x, F(0))
    assert not membership_metzler(running_pencil, x, F(1))


def test_membership_rejects_wrong_arity(running_pencil):
    with pytest.raises(ValidationError):
        membership_metzler(running_pencil, [F(0)])


def test_general_membership_rejects_wrong_arity(running_pencil):
    with pytest.raises(ValidationError, match="point has 2 coordinates, expected 3"):
        membership_general(running_pencil, [F(0), F(0)])


def test_trivial_point_always_member(running_pencil):
    assert membership_metzler(running_pencil, [MINUS_INF] * 3)


def huge_pencil(off_sign):
    """A 3 x 2 pencil over the denominator 3 with moduli past 10^400; its
    (0, 1) entry in Q^(0) has the sign off_sign.  The huge parts cancel in
    the comparisons, so only exact integers see what is left."""
    rows = [(0, 0, 0, POS, 10**400 + 1), (0, 0, 1, off_sign, 10**400),
            (0, 1, 1, POS, 10**400 + 4), (1, 0, 0, NEG, 2),
            (1, 0, 1, NEG, 10**400 + 3), (1, 1, 1, POS, 1),
            (2, 0, 0, POS, 7), (2, 1, 1, NEG, 10**400 + 2)]
    k, i, j, sign, num = zip(*rows)
    return Pencil(3, 2, k, i, j, sign, int_array(num), 3)


@pytest.mark.parametrize("x", [
    (F(1, 2), MINUS_INF, F(3, 5)), (F(3, 2), F(1, 2), MINUS_INF),
    (MINUS_INF, F(2, 7), F(1, 2)), (F(-1, 2), F(1, 5), MINUS_INF),
    (F(0), MINUS_INF, MINUS_INF), (F(1, 7), MINUS_INF, F(1, 2)),
    (F(1, 2), F(-1, 2), F(1, 4))])
def test_membership_is_exact_past_int64(x):
    # the Metzler pencil against its game's sublevel sets, at the margin
    # of x (the largest lambda that keeps it inside) and around it
    P = huge_pencil(NEG)
    assert (P.den, P.num.dtype) == (3, object)
    fx = apply_F(game_from_pencil(P), x)
    margin = min(f - v for v, f in zip(x, fx) if v is not MINUS_INF)
    for lam in (margin - F(1, 10), margin, margin + F(1, 10), F(0), F(5, 6)):
        inside = all(lam + v <= f for v, f in zip(x, fx))
        assert membership_metzler(P, x, lam) == inside, lam
    # (3/2, 1/2, -oo) makes the (0, 1) forms of the general variant equal
    general = huge_pencil(POS)
    lift = metzlerize(general)
    assert membership_general(general, x) == \
        membership_metzler(lift.pencil, lift.witness(x))


@given(metzler_pencils(), st.data())
def test_membership_shift_invariance(Pz, data):
    """The spectrahedron is a cone: adding a constant to every coordinate
    (tropical scaling) cannot change membership."""
    x = data.draw(points(Pz.n))
    c = data.draw(mods)
    shifted = [MINUS_INF if v is MINUS_INF else v + c for v in x]
    assert membership_metzler(Pz, x) == membership_metzler(Pz, shifted)


@given(metzler_pencils(), st.data())
def test_membership_closed_under_max(Pz, data):
    x = data.draw(points(Pz.n))
    y = data.draw(points(Pz.n))
    if membership_metzler(Pz, x) and membership_metzler(Pz, y):
        assert membership_metzler(Pz, [max(a, b) for a, b in zip(x, y)])


@given(metzler_pencils(), st.data())
def test_membership_monotone_in_lambda(Pz, data):
    x = data.draw(points(Pz.n))
    lo = data.draw(mods)
    hi = lo + data.draw(st.fractions(min_value=0, max_value=2, max_denominator=4))
    if membership_metzler(Pz, x, hi):
        assert membership_metzler(Pz, x, lo)


@given(metzler_pencils(), st.data())
def test_general_membership_agrees_on_metzler_pencils(Pz, data):
    """With no positive off-diagonal entries the vanishing disjunct can
    only fire when the negative part is -oo too, so both notions agree."""
    x = data.draw(points(Pz.n))
    assert membership_general(Pz, x) == membership_metzler(Pz, x)


# -- metzlerization ----------------------------------------------------------

def test_metzlerize_shape_and_output_is_metzler():
    Pg = Pencil.from_entries(2, 2, [
        (0, 0, 0, P("+", 1)), (0, 0, 1, P("+", 0)),
        (1, 0, 1, P("-", "1/2")), (1, 1, 1, P("+", 0)),
    ])
    assert not Pg.is_metzler()
    M = metzlerize(Pg)
    pairs = 1  # m = 2 has a single off-diagonal pair
    assert M.pencil.n == Pg.n + pairs
    assert M.pencil.m == Pg.m + 4 * pairs
    assert M.pencil.is_metzler()
    assert M.source is Pg


@pytest.mark.parametrize("affine", [False, True])
def test_metzlerize_keeps_the_affine_flag(affine):
    # variables 0..n-1 keep their indices, so variable 0 stays the affine one
    Pg = Pencil.from_entries(1, 2, [(0, 0, 0, P("+", 0)), (0, 0, 1, P("+", 1))],
                             affine=affine)
    lifted = metzlerize(Pg).pencil
    assert lifted.affine is affine
    assert lifted.n == 2


@settings(max_examples=60)
@given(general_pencils(), st.data())
def test_metzlerize_membership_projection(Pg, data):
    """Membership in a general pencil coincides with membership of the
    canonical lifted point in the Metzlerized pencil."""
    x = data.draw(points(Pg.n))
    M = metzlerize(Pg)
    lifted = M.witness(x)
    assert membership_general(Pg, x) == membership_metzler(M.pencil, lifted)


def test_metzlerize_on_metzler_input_preserves_membership(running_pencil):
    M = metzlerize(running_pencil)
    x = [F(0), F(-1), F(0)]
    assert membership_metzler(M.pencil, M.witness(x))
    y = [F(0), F(-2), F(0)]
    assert not membership_metzler(M.pencil, M.witness(y))


# -- normalization -----------------------------------------------------------

def test_normalize_trivial_single_negative_diagonal():
    Pz = Pencil.from_entries(1, 1, [(0, 0, 0, P("-", 0))])
    res = normalize(Pz)
    assert res.kind == "trivial"
    assert res.eliminated_variables == (0,)


def test_normalize_nontrivial_positive_matrix():
    Pz = Pencil.from_entries(1, 1, [(0, 0, 0, P("+", 0))])
    res = normalize(Pz)
    assert res.kind == "nontrivial"
    assert res.witness_variable == 0
    assert membership_metzler(Pz, [F(0)])


def test_normalize_keeps_well_formed_instances(running_pencil):
    res = normalize(running_pencil)
    assert res.kind == "reduced"
    assert res.pencil is running_pencil
    assert res.eliminated_variables == ()
    assert res.variable_map == (0, 1, 2)


def test_normalize_finds_witness_before_any_elimination():
    # variable 1 is free of negative coefficients from the start, so the
    # nontrivial verdict short-circuits the forced reductions entirely
    # (variable 0's doomed diagonal never gets processed)
    Pz = Pencil.from_entries(2, 2, [
        (0, 1, 1, P("-", 0)),
        (1, 0, 0, P("+", 0)),
    ])
    res = normalize(Pz)
    assert res.kind == "nontrivial"
    assert res.witness_variable == 1
    assert res.eliminated_variables == ()


def test_normalize_off_diagonal_on_dead_row_kills_both_variables():
    # same shape but variable 1 also has an off-diagonal entry on the dead
    # row: the 2x2 constraint (-oo on the left) forces it to -oo as well
    Pz = Pencil.from_entries(2, 2, [
        (0, 1, 1, P("-", 0)),
        (1, 0, 0, P("+", 0)), (1, 0, 1, P("-", 3)),
    ])
    res = normalize(Pz)
    assert res.kind == "trivial"
    assert set(res.eliminated_variables) == {0, 1}


def test_normalize_stops_at_trivial_before_the_fixpoint():
    # row 0 is -oo everywhere and goes first; row 1 has no positive diagonal,
    # which kills variable 0 (its diagonal) and then variable 1 (its
    # off-diagonal entry).  With no variable left the loop stops: rows 1-3
    # stay in row_map although further steps would now remove them.
    Pz = Pencil.from_entries(2, 4, [
        (0, 1, 1, P("-", 0)), (0, 2, 2, P("+", 0)),
        (1, 1, 2, P("-", 1)), (1, 3, 3, P("+", 0)),
    ])
    res = normalize(Pz)
    assert res.kind == "trivial"
    assert res.witness_variable is None
    assert res.eliminated_variables == (0, 1)
    assert res.removed_rows == (0,)
    assert (res.variable_map, res.row_map) == ((), (1, 2, 3))
    var, row, eliminated, removed = _forced_reductions(Pz)
    assert (var.tolist(), row.tolist()) == ([False] * 2, [False] + [True] * 3)
    assert (eliminated, removed) == ([0, 1], [0])


def test_normalize_removes_empty_rows_and_embeds_points():
    # row 2 is -oo everywhere: constrains nothing and gets dropped
    Pz = Pencil.from_entries(2, 3, [
        (0, 0, 0, P("+", 0)), (0, 0, 1, P("-", 0)),
        (1, 1, 1, P("+", 0)), (1, 0, 1, P("-", 5)),
    ])
    res = normalize(Pz)
    assert res.kind == "reduced"
    assert res.removed_rows == (2,)
    assert res.pencil.m == 2 and res.pencil.n == 2
    embedded = res.embed_point([F(5), F(7)], 2)
    assert embedded == [F(5), F(7)]


@given(metzler_pencils(), st.data())
def test_normalize_verdicts_against_membership_oracle(Pz, data):
    """trivial => no nonzero grid point is a member; nontrivial => the
    witness ray is; reduced => membership transfers through the embedding
    and eliminated variables are forced to -oo."""
    res = normalize(Pz)
    if res.kind == "trivial":
        for _ in range(20):
            x = data.draw(points(Pz.n))
            if support(x):
                assert not membership_metzler(Pz, x)
    elif res.kind == "nontrivial":
        ray = [MINUS_INF] * Pz.n
        ray[res.witness_variable] = F(0)
        assert membership_metzler(Pz, ray)
    else:
        reduced = res.pencil
        for _ in range(10):
            xr = data.draw(points(reduced.n))
            full = res.embed_point(xr, Pz.n)
            assert membership_metzler(reduced, xr) == membership_metzler(Pz, full)
        for gone in res.eliminated_variables:
            x = data.draw(points(Pz.n))
            x[gone] = data.draw(mods)
            assert not membership_metzler(Pz, x)


def test_nontrivial_witness_is_always_a_member():
    # targeted regression: the witness variable must come from the original
    # indexing even after eliminations shuffled things around
    Pz = Pencil.from_entries(3, 2, [
        (0, 1, 1, P("-", 0)),
        (1, 0, 0, P("+", 2)), (1, 0, 1, P("-", 1)),
        (2, 0, 0, P("+", 0)),
    ])
    res = normalize(Pz)
    assert res.kind == "nontrivial"
    ray = [MINUS_INF] * 3
    ray[res.witness_variable] = F(0)
    assert membership_metzler(Pz, ray)



def mask(size, alive):
    return np.isin(np.arange(size), list(alive))


def free_on_rows(Pz, vars_alive, rows_alive):
    """The live variables with no negative entry on the live rows."""
    rows = mask(Pz.m, rows_alive)
    negative = np.bincount(Pz.k[(Pz.sign == NEG) & rows[Pz.i] & rows[Pz.j]],
                           minlength=Pz.n)
    return [k for k in vars_alive if not negative[k]]


def positive_row_step(Pz, vars_alive, rows_alive):
    """One forced reduction for the first live row lacking a live positive
    diagonal entry: ("vars", dead) kills its negative diagonal variables, or
    else those of its negative off-diagonal entries, and ("row", i) drops it
    once no live entry is left on it.  None when every row is covered."""
    rows = mask(Pz.m, rows_alive)
    live = mask(Pz.n, vars_alive)[Pz.k] & rows[Pz.i] & rows[Pz.j]
    diag, neg = Pz.i == Pz.j, Pz.sign == NEG
    covered = np.bincount(Pz.i[live & diag & (Pz.sign == POS)], minlength=Pz.m)
    for i in rows_alive:
        if covered[i]:
            continue
        on_row = live & ((Pz.i == i) | (Pz.j == i))
        dead = Pz.k[on_row & diag & neg]
        if dead.size:
            return "vars", dead.tolist()
        if not on_row.any():
            return "row", i
        return "vars", sorted(set(Pz.k[on_row & neg].tolist()))
    return None


def extract_listed(Pz, vars_alive, rows_alive):
    """The pencil of the listed variables on the listed rows, renumbered in
    the order listed."""
    def renumber(size, alive):
        new = np.full(size, -1, dtype=np.intp)
        new[list(alive)] = np.arange(len(alive))
        return new

    k = renumber(Pz.n, vars_alive)[Pz.k]
    rows = renumber(Pz.m, rows_alive)
    i, j = rows[Pz.i], rows[Pz.j]
    keep = (k >= 0) & (i >= 0) & (j >= 0)
    return Pencil(
        len(vars_alive), len(rows_alive), k[keep], np.minimum(i, j)[keep],
        np.maximum(i, j)[keep], Pz.sign[keep], Pz.num[keep], Pz.den,
        affine=Pz.affine and 0 in vars_alive)


def stepwise_normalize(Pz):
    """``normalize`` as a step-by-step search over lists: both exits are
    tested on the state before every forced reduction, not only on the
    first one, and free variables are counted on the live rows only."""
    vars_alive, rows_alive = list(range(Pz.n)), list(range(Pz.m))
    eliminated, removed = [], []
    while True:
        if not vars_alive:
            return NormalizeResult("trivial", None, None, tuple(eliminated),
                                   tuple(removed), (), tuple(rows_alive))
        witnesses = free_on_rows(Pz, vars_alive, rows_alive)
        if witnesses:
            return NormalizeResult("nontrivial", None, witnesses[0],
                                   tuple(eliminated), tuple(removed),
                                   tuple(vars_alive), tuple(rows_alive))
        step = positive_row_step(Pz, vars_alive, rows_alive)
        if step is None:
            reduced = (extract_listed(Pz, vars_alive, rows_alive)
                       if eliminated or removed else Pz)
            return NormalizeResult("reduced", reduced, None, tuple(eliminated),
                                   tuple(removed), tuple(vars_alive),
                                   tuple(rows_alive))
        what, payload = step
        if what == "vars":
            vars_alive = [k for k in vars_alive if k not in payload]
            eliminated += payload
        else:
            rows_alive.remove(payload)
            removed.append(payload)


def test_normalize_matches_stepwise_search_on_a_corpus():
    # reductions never leave a surviving variable without a negative entry,
    # so testing the nontrivial exit once, before the first step, suffices
    rng = random.Random(11)
    kinds = {}
    for _ in range(20000):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        entries = []
        for k in range(n):
            for i in range(m):
                for j in range(i, m):
                    r = rng.random()
                    if r < 0.45:
                        continue
                    mod = F(rng.randint(-4, 4), rng.randint(1, 3))
                    entries.append((k, i, j, SignedTrop.neg(mod)
                                    if i < j or r < 0.7 else SignedTrop.pos(mod)))
        Pz = Pencil.from_entries(n, m, entries)
        res = normalize(Pz)
        assert res == stepwise_normalize(Pz)
        kind = res.kind
        if kind == "reduced":
            kind += " as-is" if res.pencil is Pz else " after reductions"
        kinds[kind] = kinds.get(kind, 0) + 1
    assert set(kinds) == {"nontrivial", "trivial", "reduced as-is",
                          "reduced after reductions"}
    assert min(kinds.values()) >= 100


def test_cell_keys_stay_inside_int64():
    # n m^2 < 2^63 keeps every cell key (k m + i) m + j inside int64
    m = math.isqrt(2**63 - 1)
    P = Pencil.from_entries(1, m, [(0, m - 1, m - 1, SignedTrop.pos(1)),
                                   (0, 0, m - 1, SignedTrop.neg(0))])
    assert (P.i.tolist(), P.j.tolist()) == ([0, m - 1], [m - 1, m - 1])
    with pytest.raises(ValidationError, match="n m\\^2 must be below 2\\^63"):
        Pencil.from_entries(1, m + 1, [(0, m, m, SignedTrop.pos(1))])
    with pytest.raises(ValidationError, match="too large"):
        Pencil.from_entries(2, m, [(1, m - 1, m - 1, SignedTrop.pos(1))])
