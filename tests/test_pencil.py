"""Pencils: membership, Metzlerization and normalization."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tropsdp import (Pencil, ValidationError, membership_general,
                     membership_metzler, metzlerize, normalize,
                     require_metzler, support)
from tropsdp.errors import AssumptionViolated
from tropsdp.pencil import (NormalizeResult, _extract, _forced_reductions,
                            all_positive_variables)
from tropsdp.tropical import MINUS_INF, NEG, POS, TROP_ZERO, SignedTrop

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
    mats = []
    for _ in range(n):
        grid = [[TROP_ZERO] * m for _ in range(m)]
        for i in range(m):
            grid[i][i] = draw(metzler_diag)
            for j in range(i + 1, m):
                grid[i][j] = grid[j][i] = draw(metzler_off)
        mats.append(tuple(tuple(r) for r in grid))
    return Pencil(n, m, tuple(mats))


@st.composite
def general_pencils(draw, max_n=3, max_m=3):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    mats = []
    for _ in range(n):
        grid = [[TROP_ZERO] * m for _ in range(m)]
        for i in range(m):
            grid[i][i] = draw(metzler_diag)
            for j in range(i + 1, m):
                grid[i][j] = grid[j][i] = draw(any_entry)
        mats.append(tuple(tuple(r) for r in grid))
    return Pencil(n, m, tuple(mats))


def points(n):
    coord = st.one_of(st.just(MINUS_INF), mods)
    return st.lists(coord, min_size=n, max_size=n)


# -- construction ------------------------------------------------------------

def test_pencil_validates_symmetry():
    with pytest.raises(ValidationError):
        Pencil(1, 2, (((TROP_ZERO, P("-", 0)), (TROP_ZERO, TROP_ZERO)),))


def test_from_entries_rejects_bad_indices():
    with pytest.raises(ValidationError):
        Pencil.from_entries(1, 2, [(0, 1, 0, P("-", 0))])  # i > j
    with pytest.raises(ValidationError):
        Pencil.from_entries(1, 2, [(2, 0, 0, P("+", 0))])  # k out of range


def test_from_arrays_sorts_entries_over_the_least_denominator():
    reference = Pencil.from_entries(2, 2, [
        (1, 0, 1, P("-", "1/3")), (0, 1, 1, P("+", "5/4")), (0, 0, 0, P("-", 2))])
    shuffled = Pencil.from_arrays(2, 2, [1, 0, 0], [0, 1, 0], [1, 1, 0],
                                  [NEG, POS, NEG], np.array([2, 10, 4]),
                                  np.array([6, 8, 2]))
    assert shuffled == reference
    assert (reference.den, reference.k.tolist(), reference.num.tolist()) == \
        (12, [0, 0, 1], [24, 15, 4])
    assert shuffled.matrices == reference.matrices
    assert reference.entry(1, 1, 0) == P("-", "1/3")
    # without the entry over 3, the kept moduli share the denominator 4
    assert _extract(reference, np.array([True, False]),
                    np.array([True, True])).den == 4


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


def test_trivial_point_always_member(running_pencil):
    assert membership_metzler(running_pencil, [MINUS_INF] * 3)


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
    return Pencil.from_arrays(
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
