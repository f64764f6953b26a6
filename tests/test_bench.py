"""Random instance generation, dense sweeps, and CSV output."""

from fractions import Fraction

import numpy as np
import pytest

from tropsdp import StochGame, ValidationError, game_from_pencil, jsonio
from tropsdp.bench import (
    CSV_HEADER,
    CellResult,
    GenSpec,
    _draw_moduli,
    _run_sample,
    _sample_seed,
    gen_random,
    phase_diagram,
    to_csv,
)
from tropsdp.exact import game_value_bruteforce
from tropsdp.shapley import K0, _decide, apply_F, value_iteration_raw
from tropsdp.tropical import POS, NEG

from conftest import entry_of, first_checked_certificate

F = Fraction


def test_spec_validation():
    with pytest.raises(ValidationError):
        GenSpec(0, 3, 1)
    with pytest.raises(ValidationError):
        GenSpec(3, 0, 1)
    with pytest.raises(ValidationError):
        GenSpec(3, 3, -1)
    with pytest.raises(ValidationError):
        GenSpec(3, 3, 1, entry_grid=1)


def test_generator_is_deterministic():
    a = gen_random(GenSpec(4, 3, seed=123))
    b = gen_random(GenSpec(4, 3, seed=123))
    c = gen_random(GenSpec(4, 3, seed=124))
    assert a == b
    assert a != c


def test_generated_pencils_are_dense_normalized_metzler():
    P = gen_random(GenSpec(3, 4, seed=7))
    assert (P.n, P.m) == (3, 4)
    assert P.is_metzler()
    for k in range(P.n):
        for i in range(P.m):
            for j in range(i, P.m):
                e = entry_of(P, k, i, j)
                assert e.sign == (POS if i == j else NEG)
                assert 0 <= e.modulus <= 1
                assert e.modulus.denominator & (e.modulus.denominator - 1) == 0
    # dense: every position on and above the diagonal is listed once
    assert len(P.k) == P.n * P.m * (P.m + 1) // 2


def test_generated_pencil_survives_json_round_trip():
    P = gen_random(GenSpec(2, 3, seed=9, entry_grid=64))
    assert jsonio.pencil_from_json(jsonio.pencil_to_json(P)) == P


def test_dense_instance_needs_room_for_min():
    with pytest.raises(ValidationError):
        phase_diagram([3], [1], samples=1, timing=False)


def test_phase_refuses_a_small_m_before_deciding(monkeypatch):
    decided = []
    monkeypatch.setattr("tropsdp.bench._decide",
                        lambda *args: decided.append(args) or _decide(*args))
    with pytest.raises(ValidationError):
        phase_diagram([3], [3, 1], samples=2, timing=False)
    assert decided == []


@pytest.mark.parametrize("n_list, seed, max_iters",
                         [([3, 0], 0, 10), ([3], -1, 10), ([3], 0, 0)],
                         ids=["n-zero", "seed-negative", "max-iters-zero"])
def test_phase_refuses_a_bad_size_or_seed_before_deciding(n_list, seed, max_iters,
                                                         monkeypatch):
    decided = []
    monkeypatch.setattr("tropsdp.bench._decide",
                        lambda *args: decided.append(args) or _decide(*args))
    with pytest.raises(ValidationError):
        phase_diagram(n_list, [2], samples=2, seed=seed, max_iters=max_iters,
                      timing=False)
    assert decided == []


def _dense_engine(spec):
    """The game of a generated instance, laid out by hand: Max state i
    moves to every variable k, rewarded by the diagonal modulus (i, i) of
    matrix k; Min state k moves to every row pair i < j, paying the
    modulus (i, j).  Rewards are the drawn numerators over the grid."""
    n, m = spec.n, spec.m
    numerators = _draw_moduli(spec)
    pairs = [(i, j) for i in range(m) for j in range(i, m)]
    diag_cols = [t for t, (i, j) in enumerate(pairs) if i == j]
    off_cols = [t for t, (i, j) in enumerate(pairs) if i < j]
    rows = np.array([pairs[t] for t in off_cols], dtype=np.intp)
    p = len(off_cols)
    return StochGame.from_arrays(
        max_t=np.tile(np.arange(n, dtype=np.intp), m),
        max_seg=np.arange(0, m * n, n, dtype=np.intp),
        max_p=numerators[:, diag_cols].T.ravel(),
        min_i=np.tile(rows[:, 0], n),
        min_j=np.tile(rows[:, 1], n),
        min_seg=np.arange(0, n * p, p, dtype=np.intp),
        min_p=-numerators[:, off_cols].ravel(),
        den=spec.entry_grid)


ENGINE_ARRAYS = ("max_t", "max_seg", "max_p", "min_i", "min_j", "min_seg",
                 "min_p")


@pytest.mark.parametrize("n,m", [(4, 3), (10, 5), (7, 2), (30, 12)])
def test_dense_engine_equals_engine_of_generated_game(n, m):
    for seed in range(5):
        spec = GenSpec(n, m, seed=seed)
        built = _dense_engine(spec)
        reference = game_from_pencil(gen_random(spec))
        assert built == reference
        assert built.den == reference.den
        for name in ENGINE_ARRAYS:
            a, b = getattr(built, name), getattr(reference, name)
            assert a.dtype == b.dtype, name
            np.testing.assert_array_equal(a, b, err_msg=name)
        scale, _, step = built.operator(0, 1 << K0)
        x = np.random.default_rng(seed).integers(-2 * scale, 2 * scale, n)
        np.testing.assert_array_equal(step(x), reference.operator(0, 1 << K0)[2](x))


def test_dense_step_matches_exact_operator():
    # each step adds one halving, so the first K0 iterates on the grid of
    # K0 bits are exact and must equal the rational ones
    game = game_from_pencil(gen_random(GenSpec(4, 3, seed=42)))
    scale, _, step = game.operator(0, 1 << K0)
    x = np.zeros(4, dtype=np.int64)
    exact = (F(0),) * 4
    for _ in range(K0):
        x = step(x)
        exact = apply_F(game, exact)
        assert tuple(F(t, scale) for t in x.tolist()) == exact


# seeds of GenSpec(4, 3) whose iterates stay near 0 for long: the iterate
# is first >= 10^-6 in every entry at step 215 for 163 (Feasible), first
# <= -10^-6 at step 754 for 577 (Infeasible), and neither within 1000
# steps for 269 (value 1.7e-5 per step)
LATE_SEEDS = (163, 577, 269)


def checked_stop(spec):
    """(step, status) of the first checked iterate of the sweep's loop
    that is a certificate."""
    game = game_from_pencil(gen_random(spec))
    return first_checked_certificate(game.operator(0, 1 << K0), game.n, 1000)


def test_dense_iteration_matches_exact_verdict():
    # the sweeps' checked float loop and the exact loop, both with the
    # certificate stop
    for seed in (*range(5), *LATE_SEEDS):
        spec = GenSpec(4, 3, seed=seed)
        game = game_from_pencil(gen_random(spec))
        status, iters, _ = _run_sample(spec, 1000, False)
        exact_status, exact_iters, _, _, _ = value_iteration_raw(
            game, None, 1000, exact=True)
        assert (status, iters) == (exact_status, exact_iters)
        if seed in LATE_SEEDS:
            assert (iters, status) == checked_stop(spec)


@pytest.mark.parametrize("seed,status", zip(
    LATE_SEEDS, ("feasible", "infeasible", "feasible")))
def test_sweep_samples_stop_at_a_certificate(seed, status):
    # the sweep stops at the first checked iterate that is a certificate,
    # long before the iterate clears 10^-6; the sign of the value, from policy
    # enumeration, agrees with the stop
    spec = GenSpec(4, 3, seed=seed)
    stop, certified = checked_stop(spec)
    assert _run_sample(spec, 1000, False) == (status, stop, None)
    assert certified == status
    chi = game_value_bruteforce(game_from_pencil(gen_random(spec))).chi
    assert all(c > 0 for c in chi) == (status == "feasible")
    assert all(c < 0 for c in chi) == (status == "infeasible")


def test_sample_seeds_are_stable_and_distinct():
    assert _sample_seed(0, 10, 4, 2) == _sample_seed(0, 10, 4, 2)
    seeds = {_sample_seed(0, n, m, s)
             for n in (5, 10) for m in (2, 3) for s in range(4)}
    assert len(seeds) == 16


def test_cell_result_csv_row():
    cell = CellResult(10, 4, samples=8, feasible=6, indeterminate=1,
                      mean_iters=F(35, 2), mean_time_s=None)
    assert cell.feasible_ratio == F(3, 4)
    assert cell.csv_row() == "10,4,8,0.75,1,17.5,"
    timed = CellResult(10, 4, 8, 6, 1, F(35, 2), 0.001234567)
    assert timed.csv_row().endswith(",0.001235")


def test_phase_diagram_is_reproducible_without_timing():
    kwargs = dict(samples=4, seed=3, max_iters=2000, timing=False)
    first = phase_diagram([4], [2, 3], **kwargs)
    second = phase_diagram([4], [2, 3], **kwargs)
    assert first == second
    assert [(c.n, c.m) for c in first] == [(4, 2), (4, 3)]
    for cell in first:
        assert cell.mean_time_s is None
        assert 0 <= cell.feasible_ratio <= 1
        assert cell.samples == 4


def test_phase_diagram_records_timing_by_default():
    (cell,) = phase_diagram([3], [2], samples=2, seed=1, max_iters=2000)
    assert cell.mean_time_s is not None
    assert cell.mean_time_s >= 0


def test_phase_diagram_needs_samples():
    with pytest.raises(ValidationError):
        phase_diagram([3], [2], samples=0)


def test_readme_phase_sweep_is_unchanged():
    # the README sweep's CSV, pinned byte for byte: a change to the operator
    # arrays or the loop that moves a verdict or an iteration count shows here
    cells = phase_diagram([10], [2, 10, 20, 30, 40], samples=10, timing=False)
    assert to_csv(cells) == (
        "n,m,samples,feasible_ratio,indeterminate,mean_iters,mean_time_s\n"
        "10,2,10,1,0,1,\n"
        "10,10,10,0,0,1,\n"
        "10,20,10,0,0,1,\n"
        "10,30,10,0,0,1,\n"
        "10,40,10,0,0,1,\n"
    )


def test_to_csv_layout():
    cells = phase_diagram([3], [2, 3], samples=2, seed=0, max_iters=2000,
                          timing=False)
    text = to_csv(cells)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3


def test_to_csv_empty():
    assert to_csv([]) == CSV_HEADER + "\n"
