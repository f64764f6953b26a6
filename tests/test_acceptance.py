"""Acceptance sweep: the eleven end-to-end guarantees this package ships
with, one test per guarantee.

Every random draw is seeded, so the sweep is deterministic; the wall-clock
assertions encode the promised budgets (translation under a millisecond,
the oracle-equivalence sweep under a minute, the phase sweep under two, the
large smoke instance under five seconds).  Each test finishes by printing
its own one-line verdict, visible with ``pytest -s``.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import product

from tropsdp import (
    MINUS_INF,
    MaxAction,
    MinAction,
    Pencil,
    SignedTrop,
    StochGame,
    analyze,
    apply_F,
    archimedean_threshold,
    chain_from_policies,
    check_feasibility,
    game_from_pencil,
    game_value_bruteforce,
    induced_subgame,
    is_dominion,
    is_winning_dominion,
    membership_general,
    membership_metzler,
    metzlerize,
    minimal_dominions,
    pencil_from_game,
    verify_subharmonic,
    winning_dominions,
)
from tropsdp.bench import GenSpec, gen_random, phase_diagram
from tropsdp.shapley import K0
from tropsdp.tropical import NEG, POS

F = Fraction


def _line(num: int, text: str) -> None:
    print(f"criterion {num:02d} PASS: {text}")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _grid_point(rng: random.Random, n: int, den: int = 8, span: int = 24,
                minus_inf_rate: float = 0.1) -> tuple:
    """Random tropical point on the grid (1/den)Z, with occasional -oo."""
    return tuple(
        MINUS_INF if rng.random() < minus_inf_rate else F(rng.randint(-span, span), den)
        for _ in range(n)
    )


def _random_game(rng: random.Random) -> StochGame:
    """Small game (n, m <= 3) with at most two actions per state and
    rewards on the half-integer grid."""
    n = rng.randint(1, 3)
    m = rng.randint(1, 3)

    def half() -> Fraction:
        return F(rng.randint(-4, 4), 2)

    min_actions = tuple(
        tuple(
            MinAction(tuple(sorted(rng.sample(range(m), rng.randint(1, min(2, m))))), half())
            for _ in range(rng.randint(1, 2))
        )
        for _ in range(n)
    )
    max_actions = tuple(
        tuple(MaxAction(rng.randrange(n), half()) for _ in range(rng.randint(1, 2)))
        for _ in range(m)
    )
    return StochGame(n, m, min_actions, max_actions)


def test_criterion_01_running_example_translation(running_pencil):
    """The shipped running example translates to exactly the documented game
    (eight rewards -3/4, 0, 0, 0, 1, -1, -5/4, 9/4) in under a millisecond."""
    expected = StochGame(
        3,
        3,
        min_actions=(
            (MinAction((0, 1), F(0)),),
            (MinAction((1,), F(0)),),
            (MinAction((0, 2), F(-3, 4)), MinAction((1, 2), F(0))),
        ),
        max_actions=(
            (MaxAction(2, F(1)),),
            (MaxAction(0, F(-1)), MaxAction(2, F(-5, 4))),
            (MaxAction(1, F(9, 4)),),
        ),
    )
    game = game_from_pencil(running_pencil)
    assert game == expected
    rewards = sorted(
        [a.reward for acts in game.min_actions for a in acts]
        + [b.reward for acts in game.max_actions for b in acts]
    )
    assert rewards == sorted([F(-3, 4), F(0), F(0), F(0), F(1), F(-1), F(-5, 4), F(9, 4)])
    best = min(_timed(lambda: game_from_pencil(running_pencil)) for _ in range(5))
    assert best < 1e-3
    _line(1, f"exact game reconstruction, best of 5 took {best * 1e6:.0f} us")


def test_criterion_02_markov_chain_oracle(running_pencil):
    """Both documented policy pairs yield their exact stationary laws and
    gains: (2,1,2,2,2,1)/10 with 3/40, and (4,1,2,2,4,1)/14 with 1/56."""
    game = game_from_pencil(running_pencil)

    both_first = analyze(chain_from_policies(game, (0, 0, 0), (0, 0, 0)))
    assert both_first.recurrent_classes == (frozenset(range(6)),)
    assert both_first.stationary == (
        {0: F(2, 10), 1: F(1, 10), 2: F(2, 10), 3: F(2, 10), 4: F(2, 10), 5: F(1, 10)},
    )
    assert both_first.gain == (F(3, 40),) * 6

    switched = analyze(chain_from_policies(game, (0, 0, 1), (0, 0, 0)))
    assert switched.stationary == (
        {0: F(4, 14), 1: F(1, 14), 2: F(2, 14), 3: F(2, 14), 4: F(4, 14), 5: F(1, 14)},
    )
    assert switched.gain == (F(1, 56),) * 6
    _line(2, "stationary laws /10 and /14 with gains 3/40 and 1/56, exactly")


def test_criterion_03_exact_value_and_unique_optimal_pair(running_pencil):
    """Policy enumeration gives max chi = 1/56 exactly, attained by exactly
    one policy pair: Min's third state switches, Max's second state keeps
    the action towards Min's first state."""
    game = game_from_pencil(running_pencil)
    value = game_value_bruteforce(game)
    assert max(value.chi) == F(1, 56)
    assert value.chi == (F(1, 56),) * 3
    assert value.optimal_pair == ((0, 0, 1), (0, 0, 0))
    assert value.saddle_verified

    attaining = []
    for sigma in product(*(range(len(acts)) for acts in game.min_actions)):
        for tau in product(*(range(len(acts)) for acts in game.max_actions)):
            gain = analyze(chain_from_policies(game, sigma, tau)).gain
            if gain[: game.n] == value.chi:
                attaining.append((sigma, tau))
    assert attaining == [((0, 0, 1), (0, 0, 0))]
    _line(3, "max chi = 1/56, optimal pair ((0,0,1),(0,0,0)) unique among all pairs")


def test_criterion_04_value_iteration_feasible_with_exact_witness(running_pencil):
    """Value iteration answers Feasible within 100 iterations and its
    witness is strictly subharmonic in exact rationals."""
    game = game_from_pencil(running_pencil)
    report = check_feasibility(game)
    assert report.verdict == "Feasible"
    assert report.iterations <= 100
    holds, strict = verify_subharmonic(game, report.witness)
    assert holds and strict
    _line(4, f"Feasible after {report.iterations} iterations, witness strictly subharmonic")


def test_criterion_05_archimedean_threshold():
    threshold = archimedean_threshold(F(1, 56), F(0), 3, 3, diagonal=False)
    assert threshold.base == 12
    assert threshold.exponent == 28
    assert str(threshold) == "t > 12^28"
    _line(5, "threshold for lambda 1/56 on 3x3 pencils is t > 12^28")


def test_criterion_06_membership_equals_sublevel_set():
    """On fifty generated normalized Metzler pencils, reinforced membership
    agrees with lam + x <= F(x) componentwise for a thousand (x, lam) pairs
    each (two hundred points, five margins per point), exactly."""
    rng = random.Random(6)
    checks = 0
    for draw in range(50):
        n, m = rng.randint(1, 6), rng.randint(2, 6)
        pencil = gen_random(GenSpec(n, m, seed=1000 + draw, entry_grid=8))
        game = game_from_pencil(pencil)
        for _ in range(200):
            x = _grid_point(rng, pencil.n)
            fx = apply_F(game, x)
            for _ in range(5):
                lam = F(rng.randint(-8, 8), 8)
                inside = all(lam + xv <= fv for xv, fv in zip(x, fx))
                assert membership_metzler(pencil, x, lam) == inside, (pencil, x, lam)
                checks += 1
    assert checks == 50_000
    _line(6, "membership == sublevel set on 50 pencils x 1000 (x, lam) pairs, zero failures")


def test_criterion_07_value_iteration_matches_bruteforce_sign():
    """On 220 random small games, whenever the exact value is constant
    across states and nonzero, the iterative verdict matches its
    sign.  (Off the constant-value case the iteration promises nothing, so
    those draws are skipped.)"""
    rng = random.Random(7)
    start = time.perf_counter()
    decided = 0
    for _ in range(220):
        game = _random_game(rng)
        value = game_value_bruteforce(game)
        top = max(value.chi)
        if len(set(value.chi)) != 1 or top == 0:
            continue
        verdict = check_feasibility(game).verdict
        expected = "Feasible" if top > 0 else "Infeasible"
        assert verdict == expected, (game, value.chi, verdict)
        decided += 1
    elapsed = time.perf_counter() - start
    assert decided >= 60
    assert elapsed < 60.0
    _line(7, f"{decided} constant-value games out of 220 all matched in {elapsed:.1f}s")


def _random_general_pencil(rng: random.Random) -> Pencil:
    """Small symmetric pencil that is deliberately not Metzler: at least one
    off-diagonal slot carries a tropically positive entry."""
    n, m = rng.randint(1, 3), rng.randint(2, 3)
    entries = []
    for k in range(n):
        for i in range(m):
            for j in range(i, m):
                if rng.random() < 0.3:
                    continue  # leave the slot at -oo
                sign = POS if rng.random() < 0.5 else NEG
                entries.append((k, i, j, SignedTrop(sign, F(rng.randint(-8, 8), 4))))
    i = rng.randrange(m - 1)
    j = rng.randint(i + 1, m - 1)
    entries.append((rng.randrange(n), i, j, SignedTrop(POS, F(rng.randint(-8, 8), 4))))
    return Pencil.from_entries(n, m, entries)


def test_criterion_08_metzlerization_projection():
    """Membership in a general pencil is equivalent to membership of the
    constructed witness (x, y) in its Metzlerization, on 100 random
    non-Metzler pencils and ten points each."""
    rng = random.Random(8)
    checks = 0
    for _ in range(100):
        pencil = _random_general_pencil(rng)
        assert not pencil.is_metzler()
        lift = metzlerize(pencil)
        assert lift.pencil.is_metzler()
        for _ in range(10):
            x = _grid_point(rng, pencil.n, den=4, span=8, minus_inf_rate=0.15)
            witness = lift.witness(x)
            assert membership_general(pencil, x) == membership_metzler(lift.pencil, witness), (
                pencil, x)
            checks += 1
    assert checks == 1000
    _line(8, "general membership == lifted membership on 100 pencils x 10 points")


def test_criterion_09_dominions(dominion_game):
    """The dominion example has minimal dominions {1},{3},{4},{2,3,4}
    (1-based) and the unique winning dominion {3}; on random small games,
    dominions are exactly the supports where the operator stays finite, and
    strictly won/lost dominions match value iteration on the subgame."""
    fs = frozenset
    assert minimal_dominions(dominion_game) == [fs({0}), fs({2}), fs({3}), fs({1, 2, 3})]
    assert winning_dominions(dominion_game) == [fs({2})]

    rng = random.Random(9)
    supports = 0
    strict = 0
    for _ in range(40):
        game = _random_game(rng)
        pencil = pencil_from_game(game)
        for mask in range(1, 1 << game.n):
            D = fs(k for k in range(game.n) if mask >> k & 1)
            marker = tuple(F(0) if k in D else MINUS_INF for k in range(game.n))
            fmarker = apply_F(game, marker)
            closed = all(fmarker[k] is not MINUS_INF for k in D)
            assert is_dominion(game, D) == closed, (game, D)
            supports += 1
            if not closed:
                continue
            sub = induced_subgame(game, D)
            chi = game_value_bruteforce(sub).chi
            if min(chi) > 0:
                report = check_feasibility(sub)
                assert report.verdict == "Feasible"
                order = sorted(D)
                lifted = tuple(
                    report.witness[order.index(k)] if k in D else MINUS_INF
                    for k in range(game.n)
                )
                flifted = apply_F(game, lifted)
                assert all(xv <= fv for xv, fv in zip(lifted, flifted))
                assert membership_metzler(pencil, lifted)
                assert is_winning_dominion(game, D)
                strict += 1
            elif max(chi) < 0:
                report = check_feasibility(sub)
                assert report.verdict == "Infeasible"
                assert not is_winning_dominion(game, D)
                strict += 1
    assert supports >= 40
    assert strict >= 20
    _line(9, f"fixture dominions exact; {supports} support checks, {strict} strict subgames cross-checked")


def test_criterion_10_phase_transition():
    """Sweeping m from 2 to 40 at n = 10 (ten samples per cell), the
    feasible ratio starts >= 0.9, ends <= 0.1, and crosses 1/2 at most
    twice, within two minutes."""
    start = time.perf_counter()
    cells = phase_diagram([10], list(range(2, 41)), samples=10, timing=False)
    elapsed = time.perf_counter() - start
    ratios = [cell.feasible_ratio for cell in cells]
    assert len(ratios) == 39
    assert ratios[0] >= F(9, 10)
    assert ratios[-1] <= F(1, 10)
    above = [r > F(1, 2) for r in ratios]
    crossings = sum(1 for a, b in zip(above, above[1:]) if a != b)
    assert crossings <= 2
    assert elapsed < 120.0
    _line(
        10,
        f"ratio {float(ratios[0]):.2f} -> {float(ratios[-1]):.2f} with "
        f"{crossings} crossing(s) of 1/2 in {elapsed:.1f}s",
    )


def test_criterion_11_large_instance_smoke():
    """A generated (n, m) = (1000, 100) instance is decided by
    check_feasibility (which checks a Feasible witness exactly) in under
    five seconds, generation included."""
    start = time.perf_counter()
    game = game_from_pencil(gen_random(GenSpec(1000, 100, seed=0)))
    report = check_feasibility(game, max_iters=10**5)
    elapsed = time.perf_counter() - start
    assert report.verdict in ("Feasible", "Infeasible")
    assert report.bits == K0
    assert elapsed < 5.0
    _line(11, f"(1000, 100) -> {report.verdict} after {report.iterations} "
              f"iterations in {elapsed:.2f}s")
