"""Exact game values by policy enumeration, and the solvers built on them."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tropsdp import (
    MaxAction,
    MinAction,
    Pencil,
    PolicySpaceTooLarge,
    SaddlePointError,
    SignedTrop,
    StochGame,
    UnsupportedInstance,
    ValidationError,
    affine_feasibility,
    game_from_pencil,
    game_value_bruteforce,
    solve_tmsdfp,
)
import tropsdp.exact
from tropsdp.bench import GenSpec, gen_random
from tropsdp.exact import _bareiss, _coefficients, winning_dominions
from tropsdp.game import dominions, induced_subgame, pencil_from_game
from tropsdp.markov import MarkovChain, _solve, analyze, chain_from_policies
from tropsdp.pencil import _extract, _forced_reductions
from tropsdp import tropical

F = Fraction
POS = SignedTrop.pos
NEG = SignedTrop.neg


@pytest.fixture(scope="module")
def worked_game(running_pencil):
    return game_from_pencil(running_pencil)


def test_worked_example_value(worked_game):
    value = game_value_bruteforce(worked_game)
    assert value.chi == (F(1, 56),) * 3
    assert value.eta == (F(1, 28),) * 3
    assert value.optimal_pair == ((0, 0, 1), (0, 0, 0))
    assert value.saddle_verified


def test_worked_example_optimal_pair_is_unique(worked_game):
    # four policy pairs in total; only one attains the value at every state
    chi = (F(1, 56),) * 3
    attaining = []
    for sigma in itertools.product(*(range(len(a)) for a in worked_game.min_actions)):
        for tau in itertools.product(*(range(len(b)) for b in worked_game.max_actions)):
            gains = analyze(chain_from_policies(worked_game, sigma, tau)).gain[:3]
            if tuple(gains) == chi:
                attaining.append((sigma, tau))
    assert attaining == [((0, 0, 1), (0, 0, 0))]


def test_policy_space_cap(worked_game, running_pencil):
    assert worked_game.policy_count() == 4
    with pytest.raises(PolicySpaceTooLarge):
        game_value_bruteforce(worked_game, max_pairs=3)
    with pytest.raises(PolicySpaceTooLarge):
        solve_tmsdfp(running_pencil, max_pairs=3)


def _counting(log, original):
    def wrapper(*args):
        log.append(args)
        return original(*args)
    return wrapper


def test_each_policy_pair_is_analysed_once(monkeypatch, worked_game):
    # the block evaluator sees whole sigma rows against every tau, each pair
    # in one block only, and the optimal pair is checked in integers without
    # building or analysing its unfolded chain; one sigma row per block
    # gives the same value
    evaluations, analyses = [], []
    monkeypatch.setattr(tropsdp.exact, "_gains",
                        _counting(evaluations, tropsdp.exact._gains))
    monkeypatch.setattr(tropsdp.exact, "analyze", _counting(analyses, analyze))
    monkeypatch.setattr(tropsdp.exact, "chain_from_policies",
                        _counting(analyses, chain_from_policies))
    for G in (worked_game, game_from_pencil(gen_random(GenSpec(2, 3, 0)))):
        taus = math.prod(len(b) for b in G.max_actions)
        values = []
        for block in (tropsdp.exact._BLOCK, 1):
            evaluations.clear()
            with monkeypatch.context() as patch:
                patch.setattr(tropsdp.exact, "_BLOCK", block)
                values.append(game_value_bruteforce(G))
            shapes = [ids.shape for _, ids, _ in evaluations]
            assert sum(rows * cols for rows, cols in shapes) == G.policy_count()
            assert all(cols == taus for _, cols in shapes)
        assert len(shapes) == G.policy_count() // taus  # one sigma per block
        assert values[0] == values[1]
    assert analyses == []


def _corrupting(monkeypatch, change):
    """Make ``game_value_bruteforce`` check its optimal pair against
    ``change(chi, law, lcm)`` in place of its own (chi, law)."""
    original = tropsdp.exact._attains

    def corrupted(G, sigma, tau, chi, law, lcm):
        return original(G, sigma, tau, *change(chi, law, lcm), lcm)

    monkeypatch.setattr(tropsdp.exact, "_attains", corrupted)


def test_saddle_check_rejects_a_pair_the_reference_disagrees_with(
        monkeypatch, worked_game, dominion_game):
    # the integer check of the returned pair is independent of the block
    # gains: chi shifted by a constant, which W g = 2 g alone would accept,
    # fails the bias equation, and so does the law of a chain that stays
    # put (a law of equal rows q would pass: it gives a bias h with q h = 0,
    # so the equations hold and still prove the gain)
    corruptions = [
        lambda chi, law, lcm: (tuple(c + 1 for c in chi), law),
        lambda chi, law, lcm: (tuple(c - F(1, 7) for c in chi), law),
        lambda chi, law, lcm: (chi, lcm * np.eye(len(chi), dtype=object)),
        lambda chi, law, lcm: (chi, 0 * law),  # a singular bias system
    ]
    for G in (worked_game, dominion_game):
        for change in corruptions:
            with monkeypatch.context() as patch:
                _corrupting(patch, change)
                with pytest.raises(SaddlePointError, match="does not attain"):
                    game_value_bruteforce(G)
        with monkeypatch.context() as patch:
            _corrupting(patch, lambda chi, law, lcm: (chi, law))
            assert game_value_bruteforce(G).saddle_verified


def test_gain_check_rejects_a_vector_its_chain_does_not_fix(monkeypatch, worked_game):
    # g' = g + (e_0 - P* e_0) has P* g' = g, so some h solves the bias
    # equation for it; the optimal pair's chain is irreducible, so P fixes
    # only the constants and W g' = 2 g' alone rejects g'
    value = game_value_bruteforce(worked_game)
    chain = analyze(chain_from_policies(worked_game, *value.optimal_pair))
    assert len(chain.recurrent_classes) == 1 and not chain.absorption
    moved = []

    def change(chi, law, lcm):
        column = [F(int(row[0]), lcm) for row in law.tolist()]
        moved.append(tuple(c + (F(k == 0) - p) / 2
                           for k, (c, p) in enumerate(zip(chi, column))))
        return moved[-1], law

    _corrupting(monkeypatch, change)
    with pytest.raises(SaddlePointError, match="does not attain"):
        game_value_bruteforce(worked_game)
    assert moved[0] != value.chi and len(set(moved[0])) > 1


def _huge_denominator_game() -> StochGame:
    # two Mersenne-prime denominators make den about 2^150 by themselves
    big, huge = 2**61 - 1, 2**89 - 1
    return StochGame(2, 2, (
        (MinAction((0, 1), F(3, big)), MinAction((1,), F(-5, huge))),
        (MinAction((0,), F(1, 3)), MinAction((0, 1), F(-7, big))),
    ), (
        (MaxAction(0, F(2, huge)), MaxAction(1, F(-1, 3))),
        (MaxAction(0, F(11, big)), MaxAction(1, F(4, huge))),
    ))


def _bias_solves(monkeypatch, G, solve=None) -> list:
    """The (d, y) of every bias solve that the gain check of
    ``game_value_bruteforce(G)`` ran, with ``solve`` in place of
    ``_bareiss`` there if given; the value must not change."""
    solves = []
    original, bareiss = tropsdp.exact._attains, tropsdp.exact._bareiss

    def recording(a, b):
        solves.append((solve or bareiss)(a, b))
        return solves[-1]

    def attains(*args):
        with monkeypatch.context() as patch:
            patch.setattr(tropsdp.exact, "_bareiss", recording)
            return original(*args)

    expected = game_value_bruteforce(G)
    with monkeypatch.context() as patch:
        patch.setattr(tropsdp.exact, "_attains", attains)
        assert game_value_bruteforce(G) == expected
    return solves


@pytest.mark.parametrize("G, dtype", [("dominion_game", np.int64),
                                      ("worked_game", object),
                                      ("huge", object)])
def test_gain_check_runs_one_solve_in_int64_or_python_ints(monkeypatch, request,
                                                           G, dtype):
    G = _huge_denominator_game() if G == "huge" else request.getfixturevalue(G)
    solves = _bias_solves(monkeypatch, G)
    assert [y.dtype for _, y in solves] == [np.dtype(dtype)]


@pytest.mark.parametrize("G", ["worked_game", "dominion_game", "huge"])
def test_gain_check_reads_the_bias_with_the_sign_of_the_determinant(
        monkeypatch, request, G):
    # (-d, -y) is the same bias y / d as (d, y); the check must read it so
    G = _huge_denominator_game() if G == "huge" else request.getfixturevalue(G)

    def negated(a, b):
        d, y = _bareiss(a, b)
        return -d, -y

    [(d, _)] = _bias_solves(monkeypatch, G, negated)
    assert d < 0


def _check_every_pair(monkeypatch, G) -> int:
    """Run the gain check on every policy pair of G, with the pair's gain
    from ``markov.analyze`` and the law the block evaluator used for it;
    return how many of the pairs' chains have more than one recurrent
    class."""
    laws = []
    original = tropsdp.exact._gains

    def recording(coef, ids, r):
        laws.extend(coef[ids.ravel()])
        return original(coef, ids, r)

    with monkeypatch.context() as patch:
        patch.setattr(tropsdp.exact, "_gains", recording)
        patch.setattr(tropsdp.exact, "_BLOCK", 1)
        game_value_bruteforce(G)
    lcm = int(laws[0][0].sum())
    multichain = 0
    for (sigma, tau), law in zip(_pairs(G), laws):
        res = analyze(chain_from_policies(G, sigma, tau))
        multichain += len(res.recurrent_classes) > 1
        tropsdp.exact._attains(G, G.min_seg + sigma, G.max_seg + tau,
                               res.gain[:G.n], law, lcm)
        with pytest.raises(SaddlePointError):
            tropsdp.exact._attains(G, G.min_seg + sigma, G.max_seg + tau,
                                   tuple(g + F(1, 3) for g in res.gain[:G.n]),
                                   law, lcm)
    return multichain


def test_gain_check_passes_every_pair_of_multichain_games(monkeypatch, dominion_game):
    # unlike the random games' optimal pairs, these chains have several
    # closed classes, and the hand-built games also transient states
    games = [dominion_game, _two_traps_game(), _unequal_laws_game()]
    for G in games:
        assert _check_every_pair(monkeypatch, G) > 0


def _folded_gains(monkeypatch, G) -> list:
    """The folded gains of every policy pair, in the product order
    ``game_value_bruteforce`` evaluates them, read off the integer
    numerators of its block evaluator."""
    seen = []
    original = tropsdp.exact._gains

    def recording(coef, ids, r):
        gains = original(coef, ids, r)
        # every law's weights sum to the common denominator L
        lcm = coef.sum(axis=-1)
        assert (lcm == lcm.flat[0]).all()
        scale = 4 * G.den * int(lcm.flat[0])
        seen.extend(tuple(F(int(c), scale) for c in pair)
                    for pair in gains.reshape(-1, G.n).tolist())
        return gains

    with monkeypatch.context() as patch:
        patch.setattr(tropsdp.exact, "_gains", recording)
        game_value_bruteforce(G)
    return seen


def _pairs(G) -> list:
    return list(itertools.product(
        itertools.product(*(range(len(a)) for a in G.min_actions)),
        itertools.product(*(range(len(b)) for b in G.max_actions))))


def _assert_folded_matches_analyze(monkeypatch, G, stride=1):
    """Folded gains equal the unfolded chain's gains at the Min states, on
    every pair (every stride-th one for the largest games)."""
    folded = _folded_gains(monkeypatch, G)
    pairs = _pairs(G)
    assert len(folded) == len(pairs) == G.policy_count()
    for (sigma, tau), gains in list(zip(pairs, folded))[::stride]:
        assert gains == analyze(chain_from_policies(G, sigma, tau)).gain[:G.n], (
            sigma, tau)


def _random_signed_pencil(n, m, seed) -> Pencil:
    """A Metzler pencil (n >= 2, m >= 2) with negatively signed diagonal
    entries, that is singleton Min actions, beside the positively signed
    ones.  Every row gets a positively signed diagonal entry and every
    matrix a negatively signed entry, so the game exists."""
    rng = random.Random(seed)
    value = lambda: F(rng.randrange(-8, 9), 4)
    owner = [rng.randrange(n) for _ in range(m)]  # k of row i's POS diagonal
    entries = {}
    for k in range(n):
        for i in range(m):
            if owner[i] == k:
                entries[k, i, i] = POS(value())
            elif rng.random() < 0.5:
                entries[k, i, i] = NEG(value())
            for j in range(i + 1, m):
                if rng.random() < 0.5:
                    entries[k, i, j] = NEG(value())
        if not any(v.sign < 0 for (kk, _, _), v in entries.items() if kk == k):
            entries[k, 0, 1] = NEG(value())
    if not any(v.sign < 0 for (_, i, j), v in entries.items() if i == j):
        k, i = next((k, i) for k in range(n) for i in range(m) if owner[i] != k)
        entries[k, i, i] = NEG(value())
    return Pencil.from_entries(n, m, [(*key, v) for key, v in sorted(entries.items())])


@pytest.mark.parametrize("grid", [2, 3, 2**31])
@pytest.mark.parametrize("n, m", [(n, m) for n in (1, 2, 3) for m in (2, 3, 4)])
def test_folded_gains_match_analyze_on_random_games(monkeypatch, n, m, grid):
    # grids 2 and 3 make many rewards tie; the 3 x 4 games (17 496 pairs)
    # are checked on every 97th pair, their subgames on every pair
    for seed in range(2):
        G = game_from_pencil(gen_random(GenSpec(n, m, seed, grid)))
        stride = 97 if G.policy_count() > 5000 else 1
        _assert_folded_matches_analyze(monkeypatch, G, stride)
        for D in dominions(G):
            if len(D) < G.n:
                _assert_folded_matches_analyze(monkeypatch, induced_subgame(G, D))


@pytest.mark.parametrize("n, m", [(2, 2), (2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("seed", range(4))
def test_folded_gains_match_analyze_with_singleton_min_actions(monkeypatch, n, m, seed):
    P = _random_signed_pencil(n, m, seed)
    G = game_from_pencil(P)
    assert any(a.targets[0] == a.targets[-1] for acts in G.min_actions for a in acts)
    _assert_folded_matches_analyze(monkeypatch, G)
    for D in dominions(G):
        _assert_folded_matches_analyze(monkeypatch, induced_subgame(G, D))


def test_folded_gains_match_analyze_on_dominion_example(monkeypatch, dominion_game):
    _assert_folded_matches_analyze(monkeypatch, dominion_game)
    for D in dominions(dominion_game):
        _assert_folded_matches_analyze(monkeypatch, induced_subgame(dominion_game, D))


def _two_traps_game() -> StochGame:
    # Min 0 and Min 1 can each be trapped on their own; Min 2 splits its
    # mass between the two traps or keeps part of it
    return StochGame(3, 3, (
        (MinAction((0,), F(-1)), MinAction((0, 2), F(1, 3))),
        (MinAction((1,), F(2)),),
        (MinAction((0, 1), F(5, 7)), MinAction((1, 2), F(-2))),
    ), (
        (MaxAction(0, F(1, 2)), MaxAction(2, F(0))),
        (MaxAction(1, F(-3)),),
        (MaxAction(2, F(1)), MaxAction(0, F(1, 5))),
    ))


def test_folded_gains_with_two_closed_classes_and_a_transient_state(monkeypatch):
    G = _two_traps_game()
    _assert_folded_matches_analyze(monkeypatch, G)
    res = analyze(chain_from_policies(G, (0, 0, 0), (0, 0, 0)))
    assert res.recurrent_classes == (frozenset({0, 3}), frozenset({1, 4}))
    assert set(res.absorption) == {2, 5}
    assert res.absorption[2] == (F(1, 2), F(1, 2))
    assert _folded_gains(monkeypatch, G)[0] == (F(-1, 4), F(-1, 2), F(-3, 8))


def _unequal_laws_game() -> StochGame:
    # under the first pair {0} is closed with law (1), {1, 2} closed with
    # law (1/3, 2/3), and Min 3 splits its mass between the two
    return StochGame(4, 4, (
        (MinAction((0,), F(1)),),
        (MinAction((2,), F(0)),),
        (MinAction((1, 2), F(-1)),),
        (MinAction((0, 1), F(-2)), MinAction((2, 3), F(1))),
    ), (
        (MaxAction(0, F(1, 2)), MaxAction(3, F(0))),
        (MaxAction(1, F(0)),),
        (MaxAction(2, F(3)),),
        (MaxAction(3, F(5)),),
    ))


def test_folded_gains_mix_unequal_class_laws(monkeypatch):
    G = _unequal_laws_game()
    _assert_folded_matches_analyze(monkeypatch, G)
    res = analyze(chain_from_policies(G, (0,) * 4, (0,) * 4))
    assert res.recurrent_classes == (frozenset({0, 4}), frozenset({1, 2, 5, 6}))
    assert res.absorption[3] == (F(1, 2), F(1, 2))
    assert _folded_gains(monkeypatch, G)[0] == (F(3, 4), F(2, 3), F(2, 3), F(17, 24))


def _assert_solves_match_rational_elimination(a, b, expected):
    d, y = _bareiss(np.array(a), np.array(b))
    for dd, yy, xx in zip(d.tolist(), y.tolist(), expected):
        assert [[F(v, dd) for v in row] for row in yy] == xx
    return d, y


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_fraction_free_solve_matches_rational_elimination(size):
    # one batch of the regular systems among 20 random ones; adding any
    # singular one (or an all-zero one) to that batch makes it raise
    rng = random.Random(size)
    regular, singular = [], [([[0] * size] * size, [[1, 1]] * size)]
    for _ in range(20):
        a = [[rng.randrange(-3, 4) for _ in range(size)] for _ in range(size)]
        b = [[rng.randrange(-5, 6) for _ in range(2)] for _ in range(size)]
        try:
            expected = _solve([list(map(F, row)) for row in a],
                              [list(map(F, row)) for row in b])
        except ArithmeticError:
            singular.append((a, b))
            continue
        regular.append((a, b, expected))
    a, b, expected = zip(*regular)
    _assert_solves_match_rational_elimination(a, b, expected)
    for a1, b1 in singular:
        for at in (0, len(a) // 2, len(a)):
            with pytest.raises(ArithmeticError, match="singular"):
                _bareiss(np.array(a[:at] + (a1,) + a[at:]),
                         np.array(b[:at] + (b1,) + b[at:]))


@pytest.mark.parametrize("size, c", [(1, 2**31 - 1), (5, 32), (8, 5)])
def test_fraction_free_solve_switches_to_python_ints_past_the_hadamard_bound(size, c):
    # entries up to c keep (c^2 size)^size below 2^62 and the elimination in
    # int64; one right-hand entry of c + 1 crosses the bound and must give
    # the same solutions in Python ints
    assert (c * c * size) ** size < 2**62 <= ((c + 1) ** 2 * size) ** size
    rng = random.Random(size)
    a, b, expected = [], [], []
    while len(a) < 10:
        aa = [[rng.choice([-c, c, rng.randrange(-c, c + 1)]) for _ in range(size)]
              for _ in range(size)]
        bb = [[rng.randrange(-c, c + 1)] for _ in range(size)]
        try:
            xx = _solve([list(map(F, row)) for row in aa],
                        [list(map(F, row)) for row in bb])
        except ArithmeticError:
            continue
        a.append(aa)
        b.append(bb)
        expected.append(xx)
    d, y = _assert_solves_match_rational_elimination(a, b, expected)
    assert y.dtype == np.int64
    wide = [[row + [c + 1] for row in bb] for bb in b]
    d_wide, y_wide = _bareiss(np.array(a), np.array(wide, dtype=object))
    assert y_wide.dtype == object
    assert d_wide.tolist() == d.tolist()
    assert y_wide[:, :, :1].tolist() == y.tolist()


def _chain_laws(codes) -> list:
    """Per shape, the long-run law of every state as rows of Fractions,
    from ``markov.analyze`` of the chain P = W / 2."""
    laws = []
    n = len(codes[0])
    for shape in codes:
        p = [[F(0)] * n for _ in range(n)]
        for u, code in enumerate(shape):
            for v in divmod(code, n):
                p[u][v] += F(1, 2)
        res = analyze(MarkovChain(tuple(map(tuple, p)), (F(0),) * n))
        law = [None] * n
        for pi in res.stationary:
            for u in pi:
                law[u] = [pi.get(v, F(0)) for v in range(n)]
        for u, probs in res.absorption.items():
            law[u] = [sum((a * pi.get(v, F(0)) for a, pi in zip(probs, res.stationary)),
                          F(0)) for v in range(n)]
        laws.append(law)
    return laws


@pytest.mark.parametrize("n, sample", [(1, None), (2, None), (3, None),
                                       (4, 150), (5, 100), (6, 100), (9, 50)])
def test_limit_laws_match_analyze(monkeypatch, n, sample):
    # every shape for n <= 3, seeded samples above; at n = 9 the stationary
    # solve leaves int64 and the common denominator passes 2^63
    pairs = [lo * n + hi for lo in range(n) for hi in range(lo, n)]
    if sample is None:
        codes = list(itertools.product(pairs, repeat=n))
    else:
        rng = random.Random(n)
        codes = sorted({tuple(rng.choice(pairs) for _ in range(n))
                        for _ in range(sample)})
    dtypes = []
    original = tropsdp.exact._bareiss

    def recording(a, b):
        d, y = original(a, b)
        dtypes.append(y.dtype)
        return d, y

    monkeypatch.setattr(tropsdp.exact, "_bareiss", recording)
    coef, lcm = _coefficients(np.array(codes))
    assert coef.shape == (len(codes), n, n)
    assert (coef.sum(axis=-1) == lcm).all() and (coef >= 0).all()
    got = [[[F(int(c), lcm) for c in row] for row in law] for law in coef.tolist()]
    assert got == _chain_laws(codes)
    assert coef.dtype == (np.int64 if lcm < 2**63 else object)
    assert (lcm >= 2**63) == (object in dtypes) == (n == 9)


def _direct_value(G):
    """min over sigma of max over tau, computed pair by pair; the optimal
    pair is the first sigma and the first tau (product order) whose best
    replies equal the value."""
    sigmas = list(itertools.product(*(range(len(a)) for a in G.min_actions)))
    taus = list(itertools.product(*(range(len(b)) for b in G.max_actions)))
    gain = {(s, t): analyze(chain_from_policies(G, s, t)).gain[:G.n]
            for s in sigmas for t in taus}
    upper = {s: tuple(max(gain[s, t][k] for t in taus) for k in range(G.n))
             for s in sigmas}
    lower = {t: tuple(min(gain[s, t][k] for s in sigmas) for k in range(G.n))
             for t in taus}
    chi = tuple(min(upper[s][k] for s in sigmas) for k in range(G.n))
    sigma = next(s for s in sigmas if upper[s] == chi)
    tau = next(t for t in taus if lower[t] == chi)
    return chi, (sigma, tau)


@pytest.mark.parametrize("n, m", [(2, 3), (3, 2), (1, 3), (2, 2), (3, 3), (2, 4)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_value_matches_direct_min_max(n, m, seed):
    # (3, 2) and (2, 2) leave Min one policy, (1, 3) leaves Max one, and
    # the subgame on {0} leaves Max one
    G = game_from_pencil(gen_random(GenSpec(n, m, seed)))
    for H in (G, induced_subgame(G, {0})):
        value = game_value_bruteforce(H)
        chi, pair = _direct_value(H)
        assert value.chi == chi
        assert value.eta == tuple(2 * c for c in chi)
        assert value.optimal_pair == pair


def _cross_check(G, monkeypatch) -> set:
    """Assert that ``game_value_bruteforce`` agrees with ``_direct_value``
    on G and on its proper dominion subgames; return the dtypes its block
    evaluator computed in."""
    dtypes = set()
    original = tropsdp.exact._gains

    def recording(coef, ids, r):
        dtypes.add(coef.dtype)
        return original(coef, ids, r)

    for H in [G] + [induced_subgame(G, D) for D in dominions(G) if len(D) < G.n]:
        with monkeypatch.context() as patch:
            patch.setattr(tropsdp.exact, "_gains", recording)
            value = game_value_bruteforce(H)
        chi, pair = _direct_value(H)
        assert (value.chi, value.eta, value.optimal_pair) == (
            chi, tuple(2 * c for c in chi), pair)
    return dtypes


@pytest.mark.parametrize("grid", [2, 3, 8, 2**31])
@pytest.mark.parametrize("n, m, seed", [(2, 3, 3), (2, 3, 4), (3, 3, 3), (2, 4, 3)])
def test_value_matches_direct_on_random_grids(monkeypatch, grid, n, m, seed):
    # grids 2 and 3 make many gains tie, so the first optimal sigma and tau
    # are picked among several
    G = game_from_pencil(gen_random(GenSpec(n, m, seed, grid)))
    assert _cross_check(G, monkeypatch) == {np.dtype(np.int64)}


@pytest.mark.parametrize("n, m", [(2, 3), (3, 2), (3, 3)])
@pytest.mark.parametrize("seed", range(3))
def test_value_matches_direct_with_singleton_min_actions(monkeypatch, n, m, seed):
    _cross_check(game_from_pencil(_random_signed_pencil(n, m, seed)), monkeypatch)


def test_value_matches_direct_on_dominion_example(monkeypatch, dominion_game):
    _cross_check(dominion_game, monkeypatch)


@pytest.mark.parametrize("seed", range(3))
def test_value_matches_direct_across_the_int64_bound(monkeypatch, seed):
    # reward numerators of 50 to 62 bits push the bit bound past 63 bits
    # somewhere along the sweep: both sides of the switch to Python ints
    dtypes = set()
    for bits in range(50, 63):
        G = game_from_pencil(gen_random(GenSpec(2, 3, seed, 2**bits)))
        dtypes |= _cross_check(G, monkeypatch)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}


def test_value_matches_direct_with_unlike_huge_denominators(monkeypatch):
    assert _cross_check(_huge_denominator_game(), monkeypatch) == {np.dtype(object)}


def test_policy_space_cap_refuses_before_any_limit_computation(monkeypatch):
    calls = []
    monkeypatch.setattr(tropsdp.exact, "_coefficients", calls.append)
    G = game_from_pencil(gen_random(GenSpec(4, 4, 0)))
    with pytest.raises(PolicySpaceTooLarge,
                       match=r"^331776 policy pairs exceed the cap of 331775$"):
        game_value_bruteforce(G, max_pairs=331775)
    assert calls == []


def test_one_limit_computation_per_unordered_chain_shape(monkeypatch):
    # a dense 3 x 3 game has 729 pairs but 66 chain shapes once a move to
    # (a, b) counts as the one to (b, a); all are solved in one batch
    calls = []
    monkeypatch.setattr(tropsdp.exact, "_coefficients",
                        _counting(calls, tropsdp.exact._coefficients))
    game_value_bruteforce(game_from_pencil(gen_random(GenSpec(3, 3, 0))))
    assert len(calls) == 1
    shapes = [tuple(row) for row in calls[0][0].tolist()]
    assert len(shapes) == len(set(shapes)) == 66
    assert all(len(succ) == 3 for succ in shapes)
    assert all(lo <= hi for succ in shapes for lo, hi in (divmod(c, 3) for c in succ))


def test_enumeration_memory_stays_bounded():
    # 331 776 pairs: blocks of sigmas keep the peak at a few MB (about 6 MB
    # measured on the 2-CPU Python 3.11 reference machine)
    G = game_from_pencil(gen_random(GenSpec(4, 4, 0)))
    tracemalloc.start()
    try:
        game_value_bruteforce(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20


def test_solve_worked_example(running_pencil):
    res = solve_tmsdfp(running_pencil)
    assert res.status == "Nontrivial"
    assert res.margin == F(1, 28)
    assert res.value.chi == (F(1, 56),) * 3
    assert res.normalization.kind == "reduced"
    assert res.normalization.pencil == running_pencil


def test_solve_trivial_by_normalization():
    P = Pencil.from_entries(1, 1, [(0, 0, 0, NEG(F(0)))])
    res = solve_tmsdfp(P)
    assert (res.status, res.margin, res.value) == ("Trivial", None, None)
    assert res.normalization.kind == "trivial"


def test_solve_nontrivial_by_normalization():
    P = Pencil.from_entries(1, 1, [(0, 0, 0, POS(F(0)))])
    res = solve_tmsdfp(P)
    assert (res.status, res.margin, res.value) == ("Nontrivial", None, None)
    assert res.normalization.witness_variable == 0


def test_solve_negative_margin():
    # two variables forced through a cycle losing 1 per half-turn on average
    P = Pencil.from_entries(2, 2, [
        (0, 0, 0, POS(F(0))), (0, 1, 1, NEG(F(1))),
        (1, 0, 0, NEG(F(1))), (1, 1, 1, POS(F(0))),
    ])
    res = solve_tmsdfp(P)
    assert res.status == "Trivial"
    assert res.margin == F(-1)
    assert res.value.chi == (F(-1, 2), F(-1, 2))


# ---------------------------------------------------------------------------
# affine feasibility
# ---------------------------------------------------------------------------

def affine_pencil(n, m, entries):
    return Pencil.from_entries(n, m, entries, affine=True)


@pytest.fixture
def solves(monkeypatch):
    """The size of every game the exact solver has finished, in order."""
    done = []
    solve = tropsdp.exact.game_value_bruteforce

    def counted(G, *args, **kwargs):
        value = solve(G, *args, **kwargs)
        done.append(G.n)
        return value

    monkeypatch.setattr(tropsdp.exact, "game_value_bruteforce", counted)
    return done


def test_affine_requires_flag(running_pencil):
    with pytest.raises(ValidationError):
        affine_feasibility(running_pencil)


def test_affine_variable_zero_eliminated(solves):
    # the only diagonal hosting x_0 is negatively signed with no positive
    # entry anywhere on that row, so x_0 = -oo is forced
    P = affine_pencil(1, 1, [(0, 0, 0, NEG(F(5)))])
    assert affine_feasibility(P) is False
    assert solves == []


def test_affine_unconstrained_when_all_rows_die(solves):
    P = affine_pencil(1, 1, [])
    assert affine_feasibility(P) is True
    assert solves == []


def test_affine_free_variable_zero(solves):
    P = affine_pencil(1, 1, [(0, 0, 0, POS(F(3)))])
    assert affine_feasibility(P) is True
    assert solves == []


def test_affine_other_free_variable_unsupported(solves):
    P = affine_pencil(2, 1, [(0, 0, 0, NEG(F(0))), (1, 0, 0, POS(F(0)))])
    with pytest.raises(UnsupportedInstance):
        affine_feasibility(P)
    assert solves == []


def test_affine_winning_dominion_contains_zero():
    P = affine_pencil(2, 2, [
        (0, 0, 0, POS(F(2))), (0, 1, 1, NEG(F(0))),
        (1, 0, 0, NEG(F(0))), (1, 1, 1, POS(F(0))),
    ])
    assert affine_feasibility(P) is True


def test_affine_no_winning_dominion():
    P = affine_pencil(2, 2, [
        (0, 0, 0, POS(F(-2))), (0, 1, 1, NEG(F(0))),
        (1, 0, 0, NEG(F(0))), (1, 1, 1, POS(F(0))),
    ])
    assert affine_feasibility(P) is False


def test_affine_on_dominion_example(dominion_game):
    from tropsdp import pencil_from_game

    base = pencil_from_game(dominion_game)
    P = Pencil.from_entries(
        base.n, base.m,
        [(k, i, j, base.matrices[k][i][j])
         for k in range(base.n)
         for i in range(base.m)
         for j in range(i, base.m)
         if not base.matrices[k][i][j].is_zero],
        affine=True,
    )
    # the only winning dominion is {2}, which misses the affine variable
    assert affine_feasibility(P) is False


def test_affine_chance_split_needs_the_shrink(solves):
    # Min 0 moves to Max a or b, Min 1 to a or a', Min 2 to b or b'; a and
    # a' go to Min 1 receiving 1, b and b' to Min 2 receiving -1.  chi_0 is
    # 0 on the whole game, yet the only winning dominion is {1}: dropping
    # the losing state 2 leaves {0, 1}, whose largest dominion is {1}.
    G = StochGame(3, 4, ((MinAction((0, 2), 0),), (MinAction((0, 1), 0),),
                         (MinAction((2, 3), 0),)),
                  ((MaxAction(1, 1),), (MaxAction(1, 1),),
                   (MaxAction(2, -1),), (MaxAction(2, -1),)))
    assert game_value_bruteforce(G).chi == (0, F(1, 2), F(-1, 2))
    assert winning_dominions(G) == [frozenset({1})]
    solves.clear()
    P = pencil_from_game(G)
    P = Pencil.from_arrays(P.n, P.m, P.k, P.i, P.j, P.sign, P.num, P.den, affine=True)
    assert affine_feasibility(P) is False
    assert solves == [3]


def _affine_block(rng, cells, n, m, v0, r0):
    """Random entries of an n x m block at variable v0 and row r0: a
    positive diagonal entry per row and a negative entry per variable, so
    most blocks survive the forced reductions, then sparse extras."""
    val = lambda: F(rng.randint(-4, 4), 2)
    for i in range(r0, r0 + m):
        cells[rng.randrange(v0, v0 + n), i, i] = POS(val())
    for k in range(v0, v0 + n):
        i, j = sorted(rng.randrange(r0, r0 + m) for _ in range(2))
        cells[k, i, j] = NEG(val())
    for k in range(v0, v0 + n):
        for i in range(r0, r0 + m):
            for j in range(i, r0 + m):
                if rng.random() < 0.25:
                    sign = rng.choice((POS, NEG)) if i == j else NEG
                    cells.setdefault((k, i, j), sign(val()))


def affine_corpus(seed, count):
    """Seeded affine pencils: direct sums of 1-3 random blocks of up to 3
    variables and 3 rows, with 1-3 random coupling entries between the
    blocks of a sum."""
    rng = random.Random(seed)
    for _ in range(count):
        sizes = [(rng.randint(1, 3), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 3))]
        n, m = sum(b[0] for b in sizes), sum(b[1] for b in sizes)
        cells, v0, r0 = {}, 0, 0
        for bn, bm in sizes:
            _affine_block(rng, cells, bn, bm, v0, r0)
            v0, r0 = v0 + bn, r0 + bm
        for _ in range(rng.randint(1, 3) if len(sizes) > 1 else 0):
            k, (i, j) = rng.randrange(n), sorted(rng.sample(range(m), 2))
            if rng.random() < 0.5:
                cells[k, i, i] = POS(F(rng.randint(-4, 4), 2))
            else:
                cells[k, i, j] = NEG(F(rng.randint(-4, 4), 2))
        yield Pencil.from_entries(n, m, [(*key, v) for key, v in cells.items()],
                                  affine=True)


def enumerated_affine(P):
    """The affine verdict by the enumeration: the checks of
    ``affine_feasibility`` before its game, in the order of a search that
    reduces first and then counts free variables on the live rows only,
    then a search of every winning dominion for state 0."""
    var, row, _, _ = _forced_reductions(P)
    vars_alive = np.flatnonzero(var).tolist()
    if 0 not in vars_alive:
        return False
    if not row.any():
        return True
    negative = np.bincount(P.k[(P.sign == tropical.NEG) & row[P.i] & row[P.j]],
                           minlength=P.n)
    free = [k for k in vars_alive if not negative[k]]
    if free:
        return True if 0 in free else "UnsupportedInstance"
    game = game_from_pencil(_extract(P, var, row))
    return any(vars_alive.index(0) in D for D in winning_dominions(game))


def test_affine_rounds_match_the_enumeration(solves):
    # 600 pencils: starting from the states reachable from state 0 leaves
    # the first two-round True verdict at pencil 440
    seen = set()
    for P in affine_corpus(5, 600):
        expected = enumerated_affine(P)
        solves.clear()
        try:
            got = affine_feasibility(P)
        except UnsupportedInstance:
            got = "UnsupportedInstance"
        assert got == expected
        assert len(solves) <= P.n
        seen.add((got, len(solves)))
    assert {(True, 0), (True, 1), (True, 2), (False, 0), (False, 1),
            ("UnsupportedInstance", 0)} <= seen


def dense_affine(n):
    """``gen --n n --m 3 --grid 8 --seed 1`` with the affine flag: every
    nonempty state set of its game is a dominion."""
    P = gen_random(GenSpec(n, 3, 1, 8))
    return Pencil.from_arrays(n, 3, P.k, P.i, P.j, P.sign, P.num, P.den, affine=True)


def test_affine_solves_a_dense_game_once(solves):
    assert affine_feasibility(dense_affine(6)) is True
    assert solves == [6]


def test_affine_refuses_dense_n8_before_any_solve(solves):
    with pytest.raises(PolicySpaceTooLarge,
                       match="^3359232 policy pairs exceed the cap of 1000000$"):
        affine_feasibility(dense_affine(8))
    assert solves == []


def test_affine_solves_only_the_block_reachable_from_state_0(running_pencil, solves):
    # the running example (variables and rows 0-2) beside the dense n = 8
    # block, whose game alone is refused by the pair cap
    R, D = running_pencil, dense_affine(8)
    cat = lambda name, shift: np.concatenate((getattr(R, name), getattr(D, name) + shift))
    num = np.concatenate((R.num.astype(object) * D.den, D.num.astype(object) * R.den))
    P = Pencil.from_arrays(R.n + D.n, R.m + D.m, cat("k", R.n), cat("i", R.m),
                           cat("j", R.m), cat("sign", 0), num, R.den * D.den, affine=True)
    assert affine_feasibility(P) is True
    assert solves == [3]


def test_affine_decides_beyond_the_enumeration_cap(solves):
    # two 9-cycles on 18 variables and 18 rows, past the n <= 16 that
    # ``dominions`` accepts: Min state k moves to Max states k and k + 1 of
    # its cycle, Max state i goes back to Min state i receiving 1 on the
    # first cycle (chi = 1/2) and -1 on the second (chi = -1/2), and Max
    # state 0 may also move into the second cycle, receiving -5
    entries = [(9, 0, 0, POS(F(-5)))]
    for c, reward in ((0, 1), (9, -1)):
        for k in range(9):
            i, j = sorted((c + k, c + (k + 1) % 9))
            entries += [(c + k, i, j, NEG(F(0))), (c + k, c + k, c + k, POS(F(reward)))]
    assert affine_feasibility(affine_pencil(18, 18, entries)) is True
    assert solves == [18, 9]
