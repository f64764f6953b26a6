"""Exact game values by policy enumeration, and the solvers built on them."""

import itertools
from fractions import Fraction

import pytest

from tropsdp import (
    Pencil,
    PolicySpaceTooLarge,
    SignedTrop,
    UnsupportedInstance,
    ValidationError,
    affine_feasibility,
    game_from_pencil,
    game_value_bruteforce,
    solve_tmsdfp,
)
import tropsdp.exact
from tropsdp.bench import GenSpec, gen_random
from tropsdp.game import induced_subgame
from tropsdp.markov import analyze, chain_from_policies

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


def test_each_policy_pair_is_analysed_once(monkeypatch, worked_game):
    # one analysis per pair, plus the final check of the optimal pair
    calls = []

    def counting(chain):
        calls.append(chain)
        return analyze(chain)

    monkeypatch.setattr(tropsdp.exact, "analyze", counting)
    for G in (worked_game, game_from_pencil(gen_random(GenSpec(2, 3, 0)))):
        calls.clear()
        game_value_bruteforce(G)
        assert len(calls) == G.policy_count() + 1


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


@pytest.mark.parametrize("n, m", [(2, 3), (3, 2), (1, 3), (2, 2)])
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


def test_affine_requires_flag(running_pencil):
    with pytest.raises(ValidationError):
        affine_feasibility(running_pencil)


def test_affine_variable_zero_eliminated():
    # the only diagonal hosting x_0 is negatively signed with no positive
    # entry anywhere on that row, so x_0 = -oo is forced
    P = affine_pencil(1, 1, [(0, 0, 0, NEG(F(5)))])
    assert affine_feasibility(P) is False


def test_affine_unconstrained_when_all_rows_die():
    P = affine_pencil(1, 1, [])
    assert affine_feasibility(P) is True


def test_affine_free_variable_zero():
    P = affine_pencil(1, 1, [(0, 0, 0, POS(F(3)))])
    assert affine_feasibility(P) is True


def test_affine_other_free_variable_unsupported():
    P = affine_pencil(2, 1, [(0, 0, 0, NEG(F(0))), (1, 0, 0, POS(F(0)))])
    with pytest.raises(UnsupportedInstance):
        affine_feasibility(P)


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
