"""Exact chain analysis under fixed policies."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropsdp import ValidationError, game_from_pencil
from tropsdp.markov import MarkovChain, _solve, analyze, chain_from_policies

from conftest import games

F = Fraction


@pytest.fixture(scope="module")
def worked_game(running_pencil):
    return game_from_pencil(running_pencil)


def test_chain_block_structure(worked_game):
    chain = chain_from_policies(worked_game, (0, 0, 0), (0, 0, 0))
    assert chain.size == 6
    half = F(1, 2)
    assert chain.p[0] == (0, 0, 0, half, half, 0)   # Min 0 -> {Max 0, Max 1}
    assert chain.p[1] == (0, 0, 0, 0, 1, 0)          # Min 1 -> {Max 1}
    assert chain.p[2] == (0, 0, 0, half, 0, half)    # Min 2 -> {Max 0, Max 2}
    assert chain.p[3] == (0, 0, 1, 0, 0, 0)          # Max 0 -> Min 2
    assert chain.p[4] == (1, 0, 0, 0, 0, 0)          # Max 1 -> Min 0
    assert chain.p[5] == (0, 1, 0, 0, 0, 0)          # Max 2 -> Min 1
    assert chain.rewards == (0, 0, F(-3, 4), 1, -1, F(9, 4))


def test_chain_rejects_mismatched_policies(worked_game):
    with pytest.raises(ValidationError):
        chain_from_policies(worked_game, (0, 0), (0, 0, 0))
    with pytest.raises(ValidationError):
        chain_from_policies(worked_game, (0, 0, 0), (0,))


def test_worked_example_stationary_distribution(worked_game):
    res = analyze(chain_from_policies(worked_game, (0, 0, 0), (0, 0, 0)))
    assert res.recurrent_classes == (frozenset(range(6)),)
    assert res.stationary[0] == {
        0: F(2, 10), 1: F(1, 10), 2: F(2, 10),
        3: F(2, 10), 4: F(2, 10), 5: F(1, 10),
    }
    assert res.gain == (F(3, 40),) * 6
    assert res.absorption == {}


def test_worked_example_second_policy(worked_game):
    # switching Min state 2 to its other action rebalances the whole chain
    res = analyze(chain_from_policies(worked_game, (0, 0, 1), (0, 0, 0)))
    assert res.stationary[0] == {
        0: F(4, 14), 1: F(1, 14), 2: F(2, 14),
        3: F(2, 14), 4: F(4, 14), 5: F(1, 14),
    }
    assert res.gain == (F(1, 56),) * 6


def test_chain_validation():
    with pytest.raises(ValidationError):
        MarkovChain(((F(1, 2), F(1, 3)), (0, 1)), (0, 0))  # row sums to 5/6
    with pytest.raises(ValidationError):
        MarkovChain(((F(3, 2), F(-1, 2)), (0, 1)), (0, 0))  # negative entry
    with pytest.raises(ValidationError):
        MarkovChain(((0, 1), (1, 0)), (0,))  # reward count


def test_absorbing_chain():
    half = F(1, 2)
    chain = MarkovChain(
        ((0, half, half), (0, 1, 0), (0, 0, 1)),
        (10, 4, -2),
    )
    res = analyze(chain)
    assert res.recurrent_classes == (frozenset({1}), frozenset({2}))
    assert res.stationary == ({1: F(1)}, {2: F(1)})
    assert res.absorption == {0: (half, half)}
    assert res.gain == (F(1), F(4), F(-2))


def test_two_cycle():
    chain = MarkovChain(((0, 1), (1, 0)), (1, 3))
    res = analyze(chain)
    assert res.stationary == ({0: F(1, 2), 1: F(1, 2)},)
    assert res.gain == (F(2), F(2))


def test_singular_system_raises():
    one = F(1)
    with pytest.raises(ArithmeticError):
        _solve([[one, one], [one, one]], [[one], [one]])


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_gains_are_reward_averages(data):
    g = data.draw(games(max_n=3, max_m=3))
    sigma = tuple(data.draw(st.integers(0, len(a) - 1)) for a in g.min_actions)
    tau = tuple(data.draw(st.integers(0, len(b) - 1)) for b in g.max_actions)
    res = analyze(chain_from_policies(g, sigma, tau))
    rewards = [a.reward for acts in g.min_actions for a in acts]
    rewards += [b.reward for acts in g.max_actions for b in acts]
    lo, hi = min(rewards), max(rewards)
    assert all(lo <= gain <= hi for gain in res.gain)
    for pi in res.stationary:
        assert sum(pi.values()) == 1
    for probs in res.absorption.values():
        assert sum(probs) == 1


@st.composite
def chains(draw):
    """Chains of 1-7 states; each row has 1-3 positive rational entries,
    and the rewards lie in (1/2)Z."""
    size = draw(st.integers(1, 7))
    rows = []
    for _ in range(size):
        targets = draw(st.lists(st.integers(0, size - 1), min_size=1,
                                max_size=3, unique=True))
        weights = [draw(st.integers(1, 4)) for _ in targets]
        row = [F(0)] * size
        for v, w in zip(targets, weights):
            row[v] = F(w, sum(weights))
        rows.append(tuple(row))
    rewards = tuple(F(draw(st.integers(-8, 8)), 2) for _ in range(size))
    return MarkovChain(tuple(rows), rewards)


def _reached(chain):
    """Each state's set of reached states, by Warshall's closure."""
    size = chain.size
    r = [[u == v or chain.p[u][v] > 0 for v in range(size)] for u in range(size)]
    for k in range(size):
        for u in range(size):
            if r[u][k]:
                r[u] = [a or b for a, b in zip(r[u], r[k])]
    return [{v for v in range(size) if r[u][v]} for u in range(size)]


@settings(max_examples=300, deadline=None)
@given(chain=chains())
def test_decomposition_matches_reachability(chain):
    res = analyze(chain)
    reached = _reached(chain)
    classes = res.recurrent_classes
    recurrent = set().union(*classes)
    assert sum(map(len, classes)) == len(recurrent)
    assert [min(c) for c in classes] == sorted(min(c) for c in classes)
    for c in classes:
        # closed and communicating: every member reaches exactly its class
        assert all(reached[u] == c for u in c)
    for u in set(range(chain.size)) - recurrent:
        assert any(u not in reached[v] for v in reached[u])
    for c, pi in zip(classes, res.stationary, strict=True):
        assert set(pi) == c and sum(pi.values()) == 1
        assert all(sum(pi[u] * chain.p[u][v] for u in c) == pi[v] for v in c)
    assert set(res.absorption) == set(range(chain.size)) - recurrent
    for probs in res.absorption.values():
        assert len(probs) == len(classes) and sum(probs) == 1
