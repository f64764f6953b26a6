import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from tropsdp import (MinAction, MaxAction, Pencil, SignedTrop, StochGame,
                     apply_F, jsonio)
from tropsdp.shapley import _bracket, _certificate
from tropsdp.tropical import MINUS_INF, TROP_ZERO

HERE = os.path.dirname(os.path.abspath(__file__))
EXAMPLES = os.path.join(HERE, "..", "examples")


# The two example files are generated, and can be rebuilt with jsonio:
# - running.json is dump_json(pencil_to_json(pencil_from_game(G))), where G is
#   the running-example game spelt out in test_criterion_01 (test_acceptance).
# - dominion_game.json is dump_json(game_to_json(D)) for the 4-Min / 3-Max
#   game D (0-based) with Min actions 0:{0}@0, 1:{1,2}@0, 2:{1}@2, 3:{2}@0
#   and Max actions 0->0@-1, 1->2@0, 2->3@-1.
def example_path(name):
    return os.path.join(EXAMPLES, name)


def entry_of(P, k, i, j):
    """The entry of P at (k, i, j) as a SignedTrop, TROP_ZERO where it is
    -oo, read off the coordinate arrays; (j, i) mirrors (i, j)."""
    i, j = min(i, j), max(i, j)
    at = np.flatnonzero((P.k == k) & (P.i == i) & (P.j == j))
    if not at.size:
        return TROP_ZERO
    return SignedTrop(int(P.sign[at[0]]), Fraction(int(P.num[at[0]]), P.den))


@pytest.fixture(scope="session")
def running_pencil():
    return jsonio.pencil_from_json(jsonio.load_json(example_path("running.json")))


@pytest.fixture(scope="session")
def both_signs_pencil():
    """The 2 x 4 direct sum with values of both signs: variable 0 on rows
    {0, 1} with F(x)_0 = x_0 + 1, variable 1 on rows {2, 3} with F(x)_1 =
    x_1 - 2, so chi = (1/2, -1).  From 0 the iterate is (t, -2 t): it is
    neither >= 0 nor < 0 in every entry, and step(X) - X = (1, -2) makes
    no iterate a certificate, so only the budget ends the loop."""
    pos, neg = SignedTrop.pos, SignedTrop.neg
    return Pencil.from_entries(2, 4, [
        (0, 0, 0, pos(Fraction(1))), (0, 0, 1, neg(Fraction(0))),
        (0, 1, 1, pos(Fraction(1))), (1, 2, 2, pos(Fraction(0))),
        (1, 2, 3, neg(Fraction(2))), (1, 3, 3, pos(Fraction(0)))])


@pytest.fixture(scope="session")
def dominion_game():
    return jsonio.game_from_json(jsonio.load_json(example_path("dominion_game.json")))


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

small_rationals = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4)

# multiples of 1/16: dyadic rewards, whose iterates stay dyadic
dyadic_rationals = st.integers(-48, 48).map(lambda k: Fraction(k, 16))


@st.composite
def games(draw, max_n=4, max_m=4, max_actions=3, rewards=small_rationals):
    """A random well-formed game: every state gets >= 1 action."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    min_actions = []
    for _ in range(n):
        count = draw(st.integers(1, max_actions))
        acts = []
        for _ in range(count):
            pair = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=2))
            acts.append(MinAction(tuple(pair), draw(rewards)))
        min_actions.append(tuple(acts))
    max_actions_ = []
    for _ in range(m):
        count = draw(st.integers(1, max_actions))
        acts = [MaxAction(draw(st.integers(0, n - 1)), draw(rewards))
                for _ in range(count)]
        max_actions_.append(tuple(acts))
    return StochGame(n, m, tuple(min_actions), tuple(max_actions_))


@st.composite
def overlap_free_games(draw, max_n=3, max_m=3):
    """Games where no Min singleton {i} coexists with a Max action i -> k:
    for these, pencil round-trips preserve the operator pointwise.  We get
    this by making all Min actions proper pairs (i < j), which needs m >= 2.
    """
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(2, max_m))
    min_actions = []
    for _ in range(n):
        count = draw(st.integers(1, 3))
        acts = []
        for _ in range(count):
            i = draw(st.integers(0, m - 2))
            j = draw(st.integers(i + 1, m - 1))
            acts.append(MinAction((i, j), draw(small_rationals)))
        min_actions.append(tuple(acts))
    max_actions_ = []
    for _ in range(m):
        count = draw(st.integers(1, 3))
        acts = [MaxAction(draw(st.integers(0, n - 1)), draw(small_rationals))
                for _ in range(count)]
        max_actions_.append(tuple(acts))
    return StochGame(n, m, tuple(min_actions), tuple(max_actions_))


def trop_points(n, allow_minus_inf=True):
    entry = st.one_of(small_rationals, st.just(MINUS_INF)) \
        if allow_minus_inf else small_rationals
    return st.lists(entry, min_size=n, max_size=n)


def sparse_json_games(seed, count):
    """Seeded games read from JSON: 1-5 Min states, 1-4 Max states, 1-3
    actions per state, so that many state sets are not dominions."""
    rng = random.Random(seed)
    reward = lambda: str(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3])))
    for _ in range(count):
        n, m = rng.randint(1, 5), rng.randint(1, 4)
        yield jsonio.game_from_json({
            "n": n, "m": m,
            "min_actions": [
                [{"to": rng.sample(range(1, m + 1), rng.randint(1, min(2, m))),
                  "reward": reward()} for _ in range(rng.randint(1, 3))]
                for _ in range(n)],
            "max_actions": [
                [{"to": rng.randint(1, n), "reward": reward()}
                 for _ in range(rng.randint(1, 3))]
                for _ in range(m)]})


def shift_of_the_tuples(G, delta):
    """G with every Min reward shifted by delta, rebuilt from its action
    tuples, so independent of the arrays: its operator is F + delta."""
    shifted = tuple(tuple(MinAction(a.targets, a.reward + delta) for a in acts)
                    for acts in G.min_actions)
    return StochGame(G.n, G.m, shifted, G.max_actions)


@pytest.fixture
def kernel_dtypes(monkeypatch):
    """The dtypes of the arrays that ``StochGame._apply``, the one kernel
    of F on the arrays, takes and returns while the test runs."""
    seen = []
    apply = StochGame._apply

    def recorded(self, x, max_r, min_r, halve=True):
        out = apply(self, x, max_r, min_r, halve)
        seen.extend(a.dtype for a in (x, max_r, min_r, out)
                    if isinstance(a, np.ndarray))
        return out

    monkeypatch.setattr(StochGame, "_apply", recorded)
    return seen


def floor_of_F(G, X, scale, lam=0):
    """floor(S (F - lam)(X / S)) for integer numerators X over S = scale,
    from ``apply_F`` on the action tuples: the reference of the grid step."""
    fx = apply_F(G, [Fraction(int(t), scale) for t in X])
    return [math.floor((f - lam) * scale) for f in fx]


def certificate_of(step, x):
    """The certificate (``_certificate``) that the bracket of x and its
    step makes of x, or None."""
    return _certificate(*_bracket(x, step(x)))


def first_checked_certificate(grid, n, limit):
    """(t, status) for the first step t of 1, 2, 4, ... up to limit whose
    iterate X_t of the orbit of 0 on ``grid`` (``StochGame.operator``)
    is a certificate (``certificate_of``), or None: where the certificate
    stop of the loop comes, unless the running maximum or the tilted
    minimum stops it first."""
    step, x = grid[2], np.zeros(n, dtype=object)
    for t in range(1, limit + 1):
        x = step(x)
        if t & (t - 1) == 0 and (status := certificate_of(step, x)) is not None:
            return t, status
    return None
