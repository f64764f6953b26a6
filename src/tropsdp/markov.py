"""Exact analysis of finite Markov chains with rewards.

Once both players of a stochastic mean payoff game fix a (positional)
policy, the play becomes a Markov chain whose states alternate between the
n Min states and the m Max states; the long-run average reward of that
chain, computed here exactly over the rationals, is the oracle the tests
hold the brute-force game solver to, and the report of ``--dump-chain``.
The solver itself evaluates pairs, and checks its optimal one, in integers
on the chain folded onto the Min states (see ``exact``).

The analysis follows the standard finite-chain decomposition: a state is
recurrent iff every state it reaches along positive-probability transitions
reaches it back, and its recurrent class is then the set it reaches; each
class carries a unique stationary distribution pi (found by exact Gaussian
elimination), giving the class gain g = pi . r; transient states average
the class gains weighted by their absorption probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ValidationError
from .game import StochGame

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class MarkovChain:
    """Row-stochastic rational transition matrix plus a reward per state."""

    p: tuple  # tuple of tuples of Fraction
    rewards: tuple

    def __post_init__(self):
        size = len(self.p)
        if len(self.rewards) != size:
            raise ValidationError("one reward per state required")
        for u, row in enumerate(self.p):
            if len(row) != size:
                raise ValidationError(f"row {u} has {len(row)} entries, expected {size}")
            if any(q < 0 for q in row):
                raise ValidationError(f"row {u} has a negative transition probability")
            if sum(row) != 1:
                raise ValidationError(f"row {u} does not sum to 1 exactly")

    @property
    def size(self) -> int:
        return len(self.p)


def chain_from_policies(G: StochGame, sigma: Sequence[int], tau: Sequence[int]) -> MarkovChain:
    """Chain of the play when Min follows sigma and Max follows tau.

    States 0..n-1 are the Min states, n..n+m-1 the Max states, so the
    transition matrix has the block shape [[0, U], [V, 0]]: U spreads mass
    1/|targets| over the chosen action's Max states, V is deterministic.
    State rewards are the chosen actions' rewards.
    """
    if len(sigma) != G.n or len(tau) != G.m:
        raise ValidationError("policy lengths must match the state counts")
    size = G.n + G.m
    rows = []
    rewards = []
    for k in range(G.n):
        a = G.min_actions[k][sigma[k]]
        row = [ZERO] * size
        share = Fraction(1, len(a.targets))
        for i in a.targets:
            row[G.n + i] = share
        rows.append(tuple(row))
        rewards.append(a.reward)
    for i in range(G.m):
        b = G.max_actions[i][tau[i]]
        row = [ZERO] * size
        row[b.target] = ONE
        rows.append(tuple(row))
        rewards.append(b.reward)
    return MarkovChain(tuple(rows), tuple(rewards))


@dataclass
class ChainAnalysis:
    """Recurrent structure and long-run averages of a chain.

    gain[u] is the expected average reward starting from u.  stationary
    covers the recurrent states, one dict per class keyed by state;
    absorption[u][c] is the probability that a trajectory from transient
    state u ends up in recurrent_classes[c].
    """

    recurrent_classes: tuple
    stationary: tuple  # per class: dict state -> Fraction
    gain: tuple  # per state
    absorption: dict  # transient state -> tuple of Fraction per class


def _solve(a: list, b: list) -> list:
    """Solve the square rational system a x = b (b holds one or more
    right-hand columns); plain Gaussian elimination, exact."""
    size = len(a)
    width = len(b[0])
    m = [list(a[r]) + list(b[r]) for r in range(size)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            raise ArithmeticError("singular linear system")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [v * inv for v in m[col]]
        for r in range(size):
            if r != col and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [v - factor * w for v, w in zip(m[r], m[col])]
    return [row[size:size + width] for row in m]


def analyze(chain: MarkovChain) -> ChainAnalysis:
    """Decompose the chain and compute exact gains everywhere.

    Each state's reached set is one closure over the positive-probability
    transitions; a state is recurrent iff every state it reaches reaches it
    back, and its reached set is then its class.  Classes are listed in
    order of least state.  Solves one linear system per recurrent class
    (stationary distribution) and one for all absorption probabilities of
    the transient part.
    """
    size = chain.size
    adj = [[v for v, q in enumerate(row) if q > 0] for row in chain.p]
    reach = []
    for u in range(size):
        seen = {u}
        stack = [u]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        reach.append(seen)
    # each class is listed once, at its least state
    closed = [sorted(reach[u]) for u in range(size)
              if min(reach[u]) == u and all(u in reach[v] for v in reach[u])]

    gain: list = [None] * size
    stationary = []
    class_gains = []
    for members in closed:
        idx = {u: t for t, u in enumerate(members)}
        csize = len(members)
        # pi P = pi restricted to the class, with one balance equation
        # replaced by the normalization sum(pi) = 1.
        rows = []
        rhs = []
        for v in members[1:]:
            row = [chain.p[u][v] for u in members]
            row[idx[v]] -= ONE
            rows.append(row)
            rhs.append([ZERO])
        rows.append([ONE] * csize)
        rhs.append([ONE])
        pi_cols = _solve(rows, rhs)
        pi = {u: pi_cols[idx[u]][0] for u in members}
        if sum(pi.values()) != 1 or any(
            sum(pi[u] * chain.p[u][v] for u in members) != pi[v] for v in members
        ):
            raise ArithmeticError("stationary distribution failed verification")
        g = sum(pi[u] * chain.rewards[u] for u in members)
        for u in members:
            gain[u] = g
        stationary.append(pi)
        class_gains.append(g)

    transient = [u for u in range(size) if gain[u] is None]
    absorption: dict = {}
    if transient:
        rows = [
            [
                (ONE if u == v else ZERO) - chain.p[u][v]
                for v in transient
            ]
            for u in transient
        ]
        rhs = [
            [sum((chain.p[u][v] for v in members), ZERO) for members in closed]
            for u in transient
        ]
        psi = _solve(rows, rhs)
        for u, probs in zip(transient, map(tuple, psi)):
            if sum(probs) != 1:
                raise ArithmeticError("absorption probabilities failed verification")
            absorption[u] = probs
            gain[u] = sum((p * class_gains[c] for c, p in enumerate(probs)), ZERO)

    return ChainAnalysis(
        recurrent_classes=tuple(frozenset(c) for c in closed),
        stationary=tuple(stationary),
        gain=tuple(gain),
        absorption=absorption,
    )
