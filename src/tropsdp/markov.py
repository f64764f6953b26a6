"""Exact analysis of finite Markov chains with rewards.

Once both players of a stochastic mean payoff game fix a (positional)
policy, the play becomes a Markov chain whose states alternate between the
n Min states and the m Max states; the long-run average reward of that
chain, computed here exactly over the rationals, is what policy evaluation
and the brute-force game solver consume.

The analysis follows the standard finite-chain decomposition: the recurrent
classes are the closed strongly connected components of the
positive-probability digraph; each carries a unique stationary distribution
pi (found by exact Gaussian elimination), giving the class gain g = pi . r;
transient states average the class gains weighted by their absorption
probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import ValidationError
from .game import StochGame
from .tropical import as_fraction

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


def _strongly_connected_components(adj: list) -> list:
    """Kosaraju's algorithm, iterative; components in no particular order."""
    size = len(adj)
    order = []
    seen = [False] * size
    for start in range(size):
        if seen[start]:
            continue
        seen[start] = True
        stack = [(start, iter(adj[start]))]
        while stack:
            u, it = stack[-1]
            for v in it:
                if not seen[v]:
                    seen[v] = True
                    stack.append((v, iter(adj[v])))
                    break
            else:
                order.append(u)
                stack.pop()
    radj = [[] for _ in range(size)]
    for u in range(size):
        for v in adj[u]:
            radj[v].append(u)
    comp = [-1] * size
    components = []
    for root in reversed(order):
        if comp[root] != -1:
            continue
        members = [root]
        comp[root] = len(components)
        stack = [root]
        while stack:
            u = stack.pop()
            for v in radj[u]:
                if comp[v] == -1:
                    comp[v] = len(components)
                    members.append(v)
                    stack.append(v)
        components.append(members)
    return components


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

    Solves one linear system per recurrent class (stationary distribution)
    and one for all absorption probabilities of the transient part.
    """
    size = chain.size
    adj = [[v for v, q in enumerate(row) if q > 0] for row in chain.p]
    comps = _strongly_connected_components(adj)
    closed = []
    for members in comps:
        mset = set(members)
        if all(v in mset for u in members for v in adj[u]):
            closed.append(sorted(members))
    closed.sort(key=lambda c: c[0])

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
        tidx = {u: t for t, u in enumerate(transient)}
        class_of = {}
        for c, members in enumerate(closed):
            for u in members:
                class_of[u] = c
        rows = [
            [
                (ONE if u == v else ZERO) - chain.p[u][v]
                for v in transient
            ]
            for u in transient
        ]
        rhs = [
            [
                sum((chain.p[u][v] for v in range(size) if class_of.get(v) == c), ZERO)
                for c in range(len(closed))
            ]
            for u in transient
        ]
        psi = _solve(rows, rhs)
        for u in transient:
            probs = tuple(psi[tidx[u]])
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
