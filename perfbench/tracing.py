"""Per-layer spans for the traced run.

The traced run does not call ``tropsdp.cli.run``.  It calls each layer's
public functions itself, in the order the CLI calls them, and records a span
around each call.  ``check_feasibility`` is taken apart into its value
iteration, its exact ``apply_F`` check of the witness and the rational rerun
that follows a failed check, so that each shows as a layer of its own.
``markov.analyze`` runs inside ``game_value_bruteforce``; its calls are timed
by swapping a timing wrapper into the ``tropsdp.exact`` namespace for the
duration of the op.  Nothing under ``src/`` is instrumented.

The run compares what a traced op writes with what the CLI wrote for the
same input, so the composition cannot drift from the CLI unnoticed.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction

import tropsdp.exact
from tropsdp import (game_from_pencil, game_value_bruteforce, jsonio,
                     normalize, require_metzler,
                     structural_constant_value_check)
from tropsdp.shapley import IterationReport, apply_F, value_iteration_raw

# The CLI's defaults for `check` and `exact`.
EPSILON = Fraction(1, 10**8)
MAX_ITERS = 10**6
MAX_PAIRS = 10**6

# Layer spans, in the order the CLI reaches them.
LAYERS = (
    "jsonio.load_json",
    "jsonio.pencil_from_json",
    "pencil.require_metzler",
    "pencil.normalize",
    "shapley.structural_check",
    "game.game_from_pencil",
    "shapley.value_iteration",
    "shapley.apply_F_verify",
    "exact.game_value_bruteforce",
    "markov.analyze",
    "jsonio.emit",
)
COUNTS = ("game.min_actions", "game.max_actions", "shapley.iterations",
          "shapley.exact_fallbacks", "exact.policy_pairs")


class Tracer:
    """Spans (name, start, end, parent, op id) and counts, kept in memory."""

    def __init__(self):
        self.spans = []
        self.counts = []  # (op id, name, value)
        self._stack = []
        self._op = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    @contextmanager
    def op(self, op_id: int):
        self._op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._op = None

    def count(self, name: str, value: int) -> None:
        self.counts.append((self._op, name, value))

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "counts": [dict(zip(("op", "name", "value"), c))
                                  for c in self.counts]}, fh)
            fh.write("\n")

    def self_times(self) -> dict:
        """op id -> {span name: summed self time}; a span's self time is its
        duration minus its children's durations."""
        out = {}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for index, (name, start, end, _, op_id) in enumerate(self.spans):
            per_op = out.setdefault(op_id, {})
            per_op[name] = per_op.get(name, 0.0) + (end - start) - child[index]
        return out

    def op_seconds(self) -> dict:
        return {s[4]: s[2] - s[1] for s in self.spans if s[0] == "op"}

    def calls(self, op_id: int, name: str) -> int:
        return sum(1 for s in self.spans if s[4] == op_id and s[0] == name)

    def op_counts(self, op_id: int) -> dict:
        out = {}
        for oid, name, value in self.counts:
            if oid == op_id:
                out[name] = out.get(name, 0) + value
        return out


@contextmanager
def _timed_analyze(tracer: Tracer):
    """Record a span around every markov.analyze call made by the exact
    engine, then put the original back."""
    original = tropsdp.exact.analyze

    def analyze(chain):
        with tracer.span("markov.analyze"):
            return original(chain)

    tropsdp.exact.analyze = analyze
    try:
        yield
    finally:
        tropsdp.exact.analyze = original


def _load(tracer: Tracer, path: str):
    with tracer.span("jsonio.load_json"):
        obj = jsonio.load_json(path)
    with tracer.span("jsonio.pencil_from_json"):
        return jsonio.pencil_from_json(obj)


def _reduced(tracer: Tracer, P):
    with tracer.span("pencil.normalize"):
        norm = normalize(P)
    if norm.kind != "reduced":
        raise RuntimeError(f"normalize found a {norm.kind} instance; the "
                           "traced path covers reduced ones only")
    return norm.pencil


def _game(tracer: Tracer, P):
    with tracer.span("game.game_from_pencil"):
        G = game_from_pencil(P)
    tracer.count("game.min_actions", sum(len(a) for a in G.min_actions))
    tracer.count("game.max_actions", sum(len(a) for a in G.max_actions))
    return G


def _emit(tracer: Tracer, payload: dict, out: str) -> None:
    with tracer.span("jsonio.emit"):
        text = jsonio.dump_json(payload)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def traced_check(tracer: Tracer, path: str, out: str) -> int:
    """`tropsdp check <path> -o <out>`, layer by layer; returns the exit code."""
    P = _load(tracer, path)
    with tracer.span("pencil.require_metzler"):
        require_metzler(P)
    reduced = _reduced(tracer, P)
    with tracer.span("shapley.structural_check"):
        structural_constant_value_check(reduced)
    G = _game(tracer, reduced)
    # check_feasibility(G), one layer at a time
    with tracer.span("shapley.value_iteration"):
        status, iters, u, v, _ = value_iteration_raw(G, EPSILON, MAX_ITERS, False)
    if status == "feasible":
        with tracer.span("shapley.apply_F_verify"):
            holds = all(a <= b for a, b in zip(v, apply_F(G, v)))
        if not holds:
            tracer.count("shapley.exact_fallbacks", 1)
            with tracer.span("shapley.value_iteration"):
                status, iters, u, v, _ = value_iteration_raw(
                    G, EPSILON, MAX_ITERS, True)
    tracer.count("shapley.iterations", iters)
    verdict = {"feasible": "Feasible", "infeasible": "Infeasible"}.get(
        status, "Indeterminate")
    report = IterationReport(verdict, iters, v if status == "feasible" else u,
                             EPSILON)
    _emit(tracer, jsonio.report_to_json(report), out)
    return {"Feasible": 0, "Infeasible": 10}.get(verdict, 20)


def traced_exact(tracer: Tracer, path: str, out: str) -> int:
    """`tropsdp exact <path> -o <out>`, layer by layer."""
    G = _game(tracer, _reduced(tracer, _load(tracer, path)))
    tracer.count("exact.policy_pairs", G.policy_count())
    with tracer.span("exact.game_value_bruteforce"), _timed_analyze(tracer):
        value = game_value_bruteforce(G, MAX_PAIRS)
    margin = 2 * max(value.chi)
    status = "Nontrivial" if margin >= 0 else "Trivial"
    fmt = jsonio.format_rational
    _emit(tracer, {
        "status": status,
        "margin": fmt(margin),
        "value": {
            "chi": [fmt(c) for c in value.chi],
            "eta": [fmt(e) for e in value.eta],
            "optimal_pair": {"sigma": [a + 1 for a in value.optimal_pair[0]],
                             "tau": [a + 1 for a in value.optimal_pair[1]]},
            "saddle_verified": value.saddle_verified,
        },
    }, out)
    return 0 if status == "Nontrivial" else 10


TRACED = {"check": traced_check, "exact": traced_exact}


def layer_metrics(tracer: Tracer, untraced_p50: float) -> dict:
    """Per-layer medians over the traced ops, in seconds unless named."""
    selfs = tracer.self_times()
    ops = sorted(op for op in tracer.op_seconds() if op is not None)
    counts = {op: tracer.op_counts(op) for op in ops}

    def median_of(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    def layer(name):  # median over the ops that reached this layer
        return median_of(selfs[op][name] for op in ops if name in selfs[op])

    def count(name):
        return median_of(counts[op].get(name, 0) for op in ops)

    out = {f"{name}_s": layer(name) for name in LAYERS if name != "markov.analyze"}
    out["op.self_s"] = layer("op")
    for name in COUNTS:
        out[name] = count(name)
    out["shapley.us_per_iteration"] = median_of(
        selfs[op]["shapley.value_iteration"] / counts[op]["shapley.iterations"] * 1e6
        for op in ops if counts[op].get("shapley.iterations"))
    out["markov.analyze_us"] = median_of(
        selfs[op]["markov.analyze"] / tracer.calls(op, "markov.analyze") * 1e6
        for op in ops if "markov.analyze" in selfs[op])
    traced_p50 = median_of(tracer.op_seconds()[op] for op in ops)
    out["trace.overhead_ratio"] = traced_p50 / untraced_p50
    return out
