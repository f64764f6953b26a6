"""Benchmark of the public tropsdp path: JSON pencil in, verified verdict out.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense|boundary|exact --seed N \
        --seconds S --trace 0|1

One process, one client, closed loop, no worker threads.  Each op is
``tropsdp.cli.run([command, <pencil.json>, "-o", <out>])`` called in-process
with stderr captured; ops cycle over the workload's seeded inputs (see
``workloads.py``) until ``--seconds`` have passed.  Every output is then
checked against the workload's exact oracle, outside the timed region; a
wrong answer, an exception or an unexpected exit code fails the op.

The host's speed drifts under other tenants' load, so every timed call is
sampled as it runs and its time scaled to a fixed reference speed (see
``speed.py``); raw wall times are in the report line.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, in scaled
seconds:

* ``decided_per_s``: ops decided and verified per second of op time.
* ``op_p50_s``: median op latency (the sample count is in the report line).
* ``setup_s``: median time to import ``tropsdp`` and ``tropsdp.cli`` in a
  fresh interpreter, over nine interpreters after a warm-up one, each
  scaled by the speed it reads right after (``import_time.py``).
* ``peak_rss_mb``: peak resident set of this process after the timed loop.
* ``witness_digits_max``: most decimal digits in one emitted witness entry
  (for ``exact``, an entry of the value vector chi).

``--trace 1`` alternates each CLI op with a traced op on the same input (see
``tracing.py``), requires both to write the same bytes, and reports per-layer
median self times and counts, ``fail_ratio`` and ``trace.overhead_ratio``.
Spans are written to ``perfbench/_work/spans-<workload>-<seed>.json``.

stdout ends with a report line (host, run context, op samples, failures)
and then the result line the benchmark contract asks for.  The exit code is
0 whenever a result is printed, and 2 when the checkout has no ``src/tropsdp``
to measure.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import Sampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"


def declared_metrics() -> dict:
    """name -> unit for the end-to-end (trace 0) and per-layer (trace 1) sets."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}


def import_seconds(runs: int = 9) -> tuple:
    """Median import time of the package in fresh isolated interpreters,
    scaled and raw."""
    cmd = [sys.executable, "-I", str(HERE / "import_time.py"), str(SRC),
           "tropsdp", "tropsdp.cli"]

    def once():
        done = subprocess.run(cmd, check=True, capture_output=True, text=True,
                              timeout=60)
        return json.loads(done.stdout)

    once()  # warm-up: bytecode cache and page cache
    scaled, raw = zip(*(once() for _ in range(runs)))
    return statistics.median(scaled), statistics.median(raw)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(args, instances) -> dict:
    import numpy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "instances": [{"name": i.name, "n": i.size[0], "m": i.size[1]}
                      for i in instances],
    }


def _timed(call, out: str, sampler=None) -> dict:
    """Run one op; an exception fails the op but not the run.  With a
    sampler, "seconds" excludes the sampler's time and "scaled" is set."""
    if os.path.exists(out):
        os.remove(out)
    gc.collect()  # every op starts from the same collector state
    error = None
    with sampler or contextlib.nullcontext():
        start = time.perf_counter()
        try:
            rc = call()
        except Exception as exc:
            rc, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    op = {"rc": rc, "error": error, "seconds": seconds, "text": _read(out)}
    if sampler:
        op["seconds"] -= sampler.spent
        op["scaled"] = sampler.scaled(seconds)
        op["speed"] = op["scaled"] / op["seconds"]
    return op


def cli_op(command: str, path: str, out: str, sampler=None) -> dict:
    """One CLI call; returns its exit code, output and latency."""
    from tropsdp import cli

    def call():
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.run([command, path, "-o", out])
    return _timed(call, out, sampler)


def traced_op(tracer, command: str, op_id: int, path: str, out: str) -> dict:
    """The same op composed layer by layer, with spans."""
    from tracing import TRACED

    def call():
        with tracer.op(op_id):
            return TRACED[command](tracer, path, out)
    return _timed(call, out)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


class Judge:
    """Oracle verdicts, cached per (input, exit code, output): an identical
    output for the same input needs no second check."""

    def __init__(self, workload):
        self.workload = workload
        self._seen = {}

    def __call__(self, inst, op) -> str | None:
        if op["error"]:
            return op["error"]
        key = (inst.name, op["rc"], op["text"])
        if key not in self._seen:
            self._seen[key] = self.workload.judge(inst, op["rc"], op["text"])
        return self._seen[key]


def run_untraced(workload, instances, seconds, workdir):
    out = os.path.join(workdir, "out.json")
    ops = []
    start = time.perf_counter()
    sampler = Sampler()
    while not ops or time.perf_counter() - start < seconds:
        inst = instances[len(ops) % len(instances)]
        ops.append((inst, cli_op(workload.command, inst.path, out, sampler)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    judge = Judge(workload)
    failures = [(inst.name, judge(inst, op)) for inst, op in ops]
    good = [op for (inst, op), (_, why) in zip(ops, failures) if why is None]
    latencies = [op["seconds"] for _, op in ops]
    scaled = [op["scaled"] for _, op in ops]
    metrics = {
        "decided_per_s": len(good) / sum(scaled),
        "op_p50_s": statistics.median(scaled),
        "peak_rss_mb": peak_rss_mb,
        "witness_digits_max": max(
            (workload.witness_digits(op["text"]) for op in good), default=0),
    }
    raw = {"decided_per_s": len(good) / sum(latencies),
           "op_p50_s": statistics.median(latencies),
           "op_speeds": [op["speed"] for _, op in ops]}
    return metrics, len(ops), [f for f in failures if f[1]], latencies, raw


def run_traced(workload, instances, seconds, workdir, spans_path):
    from tracing import Tracer, layer_metrics
    tracer = Tracer()
    out_cli = os.path.join(workdir, "out.json")
    out_traced = os.path.join(workdir, "out_traced.json")
    pairs = []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        i = len(pairs)
        inst = instances[i % len(instances)]
        if i % 2:  # alternate which of the two runs first
            traced = traced_op(tracer, workload.command, i, inst.path, out_traced)
        plain = cli_op(workload.command, inst.path, out_cli)
        if not i % 2:
            traced = traced_op(tracer, workload.command, i, inst.path, out_traced)
        pairs.append((inst, plain, traced))
    tracer.dump(spans_path)

    judge = Judge(workload)
    failures = []
    for inst, plain, traced in pairs:
        failures.append((inst.name, judge(inst, plain)))
        why = judge(inst, traced)
        if why is None and (traced["rc"], traced["text"]) != (plain["rc"], plain["text"]):
            why = "traced composition wrote a different answer than the CLI"
        failures.append((inst.name, why))
    selfs, whole = tracer.self_times(), tracer.op_seconds()
    for op_id, total in whole.items():
        if abs(sum(selfs[op_id].values()) - total) > 1e-6:
            raise RuntimeError(f"self times of traced op {op_id} do not add up")
    latencies = [plain["seconds"] for _, plain, _ in pairs]
    metrics = layer_metrics(tracer, statistics.median(latencies))
    failed = [f for f in failures if f[1]]
    metrics["fail_ratio"] = len(failed) / len(failures)
    return metrics, len(failures), failed, latencies


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("dense", "boundary", "exact"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tropsdp" / "__init__.py").is_file():
        print(f"perfbench: no tropsdp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    declared = declared_metrics()[args.trace]
    workload = WORKLOADS[args.workload]()
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK)
    try:
        instances = workload.instances(args.seed, workdir)
        if args.trace:
            spans = WORK / f"spans-{args.workload}-{args.seed}.json"
            metrics, attempted, failed, latencies = run_traced(
                workload, instances, args.seconds, workdir, str(spans))
            raw = {}
        else:
            metrics, attempted, failed, latencies, raw = run_untraced(
                workload, instances, args.seconds, workdir)
            metrics["setup_s"], raw["setup_s"] = import_seconds()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from "
                           f"BENCHMARK.json {sorted(declared)}")
    report = {
        "context": context(args, instances),
        "op_samples": len(latencies),
        "op_latencies_s": latencies,
        "unscaled": raw,
        "fail_ratio": len(failed) / attempted,
        "failures": [{"instance": name, "why": why} for name, why in failed[:10]],
    }
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    record = WORK / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"report": report, "result": result}, indent=1) + "\n",
                      encoding="utf-8")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
