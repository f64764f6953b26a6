"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest perfbench/test_perfbench.py
"""

import json
import re
import signal
import subprocess
import time
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import Boundary, Dense, Exact  # noqa: E402

SMALL = {"dense": lambda: Dense(n=100, m=8, pool=2),
         "boundary": Boundary,
         "exact": lambda: Exact(pool=2)}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_gives_byte_identical_inputs(name, tmp_path):
    first, second, other = (tmp_path / d for d in ("a", "b", "c"))
    for d in (first, second, other):
        d.mkdir()
    a = SMALL[name]().instances(7, str(first))
    b = SMALL[name]().instances(7, str(second))
    c = SMALL[name]().instances(8, str(other))
    read = lambda insts: [Path(i.path).read_bytes() for i in insts]
    assert read(a) == read(b)
    assert read(a) != read(c)


def test_metric_names_are_well_formed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert {w["name"] for w in spec["workloads"]} == {"dense", "boundary", "exact"}


@pytest.mark.parametrize("trace", [0, 1])
def test_a_short_run_prints_every_declared_metric(trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "boundary",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"].keys() == run.declared_metrics()[trace].keys()


def _tampered(op):
    """Raise the first witness entry of a check report by 1000."""
    report = json.loads(op["text"])
    report["witness"][0] = str(Fraction(report["witness"][0]) + 1000)
    return dict(op, text=json.dumps(report))


def test_tampered_witness_counts_as_failed_op(tmp_path, monkeypatch):
    workload = Dense(n=100, m=8, pool=1)
    instances = workload.instances(5, str(tmp_path))
    _, attempted, failed, _, _ = run.run_untraced(workload, instances, 0, str(tmp_path))
    assert (attempted, failed) == (1, [])

    honest = run.cli_op
    monkeypatch.setattr(run, "cli_op", lambda *a: _tampered(honest(*a)))
    metrics, attempted, failed, _, _ = run.run_untraced(
        workload, instances, 0, str(tmp_path))
    assert attempted == 1 and len(failed) == 1
    assert "not subharmonic" in failed[0][1]
    assert metrics["decided_per_s"] == 0


def test_traced_check_matches_cli_and_accounts_for_the_op(tmp_path):
    workload = Dense(n=100, m=8, pool=1)
    inst = workload.instances(9, str(tmp_path))[0]
    plain = run.cli_op("check", inst.path, str(tmp_path / "plain.json"))
    tracer = tracing.Tracer()
    traced = run.traced_op(tracer, "check", 0, inst.path, str(tmp_path / "traced.json"))
    assert traced["error"] is None
    assert (traced["rc"], traced["text"]) == (plain["rc"], plain["text"])
    selfs = tracer.self_times()[0]
    assert sum(selfs.values()) == pytest.approx(tracer.op_seconds()[0], abs=1e-9)
    layers = {name for name in selfs if name != "op"}
    assert layers <= set(tracing.LAYERS)
    assert tracer.op_counts(0)["game.min_actions"] == 100 * 28


def test_sampler_scales_a_block_and_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler()
    start = time.perf_counter()
    with sampler:
        while time.perf_counter() - start < 0.3:
            sum(range(1000))
    seconds = time.perf_counter() - start
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.timings) >= 3
    assert 0 < sampler.spent < seconds / 2
    assert sampler.scaled(seconds) == pytest.approx(
        (seconds - sampler.spent) * speed.speed(sampler.timings))
