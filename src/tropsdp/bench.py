"""Random instances and phase-transition sweeps.

The generator draws each modulus i.i.d. uniformly from the rational grid
{0, 1/d, ..., 1} (d = 2^31 by default), gives diagonal entries a positive
tropical sign and off-diagonal entries a negative one, and completes
symmetrically.  Those choices make every instance well formed as soon as
m >= 2, so the game translation never needs a preprocessing pass.

Sweeps decide the game of each generated pencil,
``game_from_pencil(gen_random(spec))``, with the same checked value
iteration as `check` (`shapley._decide`); the generator fills the pencil's
coordinate arrays straight from the drawn numerators.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ValidationError
from .game import game_from_pencil
from .pencil import Pencil
from .shapley import _decide
from .tropical import NEG, POS

DEFAULT_GRID = 2**31


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one random draw: sizes, seed, and the denominator of
    the rational grid standing in for U[0,1]."""

    n: int
    m: int
    seed: int
    entry_grid: int = DEFAULT_GRID

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValidationError("sizes must be positive")
        if self.seed < 0:
            raise ValidationError("seed must be a nonnegative 64-bit integer")
        if self.entry_grid < 2:
            raise ValidationError("entry grid denominator must be >= 2")


def _draw_moduli(spec: GenSpec) -> np.ndarray:
    """Integer numerators, shape (n, m(m+1)/2): matrix-major, then the
    upper triangle of each matrix in row-major order."""
    rng = np.random.default_rng(spec.seed)
    count = spec.m * (spec.m + 1) // 2
    return rng.integers(0, spec.entry_grid + 1, size=(spec.n, count),
                        dtype=np.int64)


def gen_random(spec: GenSpec) -> Pencil:
    """Draw an exact random pencil: positive diagonals, negative
    off-diagonals, moduli uniform on the grid, symmetric."""
    n, m = spec.n, spec.m
    i, j = np.triu_indices(m)  # row-major, the drawing order
    sign = np.where(i == j, POS, NEG).astype(np.int8)
    return Pencil(
        n, m, np.repeat(np.arange(n), len(i)), np.tile(i, n), np.tile(j, n),
        np.tile(sign, n), _draw_moduli(spec).ravel(), spec.entry_grid)


@dataclass(frozen=True)
class CellResult:
    """Aggregate of one (n, m) cell of a sweep."""

    n: int
    m: int
    samples: int
    feasible: int
    indeterminate: int
    mean_iters: Fraction
    mean_time_s: Optional[float]

    @property
    def feasible_ratio(self) -> Fraction:
        return Fraction(self.feasible, self.samples)

    def csv_row(self) -> str:
        time_field = "" if self.mean_time_s is None else f"{self.mean_time_s:.6f}"
        return (f"{self.n},{self.m},{self.samples},"
                f"{float(self.feasible_ratio):.6g},{self.indeterminate},"
                f"{float(self.mean_iters):.6g},{time_field}")


CSV_HEADER = "n,m,samples,feasible_ratio,indeterminate,mean_iters,mean_time_s"


def _sample_seed(seed: int, n: int, m: int, s: int) -> int:
    """Deterministic per-sample 64-bit seed, independent of scheduling."""
    return int(np.random.SeedSequence((seed, n, m, s)).generate_state(1)[0])


def _run_sample(spec: GenSpec, max_iters: int, timing: bool):
    """Decide one instance; returns (status, iters, wall time of the
    decision or None)."""
    game = game_from_pencil(gen_random(spec))
    start = time.perf_counter()
    status, iters = _decide(game, max_iters)[:2]
    return status, iters, time.perf_counter() - start if timing else None


def _run_cell(n: int, m: int, samples: int, seed: int, max_iters: int,
              timing: bool) -> CellResult:
    results = [_run_sample(GenSpec(n, m, _sample_seed(seed, n, m, s)),
                           max_iters, timing) for s in range(samples)]
    feasible = sum(1 for v, _, _ in results if v == "feasible")
    indeterminate = sum(1 for v, _, _ in results if v == "indeterminate")
    mean_iters = Fraction(sum(it for _, it, _ in results), samples)
    if timing:
        mean_time = sum(t for _, _, t in results) / samples
    else:
        mean_time = None
    return CellResult(n, m, samples, feasible, indeterminate, mean_iters,
                      mean_time)


def phase_diagram(n_list: Sequence[int], m_list: Sequence[int], samples: int = 10,
                  seed: int = 0, max_iters: int = 10**5,
                  timing: bool = True) -> list:
    """Feasibility ratio of random instances over a grid of sizes.

    Runs `samples` seeded instances per (n, m) cell, one after another, so
    no timed run overlaps another; with timing disabled the output is
    byte-identical across runs (wall clock is the only nondeterministic
    column).  Every size, the sample count, the seed and the budget are
    checked before the first sample runs.
    """
    if samples < 1:
        raise ValidationError("need at least one sample per cell")
    if any(n < 1 for n in n_list):
        raise ValidationError("sizes must be positive")
    if any(m < 2 for m in m_list):
        raise ValidationError("dense instances need m >= 2 so Min can move")
    if seed < 0:
        raise ValidationError("seed must be a nonnegative integer")
    if max_iters < 1:
        raise ValidationError(f"max_iters must be at least 1, got {max_iters}")
    return [_run_cell(n, m, samples, seed, max_iters, timing)
            for n in n_list for m in m_list]


def to_csv(cells: Iterable[CellResult]) -> str:
    """Render results as CSV."""
    return "\n".join([CSV_HEADER, *(cell.csv_row() for cell in cells)]) + "\n"
