"""Feasibility of tropical Metzler semidefinite problems via stochastic
mean payoff games.

The pipeline: a symmetric pencil of signed tropical matrices (``Pencil``)
is normalized, translated into a two-player zero-sum game with perfect
information (``StochGame``), and decided either approximately by value
iteration on the game's dynamic-programming operator
(``check_feasibility``) or exactly by policy-pair enumeration on integer
limit laws of the pairs' chains (``solve_tmsdfp``).  Positive results come
with subharmonic vectors, negative ones with superharmonic vectors; both
are re-verifiable certificates (``certify``).
"""

from .tropical import MINUS_INF, TROP_ZERO, SignedTrop, as_fraction, is_finite
from .errors import (AssumptionViolated, CertificateInvalid, DeltaTooLarge,
                     NotADominion, PolicySpaceTooLarge, SaddlePointError,
                     TropSdpError, UnsupportedInstance, ValidationError)
from .pencil import (Metzlerization, NormalizeResult, Pencil,
                     membership_general, membership_metzler, metzlerize,
                     normalize, require_metzler, support)
from .game import (MaxAction, MinAction, StochGame, dominions,
                   game_from_pencil, induced_subgame, is_dominion,
                   minimal_dominions, pencil_from_game)
from .markov import ChainAnalysis, MarkovChain, analyze, chain_from_policies
from .shapley import (IterationReport, apply_F, check_feasibility, recession,
                      structural_constant_value_check)
from .exact import (GameValue, SolveResult, affine_feasibility,
                    game_value_bruteforce, is_winning_dominion, solve_tmsdfp,
                    winning_dominions)
from .certify import (ArchimedeanThreshold, Certificate, archimedean_threshold,
                      check_certificate, margin_certificate,
                      verify_subharmonic, verify_superharmonic)
from .bench import GenSpec, gen_random, phase_diagram, to_csv

__version__ = "0.1.0"

__all__ = [
    "MINUS_INF", "TROP_ZERO", "SignedTrop", "as_fraction", "is_finite",
    "TropSdpError", "ValidationError", "AssumptionViolated", "NotADominion",
    "PolicySpaceTooLarge", "SaddlePointError", "CertificateInvalid",
    "DeltaTooLarge", "UnsupportedInstance",
    "Pencil", "Metzlerization", "NormalizeResult",
    "membership_metzler", "membership_general", "metzlerize", "normalize",
    "require_metzler", "support",
    "StochGame", "MinAction", "MaxAction", "game_from_pencil",
    "pencil_from_game", "is_dominion", "induced_subgame",
    "is_winning_dominion", "winning_dominions", "dominions",
    "minimal_dominions",
    "MarkovChain", "ChainAnalysis", "chain_from_policies", "analyze",
    "IterationReport", "apply_F", "recession",
    "structural_constant_value_check", "check_feasibility",
    "GameValue", "SolveResult", "game_value_bruteforce", "solve_tmsdfp",
    "affine_feasibility",
    "Certificate", "ArchimedeanThreshold",
    "verify_subharmonic", "verify_superharmonic", "check_certificate",
    "margin_certificate", "archimedean_threshold",
    "GenSpec", "gen_random", "phase_diagram", "to_csv",
]
