"""Feasibility of tropical Metzler semidefinite problems via stochastic
mean payoff games.

The pipeline: a symmetric pencil of signed tropical matrices (``Pencil``)
is normalized, translated into a two-player zero-sum game with perfect
information (``StochGame``), and decided either approximately by value
iteration on the game's dynamic-programming operator
(``check_feasibility``) or exactly by policy-pair enumeration backed by
rational Markov-chain analysis (``solve_tmsdfp``).  Positive results come
with subharmonic vectors, negative ones with superharmonic vectors; both
are re-verifiable certificates (``certify``).
"""

from .tropical import (MINUS_INF, TROP_ZERO, SignedTrop, TropPolynomial,
                       VANISHES, as_fraction, is_finite, strop_mul)
from .errors import (AssumptionViolated, CertificateInvalid, DeltaTooLarge,
                     NotADominion, PolicySpaceTooLarge, SaddlePointError,
                     TropSdpError, UnsupportedInstance, ValidationError)
from .pencil import (Homogenization, Metzlerization, NormalizeResult, Pencil,
                     homogenize, membership_general, membership_metzler,
                     metzlerize, normalize, require_metzler, support)
from .game import (MaxAction, MinAction, StochGame, dominions,
                   game_from_pencil, induced_subgame, is_dominion,
                   is_winning_dominion, minimal_dominions, pencil_from_game,
                   winning_dominions)
from .markov import ChainAnalysis, MarkovChain, analyze, chain_from_policies
from .shapley import (IterationReport, apply_F, apply_F_sigma,
                      apply_F_sigma_tau, apply_F_tau, check_feasibility,
                      recession, structural_constant_value_check)
from .exact import (GameValue, SolveResult, affine_feasibility,
                    game_value_bruteforce, solve_tmsdfp)
from .certify import (ArchimedeanThreshold, Certificate, MonomialLift,
                      archimedean_threshold, check_certificate,
                      feasibility_certificate, infeasibility_certificate,
                      lift_description, verify_subharmonic,
                      verify_superharmonic)
from .bench import GenSpec, benchmark, gen_random, phase_diagram, to_csv

__version__ = "0.1.0"

__all__ = [
    "MINUS_INF", "TROP_ZERO", "SignedTrop", "TropPolynomial", "VANISHES",
    "as_fraction", "is_finite", "strop_mul",
    "TropSdpError", "ValidationError", "AssumptionViolated", "NotADominion",
    "PolicySpaceTooLarge", "SaddlePointError", "CertificateInvalid",
    "DeltaTooLarge", "UnsupportedInstance",
    "Pencil", "Metzlerization", "NormalizeResult", "Homogenization",
    "membership_metzler", "membership_general", "metzlerize", "normalize",
    "homogenize", "require_metzler", "support",
    "StochGame", "MinAction", "MaxAction", "game_from_pencil",
    "pencil_from_game", "is_dominion", "induced_subgame",
    "is_winning_dominion", "winning_dominions", "dominions",
    "minimal_dominions",
    "MarkovChain", "ChainAnalysis", "chain_from_policies", "analyze",
    "IterationReport", "apply_F", "apply_F_sigma", "apply_F_tau",
    "apply_F_sigma_tau", "recession", "structural_constant_value_check",
    "check_feasibility",
    "GameValue", "SolveResult", "game_value_bruteforce", "solve_tmsdfp",
    "affine_feasibility",
    "Certificate", "ArchimedeanThreshold", "MonomialLift",
    "verify_subharmonic", "verify_superharmonic", "check_certificate",
    "feasibility_certificate", "infeasibility_certificate",
    "lift_description", "archimedean_threshold",
    "GenSpec", "gen_random", "phase_diagram", "benchmark",
    "to_csv",
]
