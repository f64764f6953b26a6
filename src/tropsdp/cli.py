"""Command-line interface.

Subcommands cover the full pipeline: feasibility checking by value
iteration (`check`), exact margins by policy enumeration (`exact`),
pencil/game translation (`game`, `solve-game`), preprocessing
(`metzlerize`, `normalize`, `affine`), certificates (`certify`), and the
experimental harness (`gen`, `phase`).

Exit codes: 0 feasible/success, 10 infeasible/trivial, 20 indeterminate,
1 usage or validation error.  `-` means stdin/stdout everywhere.

`run(argv)` may be called any number of times in one process; every call
parses with the one parser that `build_parser` builds on first use.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import bench as bench_mod
from . import certify as certify_mod
from . import jsonio
from .errors import TropSdpError, ValidationError
from .exact import (DEFAULT_PAIR_CAP, affine_feasibility, game_value_bruteforce,
                    optimal_chain, solve_tmsdfp)
from .game import game_from_pencil
from .pencil import metzlerize, normalize
from .shapley import IterationReport, check_feasibility

EXIT_FEASIBLE = 0
EXIT_INFEASIBLE = 10
EXIT_INDETERMINATE = 20
EXIT_ERROR = 1

_SCHEMAS = """\
File formats (all indices 1-based, rationals as "p/q" or integer strings):

signed tropical entry
  {"sign": "+"|"-", "val": "p/q"}

pencil
  {"n": int, "m": int, "affine": bool,
   "matrices": [{"entries": [{"i": int, "j": int,
                              "sign": "+"|"-", "val": "p/q"}, ...]}, ...]}
  one matrices element per variable; i <= j; omitted entries are -inf

game
  {"n": int, "m": int,
   "min_actions": [[{"to": [i] or [i, j], "reward": "p/q"}, ...] per state],
   "max_actions": [[{"to": k, "reward": "p/q"}, ...] per state]}

iteration report (output of `check`)
  {"verdict": "Feasible"|"Infeasible"|"Indeterminate",
   "iterations": int, "witness": ["p/q", ...]}

certificate (output of `certify`)
  {"kind": "Feasibility"|"Infeasibility", "vector": ["p/q", ...],
   "lambda": "p/q", "strict": bool}

sweep CSV (output of `phase`)
  header: n,m,samples,feasible_ratio,indeterminate,mean_iters,mean_time_s
"""


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is exit 1."""

    def error(self, message):
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _rational(text: str) -> Fraction:
    try:
        return jsonio.parse_rational(text)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _int_list(text: str) -> list:
    try:
        sizes = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if not sizes:
        raise argparse.ArgumentTypeError("expected at least one size")
    return sizes


@functools.cache
def build_parser() -> _Parser:
    """The parser of every subcommand, built once per process and shared by
    all `run` calls: callers must not change it.  Reuse is safe because
    parsing keeps no state in the parser (each parse makes fresh
    namespaces, every default is immutable, and help reads the terminal
    width when it formats)."""
    parser = _Parser(prog="tropsdp",
                     description="Tropical Metzler semidefinite feasibility "
                                 "via stochastic mean payoff games.")
    parser.add_argument("--schema", action="store_true",
                        help="print the JSON/CSV file formats and exit")
    sub = parser.add_subparsers(dest="subcommand", metavar="COMMAND")

    def add(name, handler, help_text, with_input=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if with_input:
            p.add_argument("input", nargs="?", default="-",
                           help="input file, or - for stdin")
        p.add_argument("-o", "--output", default="-",
                       help="output file, or - for stdout")
        return p

    def iteration_flags(p, max_iters=10**6):
        p.add_argument("--max-iters", type=int, default=max_iters,
                       help="cap on value-iteration steps "
                            "(default %(default)s)")

    def seed_flag(p):
        p.add_argument("--seed", type=int, default=0,
                       help="nonnegative seed of the random draws "
                            "(default %(default)s)")

    def enumeration_flags(p):
        p.add_argument("--max-pairs", type=int, default=DEFAULT_PAIR_CAP,
                       help="cap on the number of policy pairs to evaluate")
        p.add_argument("--policies", action="store_true",
                       help="also print the optimal pair in readable form")
        p.add_argument("--dump-chain", action="store_true",
                       help="include the Markov analysis of the optimal pair")

    iteration_flags(add("check", _cmd_check,
                        "decide feasibility of a pencil by value iteration"))
    enumeration_flags(add("exact", _cmd_exact,
                          "exact game value / margin by policy enumeration"))
    add("game", _cmd_game, "translate a well-formed Metzler pencil to its game")
    enumeration_flags(add("solve-game", _cmd_solve_game,
                          "exact value of a game given directly as JSON"))
    add("metzlerize", _cmd_metzlerize,
        "rewrite a general symmetric pencil as a Metzler one")
    add("normalize", _cmd_normalize,
        "strip forced variables/rows; detect trivial instances")
    add("affine", _cmd_affine,
        "decide an affine pencil via its largest winning dominion")

    p = add("gen", _cmd_gen, "generate a random pencil", with_input=False)
    p.add_argument("--n", type=int, required=True,
                   help="number of variables (matrices in the pencil)")
    p.add_argument("--m", type=int, required=True,
                   help="size of each symmetric matrix")
    seed_flag(p)
    p.add_argument("--grid", type=int, default=bench_mod.DEFAULT_GRID,
                   help="denominator of the rational entry grid")

    p = add("phase", _cmd_phase, "feasibility-ratio sweep over a size grid",
            with_input=False)
    p.add_argument("--n-list", type=_int_list, required=True,
                   help="comma-separated numbers of variables")
    p.add_argument("--m-list", type=_int_list, required=True,
                   help="comma-separated matrix sizes, each at least 2")
    p.add_argument("--samples", type=int, default=10,
                   help="random pencils per (n, m) cell "
                        "(default %(default)s)")
    iteration_flags(p, max_iters=10**5)
    seed_flag(p)
    p.add_argument("--no-timing", action="store_true",
                   help="omit wall-clock column (output becomes reproducible)")

    p = add("certify", _cmd_certify,
            "produce or check (in)feasibility certificates")
    p.add_argument("--lambda", dest="lam", type=_rational, default=None,
                   help="margin: positive for feasibility, negative for "
                        "infeasibility certificates (write --lambda=-1/100 "
                        "for negative values)")
    p.add_argument("--check", default=None, metavar="CERT",
                   help="verify this certificate file against the instance")
    p.add_argument("--game", action="store_true",
                   help="input is a game file rather than a pencil")
    iteration_flags(p)

    return parser


def _emit(args, payload: str) -> None:
    if args.output == "-":
        sys.stdout.write(payload)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)


def _load_pencil(args):
    return jsonio.pencil_from_json(jsonio.load_json(args.input))


def _affine_note(P) -> None:
    """A note on stderr if the affine flag is set."""
    if P.affine:
        print("note: affine flag ignored here; use `tropsdp affine` for the "
              "affine question", file=sys.stderr)


def _value_to_json(value) -> dict:
    return {
        "chi": [jsonio.format_rational(c) for c in value.chi],
        "eta": [jsonio.format_rational(e) for e in value.eta],
        "optimal_pair": {
            "sigma": [a + 1 for a in value.optimal_pair[0]],
            "tau": [a + 1 for a in value.optimal_pair[1]],
        },
        "saddle_verified": value.saddle_verified,
    }


def _chain_to_json(info) -> dict:
    return {
        "recurrent_classes": [sorted(c) for c in info.recurrent_classes],
        "stationary": [
            {str(state + 1): jsonio.format_rational(pi) for state, pi in dist.items()}
            for dist in info.stationary
        ],
        "gain": [jsonio.format_rational(g) for g in info.gain],
    }


def _describe_policies(G, pair) -> str:
    """The actions of the pair (sigma, tau), read off the game's arrays."""
    sigma, tau = G.min_seg + pair[0], G.max_seg + pair[1]
    lines = []
    for k, (i, j, r) in enumerate(zip(G.min_i[sigma].tolist(), G.min_j[sigma].tolist(),
                                      jsonio.format_rationals(G.min_p[sigma], G.den))):
        rows = f" row {i + 1}" + (f" row {j + 1}" if j != i else "")
        lines.append(f"  Min {k + 1}: ->{rows}, pays {r}")
    for i, (t, r) in enumerate(zip(G.max_t[tau].tolist(),
                                   jsonio.format_rationals(G.max_p[tau], G.den))):
        lines.append(f"  Max {i + 1}: -> var {t + 1}, receives {r}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------

def _cmd_check(args) -> int:
    P = _load_pencil(args)
    norm = normalize(P)  # rejects a non-Metzler pencil before any note
    _affine_note(P)
    if norm.kind == "trivial":
        report = IterationReport("Infeasible", 0, ())
    elif norm.kind == "nontrivial":
        print(f"note: variable {norm.witness_variable + 1} alone spans a "
              "feasible ray; no iteration needed", file=sys.stderr)
        report = IterationReport("Feasible", 0, ())
    else:
        reduced = norm.pencil
        if reduced is not P:
            gone = [v + 1 for v in norm.eliminated_variables]
            print(f"note: variables {gone} are forced to -inf; the witness is "
                  "over the remaining variables", file=sys.stderr)
        report = check_feasibility(game_from_pencil(reduced), args.max_iters)
    _emit(args, jsonio.dump_json(jsonio.report_to_json(report)))
    if report.verdict == "Feasible":
        return EXIT_FEASIBLE
    if report.verdict == "Infeasible":
        return EXIT_INFEASIBLE
    print(f"hint: indeterminate after --max-iters {args.max_iters} steps; "
          "try `tropsdp exact` for small instances", file=sys.stderr)
    return EXIT_INDETERMINATE


def _emit_value(args, out: dict, G, value) -> None:
    """The shared tail of `exact` and `solve-game`: under --dump-chain the
    ``markov.analyze`` report of the optimal pair's unfolded chain, run only
    for that flag, the JSON, then --policies on stderr.  Without a value
    (a trivial `exact` instance) only the JSON."""
    if value is not None and args.dump_chain:
        out["chain"] = _chain_to_json(optimal_chain(G, value))
    _emit(args, jsonio.dump_json(out))
    if value is not None and args.policies:
        print("optimal pair:\n" + _describe_policies(G, value.optimal_pair),
              file=sys.stderr)


def _cmd_exact(args) -> int:
    P = _load_pencil(args)
    result = solve_tmsdfp(P, max_pairs=args.max_pairs)
    out = {
        "status": result.status,
        "margin": None if result.margin is None
        else jsonio.format_rational(result.margin),
        "value": None if result.value is None else _value_to_json(result.value),
    }
    _emit_value(args, out, result.game, result.value)
    return EXIT_FEASIBLE if result.status == "Nontrivial" else EXIT_INFEASIBLE


def _cmd_game(args) -> int:
    P = _load_pencil(args)
    G = game_from_pencil(P)
    _affine_note(P)
    _emit(args, jsonio.dump_json(jsonio.game_to_json(G)))
    return EXIT_FEASIBLE


def _cmd_solve_game(args) -> int:
    G = jsonio.game_from_json(jsonio.load_json(args.input))
    value = game_value_bruteforce(G, max_pairs=args.max_pairs)
    _emit_value(args, _value_to_json(value), G, value)
    return EXIT_FEASIBLE if max(value.chi) >= 0 else EXIT_INFEASIBLE


def _cmd_metzlerize(args) -> int:
    P = _load_pencil(args)
    result = metzlerize(P)
    if result.pencil.n > P.n:
        print(f"note: {result.pencil.n - P.n} auxiliary variables added for "
              "off-diagonal pairs", file=sys.stderr)
    _emit(args, jsonio.dump_json(jsonio.pencil_to_json(result.pencil)))
    return EXIT_FEASIBLE


def _cmd_normalize(args) -> int:
    P = _load_pencil(args)
    result = normalize(P)
    out = {
        "kind": result.kind,
        "pencil": None if result.pencil is None
        else jsonio.pencil_to_json(result.pencil),
        "witness_variable": None if result.witness_variable is None
        else result.witness_variable + 1,
        "eliminated_variables": [v + 1 for v in result.eliminated_variables],
        "removed_rows": [r + 1 for r in result.removed_rows],
    }
    _emit(args, jsonio.dump_json(out))
    return EXIT_INFEASIBLE if result.kind == "trivial" else EXIT_FEASIBLE


def _cmd_affine(args) -> int:
    P = _load_pencil(args)
    feasible = affine_feasibility(P)
    _emit(args, jsonio.dump_json({"feasible": feasible}))
    return EXIT_FEASIBLE if feasible else EXIT_INFEASIBLE


def _cmd_gen(args) -> int:
    spec = bench_mod.GenSpec(args.n, args.m, args.seed, args.grid)
    _emit(args, jsonio.dump_json(jsonio.pencil_to_json(bench_mod.gen_random(spec))))
    return EXIT_FEASIBLE


def _cmd_phase(args) -> int:
    cells = bench_mod.phase_diagram(
        args.n_list, args.m_list, samples=args.samples,
        seed=args.seed, max_iters=args.max_iters,
        timing=not args.no_timing)
    _emit(args, bench_mod.to_csv(cells))
    return EXIT_FEASIBLE


def _cmd_certify(args) -> int:
    if args.game:
        G = jsonio.game_from_json(jsonio.load_json(args.input))
    else:
        P = _load_pencil(args)
        G = game_from_pencil(P)
        _affine_note(P)
    if args.check is not None:
        cert = jsonio.certificate_from_json(jsonio.load_json(args.check))
        holds, strict = certify_mod.check_certificate(G, cert)
        _emit(args, jsonio.dump_json(
            {"holds": holds, "strict": strict, "kind": cert.kind}))
        if holds:
            return EXIT_FEASIBLE
        print("certificate does not verify against this instance",
              file=sys.stderr)
        return EXIT_ERROR
    if args.lam is None:
        raise ValidationError("certify needs --lambda (or --check CERT)")
    if args.lam == 0:
        raise ValidationError("the margin --lambda must be nonzero")
    produce = (certify_mod.feasibility_certificate if args.lam > 0
               else certify_mod.infeasibility_certificate)
    cert = produce(G, args.lam, args.max_iters)
    _emit(args, jsonio.dump_json(jsonio.certificate_to_json(cert)))
    return EXIT_FEASIBLE


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.schema:
        sys.stdout.write(_SCHEMAS)
        return EXIT_FEASIBLE
    if args.subcommand is None:
        parser.error("a subcommand is required (see --help)")
    try:
        for cap in ("max_iters", "max_pairs"):
            if getattr(args, cap, 1) < 1:
                raise ValidationError(f"{cap.replace('_', '-')} must be at least 1")
        return args.handler(args)
    except TropSdpError as exc:
        print(f"tropsdp: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (OSError, MemoryError) as exc:
        print(f"tropsdp: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
