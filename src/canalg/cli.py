"""Batch command-line interface.

One process, one query.  Results go to stdout (text or JSON), diagnostics to
stderr.  Exit codes: 0 success, 1 a checked property failed, 2 invalid input
or a request outside the proved range, 3 an internal error (a bug; the
message names the exception), 141 (128 + SIGPIPE) the reader of stdout
closed it before the answer was written, as ``| head -1`` does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

# Each handler imports the modules only it runs, so a short query skips the rest.
from .cones import DEFAULT_CAP, DEFAULT_ZCAP, EnumerationCapExceeded
from .forms import CanonicalType, format_dim_vector

if TYPE_CHECKING:
    from fractions import Fraction


def _rational(option: str, text: str) -> Fraction:
    from fractions import Fraction  # here, so the level queries never load it
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{option} takes rationals such as 2 or -3/4, got {text!r}") from None


def _at_least_one(*options: tuple[str, int]) -> None:
    for option, value in options:
        if value < 1:
            raise ValueError(f"{option} must be >= 1, got {value}")


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            if isinstance(value, list):
                print(f"{key}:")
                for item in value:
                    print(f"  {item}")
            else:
                print(f"{key}: {value}")


def cmd_classify(args) -> int:
    from . import geometry, zeroset
    t = CanonicalType.parse(args.type)
    boundary, repr_type = geometry.classify_type(t)
    try:
        threshold = zeroset.zeroset_threshold(t)
    except zeroset.OutsideProvenRange:
        threshold = None
    payload = {
        "type": str(t),
        "n": t.n,
        "delta": str(t.delta),
        "sum_reciprocals": str(t.sum_reciprocals),
        "boundary": boundary,
        "repr_type": repr_type,
        "lcm": t.lcm,
        "product": t.product,
        "zeroset_threshold": threshold,
    }
    _emit(payload, args.format)
    return 0


def cmd_ci(args) -> int:
    from . import geometry
    t = CanonicalType.parse(args.type)
    _emit(geometry.ci_summary(t, args.p), args.format)
    return 0


def cmd_components(args) -> int:
    from . import geometry
    t = CanonicalType.parse(args.type)
    _at_least_one(("--cap", args.cap))
    comps = geometry.irreducible_components(t, args.p, cap=args.cap)
    payload = {
        "p": args.p,
        "count": len(comps),
        "components": [format_dim_vector(d) for d in comps],
    }
    _emit(payload, args.format)
    return 0


def cmd_zeroset(args) -> int:
    from . import zeroset
    t = CanonicalType.parse(args.type)
    report = zeroset.ZeroSetReport.compute(t, args.p)
    _emit(report.to_dict(), args.format)
    return 0


def cmd_witness(args) -> int:
    from . import geometry
    summary = geometry.witness_summary(CanonicalType.parse(args.type))
    _emit({**summary, "d": format_dim_vector(summary["d"])}, args.format)
    return 0


def _emit_results(payload: dict, results: list, fmt: str) -> None:
    """The ``oracle.CheckResult`` list as JSON (after ``payload``) or one line per result."""
    if fmt == "json":
        rows = [{"name": r.name, "ok": r.ok, "details": r.details} for r in results]
        print(json.dumps({**payload, "results": rows}, indent=2))
        return
    for r in results:
        line = f"{'OK  ' if r.ok else 'FAIL'} {r.name}"
        if r.details:
            line += f"  ({r.details})"
        print(line)


# Largest --samples verify takes: on a shared 2-core x86-64 host each sample
# of the forms and cones suites costs about 0.6 ms at 5,5,5,5,5, and
# `verify --type 5,5,5,5,5 --samples 100000` took 61 s.
MAX_SAMPLES = 100_000


def cmd_verify(args) -> int:
    from . import checks
    t = CanonicalType.parse(args.type)
    _at_least_one(("--pmax", args.pmax), ("--samples", args.samples), ("--cap", args.cap))
    if args.samples > MAX_SAMPLES:
        raise ValueError(f"--samples must be <= {MAX_SAMPLES}, got {args.samples}")
    results = checks.run_all(t, pmax=args.pmax, seed=args.seed, samples=args.samples,
                             cap=args.cap)
    all_ok = all(r.ok for r in results)
    text = args.format == "text"
    if text:
        print(f"seed: {args.seed}  samples: {args.samples}  pmax: {args.pmax}")
    _emit_results({"type": str(t), "seed": args.seed, "samples": args.samples,
                   "pmax": args.pmax, "all_ok": all_ok}, results, args.format)
    if text:
        print(f"{'all checks passed' if all_ok else 'CHECKS FAILED'}")
    return 0 if all_ok else 1


# Largest --sizes the oracle takes: on a shared 2-core x86-64 host the full
# (2,3,4) battery takes about 5 s at 40 and 6 s at 45 as a process.
MAX_ORACLE_SIZES = 45
# Most Hom systems between tube modules `oracle --full` solves, one per pair
# of its 2*|m| modules: on the same host `--type 150,150,150 --full --sizes 1`
# (810,000 systems) takes about 9 s, `120,120,120` (518,400) 5 s.
MAX_ORACLE_PAIRS = 810_000
# Most unknowns `oracle --full` takes in the Hom systems between its
# homogeneous modules, counted on the whole quiver: Hom(J_s, J_s') has s*s'
# unknowns at each of the V vertices, V*(S(S+1)/2)^2 over all s, s' <= S =
# --sizes.  The bound is its value at 2,3,4 --sizes 45 (V = 8), so 40,40,40
# (V = 119) stops at --sizes 22, which takes about 1 s on the host above.
# hom_dim_linear solves these systems on the contracted quiver, so the count
# misstates the work both ways: it allows 2,2,2,2,2,2 --sizes 45 (10 s) and
# refuses 2,3,7 --sizes 45 (4 s); README has the measurements.
MAX_ORACLE_UNKNOWNS = 8 * (45 * 46 // 2) ** 2


def cmd_oracle(args) -> int:
    from . import oracle
    t = CanonicalType.parse(args.type)
    _at_least_one(("--sizes", args.sizes))
    if args.sizes > MAX_ORACLE_SIZES:
        raise ValueError(f"--sizes must be <= {MAX_ORACLE_SIZES}, got {args.sizes}")
    pairs = (2 * t.total) ** 2
    if args.full and pairs > MAX_ORACLE_PAIRS:
        raise ValueError(f"--full solves (2*{t.total})^2 = {pairs} Hom systems between "
                         f"tube modules, more than {MAX_ORACLE_PAIRS}")
    unknowns = t.vertex_count * (args.sizes * (args.sizes + 1) // 2) ** 2
    if args.full and unknowns > MAX_ORACLE_UNKNOWNS:
        raise ValueError(f"--full solves Hom systems between homogeneous modules with "
                         f"{t.vertex_count}*({args.sizes}*{args.sizes + 1}/2)^2 = {unknowns} "
                         f"unknowns, more than {MAX_ORACLE_UNKNOWNS}")
    if args.lambdas is not None:
        lam = oracle.LambdaChoice(tuple(_rational("--lambdas", x)
                                        for x in args.lambdas.split(",")))
    else:
        lam = oracle.LambdaChoice.default_for(t)
    mu = _rational("--mu", args.mu) if args.mu is not None else None
    sizes = tuple(range(1, args.sizes + 1))
    results = oracle.oracle_suite(t, lam, mu, sizes=sizes, full=args.full or None)
    all_ok = all(r.ok for r in results)
    _emit_results({"type": str(t), "lambdas": [str(x) for x in lam.lambdas],
                   "all_ok": all_ok}, results, args.format)
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canalg",
        description="Exact decision procedures for module varieties over "
                    "canonical algebras")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, with_p=False):
        """--type and --format; --p when with_p."""
        sp.add_argument("--type", required=True,
                        help="comma-separated arm lengths, e.g. 2,3,6")
        sp.add_argument("--format", choices=["text", "json"], default="text")
        if with_p:
            sp.add_argument("--p", type=int, required=True,
                            help="level: analyses run at dimension vector p*h")

    common(sub.add_parser("classify", help="type invariants and classification"))
    common(sub.add_parser("ci", help="complete-intersection / normality decision"),
           with_p=True)
    sp = sub.add_parser("components", help="list irreducible components")
    common(sp, with_p=True)
    sp.add_argument("--cap", type=int, default=DEFAULT_CAP,
                    help="enumeration cap; exceeding it is an error")
    common(sub.add_parser("zeroset", help="zero-set report at level p"), with_p=True)
    common(sub.add_parser("witness", help="explicit criterion-violating vector"))

    sp = sub.add_parser("verify", help="run all invariant suites")
    common(sp)
    sp.add_argument("--cap", type=int, default=DEFAULT_ZCAP,
                    help="most triples of Z_pmax the zero-set suite reads; exceeding "
                         "it is an error")
    sp.add_argument("--pmax", type=int, default=4,
                    help="highest level checked; for arm products up to 20 the zero-set "
                         "suite counts Z_p at p = min(pmax, 6) by key, without listing "
                         "its triples: the whole verify run takes about 0.12 s for 2,2,2 "
                         "at 4 and 0.21 s at 6, 0.14 s for 2,2,2,2 at 4, and 0.6 s for "
                         "2,2,4 at 4, which passes --cap after 4 s at 5")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=int, default=300,
                    help=f"vectors drawn per forms and cones check, at most {MAX_SAMPLES:,}; "
                         "a sample of all ten checks costs about 0.6 ms at 5,5,5,5,5, so "
                         f"300 take about 0.2 s and {MAX_SAMPLES:,} about 60 s")

    sp = sub.add_parser("oracle", help="matrix-level validation of the tube model")
    common(sp)
    sp.add_argument("--lambdas", default=None,
                    help="comma-separated rationals for the tube points 3..n")
    sp.add_argument("--mu", default=None,
                    help="homogeneous parameter (rational, off the tube points)")
    sp.add_argument("--sizes", type=int, default=3,
                    help="largest homogeneous quasi-length S to build, at most "
                         f"{MAX_ORACLE_SIZES}; the full battery solves an exact Hom system "
                         "per pair of them, with V*(S(S+1)/2)^2 unknowns in all counted on the V "
                         f"vertices, refused past {MAX_ORACLE_UNKNOWNS:,} (2,3,4 at "
                         f"{MAX_ORACLE_SIZES}, 40,40,40 at 22): the full 2,3,4 battery takes "
                         f"about 0.3 s at 15, 0.5 s at 20 and 6 s at {MAX_ORACLE_SIZES}, "
                         "40,40,40 about 2 s at 22")
    sp.add_argument("--full", action="store_true",
                    help="force the full pairwise Hom battery: one exact Hom system per "
                         "pair of the 2*|m| tube modules, refused past "
                         f"{MAX_ORACLE_PAIRS:,} pairs (|m| = 450); 120,120,120 at "
                         "--sizes 1 takes about 5 s")
    return parser


HANDLERS = {
    "classify": cmd_classify,
    "ci": cmd_ci,
    "components": cmd_components,
    "zeroset": cmd_zeroset,
    "witness": cmd_witness,
    "verify": cmd_verify,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader is gone: point fd 1 at devnull so the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (EnumerationCapExceeded, ValueError) as exc:  # OutsideProvenRange is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        message = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
