"""Batch command-line interface.

One process, one query.  Results go to stdout (text or JSON), diagnostics to
stderr.  Exit codes: 0 success, 1 a checked property failed, 2 invalid input
or a request outside the proved range, 3 an internal error (a bug; the
message names the exception), 141 (128 + SIGPIPE) the reader of stdout
closed it before the answer was written, as ``| head -1`` does.  main parses
the type and makes every refusal the arguments alone decide before a handler
runs, so a refused query loads none of the handlers' modules.
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
    t = args.type
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
    _emit(geometry.ci_summary(args.type, args.p), args.format)
    return 0


def cmd_components(args) -> int:
    from . import geometry
    comps = geometry.irreducible_components(args.type, args.p, cap=args.cap)
    payload = {
        "p": args.p,
        "count": len(comps),
        "components": [format_dim_vector(d) for d in comps],
    }
    _emit(payload, args.format)
    return 0


def cmd_zeroset(args) -> int:
    from . import zeroset
    report = zeroset.ZeroSetReport.compute(args.type, args.p)
    _emit(report.to_dict(), args.format)
    return 0


def cmd_witness(args) -> int:
    from . import geometry
    summary = geometry.witness_summary(args.type)
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


def cmd_verify(args) -> int:
    from . import checks
    t = args.type
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


def cmd_oracle(args) -> int:
    from . import oracle
    t = args.type
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


# Largest --samples verify takes: on a shared 2-core x86-64 host each sample
# of the forms and cones suites costs about 0.6 ms at 5,5,5,5,5, and
# `verify --type 5,5,5,5,5 --samples 100000` took 61 s.
MAX_SAMPLES = 100_000
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

# Least and most value of each count option, by its name on args; main
# checks every least, then every most, in this order.  None is no ceiling.
BOUNDS = {"pmax": (1, None), "samples": (1, MAX_SAMPLES), "cap": (1, None),
          "sizes": (1, MAX_ORACLE_SIZES)}


# The work of a verify or oracle run in steps of about 0.5 us, summed over the
# terms that carry its time as the arm count n, |m| = sum m_i, --samples and
# --sizes grow; the weights were fitted on the host above (Python 3.11).
def _oracle_steps(t: CanonicalType, sizes: int, full: bool) -> int:
    """To build and check the 2|m| tube and the `sizes` homogeneous modules,
    90 steps per module and arm and 5 per module and vertex; with `full`, 8
    per arm for each pair of tube modules' Hom system."""
    tube = 2 * t.total
    return ((tube + sizes) * (90 * t.n + 5 * t.vertex_count)
            + (8 * t.n * tube ** 2 if full else 0))


def _verify_steps(t: CanonicalType, samples: int) -> int:
    """pairing-e's 2|m| Euler forms of about |m| terms per sample, cross-arm's
    Euler form per pair of tube simples, end-and-periodicity's 3*m_i^3 top
    tests of 9 steps each, and the oracle battery at its default sizes."""
    m = t.total
    return (samples * 2 * m * m + m ** 3 + 27 * sum(mi ** 3 for mi in t.m)
            + _oracle_steps(t, 3, False))


# The most steps each admits: the count of the largest run the ceilings above
# admit on few arms (verify 5,5,5,5,5 --samples 100000, about 61 s; oracle
# 150,150,150 --full --sizes 1, about 9 s).  Those ceilings admit any number
# of arms: verify 160,160,160 --samples 1 ran past 120 s, and oracle took
# 8.4 s on 200 arms of length 2, 60 s on 100 with --full --sizes 1 and 6.9 s
# on 400,400,400 without it.
MAX_VERIFY_STEPS = _verify_steps(CanonicalType((5,) * 5), MAX_SAMPLES)
MAX_ORACLE_STEPS = _oracle_steps(CanonicalType((150,) * 3), 1, True)


def _refuse(args) -> None:
    """Raise ValueError on the first refusal the arguments and the parsed type
    alone decide: the count options' bounds, then oracle --full's pair and
    unknown ceilings, then the step ceilings."""
    given = [(name, getattr(args, name), least, most)
             for name, (least, most) in BOUNDS.items() if hasattr(args, name)]
    for name, value, least, _ in given:
        if value < least:
            raise ValueError(f"--{name} must be >= {least}, got {value}")
    for name, value, _, most in given:
        if most is not None and value > most:
            raise ValueError(f"--{name} must be <= {most}, got {value}")
    t = args.type
    if args.command == "verify":
        steps = _verify_steps(t, args.samples)
        if steps > MAX_VERIFY_STEPS:
            raise ValueError(f"verify at --samples {args.samples} counts {steps} steps of "
                             f"work, more than {MAX_VERIFY_STEPS}")
    elif args.command == "oracle":
        pairs = (2 * t.total) ** 2
        if args.full and pairs > MAX_ORACLE_PAIRS:
            raise ValueError(f"--full solves (2*{t.total})^2 = {pairs} Hom systems between "
                             f"tube modules, more than {MAX_ORACLE_PAIRS}")
        unknowns = t.vertex_count * (args.sizes * (args.sizes + 1) // 2) ** 2
        if args.full and unknowns > MAX_ORACLE_UNKNOWNS:
            raise ValueError(f"--full solves Hom systems between homogeneous modules with "
                             f"{t.vertex_count}*({args.sizes}*{args.sizes + 1}/2)^2 = "
                             f"{unknowns} unknowns, more than {MAX_ORACLE_UNKNOWNS}")
        steps = _oracle_steps(t, args.sizes, args.full)
        if steps > MAX_ORACLE_STEPS:
            full = " --full" if args.full else ""
            raise ValueError(f"oracle at --sizes {args.sizes}{full} counts {steps} steps of "
                             f"work, more than {MAX_ORACLE_STEPS}")


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
                         f"300 take about 0.2 s and {MAX_SAMPLES:,} about 60 s; a run on "
                         "long or many arms whose counted work passes that of 5,5,5,5,5 at "
                         f"{MAX_SAMPLES:,} is refused")

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
                         "--sizes 1 takes about 5 s.  With or without it, a run on many "
                         "arms whose counted work passes that of 150,150,150 --full "
                         "--sizes 1 is refused")
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
        args.type = CanonicalType.parse(args.type)
        _refuse(args)
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
