"""Query lists of the four benchmark workloads, made from the seed.

A query is the argument list of one ``canalg`` process (``--format json`` is
added when it runs).  The seed permutes the arms of each type, jitters the
levels by a few units, picks the homogeneous parameter of the oracle and is
passed on to ``verify``; it never changes which types or how many queries a
round holds, so every seed costs about the same.  ``tiny=True`` gives the same
shape at desk-check sizes for the benchmark's own tests.
"""

from __future__ import annotations

import random

WORKLOADS = ("geometry-levels", "zeroset-window", "oracle-hom", "verify-suites")

T237 = (2, 3, 7)          # above the boundary, wild
T5 = (5,) * 5             # on the boundary
T36 = (3,) * 6            # on the boundary
T37 = (3,) * 7            # below the boundary: CI only at p <= 2
T2222 = (2,) * 4          # above the boundary, tubular


def _type_arg(m) -> str:
    return ",".join(str(x) for x in m)


def _permuted(rng: random.Random, m: tuple[int, ...]) -> tuple[int, ...]:
    arms = list(m)
    rng.shuffle(arms)
    return tuple(arms)


def _geometry(rng: random.Random, tiny: bool) -> list[tuple[str, ...]]:
    # (subcommand, type, base level, jitter); `components` only at CI levels.
    if tiny:
        plan = [("ci", T237, 20, 3), ("components", T237, 8, 3),
                ("ci", T5, 12, 3), ("components", T5, 10, 5),
                ("ci", T36, 20, 3), ("components", T36, 12, 3),
                ("ci", T37, 20, 3), ("ci", T37, 1, 2), ("components", T37, 1, 2),
                ("ci", T2222, 40, 3), ("components", T2222, 30, 3)]
    else:
        plan = [("ci", T237, 120, 3), ("components", T237, 100, 3),
                ("ci", T5, 120, 3), ("components", T5, 120, 5),
                ("ci", T36, 160, 3), ("components", T36, 150, 3),
                ("ci", T37, 250, 3), ("ci", T37, 1, 2), ("components", T37, 1, 2),
                ("ci", T2222, 400, 3), ("components", T2222, 300, 3)]
    return [(cmd, "--type", _type_arg(_permuted(rng, m)),
             "--p", str(base + rng.randrange(jitter)))
            for cmd, m, base, jitter in plan]


# Levels from the proved threshold (3 for these domestic types) up to what a
# round can afford: p = 4 at (2,2,3) alone takes about 15 s.
ZEROSET_PLAN = (((2, 2, 2), 3), ((2, 2, 2), 4), ((2, 2, 3), 3), ((2, 3, 3), 3),
                ((2, 2, 4), 3))
ZEROSET_TINY = (((2, 2, 2), 3),)


def _zeroset(rng: random.Random, tiny: bool) -> list[tuple[str, ...]]:
    plan = ZEROSET_TINY if tiny else ZEROSET_PLAN
    return [("zeroset", "--type", _type_arg(_permuted(rng, m)), "--p", str(p))
            for m, p in plan]


# Integers off the tube points {0, 1} of a three-arm type.
ORACLE_MUS = (-3, -2, 2, 3, 4, 5)


def _oracle(rng: random.Random, tiny: bool) -> list[tuple[str, ...]]:
    plan = [((2, 2, 2), 2)] if tiny else [((2, 2, 2), 6), ((2, 3, 4), 5), ((2, 2, 3), 5)]
    return [("oracle", "--type", _type_arg(_permuted(rng, m)), "--full",
             "--sizes", str(sizes), "--mu", str(rng.choice(ORACLE_MUS)))
            for m, sizes in plan]


def _verify(rng: random.Random, tiny: bool, seed: int) -> list[tuple[str, ...]]:
    types = [(2, 2, 2), T237] if tiny else [T237, T5, (2, 2, 2), T2222]
    pmax = "2" if tiny else "4"
    return [("verify", "--type", _type_arg(_permuted(rng, m)), "--pmax", pmax,
             "--seed", str(seed))
            for m in types]


def queries(workload: str, seed: int, tiny: bool = False) -> list[tuple[str, ...]]:
    """The query list of one round, in the order it runs."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "geometry-levels":
        out = _geometry(rng, tiny)
    elif workload == "zeroset-window":
        out = _zeroset(rng, tiny)
    elif workload == "oracle-hom":
        out = _oracle(rng, tiny)
    elif workload == "verify-suites":
        out = _verify(rng, tiny, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(out)
    return out


def setup_types(workload: str, seed: int, tiny: bool = False) -> list[str]:
    """The distinct --type arguments of the workload, for the set-up probes."""
    seen: list[str] = []
    for q in queries(workload, seed, tiny):
        arg = q[q.index("--type") + 1]
        if arg not in seen:
            seen.append(arg)
    return seen
