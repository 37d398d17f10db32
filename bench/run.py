"""Benchmark of canalg: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is the checkout's own
``src/canalg``, run the way ``python3 -m canalg`` runs it.

``--trace 0`` (timed run): set-up queries, then whole rounds of the
workload's query list, each query its own ``canalg ... --format json``
process started after the previous one ended (closed loop, one client),
until ``--seconds`` have passed.  Prints the end-to-end metrics.

``--trace 1`` (traced run): one untraced and one traced round in process,
the traced one under the span recorder of ``spans.py``, then the reference
checks that are too slow for the timed runs.  Prints the per-layer metrics
and the tracing overhead; writes the spans to ``bench/out``.

Every answer is checked against ``reference.py``.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
ZP_COUNTS = HERE / "zp_counts.json"

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
IMPORT_SAMPLES = 5
QUERY_TIMEOUT_S = 150.0
LAYERS = ("geometry", "cones", "forms", "tubes", "zeroset", "oracle", "linalg",
          "checks", "cli")


@dataclass
class Answer:
    argv: tuple[str, ...]
    code: int
    out: dict | None
    wall_s: float = 0.0
    rss_mb: float = 0.0

    @property
    def failed(self) -> bool:
        """No answer at all: a crash, a refusal, a timeout or unreadable output.
        Exit 1 with JSON is an answer (a checked property failed)."""
        return self.code not in (0, 1) or self.out is None

    def label(self) -> str:
        return " ".join(self.argv)


def _parse(text: str) -> dict | None:
    try:
        return json.loads(text)
    except ValueError:
        return None


# ``python3 -m canalg ARGS`` that also reports its own peak resident set
# (VmHWM) on stderr at exit.  The ru_maxrss the kernel gives for a child also
# counts the benchmark's own pages, held between fork and exec.
LAUNCH = ("import atexit, runpy, sys\n"
          "def _peak():\n"
          "    with open('/proc/self/status') as fh:\n"
          "        sys.stderr.write(''.join(l for l in fh if l.startswith('VmHWM:')))\n"
          "atexit.register(_peak)\n"
          "sys.argv[0] = 'canalg'\n"
          "runpy.run_module('canalg', run_name='__main__', alter_sys=True)\n")
PEAK = re.compile(r"^VmHWM:\s+(\d+) kB$", re.MULTILINE)


def run_process(argv: tuple[str, ...]) -> Answer:
    """One ``canalg`` process; wall time from spawn to exit, its own peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(OUT / "query.stdout", "w+b") as out, open(OUT / "query.stderr", "w+b") as err:
        began = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", LAUNCH, *argv, "--format", "json"],
                                cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(QUERY_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
        wall = time.perf_counter() - began
        out.seek(0)
        err.seek(0)
        text, diag = (f.read().decode(errors="replace") for f in (out, err))
    if proc.returncode not in (0, 1):
        sys.stderr.write(f"query {' '.join(argv)} exited {proc.returncode}: {diag[-500:]}\n")
    peak = PEAK.search(diag)
    return Answer(argv, proc.returncode, _parse(text), wall,
                  int(peak.group(1)) / 1024 if peak else 0.0)


def call_in_process(main, argv: tuple[str, ...]) -> Answer:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main([*argv, "--format", "json"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed operation, not the end of the run
            sys.__stderr__.write(f"query {' '.join(argv)} crashed:\n{traceback.format_exc()}")
            code = -1
    return Answer(argv, code, _parse(buf.getvalue()))


class Tally:
    """Operations attempted and failed, and the reference-check errors."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def take(self, answers) -> None:
        for a in answers:
            self.attempted += 1
            if a.failed:
                self.failed += 1
                continue
            self.errors += [f"{a.label()}: {e}" for e in reference.check_query(a.argv, a.code, a.out)]


# The host's speed drifts by up to 1.7x in phases of seconds to minutes (see
# the README), so timed runs also time this fixed task: a query-like process
# (interpreter start, tuples in a dict, exact Fraction elimination on a small
# dense matrix) that does not use canalg.
HOST_PROBE = ("from fractions import Fraction\n"
              "table = {}\n"
              "for a in range(50):\n"
              "    for b in range(a + 1):\n"
              "        for c in range(b + 1):\n"
              "            table[(a, b, c)] = a * a - a * b + b * b - b * c + c * c\n"
              "x, rows = 12345, []\n"
              "for i in range(30):\n"
              "    row = []\n"
              "    for j in range(36):\n"
              "        x = (x * 1103515245 + 12345) % 2147483648\n"
              "        row.append(Fraction(x % 7 - 3))\n"
              "    rows.append(row)\n"
              "r = 0\n"
              "for c in range(36):\n"
              "    piv = next((i for i in range(r, 30) if rows[i][c]), None)\n"
              "    if piv is None:\n"
              "        continue\n"
              "    rows[r], rows[piv] = rows[piv], rows[r]\n"
              "    for i in range(r + 1, 30):\n"
              "        f = rows[i][c] / rows[r][c]\n"
              "        rows[i] = [u - f * v for u, v in zip(rows[i], rows[r])]\n"
              "    r += 1\n")
# A query's scaled time is its wall time times PROBE_REFERENCE_S over the mean
# of the probe times around it: seconds on a host where the probe takes
# PROBE_REFERENCE_S.  Probes right around a query see the host phase it ran
# in, which a mean over the whole run does not.  The host loses time in
# chunks of tens of milliseconds, so one short probe reads the phase coarsely:
# the gap after a query probes for at least PROBE_SHARE of that query's time,
# and a query is scaled by at least PROBE_MIN probes, from the gaps right
# before and after it and, if those hold fewer, from the gaps next to them.
PROBE_REFERENCE_S = 0.14
PROBE_SHARE = 0.05
PROBE_MIN = 4


class ProbedRunner:
    """Runs queries one after another with a gap of host probes before each
    query and one after the last (``finish``)."""

    def __init__(self) -> None:
        self.gaps: list[list[float]] = []  # gaps[k] ran just before process k
        self.answers: list[Answer] = []

    def _gap(self) -> None:
        need = PROBE_SHARE * (self.answers[-1].wall_s if self.answers else 0.0)
        times: list[float] = []
        while not times or sum(times) < need:
            began = time.perf_counter()
            subprocess.run([sys.executable, "-c", HOST_PROBE], cwd=ROOT, check=True,
                           timeout=QUERY_TIMEOUT_S)
            times.append(time.perf_counter() - began)
        self.gaps.append(times)

    def run(self, argv: tuple[str, ...]) -> int:
        """Runs one query; returns its index for ``scaled_s``."""
        self._gap()
        self.answers.append(run_process(argv))
        return len(self.answers) - 1

    def finish(self) -> None:
        self._gap()

    def scaled_s(self, k: int) -> float:
        lo, hi = k, k + 1
        probes = self.gaps[lo] + self.gaps[hi]
        while len(probes) < PROBE_MIN and (lo > 0 or hi < len(self.gaps) - 1):
            if lo > 0:
                lo -= 1
                probes += self.gaps[lo]
            if hi < len(self.gaps) - 1:
                hi += 1
                probes += self.gaps[hi]
        return self.answers[k].wall_s * PROBE_REFERENCE_S / statistics.mean(probes)


def setup_runs(workload: str, seed: int, tiny: bool, runner: ProbedRunner) -> list[int]:
    """``canalg classify`` on the workload's types: interpreter start, import
    and argument parsing.  A first, unmeasured run writes the bytecode caches."""
    types = workloads.setup_types(workload, seed, tiny)
    run_process(("classify", "--type", types[0]))
    return [runner.run(("classify", "--type", types[k % len(types)]))
            for k in range(SETUP_SAMPLES)]


def timed_run(workload: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    runner = ProbedRunner()
    setup = setup_runs(workload, seed, tiny, runner)
    qs = workloads.queries(workload, seed, tiny)
    rounds: list[list[int]] = []
    began = time.perf_counter()
    while True:
        rounds.append([runner.run(q) for q in qs])
        # Start another whole round only if it is expected to end in time.
        elapsed = time.perf_counter() - began
        if elapsed + elapsed / len(rounds) > seconds:
            break
    runner.finish()
    tally = Tally()
    tally.take(runner.answers)
    queries = [k for r in rounds for k in r]
    scaled = [runner.scaled_s(k) for k in range(len(runner.answers))]
    # Each query of the round with its median over the rounds.
    query_median_s = [statistics.median(scaled[r[j]] for r in rounds) for j in range(len(qs))]
    for q, median in zip(qs, query_median_s):
        print(f"query {median:9.4f} s  {' '.join(q)}")
    round_s = [sum(scaled[k] for k in r) for r in rounds]
    # The round's time from each query's median over the rounds: steadier
    # than the median round when a run holds only a few rounds.
    metrics = {"setup_s": (statistics.median(scaled[k] for k in setup), "s"),
               "workload_s": (sum(query_median_s), "s"),
               "query_p50_s": (statistics.median(scaled[k] for k in queries), "s"),
               "peak_rss_mb": (max(runner.answers[k].rss_mb for k in queries), "MB")}
    raw = {"setup_s": statistics.median(runner.answers[k].wall_s for k in setup),
           "workload_s": sum(statistics.median(runner.answers[r[j]].wall_s for r in rounds)
                             for j in range(len(qs))),
           "query_p50_s": statistics.median(runner.answers[k].wall_s for k in queries)}
    print(f"rounds: {len(rounds)}  scaled round_s: {' '.join(f'{x:.4f}' for x in round_s)}")
    probes = [t for gap in runner.gaps for t in gap]
    print(f"host probe: median {statistics.median(probes):.4f} s over "
          f"{len(probes)}; unscaled " + "  ".join(f"{k} {v:.4f}" for k, v in raw.items()))
    # wall_s and probe_s in run order (set-up, then the rounds): the probes of
    # gap k ran just before process k, so other scalings can be tried on a
    # saved run.
    return _result(tally, metrics, {"rounds": round_s, "unscaled_s": raw, "probe_s": runner.gaps,
                                    "wall_s": [a.wall_s for a in runner.answers],
                                    "query_median_s": {" ".join(q): m for q, m
                                                       in zip(qs, query_median_s)}})


def _import_canalg():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import canalg
    import canalg.cli
    if Path(canalg.__file__).resolve().parent != (SRC / "canalg").resolve():
        raise SystemExit(f"imported canalg from {canalg.__file__}, not from {SRC}")
    return canalg


def import_time_s() -> float:
    """Median time to import canalg.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import canalg.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                                  capture_output=True, text=True, check=True,
                                  timeout=QUERY_TIMEOUT_S).stdout)
             for _ in range(IMPORT_SAMPLES)]
    return statistics.median(times)


def _vec(d) -> tuple:
    return (d.d0, d.dinf, tuple(tuple(a) for a in d.arms))


def zeroset_stream_errors(canalg, qs) -> list[str]:
    """Stream enumerate_Zp once per query and recheck every triple."""
    recorded = json.loads(ZP_COUNTS.read_text())
    errs = []
    for q in qs:
        opts = reference.query_options(q)
        m, p = reference.parse_type(opts["type"]), int(opts["p"])
        check = reference.ZpStreamCheck(m, p)
        for z in canalg.zeroset.enumerate_Zp(canalg.forms.CanonicalType(m), p):
            check.add(_vec(z.dprime), _vec(z.ddouble),
                      tuple((x.arm, x.socle, x.qlen) for x in z.xclass.members), z.q)
        key = ",".join(str(x) for x in sorted(m))
        errs += [f"{' '.join(q)}: {e}"
                 for e in check.finish(recorded.get(key, {}).get(str(p)))]
    return errs


def oracle_hom_errors(canalg, qs) -> list[str]:
    """Hom dimensions of the built modules against the segment count."""
    oracle = canalg.oracle
    errs = []
    for q in qs:
        opts = reference.query_options(q)
        m, sizes, mu = reference.parse_type(opts["type"]), int(opts["sizes"]), Fraction(opts["mu"])
        t = canalg.forms.CanonicalType(m)
        lam = oracle.LambdaChoice.default_for(t)
        tube = []
        for i, mi in enumerate(m, start=1):
            tube += [((i, j, 1), oracle.build_exceptional_simple(t, lam, i, j)) for j in range(mi)]
            tube += [((i, a, 2), oracle.build_length_two(t, lam, i, a)) for a in range(mi)]
        homog = [(s, oracle.build_homogeneous(t, lam, mu, s)) for s in range(1, sizes + 1)]

        def hom(a, b):
            return oracle.hom_dim_linear(t, lam, a, b)

        tube_homs = [((x, y), hom(xr, yr)) for x, xr in tube for y, yr in tube]
        homog_homs = [((s, u), hom(sr, ur)) for s, sr in homog for u, ur in homog]
        mixed = [(f"Hom(J{s}, {x})", hom(sr, xr)) for s, sr in homog for x, xr in tube]
        mixed += [(f"Hom({x}, J{s})", hom(xr, sr)) for s, sr in homog for x, xr in tube]
        errs += [f"{' '.join(q)}: {e}"
                 for e in reference.check_homs(m, sizes, tube_homs, homog_homs, mixed)]
    return errs


def traced_run(workload: str, seed: int, tiny: bool = False, trace_path: Path | None = None) -> dict:
    canalg = _import_canalg()
    tally = Tally()
    qs = workloads.queries(workload, seed, tiny)
    import_s = import_time_s()

    rec = spans.Recorder()
    plain, traced = [], []
    untraced_s = traced_s = 0.0
    # Each query runs untraced and traced back to back, in alternating order,
    # so both see the same host speed and their difference is the overhead.
    for qid, q in enumerate(qs):
        for tracing in (False, True) if qid % 2 == 0 else (True, False):
            if not tracing:
                t0 = time.perf_counter()
                plain.append(call_in_process(canalg.cli.main, q))
                untraced_s += time.perf_counter() - t0
                continue
            rec.query_id = qid
            rec.install(canalg)
            try:
                t0 = time.perf_counter()
                with rec.span("bench.query"):
                    traced.append(call_in_process(canalg.cli.main, q))
                traced_s += time.perf_counter() - t0
            finally:
                rec.uninstall()
    tally.take(plain)
    tally.take(traced)

    if workload == "zeroset-window":
        tally.errors += zeroset_stream_errors(canalg, qs)
    elif workload == "oracle-hom":
        tally.errors += oracle_hom_errors(canalg, qs)

    self_s = rec.module_self_s()
    for layer, value in self_s.items():
        if value > traced_s:
            tally.errors.append(f"{layer} self time {value:.4f} s exceeds traced wall {traced_s:.4f} s")
    if sum(self_s.values()) > traced_s:
        tally.errors.append(f"self times sum to {sum(self_s.values()):.4f} s, "
                            f"over the traced wall {traced_s:.4f} s")
    print(f"tracing overhead: {traced_s - untraced_s:.4f} s "
          f"({100 * (traced_s / untraced_s - 1):.1f}%): traced round {traced_s:.4f} s, "
          f"untraced round {untraced_s:.4f} s, in process, query by query, "
          f"{len(rec.start)} spans")

    calls, counts = rec.calls, rec.counts

    def calls_in(module: str) -> int:
        return sum(v for k, v in calls.items() if k.startswith(module + "."))

    enum_s = rec.inclusive_s("zeroset.enumerate_Zp")
    metrics = {f"{layer}.self_s": (self_s.get(layer, 0.0), "s") for layer in LAYERS}
    metrics.update({
        "geometry.calls": (calls_in("geometry"), "count"),
        "geometry.slice_passes": (sum(calls[k] for k in spans.SLICE_PASS), "count"),
        "cones.P_vectors": (counts["cones.P_vectors"], "count"),
        "forms.euler_form_calls": (calls["forms.euler_form"], "count"),
        "tubes.calls": (calls_in("tubes"), "count"),
        "zeroset.Zp_triples": (counts["zeroset.Zp_triples"], "count"),
        "zeroset.diff_calls": (calls["zeroset.diff"], "count"),
        "zeroset.triples_per_s": (counts["zeroset.Zp_triples"] / enum_s if enum_s else 0.0, "1/s"),
        "oracle.hom_calls": (calls["oracle.hom_dim_linear"], "count"),
        "oracle.hom_unknowns": (counts["oracle.hom_unknowns"], "count"),
        "linalg.rank_calls": (calls["linalg.rank"], "count"),
        "linalg.elim_ops": (counts["linalg.elim_ops"], "count"),
        "cli.import_s": (import_s, "s"),
    })
    if trace_path is not None:
        rec.write(trace_path, {"workload": workload, "seed": seed,
                               "queries": " | ".join(" ".join(q) for q in qs)})
    return _result(tally, metrics, {"traced_s": traced_s, "untraced_s": untraced_s,
                                    "spans": len(rec.start)})


def _result(tally: Tally, metrics: dict, extra: dict) -> dict:
    for e in tally.errors[:20]:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    return {"correct": not tally.errors, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "extra": extra}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "canalg" / "__init__.py").is_file():
        print(f"error: no canalg sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.trace:
        result = traced_run(args.workload, args.seed,
                            trace_path=OUT / f"{args.workload}.trace.tsv")
    else:
        result = timed_run(args.workload, args.seed, args.seconds)
    extra = result.pop("extra")
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    (OUT / name).write_text(json.dumps({**result, "extra": extra}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
