"""Span recorder for the traced run.

``Recorder.install`` wraps every public module-level function of canalg's
modules and rebinds each reference to it, in every canalg namespace and in
module-level dicts such as the CLI's handler table, so calls between modules
and within a module pass through the wrapper.  Methods of value classes
(``DimVector``, ``TubeIndec``, ``GeometryReport.compute`` ...) are not
wrapped; their time counts to the span that calls them.

Each span keeps its name, start, end, parent span and query identifier.  A
generator's span opens at its first resume and stays on the stack only while
it runs, so its ``busy`` time is the sum of its resumes; for a plain call
``busy = end - start``.  Spans and the counts taken at the same boundaries
live in memory until ``write`` stores them in one file.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

MODULES = ("forms", "cones", "geometry", "tubes", "zeroset", "oracle", "linalg",
           "checks", "cli")

# Calls that count as one pass over the slice-cost table.
SLICE_PASS = {"geometry.ci_defect", "geometry.is_normal", "geometry.component_count",
              "geometry.irreducible_components"}


def _vertex_dims(d) -> list[int]:
    return [d.d0, d.dinf, *(x for arm in d.arms for x in arm)]


def _hom_unknowns(args) -> int:
    """Unknowns of the intertwining system: sum over vertices of dim_N * dim_M."""
    m_rep, n_rep = args[2], args[3]
    return sum(a * b for a, b in zip(_vertex_dims(m_rep.dim), _vertex_dims(n_rep.dim)))


def _elim_ops(args) -> int:
    """rows * cols * min(rows, cols) of the matrix passed to rank."""
    a = args[0]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    return rows * cols * min(rows, cols)


# Counters fed from a call's arguments: name -> (counter, function of args).
ARG_COUNTS = {
    "oracle.hom_dim_linear": ("oracle.hom_unknowns", _hom_unknowns),
    "linalg.rank": ("linalg.elim_ops", _elim_ops),
}
# Counters of items a generator yields.
YIELD_COUNTS = {"cones.enumerate_P": "cones.P_vectors",
                "zeroset.enumerate_Zp": "zeroset.Zp_triples"}


class Recorder:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.query = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.busy = array("q")
        self.stack: list[int] = []
        self.query_id = -1
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._patched: list[tuple[dict, object, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int, now: int) -> int:
        sid = len(self.start)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.query.append(self.query_id)
        self.name.append(name_id)
        self.start.append(now)
        self.end.append(now)
        self.busy.append(0)
        self.stack.append(sid)
        return sid

    def close(self, sid: int, began: int) -> None:
        now = perf_counter_ns()
        self.stack.pop()
        self.end[sid] = now
        self.busy[sid] += now - began

    @contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens, around a block."""
        began = perf_counter_ns()
        sid = self.open(self.name_id(name), began)
        try:
            yield sid
        finally:
            self.close(sid, began)

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, fn, qualname: str):
        rec, nid = self, self.name_id(qualname)
        arg_count = ARG_COUNTS.get(qualname)
        if inspect.isgeneratorfunction(fn):
            yielded = YIELD_COUNTS.get(qualname)

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                rec.calls[qualname] += 1
                if arg_count:
                    rec.counts[arg_count[0]] += arg_count[1](args)
                inner = fn(*args, **kwargs)
                sid = None
                try:
                    while True:
                        began = perf_counter_ns()
                        if sid is None:
                            sid = rec.open(nid, began)
                        else:
                            rec.stack.append(sid)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            rec.close(sid, began)
                        if yielded:
                            rec.counts[yielded] += 1
                        yield item
                finally:
                    inner.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.calls[qualname] += 1
            if arg_count:
                rec.counts[arg_count[0]] += arg_count[1](args)
            began = perf_counter_ns()
            sid = rec.open(nid, began)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(sid, began)

        return wrapper

    def install(self, package) -> None:
        """Wrap the public functions of the package's modules and rebind them."""
        modules = [getattr(package, name) for name in MODULES]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = (obj, self._wrap(obj, f"{short}.{attr}"))
        for ns in [vars(package)] + [vars(mod) for mod in modules]:
            for key, value in list(ns.items()):
                if id(value) in wrapped and value is wrapped[id(value)][0]:
                    self._patched.append((ns, key, value))
                    ns[key] = wrapped[id(value)][1]
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if id(v) in wrapped and v is wrapped[id(v)][0]:
                            self._patched.append((value, k, v))
                            value[k] = wrapped[id(v)][1]

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patched):
            ns[key] = original
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def self_times(self) -> list[int]:
        """Per span: busy time minus the busy time of its child spans (ns)."""
        child = [0] * len(self.busy)
        for sid, par in enumerate(self.parent):
            if par >= 0:
                child[par] += self.busy[sid]
        return [b - c for b, c in zip(self.busy, child)]

    def module_self_s(self) -> dict[str, float]:
        out: Counter = Counter()
        for sid, st in enumerate(self.self_times()):
            out[self.names[self.name[sid]].split(".", 1)[0]] += st
        return {k: v / 1e9 for k, v in out.items()}

    def inclusive_s(self, qualname: str) -> float:
        nid = self._name_ids.get(qualname)
        return sum(b for b, n in zip(self.busy, self.name) if n == nid) / 1e9

    def write(self, path, meta: dict) -> None:
        """One tab-separated file: ``#`` header lines, then one span a line."""
        with open(path, "w") as fh:
            for key, value in meta.items():
                fh.write(f"# {key}: {value}\n")
            fh.write("# names: " + "\t".join(self.names) + "\n")
            fh.write("# span\tparent\tquery\tname\tstart_ns\tend_ns\tbusy_ns\n")
            t0 = self.start[0] if self.start else 0
            for sid in range(len(self.start)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.query[sid]}\t{self.name[sid]}\t"
                         f"{self.start[sid] - t0}\t{self.end[sid] - t0}\t{self.busy[sid]}\n")
