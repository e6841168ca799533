"""Per-layer spans for liereg, installed at run time from outside the package.

`Tracer.install` replaces the public functions of each liereg module by
timing wrappers, together with every other module's binding of the same
function (`from .linalg import mat_vec` in `reps`, for example), plus a
few methods.  A span is recorded only while a section opened by
`Tracer.section` is running, so oracles and checks are never timed.

For each wrapped name the tracer keeps, in memory:
- `calls`: completed calls;
- `s`: inclusive time of the outermost activations (recursion counted once);
- `self_s`: time not covered by any child span, summed over all activations.
So `0 <= self_s <= s` for every name.  Spans are aggregated per name and
per (caller, callee) edge, and one record per section; `dump` writes them
out at the end of a run.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import perf_counter_ns

LAYERS = ("linalg", "words", "reps", "duals", "grp", "kacmoody", "cli", "jsonio")
METHODS = (
    ("linalg", "Echelon", "add"),
    ("duals", "MatrixCoefficient", "evaluate_word"),
    ("kacmoody", "IrrTrunc", "space"),
    ("kacmoody", "IrrTrunc", "f_matrix"),
    ("kacmoody", "IrrTrunc", "e_matrix"),
)
PACKAGE = "liereg"
SECTION = "section"  # name of the root span of every section


class _Stat:
    __slots__ = ("calls", "incl", "self", "active")

    def __init__(self):
        self.calls = self.incl = self.self = self.active = 0


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stack = []  # [name, child_ns] per open span
        self.stats = {}
        self.edges = {}  # (caller, callee) -> [calls, ns]
        self.sections = []  # (label, start_ns, end_ns)
        self.absent = []
        self._restore = []
        # linalg.mat_vec: matrix entries seen and how many were nonzero;
        # matrices are immutable tuples, so count each one once per section
        self._nnz_seen = {}
        self.entries = self.nonzero = 0
        self.accepted = 0  # Echelon.add calls that enlarged the span

    # -- installation --------------------------------------------------------

    def install(self):
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        wrappers = {}  # id(original) -> wrapper
        for name, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = self._wrap(f"{name}.{attr}", obj)
        # every binding of a wrapped function, in any module of the package
        package = importlib.import_module(PACKAGE)
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    self._replace(mod, attr, obj, wrappers[id(obj)])
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(modules[mod_name], cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if not inspect.isfunction(fn):
                self.absent.append(f"{mod_name}.{cls_name}.{meth}")
                continue
            self._replace(cls, meth, fn, self._wrap(f"{mod_name}.{cls_name}.{meth}", fn))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, owner, attr, original, wrapper):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, _Stat())
        stack = self.stack
        edges = self.edges
        count_nnz = name == "linalg.mat_vec"
        count_accept = name == "linalg.Echelon.add"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if count_nnz:
                self._count_nnz(args[0])
            frame = [name, 0]
            stack.append(frame)
            stat.active += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                stat.active -= 1
                stat.calls += 1
                stat.self += elapsed - frame[1]
                if not stat.active:
                    stat.incl += elapsed
                parent = stack[-1]
                parent[1] += elapsed
                edge = edges.get((parent[0], name))
                if edge is None:
                    edges[(parent[0], name)] = [1, elapsed]
                else:
                    edge[0] += 1
                    edge[1] += elapsed
            if count_accept and result:
                self.accepted += 1
            return result

        return wrapper

    def _count_nnz(self, m):
        seen = self._nnz_seen.get(id(m))
        if seen is None:
            total = sum(len(row) for row in m)
            nonzero = sum(1 for row in m for x in row if x)
            seen = self._nnz_seen[id(m)] = (m, total, nonzero)
        self.entries += seen[1]
        self.nonzero += seen[2]

    # -- sections -------------------------------------------------------------

    def section(self, label, fn):
        """Run fn() with spans recorded; returns its result or raises."""
        root = [SECTION, 0]
        self.stack.append(root)
        self.enabled = True
        start = perf_counter_ns()
        try:
            return fn()
        finally:
            end = perf_counter_ns()
            self.enabled = False
            self.stack.pop()
            self._nnz_seen.clear()
            self.sections.append((label, start, end))

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict:
        """name -> (value, unit) for every wrapped name and layer total."""
        out = {}
        layer_self = dict.fromkeys(LAYERS, 0)
        for name, st in self.stats.items():
            out[f"{name}.calls"] = (st.calls, "count")
            out[f"{name}.s"] = (st.incl / 1e9, "s")
            out[f"{name}.self_s"] = (st.self / 1e9, "s")
            layer_self[name.split(".")[0]] += st.self
        for layer, ns in layer_self.items():
            out[f"{layer}.self_s"] = (ns / 1e9, "s")
        out["linalg.mat_vec.nnz_frac"] = (self.nonzero / self.entries if self.entries else 0.0, "ratio")
        adds = self.stats.get("linalg.Echelon.add")
        out["linalg.Echelon.add.accept_ratio"] = (
            self.accepted / adds.calls if adds is not None and adds.calls else 0.0,
            "ratio",
        )
        return out

    def dump(self, path):
        """Write the aggregated spans; called once, when the run ends."""
        data = {
            "spans": {
                name: {"calls": st.calls, "s": st.incl / 1e9, "self_s": st.self / 1e9}
                for name, st in sorted(self.stats.items())
                if st.calls
            },
            "edges": [
                {"caller": a, "callee": b, "calls": c, "s": ns / 1e9}
                for (a, b), (c, ns) in sorted(self.edges.items())
            ],
            "sections": [
                {"id": i, "label": label, "start_s": s / 1e9, "end_s": e / 1e9}
                for i, (label, s, e) in enumerate(self.sections)
            ],
            "absent": self.absent,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
