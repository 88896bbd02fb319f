"""Outside-in spans around the public functions of every ``psl`` module.

Nothing in the program changes: ``install`` replaces each binding of a
public function (in every ``psl`` module namespace and in module-level
tables, since modules import functions by name) and the density
methods on the classes with timing wrappers, and ``uninstall`` puts the
originals back.  Each span has a name, start, end and parent and is
kept in memory; self time is a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("quadrature", "distributions", "scores", "analysis", "archive",
           "cli")
DENSITY_CLASSES = ("_DensityBase", "GaussianMixture", "PiecewiseUniform",
                   "TransformedDensity")
DENSITY_METHODS = ("pdf", "cdf", "log_pdf", "cdf_minus", "quantile",
                   "sample")
POINT_METHODS = ("pdf", "cdf", "log_pdf")


def density_kind(d) -> str:
    """gaussian, mixture, hist or the transform kind of a density."""
    name = type(d).__name__
    if name == "GaussianMixture":
        return "gaussian" if len(d.components) == 1 else "mixture"
    if name == "PiecewiseUniform":
        return "hist"
    if name == "TransformedDensity":
        return d.transform.kind
    return name


class Tracer:
    """Records spans; ``n`` and ``m`` carry per-span counts.

    ``n`` is the points passed to a density method or to an integrand,
    the draws of ``sample`` or the records ``load_archive`` returned;
    ``m`` is the panel count of an ``integrate`` call, or -1 when it
    raised ``QuadratureError``.
    """

    def __init__(self):
        self.names = []
        self._name_id = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.n = array("q")
        self.m = array("q")
        self._stack = [-1]
        self._restore = []
        self.unwrapped = []

    def open(self, name: str, n: int = 0) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.n.append(n)
        self.m.append(0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name, count=None, kind=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if kind is None else f"{name}:{kind(args)}"
            sid = tracer.open(label, count(args, kwargs) if count else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(sid)
        return wrapper

    def _wrap_integrate(self, fn, quadrature_error):
        tracer = self

        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            sid = tracer.open("quadrature.integrate")

            def counted(x):
                tracer.n[sid] += np.size(x)
                return f(x)
            try:
                result = fn(counted, *args, **kwargs)
            except quadrature_error:
                tracer.m[sid] = -1
                raise
            finally:
                tracer.close(sid)
            tracer.m[sid] = result.subdivisions
            return result
        return wrapper

    def _wrap_load_archive(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer.open("archive.load_archive")
            try:
                records = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            tracer.n[sid] = len(records)
            return records
        return wrapper

    def _wrapper_for(self, module: str, fname: str, fn, mods):
        if module == "quadrature" and fname == "integrate":
            return self._wrap_integrate(fn, mods["quadrature"].QuadratureError)
        if module == "archive" and fname == "load_archive":
            return self._wrap_load_archive(fn)
        kind = None
        if module == "scores" and fname in ("crps", "ignorance"):
            kind = lambda args: density_kind(args[0])  # noqa: E731
        elif module == "analysis" and fname == "propriety_check":
            kind = lambda args: args[0].family  # noqa: E731
        return self._wrap(fn, f"{module}.{fname}", kind=kind)

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Wrap every public function and density method of ``psl``."""
        mods = {m: importlib.import_module(f"psl.{m}") for m in MODULES}
        wrapped = {}
        for mname, mod in mods.items():
            for fname in mod.__all__:
                fn = getattr(mod, fname, None)
                if (callable(fn) and not isinstance(fn, type)
                        and getattr(fn, "__module__", None) == mod.__name__):
                    wrapped[id(fn)] = (fn, self._wrapper_for(mname, fname,
                                                             fn, mods))
        namespaces = [vars(importlib.import_module("psl"))]
        namespaces += [vars(m) for m in mods.values()]
        for ns in list(namespaces):
            namespaces += [v for v in ns.values() if isinstance(v, dict)]
        for ns in namespaces:
            for key, value in list(ns.items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((ns, key, value))
                    ns[key] = hit[1]

        self.unwrapped = self._stray_references(wrapped)

        dist = mods["distributions"]
        for cname in DENSITY_CLASSES:
            cls = getattr(dist, cname)
            for meth in DENSITY_METHODS:
                fn = vars(cls).get(meth)
                if fn is None:
                    continue
                if meth in POINT_METHODS:
                    count = lambda a, k: int(np.size(  # noqa: E731
                        a[1] if len(a) > 1 else next(iter(k.values()))))
                elif meth == "sample":
                    count = lambda a, k: int(a[2] if len(a) > 2  # noqa: E731
                                             else k["n"])
                else:
                    count = None
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(
                    fn, f"distributions.{meth}", count=count,
                    kind=lambda args: type(args[0]).__name__))

    def _stray_references(self, wrapped: dict) -> list:
        """Names of originals still referenced from outside the tracer.

        A function held in a tuple, a closure or an object attribute
        cannot be rebound, so its calls would escape the trace; such
        references are reported instead of silently missed.
        """
        known = {id(self._restore)} | {id(t) for t in self._restore}
        known |= {id(pair) for pair in wrapped.values()}
        for _, wrapper in wrapped.values():
            known.add(id(vars(wrapper)))
            known.update(id(c) for c in wrapper.__closure__ or ())
        stray = []
        for fn, _ in wrapped.values():
            for ref in gc.get_referrers(fn):
                if id(ref) not in known and not inspect.isframe(ref):
                    stray.append(f"{fn.__module__}.{fn.__qualname__} "
                                 f"held by a {type(ref).__name__}")
        return stray

    def uninstall(self) -> None:
        for target, key, value in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = value
            else:
                setattr(target, key, value)
        self._restore.clear()

    # -- aggregation --------------------------------------------------------

    def columns(self) -> dict:
        """The spans as numpy columns: name id, parent id, start, end,
        n and m, one entry per span."""
        return {"name": np.asarray(self.name, dtype=np.int32),
                "parent": np.asarray(self.parent, dtype=np.int32),
                "start": np.asarray(self.start), "end": np.asarray(self.end),
                "n": np.asarray(self.n, dtype=np.int64),
                "m": np.asarray(self.m, dtype=np.int64)}

    def aggregate(self) -> dict:
        """Per span name: calls, self_s, total_s, n, panels, failures.

        Names carry an optional ``:kind`` suffix; each name is also
        summed into its unsuffixed base name.
        """
        c = self.columns()
        dur = c["end"] - c["start"]
        child = np.zeros(len(dur))
        has_parent = c["parent"] >= 0
        np.add.at(child, c["parent"][has_parent], dur[has_parent])
        self_s = dur - child
        n, m = c["n"], c["m"]
        out = defaultdict(lambda: dict(calls=0, self_s=0.0, total_s=0.0,
                                       n=0, panels=0, failures=0))
        for nid, label in enumerate(self.names):
            sel = c["name"] == nid
            stats = {"calls": int(sel.sum()),
                     "self_s": float(self_s[sel].sum()),
                     "total_s": float(dur[sel].sum()),
                     "n": int(n[sel].sum()),
                     "panels": int(m[sel][m[sel] > 0].sum()),
                     "failures": int((m[sel] < 0).sum())}
            for key in {label, label.split(":")[0]}:
                for field, value in stats.items():
                    out[key][field] += value
        return dict(out)

    def save(self, path: str) -> None:
        """Write every span: the name table plus the span columns."""
        np.savez_compressed(path, names=np.array(self.names),
                            **self.columns())
