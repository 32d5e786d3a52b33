"""In-memory span tracing of a package's public functions and methods.

``Tracer.install`` replaces every public module-level function and every
public (or explicitly written ``__init__``) method of the classes defined
in the named modules with a timing wrapper. Each binding of a wrapped
function in the package is replaced too, so a call through an import
such as ``from .mesh import build_transport`` inside another module is
seen. ``uninstall`` restores the originals.

A span is ``(name, start, end, parent, note)``: ``parent`` is the index
of the enclosing span in ``Tracer.spans`` (-1 at top level) and ``note``
is what an optional per-name note function returned for the call.
"""

import inspect
import statistics
import sys
import time

PERCENTILES = (90.0, 99.0, 99.9)


class Tracer:
    def __init__(self, package, modules, notes=None):
        self.package = package
        self.modules = modules
        self.notes = notes or {}
        self.spans = []
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        note = self.notes.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, None)
            if note is not None:
                spans[idx] = (name, start, end, parent, note(args, kwargs, result))
            return result

        return wrapper

    def _targets(self, mod):
        """Yield (span name, owner, attribute, kind, function) to wrap."""
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield "%s.%s" % (short, attr), mod, attr, None, obj
            elif inspect.isclass(obj):
                for meth, raw in list(vars(obj).items()):
                    kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                    fn = raw.__func__ if kind else raw
                    if not inspect.isfunction(fn):
                        continue
                    own_init = (meth == "__init__"
                                and fn.__code__.co_filename == inspect.getsourcefile(mod))
                    if meth.startswith("_") and not own_init:
                        continue
                    yield "%s.%s.%s" % (short, attr, meth), obj, meth, kind, fn

    def install(self):
        """Wrap every target; returns the sorted span names installed."""
        pkg_modules = [m for n, m in list(sys.modules.items())
                       if m is not None and (n == self.package
                                             or n.startswith(self.package + "."))]
        names = []
        for modname in self.modules:
            mod = sys.modules["%s.%s" % (self.package, modname)]
            for name, owner, attr, kind, fn in self._targets(mod):
                wrapped = self._wrap(name, fn)
                if owner is mod:
                    for m in pkg_modules:
                        for a, v in list(vars(m).items()):
                            if v is fn:
                                self._restore.append((m, a, v))
                                setattr(m, a, wrapped)
                else:
                    self._restore.append((owner, attr, vars(owner)[attr]))
                    setattr(owner, attr, kind(wrapped) if kind else wrapped)
                names.append(name)
        return sorted(names)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def summarize(samples):
    """Median, and the highest of ``PERCENTILES`` with at least ten samples
    beyond it (None when there are fewer than that), with the sample count."""
    xs = sorted(samples)
    n = len(xs)
    out = {"count": n, "median": statistics.median(xs) if xs else None,
           "percentile": None, "value": None}
    high = [p for p in PERCENTILES if round(n * (100.0 - p) / 100.0, 6) >= 10]
    if high:
        cuts = statistics.quantiles(xs, n=1000, method="inclusive")
        out["percentile"] = high[-1]
        out["value"] = cuts[round(high[-1] * 10) - 1]
    return out


def span_table(spans):
    """Per span name: call count, total and self seconds, duration summary."""
    selfs = self_times(spans)
    table = {}
    for (name, start, end, _, _), own in zip(spans, selfs):
        row = table.setdefault(name, {"durations": [], "total_s": 0.0, "self_s": 0.0})
        row["durations"].append(end - start)
        row["total_s"] += end - start
        row["self_s"] += own
    for row in table.values():
        row.update(summarize(row.pop("durations")))
    return table
