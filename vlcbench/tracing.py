"""In-memory span tracing of the vlcmap layers, installed from outside the package.

`Tracer.install` replaces every public function and every public method of
each layer module with a wrapper that records a span: name, start, end and
the span that was open when it started.  A function that another module
imported by name (``greedy_order`` in ``decmap`` and ``assoc``, say) is
replaced at that binding too, so calls made through the importing module are
traced as well.  `Tracer.uninstall` puts the originals back, so untraced
runs execute the package exactly as shipped.

Spans stay in memory; `Tracer.dump` writes them out once the run is over.
"""

from __future__ import annotations

import importlib
import inspect
import json
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = (
    "channel", "signaling", "rates", "cpgd", "decmap", "assoc", "experiments", "sceneio",
)
# Span record fields.
NAME, START, END, PARENT, FAILED = range(5)


def _layer_callables(module):
    """(span name, owner, attribute, function) for a module's public callables.

    Module-level functions are named ``<layer>.<function>``; methods of
    classes defined in the module are named ``<layer>.<method>``, so the
    same method of two solver classes shares one name.
    """
    layer = module.__name__.rsplit(".", 1)[1]
    out = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((f"{layer}.{attr}", module, attr, obj))
        elif inspect.isclass(obj):
            for meth, fn in vars(obj).items():
                if not meth.startswith("_") and inspect.isfunction(fn):
                    out.append((f"{layer}.{meth}", obj, meth, fn))
    return out


class Tracer:
    """Records spans of the wrapped layer calls and a few call counters."""

    def __init__(self):
        self.modules = {name: importlib.import_module(f"vlcmap.{name}") for name in LAYERS}
        self.spans: list[list] = []
        self.stack: list[int] = []
        # Calls of counted functions, charged to the innermost open span.
        self.counts: dict[int, int] = {}
        # Peak traced memory, in bytes, of each call of a memory-probed function.
        self.peaks: dict[str, list[int]] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, False]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        rec = self._open(name)
        rec[START] = perf_counter()
        try:
            yield rec
        except BaseException:
            rec[FAILED] = True
            raise
        finally:
            rec[END] = perf_counter()
            self.stack.pop()

    def _traced(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            rec = tracer._open(name)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[FAILED] = True
                raise
            finally:
                rec[END] = perf_counter()
                tracer.stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn):
        counts, stack = self.counts, self.stack

        def counted(*args, **kwargs):
            top = stack[-1] if stack else -1
            counts[top] = counts.get(top, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _rebind(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr``, and every module's by-name import of it."""
        fn = vars(owner)[attr]
        self._set(owner, attr, wrapper)
        for module in self.modules.values():
            for alias, obj in list(vars(module).items()):
                if obj is fn:
                    self._set(module, alias, wrapper)

    def install(self, counted: tuple[tuple[str, str, str], ...] = ()) -> None:
        """Wrap every layer callable at its definition and at each by-name import.

        ``counted`` names private methods, as (layer, class, method), whose
        calls are only counted: they run too often for a span each.
        """
        for module in self.modules.values():
            for name, owner, attr, fn in _layer_callables(module):
                self._rebind(owner, attr, self._traced(name, fn))
        for layer, cls, meth in counted:
            owner = getattr(self.modules[layer], cls)
            self._set(owner, meth, self._counted(vars(owner)[meth]))

    def install_memory_probe(self, layer: str, func: str) -> None:
        """Record the peak traced memory of every call of ``layer.func``.

        tracemalloc slows allocation-heavy code severalfold, so the probe runs
        in a pass of its own, without spans, and its times are not used.
        """
        fn = getattr(self.modules[layer], func)
        peaks = self.peaks.setdefault(f"{layer}.{func}", [])

        def probed(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        self._rebind(self.modules[layer], func, probed)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output -----------------------------------------------------------------

    def dump(self, path: Path) -> None:
        fields = ("name", "start", "end", "parent", "failed")
        with open(path, "w") as fh:
            json.dump(
                {"fields": fields, "spans": self.spans, "counts": self.counts, "peaks": self.peaks},
                fh,
            )
