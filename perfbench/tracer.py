"""Spans around calls into genpos modules, recorded from outside the package.

While a :class:`Tracer` is installed it replaces selected functions of
``genpos.graphs``, ``genpos.solver``, ``genpos.position`` and
``genpos.randomized`` with wrappers, in every genpos module that imported
them (``genpos.verify`` among them), and restores the originals on exit.
Nothing inside ``src/`` changes.

Spans are aggregated as they close: per span name, the number of calls,
the inclusive time, the self time (inclusive minus the time covered by
child spans) and an optional work count.  The verify run decides ~420k
small subsets, so keeping every span would cost far more memory than the
totals the benchmark reports.  A call into a name that is already open
(``p_exact`` recursing over factors) belongs to the outer span.
"""

from __future__ import annotations

import sys
from math import comb
from time import perf_counter_ns


def _subset_triples(args, kwargs, result) -> int:
    return comb(len(args[1]), 3)


# (module, attribute path, span name, work counter)
PATCH_POINTS = [
    ("genpos.graphs", "build", "graphs.build", None),
    ("genpos.solver", "flat_distance_matrix", "solver.distance_matrix", None),
    ("genpos.solver", "BadTripleIndex.build", "solver.index_build", None),
    ("genpos.solver", "BadTripleIndex.allowed_tables", "solver.allowed_tables", None),
    ("genpos.solver", "gp_exact", "solver.gp_exact", None),
    ("genpos.solver", "count_maximum_gp_sets", "solver.count", None),
    ("genpos.solver", "enumerate_maximum_gp_sets", "solver.enumerate", None),
    ("genpos.position", "GpSet.certify", "position.certify", None),
    ("genpos.position", "is_general_position", "position.is_gp", _subset_triples),
    ("genpos.position", "characterization_check", "position.characterization", None),
    ("genpos.randomized", "p_exact", "randomized.p_exact", None),
    ("genpos.randomized", "choose_M", "randomized.choose_M", None),
    ("genpos.randomized", "first_moment_construct", "randomized.construct", None),
]


class SpanStats:
    __slots__ = ("calls", "total_ns", "self_ns", "work")

    def __init__(self):
        self.calls = self.total_ns = self.self_ns = self.work = 0


class Tracer:
    """Context manager: installs the wrappers, aggregates spans by name."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._open: list[list] = []  # [name, start_ns, child_ns]
        self._open_names: set[str] = set()
        self._restore: list[tuple[object, str, object]] = []
        self.scale = 1.0  # raw time -> reference-core time (see speed.py)

    # -- span bookkeeping -------------------------------------------------

    def span(self, name: str, fn, *args, work=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        if name in self._open_names:
            return fn(*args, **kwargs)
        frame = [name, perf_counter_ns(), 0]
        self._open.append(frame)
        self._open_names.add(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            dur = perf_counter_ns() - frame[1]
            self._open.pop()
            self._open_names.discard(name)
            if self._open:
                self._open[-1][2] += dur
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = SpanStats()
            st.calls += 1
            st.total_ns += dur
            st.self_ns += dur - frame[2]
            if work is not None and result is not None:
                st.work += work(args, kwargs, result)

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()

    def ms(self, name: str) -> float:
        """Inclusive time of ``name`` in reference-core milliseconds."""
        return self.get(name).total_ns * self.scale / 1e6

    def table(self) -> dict:
        return {
            name: {
                "calls": st.calls,
                "total_ms": st.total_ns / 1e6,
                "self_ms": st.self_ns / 1e6,
                "work": st.work,
            }
            for name, st in sorted(self.stats.items())
        }

    # -- patching -----------------------------------------------------------

    def _wrap_function(self, fn, name, work):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, work=work, **kwargs)

        return wrapper

    def __enter__(self):
        for module_name, path, name, work in PATCH_POINTS:
            module = sys.modules[module_name]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap_function(raw.__func__, name, work))
                else:
                    new = self._wrap_function(raw, name, work)
                self._patch(owner, attr, raw, new)
                continue
            original = getattr(module, attr)
            new = self._wrap_function(original, name, work)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "genpos" or mod_name.startswith("genpos.")) and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, original, new)
        return self

    def _patch(self, owner, attr, original, new):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, new)

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False
