"""Per-layer tracing from the benchmark's side.

``Tracer.install`` replaces the public functions of the five prsyn modules
(and three ``Polynomial`` methods) with wrappers, in every module namespace
that binds them, so calls between modules are seen too.  Each call becomes a
span (name, start, end, parent, item) held in flat arrays; call counts and
self time (span duration minus the time covered by child spans) are summed
while the run goes, so they stay exact when the span store is full.
``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from time import perf_counter_ns

MODULES = ("polyrat", "network", "analysis", "synth", "cli")

# Polynomial methods traced under a short layer name; every alias of the same
# function object (``__rmul__`` is ``__mul__``) gets the same wrapper.
POLY_METHODS = {"__mul__": "mul", "__rmul__": "mul", "__divmod__": "divmod",
                "gcd": "gcd"}

# 28 bytes a span; the cap keeps a traced run's memory bounded.
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.calls = []
        self.self_ns = []
        self.item = -1
        self.max_degree = 0
        self.max_coeff_bits = 0
        self.dropped = 0
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_item = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        # [span index or -1, ns covered by child spans]
        self._stack = [[-1, 0]]
        self._restore = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return nid

    def begin(self, nid: int) -> int:
        """Open a span and return its start time; past the cap the span is
        counted as dropped but still timed."""
        t = perf_counter_ns()
        if len(self.s_start) < SPAN_CAP:
            idx = len(self.s_start)
            self.s_name.append(nid)
            self.s_parent.append(self._stack[-1][0])
            self.s_item.append(self.item)
            self.s_start.append(t)
            self.s_end.append(0)
        else:
            idx = -1
            self.dropped += 1
        self._stack.append([idx, 0])
        return t

    def end(self, nid: int, t0: int) -> None:
        t1 = perf_counter_ns()
        idx, child = self._stack.pop()
        if idx >= 0:
            self.s_end[idx] = t1
        dur = t1 - t0
        self.calls[nid] += 1
        self.self_ns[nid] += dur - child
        self._stack[-1][1] += dur

    def wrap(self, name: str, fn, gauge=None):
        nid = self.name_id(name)
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                end(nid, t0)
            if gauge is not None:
                gauge(out)
            return out
        return traced

    def _impedance_gauge(self, h) -> None:
        """Degree and coefficient bit length of a returned impedance."""
        num, den = getattr(h, "num", None), getattr(h, "den", None)
        if num is None or den is None:
            return
        self.max_degree = max(self.max_degree, len(num.coeffs) - 1,
                              len(den.coeffs) - 1)
        for c in num.coeffs + den.coeffs:
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits

    def install(self, package) -> None:
        """Wrap every public function of the prsyn modules wherever bound."""
        mods = {m: getattr(package, m) for m in MODULES}
        wrapped = {}                       # id(original) -> wrapper
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                gauge = (self._impedance_gauge
                         if (short, attr) == ("analysis", "impedance") else None)
                wrapped[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj, gauge))
        poly = mods["polyrat"].Polynomial
        for attr, short in POLY_METHODS.items():
            obj = poly.__dict__[attr]
            if id(obj) not in wrapped:
                wrapped[id(obj)] = (obj, self.wrap(f"polyrat.{short}", obj))
            self._restore.append((poly, attr, obj))
            setattr(poly, attr, wrapped[id(obj)][1])
        for mod in [package, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def stats(self):
        """{name: (calls, self_ns)} for every traced function."""
        return {n: (self.calls[i], self.self_ns[i])
                for i, n in enumerate(self.names)}

    def write_spans(self, path) -> int:
        """Write the held spans as tab-separated lines; return their count."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\titem\n")
            for i in range(len(self.s_start)):
                fh.write(f"{i}\t{names[self.s_name[i]]}\t{self.s_start[i]}\t"
                         f"{self.s_end[i]}\t{self.s_parent[i]}\t"
                         f"{self.s_item[i]}\n")
        return len(self.s_start)
