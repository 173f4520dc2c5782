"""Layer tracer for the plexalg benchmark.

Wraps the public functions of each package module from outside: no file
under ``src/`` is edited.  A wrapper replaces the function at every
binding a caller actually uses, because ``lawcheck`` and ``decompose``
import ``mul``/``comp``/... from ``chains`` by name while ``chains``
reaches the kernel through ``kn.*`` and recurses through its own module
globals.

Accounting model
----------------
* Self time: the tracer always knows the current layer.  Entering a
  wrapped function of another layer charges the time since the last
  switch to the layer being left; returning charges it to the layer
  being returned from.  Self times of all layers (including ``bench``,
  the harness itself, and ``startup``, the part of CLI child processes
  outside their own tracer) therefore add up to the traced wall time;
  what the tracer can miss shows as ``bench`` time.
* ``<layer>.calls``: entries into the layer from another layer, so that
  ``chains.mul`` recursing once per level is one entry, not several.
* ``<layer>.calls.<family>``: calls of a function family that are not
  nested in a call of the same family (``chains.calls.mul`` counts
  ``mul`` called by ``res`` but not ``mul`` recursing into itself).
* Hot primitives keep only aggregated counts and times.  Spans are kept
  only at coarse boundaries that the benchmark opens itself (one law
  report, one depth step, one CLI call), so memory stays bounded.
"""

from __future__ import annotations

import inspect
import sys
import time
from contextlib import contextmanager

BENCH = "bench"
STARTUP = "startup"
LAYERS = ("kernel", "groups", "chains", "sampling", "lawcheck",
          "decompose", "parsing", "build", "cli")

# function families counted by outermost call
FAMILIES = {
    ("groups", "g_member"): "g_member",
    ("chains", "mul"): "mul",
    ("chains", "comp"): "comp",
    ("chains", "cmp_elems"): "cmp_elems",
    ("chains", "x_up"): "cover",
    ("chains", "x_down"): "cover",
    ("chains", "validate_elem"): "membership",
    ("chains", "in_group_part"): "membership",
    ("chains", "zset_member"): "membership",
}
SAMPLING_FUNCS = ("sample_elem", "sample_gvec", "sample_rat")
LAW_ENTRIES = ("check_fle_laws", "check_named", "check_table", "check_hom")
RAT_OPS = ("radd", "rmul")


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ == mod.__name__:
            yield name, obj


def _public_classes(mod):
    for name, obj in vars(mod).items():
        if inspect.isclass(obj) and obj.__module__ == mod.__name__:
            yield obj


class Tracer:
    """Counts and self times per layer while installed.

    Use as ``with tracer.installed(): ...``; ``layers`` limits which
    layers are wrapped (the rest run unwrapped and count as the caller).
    """

    def __init__(self, layers=LAYERS):
        self.layers = tuple(layers)
        self.self_s = {name: 0.0 for name in (BENCH, STARTUP) + LAYERS}
        self.entries = {name: 0 for name in LAYERS}
        self.family_calls = {fam: 0 for fam in set(FAMILIES.values())}
        self._family_depth = {fam: 0 for fam in self.family_calls}
        self.rat_ops = 0
        self.rat_int_fast = 0
        self.draws = 0
        self.rejects = 0
        self.reports = []  # (law, samples, vacuous cells, elapsed)
        self.spans = []  # (id, parent, name, start, end)
        self.wall_s = 0.0
        self._open = [None]
        self._cur = BENCH
        self._t_last = 0.0
        self._t_start = 0.0
        self._patches = []

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, layer, family=None, rat=False):
        tr = self
        clock = time.perf_counter
        self_s = self.self_s
        entries = self.entries
        depth = self._family_depth
        calls = self.family_calls

        def wrapper(*args, **kw):
            if rat:
                a, b = args
                tr.rat_ops += 1
                if a[1] == 1 and b[1] == 1:
                    tr.rat_int_fast += 1
            if family is not None:
                if depth[family] == 0:
                    calls[family] += 1
                depth[family] += 1
            try:
                prev = tr._cur
                if prev == layer:
                    return fn(*args, **kw)
                now = clock()
                self_s[prev] += now - tr._t_last
                tr._t_last = now
                tr._cur = layer
                entries[layer] += 1
                try:
                    return fn(*args, **kw)
                finally:
                    now = clock()
                    self_s[layer] += now - tr._t_last
                    tr._t_last = now
                    tr._cur = prev
            finally:
                if family is not None:
                    depth[family] -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_draw(self, fn):
        inner = self._wrap(fn, "sampling")

        def draw(stream):
            self.draws += 1
            return inner(stream)

        return draw

    def _wrap_draw_where(self, fn):
        inner = self._wrap(fn, "sampling")

        def draw_where(stream, pred, tries=64):
            before = self.draws
            x = inner(stream, pred, tries)
            self.rejects += self.draws - before - (x is not None)
            return x

        return draw_where

    def _wrap_law(self, fn):
        inner = self._wrap(fn, "lawcheck")

        def law_entry(*args, **kw):
            report = inner(*args, **kw)
            self.reports.append((report.law, report.samples,
                                 len(report.vacuous), report.elapsed))
            return report

        return law_entry

    def _wrap_returned(self, fn, layer, index):
        """Wrap the callable a function returns at tuple position index
        (the element maps of ``decompose``), so time spent in them is
        charged to their layer and not to the caller."""
        inner = self._wrap(fn, layer)

        def returns_map(*args, **kw):
            out = list(inner(*args, **kw))
            out[index] = self._wrap(out[index], layer)
            return tuple(out)

        return returns_map

    # -- installation ------------------------------------------------------

    def _plan(self):
        """{original function: wrapper} and [(class, name, wrapper)]."""
        from plexalg import (build, chains, cli, decompose, groups, kernel,
                             lawcheck, parsing)

        funcs = {}
        methods = []
        want = set(self.layers)

        def add(layer, fn, **kw):
            if layer in want:
                funcs[fn] = self._wrap(fn, layer, **kw)

        if "kernel" in want:
            for name in kernel.__all__:
                fn = getattr(kernel, name)
                if callable(fn):
                    add("kernel", fn, rat=name in RAT_OPS)
        for layer, mod in (("groups", groups), ("parsing", parsing),
                           ("build", build), ("cli", cli)):
            for name, fn in _public_functions(mod):
                add(layer, fn, family=FAMILIES.get((layer, name)))
        for name, fn in _public_functions(chains):
            if name in SAMPLING_FUNCS:
                add("sampling", fn)
            else:
                add("chains", fn, family=FAMILIES.get(("chains", name)))
        if "lawcheck" in want:
            for name, fn in _public_functions(lawcheck):
                if name in LAW_ENTRIES:
                    funcs[fn] = self._wrap_law(fn)
                else:
                    add("lawcheck", fn)
        if "sampling" in want:
            ss = lawcheck.SampleStream
            methods.append((ss, "draw", self._wrap_draw(ss.draw)))
            methods.append((ss, "draw_where",
                            self._wrap_draw_where(ss.draw_where)))
            methods.append((ss, "randint", self._wrap(ss.randint, "sampling")))
        if "decompose" in want:
            for name, fn in _public_functions(decompose):
                if name == "representation_embedding":
                    funcs[fn] = self._wrap_returned(fn, "decompose", 2)
                elif name == "lex_embedding":
                    funcs[fn] = self._wrap_returned(fn, "decompose", 1)
                else:
                    add("decompose", fn)
            for cls in _public_classes(decompose):
                for name, fn in vars(cls).items():
                    if inspect.isfunction(fn) and (
                            not name.startswith("_") or name == "__call__"):
                        methods.append((cls, name, self._wrap(fn, "decompose")))
        return funcs, methods

    def install(self):
        funcs, methods = self._plan()
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "plexalg"
                                   or modname.startswith("plexalg.")):
                continue
            for name, obj in list(vars(mod).items()):
                try:
                    wrapper = funcs.get(obj)
                except TypeError:  # unhashable module global
                    continue
                if wrapper is not None:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrapper)
        for cls, name, wrapper in methods:
            self._patches.append((cls, name, vars(cls)[name]))
            setattr(cls, name, wrapper)
        self._cur = BENCH
        self._t_last = time.perf_counter()
        self._t_start = self._t_last

    def uninstall(self):
        now = time.perf_counter()
        self.self_s[self._cur] += now - self._t_last
        self.wall_s += now - self._t_start
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- coarse spans --------------------------------------------------------

    @contextmanager
    def span(self, name):
        sid = len(self.spans)
        parent = self._open[-1]
        self.spans.append(None)
        self._open.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self._open.pop()
            self.spans[sid] = (sid, parent, name, start, time.perf_counter())

    # -- merging (CLI children report their own tracers) ---------------------

    def snapshot(self):
        return {
            "self_s": dict(self.self_s),
            "entries": dict(self.entries),
            "family_calls": dict(self.family_calls),
            "rat_ops": self.rat_ops,
            "rat_int_fast": self.rat_int_fast,
            "draws": self.draws,
            "rejects": self.rejects,
            "reports": list(self.reports),
        }

    def absorb(self, snap, call_s):
        """Add a child process's counts and layer times.

        The parent charged the whole child call (``call_s`` seconds) to
        ``bench``.  The child's layer times move from there to its layers,
        and the call's time outside the child's tracer (process start,
        interpreter, package import, exit) to ``startup``, so all self
        times still add up to the parent's wall time and ``bench`` keeps
        only harness time."""
        moved = {key: value for key, value in snap["self_s"].items()
                 if key != BENCH}
        moved[STARTUP] += call_s - sum(snap["self_s"].values())
        for key, value in moved.items():
            self.self_s[key] += value
            self.self_s[BENCH] -= value
        for key, value in snap["entries"].items():
            self.entries[key] += value
        for key, value in snap["family_calls"].items():
            self.family_calls[key] += value
        self.rat_ops += snap["rat_ops"]
        self.rat_int_fast += snap["rat_int_fast"]
        self.draws += snap["draws"]
        self.rejects += snap["rejects"]
        self.reports.extend(tuple(r) for r in snap["reports"])
