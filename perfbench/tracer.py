"""In-memory spans around the calls one ecswerner module makes into another.

The library is timed from outside: `instrument` replaces, for the duration
of a `with` block, every public function that a module of the package
imported from a sibling module by a wrapper that records a span (name,
parent, start, end).  The name is `<layer>.<function>`, where the layer is
the module that defines the function: the calls `discord` makes to
`von_neumann_entropy` are recorded as `qmatrix.von_neumann_entropy`.
Module globals are looked up at call time, so patching the importing
module's namespace intercepts every cross-module call without touching the
library's source.

A few entry points inside `cli` and `verify` are spanned too: the row
generators (one span name, `cli.rows`), `cli.build_config`,
`cli.write_rows`, every entry of `verify.ALL_CHECKS` and
`verify.convention_notes`.

Spans stay in arrays until the call ends; `summarize` then turns them into
per-layer calls, total time and self time.
"""

import contextlib
import importlib
import inspect
import os
import time
from array import array
from collections import defaultdict

PACKAGE = "ecswerner"
LAYERS = ("cli", "verify", "discord", "werner", "entanglement", "qmatrix", "catstates")

# Scalar helpers called millions of times per sweep; a span each would cost
# more than the work it measures and swamp the trace.  Their time counts as
# self time of the caller.
UNSPANNED = frozenset({"xlogx", "binary_entropy"})

ROW_GENERATOR_SUFFIXES = ("_surface_rows", "_curves_rows")


def _profile_counts(args):
    return {"angles": len(args[1])}


def _write_counts(args):
    return {"rows": len(args[3]), "bytes": os.path.getsize(args[0])}


# Work counts recorded at a span boundary, from the call's positional args.
SPAN_COUNTS = {
    "discord.discord_profile": _profile_counts,
    "cli.write_rows": _write_counts,
}


class Tracer:
    """Spans of one traced call, kept in flat arrays in start order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = defaultdict(int)
        self._stack = [-1]

    def wrap(self, name, fn):
        """Return fn wrapped so that each call records a span called name."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        counter = SPAN_COUNTS.get(name)
        clock, stack, counts = self.clock, self._stack, self.counts
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        def spanned(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
                if counter is not None:
                    for key, value in counter(args).items():
                        counts[name, key] += value

        return spanned


def self_times(parent, start, end):
    """Self time of every span: its duration minus its children's durations.

    Spans come from one thread, so the children of a span are disjoint
    intervals inside it and the sum of their durations is the part of the
    parent they cover.
    """
    selfs = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            selfs[p] -= end[i] - start[i]
    return selfs


def summarize(tracer):
    """Per span name: calls, total_s, self_s and any recorded work counts.

    Also returns the duration of every span, grouped by name, for
    percentiles.
    """
    selfs = self_times(tracer.parent, tracer.start, tracer.end)
    stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in tracer.names}
    durations = defaultdict(list)
    for i, nid in enumerate(tracer.name_id):
        name = tracer.names[nid]
        dur = tracer.end[i] - tracer.start[i]
        entry = stats[name]
        entry["calls"] += 1
        entry["total_s"] += dur
        entry["self_s"] += selfs[i]
        durations[name].append(dur)
    for (name, key), value in tracer.counts.items():
        stats[name][key] = value
    return stats, durations


def _layer(module_name):
    return module_name.rsplit(".", 1)[-1]


@contextlib.contextmanager
def instrument(tracer):
    """Patch the package so that calls between its modules record spans."""
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    saved = []

    def patch(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    try:
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and attr not in UNSPANNED
                    and obj.__module__.startswith(PACKAGE + ".")
                    and obj.__module__ != module.__name__
                ):
                    patch(module, attr, tracer.wrap(f"{_layer(obj.__module__)}.{obj.__name__}", obj))

        cli, verify = modules["cli"], modules["verify"]
        for attr, obj in list(vars(cli).items()):
            if inspect.isfunction(obj) and attr.endswith(ROW_GENERATOR_SUFFIXES):
                patch(cli, attr, tracer.wrap("cli.rows", obj))
        for attr in ("build_config", "write_rows"):
            patch(cli, attr, tracer.wrap(f"cli.{attr}", getattr(cli, attr)))
        patch(verify, "ALL_CHECKS", tuple(tracer.wrap(f"verify.{fn.__name__}", fn) for fn in verify.ALL_CHECKS))
        patch(verify, "convention_notes", tracer.wrap("verify.convention_notes", verify.convention_notes))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
