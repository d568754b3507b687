"""Spans around calls into ``fjump``, recorded from the benchmark's side.

``Tracer.install`` wraps public functions and methods of the library and
rebinds every module that imported them (``testideal.frobenius_root`` and
``thresholds.frobenius_root`` are the same function under two names), so
calls between library modules are seen too.  Each span records its parent;
a layer's self time is its spans' time minus their children's.  Spans stay
in memory until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

# (module, attribute, layer); a layer may cover several functions.
FUNCTIONS = [
    ("testideal", "test_ideal", "tau"),
    ("testideal", "mixed_test_ideal", "tau"),
    ("oracle", "power_root_vectors", "power_root_vectors"),
    ("thresholds", "jumping_exponents", "jumps"),
    ("thresholds", "nu", "nu"),
    ("frobroot", "frobenius_root", "root"),
    ("cli", "run", "cli"),
    ("jobfile", "load_job", "load_job"),
    ("groebner", "buchberger", "buchberger"),
    ("groebner", "normal_form", "normal_form"),
    ("groebner", "ideal_power", "ideal_power"),
]
METHODS = [
    ("multipoly", "Poly", "__pow__", "pow"),
    ("groebner", "Ideal", "__eq__", "ideal_eq"),
    ("groebner", "Ideal", "groebner_basis", "gb_request"),
]


def _tau_levels(args, out):
    return {"chain_levels": len(out.chain_trace)}


def _pow_terms(args, out):
    return {"terms_out": out.num_terms()}


def _root_sizes(args, out):
    return {"terms_in": sum(g.num_terms() for g in args[0].gens),
            "gens_out": len(out.gens)}


def _power_gens(args, out):
    return {"gens_out": len(out.gens)}


COUNTERS = {"tau": _tau_levels, "pow": _pow_terms, "root": _root_sizes,
            "ideal_power": _power_gens}


class Tracer:
    def __init__(self):
        self.layers: list = []
        self.kind = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict = {}
        self._stack = [-1]
        self._restore: list = []

    def _wrap(self, layer: str, fn):
        if layer not in self.layers:
            self.layers.append(layer)
        kind = self.layers.index(layer)
        count = COUNTERS.get(layer)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(tracer.kind)
            tracer.kind.append(kind)
            tracer.parent.append(tracer._stack[-1])
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer.start[idx] = t0
                tracer._stack.pop()
            if count is not None:
                for key, n in count(args, out).items():
                    key = (layer, key)
                    tracer.counts[key] = tracer.counts.get(key, 0) + n
            return out
        return wrapper

    def install(self):
        """Wrap every listed function in every ``fjump`` module that holds
        it, and every listed method on its class."""
        for mod_name, *_ in FUNCTIONS + METHODS:
            importlib.import_module(f"fjump.{mod_name}")
        modules = [m for name, m in sys.modules.items()
                   if name == "fjump" or name.startswith("fjump.")]
        for mod_name, attr, layer in FUNCTIONS:
            original = getattr(sys.modules[f"fjump.{mod_name}"], attr)
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr, layer in METHODS:
            cls = getattr(sys.modules[f"fjump.{mod_name}"], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(layer, original))

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def summary(self) -> dict:
        """Per layer: calls, inclusive ms of the outermost spans, self ms;
        plus the counters and the parent-child tallies the metrics need."""
        n = len(self.kind)
        child_time = [0.0] * n
        for i in range(n):
            par = self.parent[i]
            if par >= 0:
                child_time[par] += self.end[i] - self.start[i]
        out = {layer: {"calls": 0, "ms": 0.0, "self_ms": 0.0} for layer in self.layers}
        out["jumps"]["tau_evals"] = 0
        out["nu"]["root_calls"] = 0
        out["gb_request"]["hits"] = 0
        has_buchberger = set()
        for i in range(n):
            layer = self.layers[self.kind[i]]
            dur = self.end[i] - self.start[i]
            entry = out[layer]
            entry["calls"] += 1
            entry["self_ms"] += 1000 * (dur - child_time[i])
            if not self._inside_same(i):
                entry["ms"] += 1000 * dur
            par = self.parent[i]
            parent_layer = self.layers[self.kind[par]] if par >= 0 else None
            if layer == "tau" and parent_layer == "jumps":
                out["jumps"]["tau_evals"] += 1
            elif layer == "root" and parent_layer == "nu":
                out["nu"]["root_calls"] += 1
            elif layer == "buchberger" and parent_layer == "gb_request":
                has_buchberger.add(par)
        for i in range(n):
            if self.layers[self.kind[i]] == "gb_request" and i not in has_buchberger:
                out["gb_request"]["hits"] += 1
        for (layer, key), value in self.counts.items():
            out[layer][key] = value
        return out

    def _inside_same(self, i: int) -> bool:
        kind = self.kind[i]
        par = self.parent[i]
        while par >= 0:
            if self.kind[par] == kind:
                return True
            par = self.parent[par]
        return False

    def write(self, path: str):
        """All spans as tab-separated rows: id, parent, layer, start, end
        (seconds on the perf_counter clock)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\tlayer\tstart\tend\n")
            for i in range(len(self.kind)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.layers[self.kind[i]]}\t"
                         f"{self.start[i]:.6f}\t{self.end[i]:.6f}\n")
