"""In-place span tracer for the torusphase modules.

`Tracer.install()` wraps every public module-level function of each layer
(and the callbacks of the CLI commands) and rebinds every reference to it in
every loaded torusphase module, so calls made through `from .x import f`
names are traced too.  Spans are named `<module>.<function>`, nest through a
stack, and stay in memory until `dump()` writes them out.  Self time is a
span's duration minus the durations of its direct child spans.

Names that a later version of the package no longer defines are simply
absent; readers treat a missing name as zero calls.
"""
from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("cli", "lattice", "schwinger", "deformed", "transforms", "wigner",
          "numberphase", "limits", "fock", "verify", "serialization")

# lru caches read through cache_info(): metric prefix -> (module, attribute)
CACHES = {
    "schwinger.cache": ("schwinger", "_schwinger_cached"),
    "wigner.kernel_cache": ("wigner", "_kernel_grid_cached"),
    "transforms.tmat_cache": ("transforms", "_tmat_cached"),
}

SPAN_CAP = 2000      # nested spans kept per process; aggregates cover every call


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []                 # [name, child seconds, span id]
        self.stats: dict[str, list] = {}            # name -> [calls, total_s, self_s, errors]
        self.spans: list[tuple] = []                # (id, parent id, name, start, end)
        self.dropped = 0
        self.counters = {"wigner.kernel_bytes_computed": 0,
                         "serialization.bytes_out": 0,
                         "serialization.outer_s": 0.0}
        self._next_id = 0
        self._kernel_misses = 0

    # -- wrapping -------------------------------------------------------
    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self.stack
        layer = name.split(".", 1)[0]
        post = self._kernel_hook if name == "wigner.kernel_grid" else None
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [name, 0.0, self._next_id]
            stack.append(frame)
            start = perf()
            failed = False
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                failed = True
                raise
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                stats[3] += failed
                if not stack or len(self.spans) < SPAN_CAP:     # top-level spans always
                    self.spans.append((frame[2], parent[2] if parent else 0, name, start, end))
                else:
                    self.dropped += 1
                if layer == "serialization" and isinstance(result, str) and (
                        parent is None or not parent[0].startswith("serialization.")):
                    self.counters["serialization.bytes_out"] += len(result)
                    self.counters["serialization.outer_s"] += dur
                if post is not None and not failed:
                    post(args)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _kernel_hook(self, args) -> None:
        """16 D^4 bytes per kernel build: a cache miss, or every call if uncached."""
        d = args[0].d
        cache = getattr(sys.modules.get("torusphase.wigner"), "_kernel_grid_cached", None)
        if cache is None or not hasattr(cache, "cache_info"):
            builds = 1
        else:
            misses = cache.cache_info().misses
            builds, self._kernel_misses = misses - self._kernel_misses, misses
        self.counters["wigner.kernel_bytes_computed"] += builds * 16 * d**4

    def install(self) -> None:
        importlib.import_module("torusphase")
        replace: dict[int, object] = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"torusphase.{layer}")
            except ImportError:
                continue
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(val) and val.__module__ == mod.__name__:
                    replace[id(val)] = (val, self._wrap(f"{layer}.{attr}", val))
                elif inspect.isfunction(getattr(val, "callback", None)) and \
                        val.callback.__module__ == mod.__name__:
                    # a click command: trace its callback under the command name
                    val.callback = self._wrap(f"{layer}.{attr}", val.callback)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "torusphase" or modname.startswith("torusphase.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
        cache = getattr(sys.modules["torusphase.wigner"], "_kernel_grid_cached", None)
        if hasattr(cache, "cache_info"):
            self._kernel_misses = cache.cache_info().misses

    # -- output ---------------------------------------------------------
    def cache_state(self) -> dict:
        out = {}
        for prefix, (layer, attr) in CACHES.items():
            cache = getattr(sys.modules.get(f"torusphase.{layer}"), attr, None)
            if hasattr(cache, "cache_info"):
                info = cache.cache_info()
                out[prefix] = {"entries": info.currsize, "hits": info.hits, "misses": info.misses}
        return out

    def snapshot(self) -> dict:
        return {
            "pid": os.getpid(),
            "stats": self.stats,
            "counters": dict(self.counters),
            "caches": self.cache_state(),
            "spans": self.spans,
            "spans_dropped": self.dropped,
        }

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)
