"""Spans around the public functions of each triadnet layer, from outside.

`install` wraps every public function of the layer modules and rebinds the
wrapper under every name that refers to the original in any loaded triadnet
module, because modules import names directly (`triadnet.experiment.
hamiltonian`, `triadnet.cli.load_panel`). A span is (name, start, end,
parent index); spans stay in memory until `write_spans`. Hooks add the counts
and ratios the per-layer metrics need at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = (
    "ingest",
    "preprocess",
    "correlation",
    "svn",
    "balance",
    "graphmetrics",
    "experiment",
    "output",
    "cli",
)
CORR_KERNELS = ("correlation.phi_matrix", "correlation.pearson_matrix", "correlation.partial_pearson")


class Tracer:
    def __init__(self, t0: float):
        # The root span covers the whole process, imports included, as run_s does.
        self.spans = [["cli.process", t0, None, -1]]
        self._stack = [0]
        self.counts = defaultdict(float)
        self._corr_seen = set()

    def close(self) -> float:
        self.spans[0][2] = time.perf_counter()
        return self.spans[0][2] - self.spans[0][1]

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, parent])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if hook is not None:
                hook(spans[parent][0], args, kwargs, result)
            return result

        return traced

    # Hooks: called after the span closes, with the parent span's name.

    def _load_panel(self, parent, args, kwargs, panel):
        fmt = args[2] if len(args) > 2 else kwargs.get("format", "long")
        self.counts["rows_parsed"] += panel.n_dates if fmt == "wide" else int(panel.present.sum())

    def _survivors(self, parent, args, kwargs, result):
        returns = args[0] if args else kwargs["returns"]
        self.counts["survivors_kept"] += len(result.assets)
        self.counts["survivors_in"] += len(returns.assets)

    def _corr(self, kind):
        def hook(parent, args, kwargs, result):
            if parent in CORR_KERNELS:
                return  # pearson_matrix inside partial_pearson is not a separate matrix
            panel = args[0]
            key = (kind, panel.dates[0], len(panel.dates), panel.assets)
            self.counts["corr_calls"] += 1
            self.counts["corr_repeats"] += key in self._corr_seen
            self._corr_seen.add(key)

        return hook

    def _svn(self, parent, args, kwargs, net):
        n = len(net.assets)
        self.counts["pairs_tested"] += n * (n - 1) // 2
        self.counts["links_kept"] += net.n_links

    def _matmuls(self, per_call):
        def hook(parent, args, kwargs, result):
            s = args[0]
            n = (s.values if hasattr(s, "values") else s).shape[0]
            self.counts["matmul_flops"] += per_call * 2 * n**3

        return hook

    def _hooks(self):
        return {
            "ingest.load_panel": self._load_panel,
            "preprocess.binarize": self._survivors,
            "preprocess.complete_case": self._survivors,
            "correlation.phi_matrix": self._corr("phi"),
            "correlation.pearson_matrix": self._corr("pearson"),
            "correlation.partial_pearson": self._corr("partial_pearson"),
            "svn.build_svn": self._svn,
            "balance.hamiltonian": self._matmuls(2),  # S @ S @ S
            "balance.pair_stability": self._matmuls(1),  # S @ S
        }

    def _peak_memory(self, fn):
        """tracemalloc runs only around each call, outside its span."""

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.counts["build_svn_peak_mb"] = max(self.counts["build_svn_peak_mb"], peak)

        return measured

    def install(self):
        """Wrap every public layer function; return the wrapped `cli.main`."""
        hooks = self._hooks()
        replace = {}
        for layer in LAYERS:
            module = importlib.import_module(f"triadnet.{layer}")
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(name, fn, hooks.get(name))
                if name == "svn.build_svn":
                    wrapped = self._peak_memory(wrapped)
                replace[id(fn)] = (fn, wrapped)
                if name == "cli.main":
                    main = wrapped
        for modname, module in list(sys.modules.items()):
            if modname != "triadnet" and not modname.startswith("triadnet."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        return main

    def summary(self) -> dict:
        """Per-name calls, inclusive time and self time, derived from the spans."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        for name, start, end, parent in self.spans:
            d = end - start
            calls[name] += 1
            self_s[name] += d
            if parent >= 0:
                self_s[self.spans[parent][0]] -= d
                if self.spans[parent][0] != name:
                    total[name] += d
            else:
                total[name] += d
        return {
            name: {"calls": calls[name], "total_s": total[name], "self_s": self_s[name]}
            for name in calls
        }

    def corr_kernel_s(self) -> float:
        """Time in correlation kernels that are not nested in another kernel."""
        return sum(
            end - start
            for name, start, end, parent in self.spans
            if name in CORR_KERNELS and self.spans[parent][0] not in CORR_KERNELS
        )

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent}) + "\n")
