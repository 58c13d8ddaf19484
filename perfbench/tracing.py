"""Span tracer for volprod's public functions, installed from outside ``src/``.

``Tracer`` wraps each function in ``LAYERS`` and re-binds the wrapper at every
module attribute that holds the original: ``functionals`` imports
``polar_density``, ``fp_evolve``, ``log_integral`` and friends by name, and so
does the package namespace, so wrapping only the defining module would lose
the nested spans. Spans (name, start, end, parent id) stay in memory.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = {
    "cli": ("run", "write_csv", "emit_plot"),
    "functionals": (
        "volume_product", "rev_hc_value", "laplace_f_t", "laplace_grid", "log_laplace",
        "q_functional", "equiv_form_check", "laplace_norm_ratio", "bl_integral",
        "gaussian_bl_constant", "lr_volume_product", "tropical_limit_curve",
    ),
    "legendre": ("legendre_transform", "polar_density", "default_dual_grid", "legendre_1d"),
    "heatflow": ("fp_evolve", "ou_apply"),
    "quadrature": ("log_integral", "log_lq_norm"),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# functions whose transient allocation peak (tracemalloc) is reported, each
# with a cap on the node count of its first argument's grid (None: no cap).
# tracemalloc slows polar_density's Python hull loop about 17x (a 65^3 call
# takes 68 s instead of 4 s), so its peak is read on inputs up to 129^2 only.
PEAK_ALLOC = {
    "legendre.polar_density": 129**2, "heatflow.fp_evolve": None, "heatflow.ou_apply": None,
    "functionals.log_laplace": None, "functionals.lr_volume_product": None, "functionals.bl_integral": None,
}


def _nodes(grid) -> int:
    return math.prod(grid.points)


def _fp_kernel_elems(a) -> int:
    grid = a["f0"].grid
    return 0 if a["t"] == 0 else sum(n * _nodes(grid) for n in grid.points)


def _lr_pairs(a) -> int:
    return _nodes(a["outer_grid"]) * a["inner_cells"] ** a["body"].dim


# work counts computed from input shapes, not measured
WORK = {
    "heatflow.fp_evolve": ("kernel_elems", _fp_kernel_elems),
    "functionals.log_laplace": ("pairs", lambda a: _nodes(a["x_grid"]) * _nodes(a["f"].grid)),
    "functionals.lr_volume_product": ("pairs", _lr_pairs),
    "functionals.bl_integral": ("pairs", lambda a: _nodes(a["f1"].grid) * _nodes(a["f2"].grid)),
}


def per_layer_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for name in FUNCTIONS:
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.total_s", "s", "lower"),
                (f"{name}.self_s", "s", "lower")]
    out += [(f"{mod}.errors", "count", "lower") for mod in LAYERS]
    out += [(f"{name}.peak_alloc_mb", "MB", "lower") for name in PEAK_ALLOC]
    out += [(f"{name}.{what}", "count", "lower") for name, (what, _) in WORK.items()]
    out += [("heatflow.kernel_cache.hit_ratio", "ratio", "higher"), ("cli.write_csv.bytes", "B", "lower"),
            ("trace.overhead_s", "s", "lower")]
    return out


class Tracer:
    """Context manager: while active, every call of a wrapped function is a span.

    With ``alloc=True`` the functions in ``PEAK_ALLOC`` also run under
    tracemalloc; use that in a pass of its own, since tracemalloc slows them.
    """

    def __init__(self, alloc: bool = False):
        self.alloc = alloc
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, start, end
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.peak_alloc: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self.cache_lookups = 0
        self.cache_misses = 0
        self.csv_bytes = 0
        self._stack: list[list] = []  # [span id, child time] per open span
        self._restore: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- install

    def __enter__(self):
        layers = {mod: importlib.import_module(f"volprod.{mod}") for mod in LAYERS}
        self._heatflow = layers["heatflow"]
        modules = [m for k, m in sys.modules.items() if k == "volprod" or k.startswith("volprod.")]
        for name in FUNCTIONS:
            mod, fn = name.split(".")
            orig = getattr(layers[mod], fn)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._restore.append((m, attr, orig))
                        setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        return False

    # -------------------------------------------------------------- spans

    def _wrap(self, name: str, orig):
        module = name.split(".")[0]
        sig = inspect.signature(orig)
        work = WORK.get(name)
        cache = name in ("heatflow.fp_evolve", "heatflow.ou_apply")
        alloc = self.alloc and name in PEAK_ALLOC
        node_cap = PEAK_ALLOC.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            bound = None
            if work or cache or alloc or name == "cli.write_csv":
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            cache_before = len(tracer._heatflow._KERNEL_CACHE) if cache else 0
            own_alloc = (alloc and not tracemalloc.is_tracing()
                         and (node_cap is None or _nodes(next(iter(bound.values())).grid) <= node_cap))
            if own_alloc:
                tracemalloc.start()
            span_id = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            tracer.spans.append(None)  # reserve the id; filled on exit
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                tracer._count_error(module, exc)
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - start
                tracer.spans[span_id] = (span_id, parent, name, start, end)
                tracer.calls[name] += 1
                tracer.total_s[name] += dur
                tracer.self_s[name] += dur - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                if own_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.peak_alloc[name] = max(tracer.peak_alloc[name], peak)
            if work:
                tracer.work[f"{name}.{work[0]}"] += work[1](bound)
            if cache:
                # one kernel lookup per axis whenever the contraction runs
                density, t = (bound["f0"], bound["t"]) if "f0" in bound else (bound["g"], bound["s"])
                if t != 0:
                    tracer.cache_lookups += density.grid.dim
                    tracer.cache_misses += len(tracer._heatflow._KERNEL_CACHE) - cache_before
            if name == "cli.write_csv":
                tracer.csv_bytes += os.path.getsize(bound["path"])
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _count_error(self, module: str, exc: Exception):
        """Count an exception once per layer it passes through."""
        seen = getattr(exc, "_perfbench_layers", None)
        if seen is None:
            seen = set()
            try:
                exc._perfbench_layers = seen
            except AttributeError:
                pass
        if module not in seen:
            seen.add(module)
            self.errors[module] += 1

    # -------------------------------------------------------------- results

    def hit_ratio(self) -> float:
        if self.cache_lookups == 0:
            return 0.0
        return (self.cache_lookups - self.cache_misses) / self.cache_lookups
