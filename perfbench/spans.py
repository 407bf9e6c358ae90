"""Span tracing of valfield from outside the package.

``Tracer.install`` wraps every public function and method of each layer
module (and the arithmetic dunders of its classes), so a call into a
layer opens a span whose parent is the innermost open span.  Self time is
a span's duration minus the part its child spans cover.  Millions of
finite-field spans do not fit in memory one by one, so spans are kept
aggregated by call path (parent path, name): count, total and self time.
Counts are taken at the same wrappers.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional

LAYERS = (
    "value_group", "finite_field", "laurent", "polygon", "padic", "composite",
    "polynomials", "additive", "extremality", "certificates", "parsing", "cli",
)
_DUNDERS = {
    "__add__", "__sub__", "__mul__", "__neg__", "__truediv__", "__pow__",
    "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
}
# constructors wrapped because a metric counts them
_INIT_CLASSES = {"PAdicNumber"}

FF_OPS = ("__add__", "__sub__", "__mul__", "__neg__", "inverse", "__pow__", "frobenius")
PADIC_NUMBER_OPS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__truediv__", "inverse")
SEARCHES = ("extremality.extremal_search", "extremality.valuation_multiset",
            "extremality.composite_extremal_search")


class Tracer:
    def __init__(self) -> None:
        self.stack: List[list] = []  # open spans: [node id, child seconds]
        self.node_ids: Dict[tuple, int] = {}  # (parent node id, name) -> id
        self.nodes: List[list] = []  # [name, layer, parent id, count, total s, self s]
        self.layer_self: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.open: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)  # outermost spans only
        self.layer_open: Dict[str, int] = defaultdict(int)
        self.layer_busy: Dict[str, float] = defaultdict(float)  # time with the layer on the stack
        self.raised: Dict[tuple, int] = defaultdict(int)
        self.extra: Dict[str, float] = defaultdict(float)
        self._restore: List[tuple] = []

    # -- hooks: counts that need the call's arguments or its ancestors ---------

    def _on_series_mul(self, args) -> None:
        la, lb = len(args[0].coeffs), len(args[1].coeffs)
        self.extra["mul_coeff_pairs"] += la * lb
        self.extra["mul_len_sum"] += la + lb

    def _on_sum_evaluate(self, args) -> None:
        if self.open["additive.oap_solve"]:
            self.extra["oap_candidates"] += 1

    def _on_poly_evaluate(self, args) -> None:
        if any(self.open[name] for name in SEARCHES):
            self.extra["search_candidates"] += 1

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn: Callable, layer: str, name: str, hook: Optional[Callable]) -> Callable:
        stack, node_ids, nodes = self.stack, self.node_ids, self.nodes
        calls, open_, busy, raised = self.calls, self.open, self.busy, self.raised
        layer_self, layer_open, layer_busy = self.layer_self, self.layer_open, self.layer_busy

        def wrapper(*args, **kwargs):
            key = (stack[-1][0] if stack else -1, name)
            nid = node_ids.get(key)
            if nid is None:
                nid = node_ids[key] = len(nodes)
                nodes.append([name, layer, key[0], 0, 0.0, 0.0])
            frame = [nid, 0.0]
            stack.append(frame)
            calls[name] += 1
            outermost = not open_[name]
            open_[name] += 1
            entered = not layer_open[layer]
            layer_open[layer] += 1
            if hook is not None:
                hook(args)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                open_[name] -= 1
                layer_open[layer] -= 1
                if outermost:
                    busy[name] += dt
                if entered:
                    layer_busy[layer] += dt
                node = nodes[nid]
                node[3] += 1
                node[4] += dt
                node[5] += dt - frame[1]
                layer_self[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self, namespaces=()) -> None:
        """Wrap every layer; re-point module-level references to wrapped
        functions in all valfield modules and in ``namespaces``."""
        hooks = {
            "laurent.LaurentSeries.__mul__": self._on_series_mul,
            "additive.Decomposition.sum_evaluate": self._on_sum_evaluate,
            "polynomials.MultiPoly.evaluate": self._on_poly_evaluate,
        }
        replaced: Dict[Callable, Callable] = {}
        for layer in LAYERS:
            mod = sys.modules[f"valfield.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    name = f"{layer}.{attr}"
                    replaced[obj] = self._wrap(obj, layer, name, hooks.get(name))
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, layer, hooks)
        modules = [m for n, m in sys.modules.items() if n == "valfield" or n.startswith("valfield.")]
        for mod in modules + list(namespaces):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(mod, attr, replaced[obj])
                    self._restore.append((mod, attr, obj))

    def _wrap_class(self, cls, layer: str, hooks) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr == "__init__":
                wanted = cls.__name__ in _INIT_CLASSES
            else:
                wanted = attr in _DUNDERS or not attr.startswith("_")
            name = f"{layer}.{cls.__name__}.{attr}"
            if not wanted:
                continue
            if isinstance(obj, staticmethod):
                new = staticmethod(self._wrap(obj.__func__, layer, name, hooks.get(name)))
            elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                new = self._wrap(obj, layer, name, hooks.get(name))
            else:
                continue
            setattr(cls, attr, new)
            self._restore.append((cls, attr, obj))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> Dict[str, tuple]:
        """Per-layer metrics as name -> (value, unit)."""
        c, s = self.calls, self.layer_self
        mul_calls = c["laurent.LaurentSeries.__mul__"]
        out = {
            "finite_field.ops": (sum(c[f"finite_field.FFElement.{m}"] for m in FF_OPS), "count"),
            "finite_field.inverse_calls": (c["finite_field.FFElement.inverse"], "count"),
            "laurent.mul_calls": (mul_calls, "count"),
            "laurent.mul_coeff_pairs": (int(self.extra["mul_coeff_pairs"]), "count"),
            "laurent.mul_len_mean": (
                self.extra["mul_len_sum"] / (2 * mul_calls) if mul_calls else 0.0, "coeffs"),
            "laurent.inverse_calls": (c["laurent.LaurentSeries.inverse"], "count"),
            "padic.number_ops": (sum(c[f"padic.PAdicNumber.{m}"] for m in PADIC_NUMBER_OPS), "count"),
            "padic.ext_valuation_calls": (c["padic.ext_valuation"], "count"),
            "padic.precision_retries": (self.raised[("padic.ext_valuation", "PrecisionError")], "count"),
            "additive.oap_candidates": (int(self.extra["oap_candidates"]), "count"),
            "additive.decompose_s": (self.busy["additive.decompose"], "s"),
            "extremality.candidates": (int(self.extra["search_candidates"]), "count"),
            "polynomials.evaluate_calls": (c["polynomials.MultiPoly.evaluate"], "count"),
            "composite.mul_calls": (c["composite.CompositeElement.__mul__"], "count"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (s[layer], "s")
        return out

    def span_tree(self) -> List[dict]:
        return [
            {"id": i, "name": n[0], "layer": n[1], "parent": n[2], "count": n[3],
             "total_s": n[4], "self_s": n[5]}
            for i, n in enumerate(self.nodes)
        ]
