"""Outside-in tracer for contactkit: spans around the public functions of
each package module, installed by patching module attributes.

Nothing under ``src/`` is edited.  :meth:`Tracer.install` replaces every
public function and public method defined in a layer module with a wrapper,
and rebinds every ``contactkit.*`` module attribute bound to the original,
because modules import functions by name (``cone`` and ``models`` hold their
own ``exterior_derivative``).  The home module's own binding is rebound for
the :data:`NAMED` operations, and for every function of a module that
another layer imports whole (``models`` calls ``cone_mod.build_cone``).  A
wrapper records a span when it is entered
from another layer (or from outside the package), or when it is one of the
:data:`NAMED` operations the per-layer metrics count; a call from inside the
same layer to any other helper passes straight through, so its time is self
time of the layer's caller.  That keeps the span count near the number of
layer crossings: ``ypq`` calls its small helpers about a million times per
``--enumerate 400``.

The numpy kernels ``linalg.svd``, ``einsum`` and ``linalg.det`` are wrapped
too; a kernel call gets a span of its own only when the innermost enclosing
layer span belongs to ``contact`` or ``cone`` (the frame solve), otherwise
its time stays in the self time of the layer that made it.

Spans are kept in memory as ``[name, start, end, parent, rows]`` lists and
reduced to per-layer metrics by :func:`layer_metrics`; :func:`write_spans`
writes them out once the run is over.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import sys
import time
import numpy as np

LAYERS = ("expressions", "charts", "contact", "cone", "models", "ypq", "cli")
SOLVE_LAYERS = ("contact", "cone")
KERNELS = (("linalg", "svd"), ("", "einsum"), ("linalg", "det"))

EVAL = {"ScalarExpr.jets", "ScalarExpr.values", "ScalarExpr.eval_jet2", "ScalarExpr.constant_value"}
ROW_COUNTED = {"ScalarExpr.jets", "ScalarExpr.values"}
CALCULUS = {"exterior_derivative", "wedge", "interior_product", "lie_bracket", "lie_derivative"}
LIFTS = {"lift", "cone_hamiltonian", "commuting_lift_check"}
RENDER = {"cmd_verify", "cmd_ypq"}
NAMED = {"ypq_report", "totient", "enumerate_structures", "model_battery"} | LIFTS | RENDER

# Per-layer metrics in report order, with their units.
METRIC_UNITS = {
    "expressions.self_s": "s",
    "expressions.eval_s": "s",
    "expressions.eval_calls": "count",
    "expressions.eval_rows": "count",
    "expressions.construct_s": "s",
    "expressions.construct_calls": "count",
    "charts.self_s": "s",
    "charts.sample_s": "s",
    "charts.sample_calls": "count",
    "charts.calculus_s": "s",
    "charts.calculus_calls": "count",
    "contact.checks_s": "s",
    "contact.solve_s": "s",
    "contact.svd_calls": "count",
    "contact.svd_matrices": "count",
    "contact.svd_distinct_ratio": "ratio",
    "contact.einsum_calls": "count",
    "cone.self_s": "s",
    "cone.lift_calls": "count",
    "models.build_s": "s",
    "ypq.self_s": "s",
    "ypq.report_s": "s",
    "ypq.report_calls": "count",
    "ypq.totient_calls": "count",
    "ypq.enumerate_s": "s",
    "cli.self_s": "s",
    "cli.render_s": "s",
    "cli.output_bytes": "bytes",
    "trace.run_s": "s",
    "trace.outside_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class Tracer:
    """Records nested spans while installed; single-threaded by design."""

    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._layer_stack: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _layer_wrapper(self, layer: str, qualname: str, fn):
        spans, stack, layers = self.spans, self._stack, self._layer_stack
        name = f"{layer}:{qualname}"
        counts_rows = qualname in ROW_COUNTED
        passes_within_layer = qualname.rpartition(".")[2] not in NAMED
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if passes_within_layer and layers and layers[-1] == layer:
                return fn(*args, **kwargs)
            rows = 0
            if counts_rows:
                pts = np.asarray(args[1] if len(args) > 1 else kwargs["points"])
                rows = 1 if pts.ndim == 1 else len(pts)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, rows]
            stack.append(len(spans))
            spans.append(record)
            layers.append(layer)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                layers.pop()

        traced.__wrapped__ = fn
        return traced

    def _kernel_wrapper(self, kernel: str, fn):
        spans, stack, layers = self.spans, self._stack, self._layer_stack
        name = f"numpy:{kernel}"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not layers or layers[-1] not in SOLVE_LAYERS:
                return fn(*args, **kwargs)
            info = 0
            if kernel == "svd":
                a = np.ascontiguousarray(args[0])
                digest = hashlib.blake2b(a.tobytes(), digest_size=16).hexdigest()
                info = (int(np.prod(a.shape[:-2], dtype=np.int64)), f"{a.shape}:{digest}")
            record = [name, 0.0, 0.0, stack[-1], info]
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function and method of the layer modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = self.package.__name__
        modules = [sys.modules[f"{package}.{layer}"] for layer in LAYERS]
        replacements: dict[int, object] = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replacements[id(obj)] = self._layer_wrapper(layer, name, obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        # Modules another layer imports whole (``models`` does
        # ``from . import cone as cone_mod``) are called through their own
        # bindings.
        imported_whole = {
            value.__name__
            for module in modules
            for value in vars(module).values()
            if inspect.ismodule(value) and value in modules and value is not module
        }
        for name, module in list(sys.modules.items()):
            if module is None or not (name == package or name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is None or wrapper.__wrapped__ is not value:
                    continue
                # A module's calls to its own helpers never cross a layer, so
                # its own binding is wrapped only for the NAMED operations and
                # in modules another layer imports whole.
                if (
                    module.__name__ == value.__module__
                    and value.__name__ not in NAMED
                    and module.__name__ not in imported_whole
                ):
                    continue
                self._set(module, attr, wrapper)
        for sub, kernel in KERNELS:
            owner = getattr(np, sub) if sub else np
            self._set(owner, kernel, self._kernel_wrapper(kernel, getattr(owner, kernel)))

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qualname = f"{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._layer_wrapper(layer, qualname, raw.__func__)))
            elif isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._layer_wrapper(layer, qualname, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._layer_wrapper(layer, qualname, raw))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def layer_metrics(spans: list[list], run_s: float, output_bytes: int) -> dict[str, float]:
    """Reduce one traced pass to the per-layer metrics of :data:`METRIC_UNITS`.

    Self time is a span's duration minus the durations of its direct
    children.  Kernel spans are children of the contact or cone span that
    made them, so their time is ``contact.solve_s`` and not the caller's.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    m = dict.fromkeys(METRIC_UNITS, 0)
    covered = 0.0
    for i, (name, start, end, parent, info) in enumerate(spans):
        duration = end - start
        self_s = duration - child[i]
        if parent < 0:
            covered += duration
        layer, _, qualname = name.partition(":")
        if layer == "numpy":
            m["contact.solve_s"] += duration
            if qualname == "svd":
                m["contact.svd_calls"] += 1
                m["contact.svd_matrices"] += info[0]
            elif qualname == "einsum":
                m["contact.einsum_calls"] += 1
        elif layer == "expressions":
            m["expressions.self_s"] += self_s
            if qualname in EVAL:
                m["expressions.eval_s"] += self_s
                if qualname in ROW_COUNTED:
                    m["expressions.eval_calls"] += 1
                    m["expressions.eval_rows"] += info
            else:
                m["expressions.construct_s"] += self_s
                m["expressions.construct_calls"] += 1
        elif layer == "charts":
            m["charts.self_s"] += self_s
            if qualname == "Chart.sample":
                m["charts.sample_s"] += self_s
                m["charts.sample_calls"] += 1
            elif qualname in CALCULUS:
                m["charts.calculus_s"] += self_s
                m["charts.calculus_calls"] += 1
        elif layer == "contact":
            m["contact.checks_s"] += self_s
        elif layer == "cone":
            m["cone.self_s"] += self_s
            m["cone.lift_calls"] += qualname in LIFTS
        elif layer == "models":
            m["models.build_s"] += self_s
        elif layer == "ypq":
            m["ypq.self_s"] += self_s
            if qualname == "ypq_report":
                m["ypq.report_s"] += self_s
                m["ypq.report_calls"] += 1
            elif qualname == "totient":
                m["ypq.totient_calls"] += 1
            elif qualname == "enumerate_structures":
                m["ypq.enumerate_s"] += self_s
        elif layer == "cli":
            m["cli.self_s"] += self_s
            if qualname in RENDER:
                m["cli.render_s"] += self_s
    if m["contact.svd_calls"]:
        m["contact.svd_distinct_ratio"] = svd_distinct_inputs(spans) / m["contact.svd_calls"]
    m["cli.output_bytes"] = output_bytes
    m["trace.run_s"] = run_s
    m["trace.outside_s"] = run_s - covered
    m["trace.spans"] = len(spans)
    return m


def svd_distinct_inputs(spans: list[list]) -> int:
    """Distinct input batches (shape and content digest) among SVD spans."""
    return len({info[1] for name, _, _, _, info in spans if name == "numpy:svd"})


def write_spans(path, spans: list[list]) -> None:
    """One JSON line per span: name, start, end (seconds), parent index."""
    with open(path, "w") as out:
        for name, start, end, parent, _ in spans:
            out.write(json.dumps([name, round(start, 9), round(end, 9), parent]) + "\n")
