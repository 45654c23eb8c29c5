"""Spans around cframe's public functions, installed from outside.

Each wrapped function is replaced in every cframe module that bound
it, so calls made inside the package are seen too (frames binds
pencil_extremes from spectral, cli binds certify from frames, and so
on). A span's self time is its duration minus the time of its direct
child spans. Per name the tracer sums calls and self time; it keeps the
first MAX_SPANS spans themselves (name, start, end, parent, operation)
for the trace file.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

MAX_SPANS = 20000

# (module, attribute, span name); a dotted attribute is a method.
LAYERS = (
    ("cframe.module_space", "make_space", "module_space.make_space"),
    ("cframe.cli", "description_from_dict", "cli.description_from_dict"),
    ("cframe.cli", "run", "cli.run"),
    ("cframe.frames", "ControlledFrameSystem.__post_init__", "frames.build"),
    ("cframe.frames", "commutation_residual", "frames.commutation_residual"),
    ("cframe.operators", "op_classify", "operators.op_classify"),
    ("cframe.operators", "op_norm", "operators.op_norm"),
    ("cframe.frames", "frame_form_matrix", "frames.frame_form_matrix"),
    ("cframe.frames", "comparison_form_matrix",
     "frames.comparison_form_matrix"),
    ("cframe.frames", "certify", "frames.certify"),
    ("cframe.frames", "optimal_upper_bound", "frames.optimal_upper_bound"),
    ("cframe.frames", "optimal_lower_bound", "frames.optimal_lower_bound"),
    ("cframe.spectral", "pencil_extremes", "spectral.pencil_extremes"),
    ("cframe.spectral", "restricted_pencil_min",
     "spectral.restricted_pencil_min"),
    ("cframe.frames", "check_at", "frames.check_at"),
    ("cframe.frames", "verify_bounds", "frames.verify_bounds"),
    ("cframe.transforms", "invertible_q_bounds",
     "transforms.invertible_q_bounds"),
    ("cframe.sequence_example", "example_certificate",
     "sequence_example.example_certificate"),
)

# Per-layer metric -> (span name, what, unit). Calls and self times are
# divided by the operations of the run.
PER_LAYER = {
    "cli.parse_ms": ("cli.description_from_dict", "self", "ms/op"),
    "cli.report_ms": ("cli.run", "self", "ms/op"),
    "module_space.make_space_ms": ("module_space.make_space", "self", "ms/op"),
    "frames.build_ms": ("frames.build", "self", "ms/op"),
    "frames.commutation_residual.calls": ("frames.commutation_residual",
                                          "calls", "calls/op"),
    "operators.op_classify.calls": ("operators.op_classify", "calls",
                                    "calls/op"),
    "operators.op_classify_ms": ("operators.op_classify", "self", "ms/op"),
    "operators.op_norm.calls": ("operators.op_norm", "calls", "calls/op"),
    "operators.op_norm_ms": ("operators.op_norm", "self", "ms/op"),
    "frames.frame_form_matrix.calls": ("frames.frame_form_matrix", "calls",
                                       "calls/op"),
    "frames.frame_form_matrix_ms": ("frames.frame_form_matrix", "self",
                                    "ms/op"),
    "frames.comparison_form_matrix.calls": ("frames.comparison_form_matrix",
                                            "calls", "calls/op"),
    "frames.certify_self_ms": ("frames.certify", "self", "ms/op"),
    "frames.optimal_upper_bound_ms": ("frames.optimal_upper_bound", "self",
                                      "ms/op"),
    "frames.optimal_lower_bound_ms": ("frames.optimal_lower_bound", "self",
                                      "ms/op"),
    "spectral.pencil_extremes.calls": ("spectral.pencil_extremes", "calls",
                                       "calls/op"),
    "spectral.pencil_extremes_ms": ("spectral.pencil_extremes", "self",
                                    "ms/op"),
    "spectral.restricted_pencil_min.calls": ("spectral.restricted_pencil_min",
                                             "calls", "calls/op"),
    "spectral.restricted_pencil_min_ms": ("spectral.restricted_pencil_min",
                                          "self", "ms/op"),
    "frames.check_at_us": ("frames.check_at", "self", "us/op"),
    "frames.verify_bounds_ms": ("frames.verify_bounds", "self", "ms/op"),
    "transforms.invertible_q_bounds_ms": ("transforms.invertible_q_bounds",
                                          "self", "ms/op"),
    "sequence_example.example_certificate_ms": (
        "sequence_example.example_certificate", "self", "ms/op"),
}

IMPORT_METRICS = ("import.numpy_ms", "import.scipy_ms", "import.cframe_ms")

_SCALE = {"ms/op": 1e3, "us/op": 1e6}


class Tracer:
    """Collects spans while recording; install() patches the package.

    enabled marks a traced run; an untraced run never installs the
    wrappers, and recording() is then a no-op.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.active = False
        self.operation = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self._next_id = 0
        self._stack: list[list] = []

    @contextlib.contextmanager
    def recording(self):
        self.active = self.enabled
        try:
            yield
        finally:
            self.active = False

    def install(self) -> None:
        importlib.import_module("cframe")
        mods = [m for name, m in list(sys.modules.items())
                if name == "cframe" or name.startswith("cframe.")]
        for modname, attr, span in LAYERS:
            owner = sys.modules[modname]
            head, _, meth = attr.partition(".")
            if meth:
                cls = getattr(owner, head)
                setattr(cls, meth, self._wrap(span, getattr(cls, meth)))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(span, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            frame = [0.0, span_id]
            parent = self._stack[-1][1] if self._stack else None
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                dur = t1 - t0
                if self._stack:
                    self._stack[-1][0] += dur
                self.calls[name] += 1
                self.self_s[name] += dur - frame[0]
                if span_id < MAX_SPANS:
                    self.spans.append((span_id, parent, self.operation,
                                       name, t0, t1))
        return wrapper

    def merge(self, calls: dict, self_s: dict) -> None:
        for k, v in calls.items():
            self.calls[k] += v
        for k, v in self_s.items():
            self.self_s[k] += v

    def aggregate(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s)}

    def per_layer(self, operations: int) -> dict:
        out = {}
        for metric, (span, what, unit) in PER_LAYER.items():
            if what == "calls":
                value = self.calls.get(span, 0) / operations
            else:
                value = self.self_s.get(span, 0.0) * _SCALE[unit] / operations
            out[metric] = {"value": value, "unit": unit}
        return out
