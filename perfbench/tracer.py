"""Span tracing of the public `shapefit` functions, from outside the package.

`Tracer.install()` swaps timing wrappers into the modules where each
caller looks a name up: names bound by `from ... import` are wrapped in
the calling module (`inference.marching_cubes`, `inference.canonicalize`,
`inference.lift_depth`), names reached as module attributes where they
live (`fields.compose_forward`, `autodiff.backward`). A target that the
package does not define is listed in `Tracer.missing`, so a renamed
function fails the run instead of reading 0.

Spans are kept in memory as (name, start_ns, end_ns, parent index) and
summarised when the run ends. A span's self time is its duration minus
the durations of its direct children. Counts (points, computed GFLOP,
gradient floats, triangles) are recorded at the same boundaries; GFLOP
are computed from layer shapes x points x (1 + Jacobian width), not
measured.
"""

import importlib
import os
import time
from collections import defaultdict

import numpy as np

MODULES = ("synthdata", "canonicalize", "autodiff", "fields", "training", "inference", "meshing", "metrics")


def _points(x):
    return int(np.shape(x)[0]) if np.ndim(x) == 2 else 1


def _layer_macs(params):
    """Multiply-adds per point of one plain pass: sum of in x out over layers."""
    sizes = params.layer_sizes
    return sum(a * b for a, b in zip(sizes[:-1], sizes[1:]))


def _grad_floats(grads):
    arrays = list(getattr(grads, "weights", None) or []) + list(getattr(grads, "biases", None) or [])
    return sum(int(np.size(a)) for a in arrays if a is not None)


# -- count hooks: (tracer, args, kwargs, result) -------------------------------


def _on_forward(tr, args, kwargs, out):
    params, x = args[0], args[1]
    n = _points(x)
    tr.count("autodiff.forward.points", n)
    tr.count("autodiff.forward.gflop", 2e-9 * n * _layer_macs(params))


def _on_forward_aug(tr, args, kwargs, out):
    params, x = args[0], args[1]
    n = _points(x)
    jac = out[1]
    k = int(np.size(jac)) // max(n * params.out_dim, 1)
    tr.count("autodiff.forward_aug.points", n)
    tr.count("autodiff.forward_aug.gflop", 2e-9 * n * _layer_macs(params) * (1 + k))


def _on_backward(tr, args, kwargs, out):
    params, gy = args[0], args[2]
    gjac = args[3] if len(args) > 3 else kwargs.get("gjac")
    n = int(np.shape(gy)[0])
    k = int(np.size(gjac)) // max(n * params.out_dim, 1) if gjac is not None else 0
    tr.count("autodiff.backward.points", n)
    # weight gradient plus input adjoint, each one GEMM per Jacobian column
    tr.count("autodiff.backward.gflop", 4e-9 * n * _layer_macs(params) * (1 + k))
    tr.count("autodiff.backward.param_grad_floats", _grad_floats(out[0]))


def _on_adam(tr, args, kwargs, out):
    grads = args[2] if len(args) > 2 else kwargs["grads"]
    tr.count("autodiff.Adam.step.floats", sum(int(np.size(g)) for g in grads.values()))


def _on_joint_optimize(tr, args, kwargs, out):
    tr.count("inference.joint_optimize.iterations", len(out.trace))


def _on_lift(tr, args, kwargs, out):
    tr.count("canonicalize.lift_depth.points", len(out.points))


def _on_save_prior(tr, args, kwargs, out):
    path = str(args[1])
    tr.count("fields.checkpoint_bytes", os.path.getsize(path) + os.path.getsize(path + ".json"))


def _on_marching_cubes(tr, args, kwargs, out):
    tr.count("meshing.triangles", len(out.triangles))


def _canonicalize_name(args, kwargs):
    return f"canonicalize.canonicalize.{getattr(args[0], 'name', type(args[0]).__name__)}"


# (module, attribute path, span name or name function, count hook)
TARGETS = (
    ("shapefit.synthdata", "make_family", "synthdata.make_family", None),
    ("shapefit.synthdata", "sample_shape", "synthdata.sample_shape", None),
    ("shapefit.synthdata", "render_depth", "synthdata.render_depth", None),
    ("shapefit.synthdata", "occlude", "synthdata.occlude", None),
    ("shapefit.inference", "lift_depth", "canonicalize.lift_depth", _on_lift),
    ("shapefit.inference", "canonicalize", _canonicalize_name, None),
    ("shapefit.autodiff", "forward", "autodiff.forward", _on_forward),
    ("shapefit.autodiff", "forward_cached", "autodiff.forward_cached", None),
    ("shapefit.autodiff", "forward_aug", "autodiff.forward_aug", _on_forward_aug),
    ("shapefit.autodiff", "backward", "autodiff.backward", _on_backward),
    ("shapefit.autodiff", "Adam.step", "autodiff.Adam.step", _on_adam),
    ("shapefit.fields", "hyper_forward", "fields.hyper_forward", None),
    ("shapefit.fields", "hyper_backward", "fields.hyper_backward", None),
    ("shapefit.fields", "compose_forward", "fields.compose_forward", None),
    ("shapefit.fields", "compose_backward", "fields.compose_backward", None),
    ("shapefit.fields", "compose_value", "fields.compose_value", None),
    ("shapefit.fields", "save_prior", "fields.save_prior", _on_save_prior),
    ("shapefit.fields", "load_prior", "fields.load_prior", None),
    ("shapefit.training", "fit", "training.fit", None),
    ("shapefit.training", "shape_terms", "training.shape_terms", None),
    ("shapefit.inference", "reconstruct", "inference.reconstruct", None),
    ("shapefit.inference", "joint_optimize", "inference.joint_optimize", _on_joint_optimize),
    ("shapefit.inference", "template_cloud", "inference.template_cloud", None),
    ("shapefit.inference", "marching_cubes", "meshing.marching_cubes", _on_marching_cubes),
    ("shapefit.inference", "sample_mesh_surface", "meshing.sample_mesh_surface", None),
    ("shapefit.meshing", "marching_cubes", "meshing.marching_cubes", _on_marching_cubes),
    ("shapefit.meshing", "sample_mesh_surface", "meshing.sample_mesh_surface", None),
    ("shapefit.metrics", "chamfer", "metrics.chamfer", None),
    ("shapefit.metrics", "fscore", "metrics.fscore", None),
)

class Tracer:
    """In-memory span recorder with monkey-patched wrappers."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts = defaultdict(float)
        self._stack = []
        self._undo = []
        self.missing = []  # "module.attr" of every target not found

    def count(self, name, n):
        self.counts[name] += n

    def _wrap(self, fn, name, hook):
        def wrapper(*args, **kwargs):
            if name == "meshing.marching_cubes":  # count the points the field is asked for
                args = (self._counted_field(args[0]),) + args[1:]
            span = [name if isinstance(name, str) else name(args, kwargs), time.perf_counter_ns(), 0,
                    self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter_ns()
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted_field(self, field):
        def counted(pts):
            self.count("meshing.field_points", _points(pts))
            return field(pts)

        return counted

    def install(self):
        for module, attr, name, hook in TARGETS:
            owner = importlib.import_module(module)
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, last, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(owner, last, self._wrap(fn, name, hook))
            self._undo.append((owner, last, fn))
        return self

    def restore(self):
        while self._undo:
            owner, last, fn = self._undo.pop()
            setattr(owner, last, fn)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()

    def summary(self):
        """Per-name totals: calls, total seconds, self seconds."""
        child = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        agg = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for (name, start, end, _), c in zip(self.spans, child):
            a = agg[name]
            a["calls"] += 1
            a["s"] += (end - start) * 1e-9
            a["self_s"] += (end - start - c) * 1e-9
        return dict(agg)

    def nested(self):
        """True when every span lies inside its parent's interval."""
        return all(
            parent < 0 or (self.spans[parent][1] <= start and end <= self.spans[parent][2])
            for _, start, end, parent in self.spans
        )

    def metrics(self):
        """Every figure of the run, by per-layer metric name.

        Per span name: `<span>.calls`, `<span>.s` (total) and
        `<span>.self_s`; every count; `<module>.self_s` per module;
        `meshing.triangles_per_field_point` and `trace.spans`.
        """
        agg = self.summary()
        out = {f"{span}.{kind}": v for span, a in agg.items() for kind, v in a.items()}
        out.update(self.counts)
        for m in MODULES:
            out[f"{m}.self_s"] = sum(a["self_s"] for span, a in agg.items() if span.split(".")[0] == m)
        points = self.counts.get("meshing.field_points", 0)
        out["meshing.triangles_per_field_point"] = self.counts.get("meshing.triangles", 0) / points if points else 0.0
        out["trace.spans"] = len(self.spans)
        return out
