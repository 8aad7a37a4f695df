"""Outside-in span tracing of the dynlie package for the benchmark.

`Tracer.install()` replaces public functions and methods of every dynlie
module with timing wrappers; `Tracer.remove()` puts the originals back.
Nothing is installed unless a traced run asks for it, so an untraced run
executes the package's own code objects (`originals_intact` checks this).

Each call records one span: layer id, parent span, op id, start and end.
Spans stay in memory; `summary()` turns them into per-layer metrics when
the run ends.  A span's self time is its duration minus the durations of
its direct children (calls are synchronous and single threaded, so the
children of a span never overlap).
"""

import hashlib
import time
from array import array

import numpy as np
import scipy.linalg

from dynlie import catalog, cli, duality, dynamics, lie, linalg, qbia, twist


def targets():
    """(layer, owner, attribute) for every wrapped callable.  Several
    attributes may feed one layer (render, scipy_expm)."""
    return [
        ("linalg.apply", linalg.AnalyticFunction, "apply"),
        ("linalg.frechet", linalg.AnalyticFunction, "frechet"),
        ("linalg.series", linalg, "entire_series_apply"),
        ("linalg.finite_diff", linalg, "finite_diff"),
        ("linalg.scipy_expm", scipy.linalg, "expm"),
        ("linalg.scipy_expm", scipy.linalg, "expm_frechet"),
        ("lie.bracket", lie.LieAlgebraData, "bracket"),
        ("lie.ad_matrix", lie.LieAlgebraData, "ad_matrix"),
        ("qbia.build_double", qbia, "build_double"),
        ("qbia.check_compatibility", qbia, "check_compatibility"),
        ("qbia.check_quasi_bialgebra", qbia, "check_quasi_bialgebra"),
        ("twist.apply_twist", twist, "apply_twist"),
        ("dynamics.canonical_field", dynamics, "canonical_field"),
        ("dynamics.value", dynamics.LMatrixField, "value"),
        ("dynamics.derivative", dynamics.LMatrixField, "derivative"),
        ("dynamics.cdybe_residual", dynamics, "cdybe_residual"),
        ("dynamics.equivariance_residual", dynamics, "equivariance_residual"),
        ("dynamics.vertex_dual", dynamics, "vertex_dual"),
        ("dynamics.in_domain", dynamics, "in_domain"),
        ("duality.flatness_residual", duality.TrivializationMap,
         "flatness_residual"),
        ("duality.bracket_morphism_residual", duality.TrivializationMap,
         "bracket_morphism_residual"),
        ("duality.psi_compatibility_residual", duality.TrivializationMap,
         "psi_compatibility_residual"),
        ("duality.section_value", duality.AlgebroidSection, "value"),
        ("duality.section_derivative", duality.AlgebroidSection, "derivative"),
        ("duality.dual_qbia", duality, "dual_qbia"),
        ("duality.double_dual_check", duality, "double_dual_check"),
        ("catalog.get", catalog, "get"),
        ("cli.parse", cli.AlgebraSpecFile, "parse"),
        ("cli.build_report", cli, "build_report"),
        ("cli.render", cli.VerificationReport, "to_text"),
        ("cli.render", cli.VerificationReport, "to_json"),
    ]


# layers whose summary reports unique_frac
KEYED = ("linalg.apply", "linalg.frechet", "linalg.scipy_expm")


def layer_names():
    seen = []
    for layer, _, _ in targets():
        if layer not in seen:
            seen.append(layer)
    return seen


def snapshot():
    """The attribute objects the package defines, before any wrapping."""
    return [(owner, attr, vars(owner)[attr])
            for _, owner, attr in targets()]


def originals_intact(snap):
    return all(vars(owner)[attr] is orig for owner, attr, orig in snap)


def _input_key(name, args):
    h = hashlib.blake2b(name.encode(), digest_size=16)
    for a in args:
        if isinstance(a, np.ndarray):
            h.update(str(a.shape).encode())
            h.update(np.ascontiguousarray(a).tobytes())
        elif isinstance(a, linalg.AnalyticFunction):
            h.update(a.name.encode())
    return h.digest()


class Tracer:
    """Span collector plus the wrappers that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layers = layer_names()
        self._layer_id = {name: i for i, name in enumerate(self.layers)}
        self.op_id = -1
        # one entry per span, in call order
        self.layer = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.rejected = array("b")
        self.keys = {}
        self._stack = []
        self._installed = []

    # -- recording ------------------------------------------------------------

    def begin(self, layer):
        idx = len(self.start)
        self.layer.append(self._layer_id[layer])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.raised.append(0)
        self.rejected.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def finish(self, idx, raised=False):
        self.end[idx] = self.clock()
        self._stack.pop()
        if raised:
            self.raised[idx] = 1

    def _wrap(self, layer, fn):
        tracer = self
        keyed = layer in KEYED

        def wrapper(*args, **kwargs):
            if keyed:
                tracer.keys.setdefault(layer, []).append(
                    _input_key(getattr(fn, "__name__", layer), args))
            idx = tracer.begin(layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.finish(idx, raised=True)
                raise
            tracer.finish(idx)
            if layer == "dynamics.in_domain" and not out["in_domain"]:
                tracer.rejected[idx] = 1
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        return wrapper

    def install(self):
        for layer, owner, attr in targets():
            orig = vars(owner)[attr]
            if isinstance(orig, classmethod):
                new = classmethod(self._wrap(layer, orig.__func__))
            else:
                new = self._wrap(layer, orig)
            setattr(owner, attr, new)
            self._installed.append((owner, attr, orig))

    def remove(self):
        while self._installed:
            owner, attr, orig = self._installed.pop()
            setattr(owner, attr, orig)

    # -- summary --------------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus direct children's durations."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, [dur[i] - child[i] for i in range(n)]

    def summary(self):
        """Per-layer calls / self_s plus the layer-specific ratios."""
        _, self_t = self.self_times()
        calls = [0] * len(self.layers)
        selfs = [0.0] * len(self.layers)
        raised = [0] * len(self.layers)
        rejected = [0] * len(self.layers)
        for i, lid in enumerate(self.layer):
            calls[lid] += 1
            selfs[lid] += self_t[i]
            raised[lid] += self.raised[i]
            rejected[lid] += self.rejected[i]
        out = {}
        for lid, name in enumerate(self.layers):
            out[name] = {"calls": calls[lid], "self_s": selfs[lid],
                         "raised": raised[lid], "rejected": rejected[lid],
                         "unique": len(set(self.keys.get(name, ())))}
        return out

    def top_level_time(self, op_ids):
        """Summed duration of root spans belonging to the given ops."""
        wanted = set(op_ids)
        total = 0.0
        for i in range(len(self.start)):
            if self.parent[i] < 0 and self.op[i] in wanted:
                total += self.end[i] - self.start[i]
        return total
