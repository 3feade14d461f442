"""Span tracer that wraps qspec's layers from outside the package.

``Tracer.install`` replaces, for the duration of a traced replay:

* every public function defined in a qspec module, and every other name
  bound to the same function in an importing module (``spectral.min_singular``
  is ``qlinalg.min_singular``), so each call records one span whichever
  name it was reached through;
* the methods the per-layer metrics name (``_SectionKappa.kappa``,
  ``SliceSeries.eval``/``monomial_coefficients``, ``finite_section`` of each
  operator class) and each property suite in ``suites.SUITES``;
* the LAPACK entry points qspec calls: numpy's ``svd`` and ``eigvals`` and
  scipy's ``schur``;
* ``Quaternion.__mul__``, with a bare counter instead of a span, because a
  span per Hamilton product would cost more than the product.

A span is (name, start, end, parent span, request).  Spans stay in memory
and are written out once, after the run.  Self time is a span's duration
minus the part of it covered by its child spans.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

from workloads import SUITE_NAMES

MODULES = ("quat", "qlinalg", "spectral", "operators", "localspec", "sliceseries",
           "suites", "rand", "io", "cli")

# (module, class, method, span name)
METHODS = (
    ("spectral", "_SectionKappa", "kappa", "spectral.kappa"),
    ("sliceseries", "SliceSeries", "eval", "sliceseries.eval"),
    ("sliceseries", "SliceSeries", "monomial_coefficients",
     "sliceseries.monomial_coefficients"),
    ("operators", "DenseOperator", "finite_section", "operators.finite_section"),
    ("operators", "MultiplicationOperator", "finite_section", "operators.finite_section"),
    ("operators", "ShiftOperator", "finite_section", "operators.finite_section"),
)

# (module, attribute, span name); numpy's internal module is patched too so
# that norm(x, 2) and cond, which call svd from inside numpy, are counted.
LAPACK = (
    ("numpy.linalg", "svd", "lapack.svd"),
    ("numpy.linalg._linalg", "svd", "lapack.svd"),
    ("numpy.linalg", "eigvals", "lapack.eigvals"),
    ("numpy.linalg._linalg", "eigvals", "lapack.eigvals"),
    ("scipy.linalg", "schur", "lapack.schur"),
)

CALL_COUNTS = (
    "lapack.svd", "lapack.eigvals", "lapack.schur", "qlinalg.op_norm",
    "qlinalg.min_singular", "qlinalg.kernel_basis", "quat.merge_spheres",
    "spectral.pseudo_resolvent", "localspec.spectral_projections",
    "operators.finite_section", "sliceseries.eval",
    "sliceseries.monomial_coefficients",
)
SELF_TIMES = (
    "lapack.svd", "qlinalg.op_norm", "qlinalg.min_singular", "qlinalg.kernel_basis",
    "qlinalg.right_eigenspheres", "quat.merge_spheres", "spectral.classify",
    "spectral.spectral_radius", "spectral.portrait", "spectral.threshold_region",
    "localspec.spectral_projections", "localspec.local_spectrum",
    "localspec.decomposability_necessary", "operators.finite_section",
    "operators.restrict", "operators.quotient", "sliceseries.eval",
    "sliceseries.monomial_coefficients", "sliceseries.star_product",
    "sliceseries.cr_residual",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.request = 0
        self.products = 0
        self._restore: list = []

    def _span_wrapper(self, name: str, fn):
        sid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx] = (sid, start, clock(), parent, self.request)

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, qspec) -> None:
        mods = {m: importlib.import_module(f"qspec.{m}") for m in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._span_wrapper(f"{short}.{attr}", obj)
        for mod in [qspec, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, attr, wrappers[id(obj)])
        for short, cls_name, meth, name in METHODS:
            cls = getattr(mods[short], cls_name)
            self._patch(cls, meth, self._span_wrapper(name, cls.__dict__[meth]))
        suites = mods["suites"].SUITES
        for suite, fn in list(suites.items()):
            suites[suite] = self._span_wrapper(f"suites.{suite}", fn)
            self._restore.append((suites, suite, fn))
        seen = {}
        for mod_name, attr, name in LAPACK:
            mod = importlib.import_module(mod_name)
            fn = getattr(mod, attr)
            if id(fn) not in seen:
                seen[id(fn)] = self._span_wrapper(name, fn)
            self._patch(mod, attr, seen[id(fn)])
        quaternion = mods["quat"].Quaternion
        hamilton = quaternion.__dict__["__mul__"]

        def counted_mul(a, b):
            self.products += 1
            return hamilton(a, b)

        self._patch(quaternion, "__mul__", counted_mul)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._restore.clear()

    def totals(self):
        """Per span name: call count, self seconds and inclusive seconds."""
        children = defaultdict(list)
        for sid, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        calls, own, incl = defaultdict(int), defaultdict(float), defaultdict(float)
        for idx, (sid, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c0, c1 in sorted(children.get(idx, ())):
                c0, c1 = max(c0, reach), min(c1, end)
                if c1 > c0:
                    covered += c1 - c0
                    reach = c1
            name = self.names[sid]
            calls[name] += 1
            own[name] += end - start - covered
            incl[name] += end - start
        return calls, own, incl

    def layer_metrics(self, requests: int, speed: float) -> dict:
        """Per-request means of the per-layer metrics, 0 for layers not called.
        Times are scaled by ``speed``, the replay's median speed factor."""
        calls, own, incl = self.totals()
        own = defaultdict(float, {n: v * speed for n, v in own.items()})
        incl = defaultdict(float, {n: v * speed for n, v in incl.items()})
        out = {f"{n}.calls": calls[n] / requests for n in CALL_COUNTS}
        out.update({f"{n}.ms": own[n] * 1e3 / requests for n in SELF_TIMES})
        out["quat.hamilton_products"] = self.products / requests
        points = calls["spectral.kappa"]
        out["spectral.kappa_points"] = points / requests
        out["spectral.kappa.us_per_point"] = (
            incl["spectral.kappa"] * 1e6 / points if points else 0.0)
        parse = sum(v for n, v in own.items()
                    if n.startswith("io.parse_") or n == "io.read_text")
        out["io.parse.ms"] = parse * 1e3 / requests
        out["cli.self_ms"] = own["cli.main"] * 1e3 / requests
        for name in SUITE_NAMES:
            out[f"suites.{name}.ms"] = own[f"suites.{name}"] * 1e3 / requests
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "request"]) + "\n")
            for sid, start, end, parent, req in self.spans:
                fh.write(f'["{self.names[sid]}",{start!r},{end!r},{parent},{req}]\n')
