"""Spans around calls into the package's public functions, recorded from the
benchmark's side.

``Tracer.installed()`` wraps each function in TARGETS and rebinds the
wrapper under every name any ``toeplimit`` module holds for it: ``limitsets``
and ``widom`` bind ``transfer_matrix``/``ordered_spectrum`` by name at
import, while ``nk.inverse`` and ``nk.eigenpairs`` are looked up through the
module attribute, so one rebinding pass covers both. The originals are
restored when the block exits, also on error.

A span records name, start, end, parent span and item id. Spans stay in
memory until ``write``. A span's self time is its duration minus the part
of it that its child spans cover.
"""
import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    item: Optional[str]


def _count_outliers(tracer, result):
    tracer.counters["limitsets.outliers.accepted"] += len(result)


def _count_refine(tracer, result):
    tracer.counters["limitsets.refine_zero.converged"] += result[2] == "converged"


def _count_limit_sets(tracer, result):
    tracer.counters["limitsets.arcs.count"] += len(result.arcs)
    tracer.counters["limitsets.arcs.points"] += sum(len(a.points)
                                                    for a in result.arcs)
    tracer.counters["limitsets.outliers.count"] += len(result.outliers)


def _count_bytes(tracer, path):
    tracer.counters["cli.artifact.bytes"] += os.path.getsize(path)


# (module, attribute, span name, counter hook). "Class.method" attributes
# are wrapped on the class.
TARGETS = (
    ("toeplimit.limitsets", "compute_limit_sets", "limitsets.compute_limit_sets",
     _count_limit_sets),
    ("toeplimit.limitsets", "scan_grid", "limitsets.scan_grid", None),
    ("toeplimit.limitsets", "sigma_r", "limitsets.sigma_r", None),
    ("toeplimit.limitsets", "lambda_open", "limitsets.lambda_open", None),
    ("toeplimit.limitsets", "lambda_r", "limitsets.lambda_r", None),
    ("toeplimit.limitsets", "outliers_open", "limitsets.outliers_open",
     _count_outliers),
    ("toeplimit.limitsets", "outliers_perturbed", "limitsets.outliers_perturbed",
     _count_outliers),
    ("toeplimit.limitsets", "refine_zero", "limitsets.refine_zero",
     _count_refine),
    ("toeplimit.transfer", "transfer_matrix", "transfer.transfer_matrix", None),
    ("toeplimit.transfer", "ordered_spectrum", "transfer.ordered_spectrum", None),
    ("toeplimit.numkernel", "inverse", "numkernel.inverse", None),
    ("toeplimit.numkernel", "eigenpairs", "numkernel.eigenpairs", None),
    ("toeplimit.widom", "widom_sum_open", "widom.widom_sum_open", None),
    ("toeplimit.widom", "widom_sum_perturbed", "widom.widom_sum_perturbed", None),
    ("toeplimit.widom", "q_hat", "widom.q_hat", None),
    ("toeplimit.widom", "q_perturbed", "widom.q_perturbed", None),
    ("toeplimit.widom", "q_tilde", "widom.q_tilde", None),
    ("toeplimit.operators", "finite_spectrum", "operators.finite_spectrum", None),
    ("toeplimit.operators", "charpoly_direct", "operators.charpoly_direct", None),
    ("toeplimit.asymptotics", "genericity_check", "asymptotics.genericity_check",
     None),
    ("toeplimit.cli", "load_config", "cli.load_config", None),
    ("toeplimit.cli", "ArtifactWriter.write", "cli.artifact_write", _count_bytes),
    ("toeplimit.cli", "ArtifactWriter.finish", "cli.artifact_finish",
     _count_bytes),
)

# Per-layer metric -> (kind, span names or counter). "s" is self seconds,
# "calls" the number of spans; both per traced pass.
LAYER_METRICS = {
    "limitsets.sigma_r.s": ("s", ["limitsets.sigma_r"]),
    "limitsets.lambda.s": ("s", ["limitsets.lambda_open", "limitsets.lambda_r"]),
    "limitsets.scan_grid.s": ("s", ["limitsets.scan_grid"]),
    "limitsets.outliers.s": ("s", ["limitsets.outliers_open",
                                   "limitsets.outliers_perturbed"]),
    "limitsets.refine_zero.calls": ("calls", ["limitsets.refine_zero"]),
    "limitsets.refine_zero.s": ("s", ["limitsets.refine_zero"]),
    "limitsets.refine_zero.converged": ("count", "limitsets.refine_zero.converged"),
    "transfer.transfer_matrix.calls": ("calls", ["transfer.transfer_matrix"]),
    "transfer.transfer_matrix.s": ("s", ["transfer.transfer_matrix"]),
    "transfer.ordered_spectrum.calls": ("calls", ["transfer.ordered_spectrum"]),
    "transfer.ordered_spectrum.s": ("s", ["transfer.ordered_spectrum"]),
    "numkernel.inverse.calls": ("calls", ["numkernel.inverse"]),
    "numkernel.eigenpairs.calls": ("calls", ["numkernel.eigenpairs"]),
    "numkernel.eigenpairs.s": ("s", ["numkernel.eigenpairs"]),
    "widom.widom_sum.calls": ("calls", ["widom.widom_sum_open",
                                        "widom.widom_sum_perturbed"]),
    "widom.widom_sum.s": ("s", ["widom.widom_sum_open",
                                "widom.widom_sum_perturbed"]),
    "widom.q.calls": ("calls", ["widom.q_hat", "widom.q_perturbed",
                                "widom.q_tilde"]),
    "operators.finite_spectrum.s": ("s", ["operators.finite_spectrum"]),
    "operators.charpoly_direct.s": ("s", ["operators.charpoly_direct"]),
    "asymptotics.genericity_check.s": ("s", ["asymptotics.genericity_check"]),
    "cli.load_config.s": ("s", ["cli.load_config"]),
    "cli.artifact.s": ("s", ["cli.artifact_write", "cli.artifact_finish"]),
    "cli.artifact.bytes": ("count", "cli.artifact.bytes"),
    "limitsets.arcs.count": ("count", "limitsets.arcs.count"),
    "limitsets.arcs.points": ("count", "limitsets.arcs.points"),
    "limitsets.outliers.count": ("count", "limitsets.outliers.count"),
}


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.item: Optional[str] = None
        self._local = threading.local()
        self._ids = itertools.count()

    def _stack(self) -> List[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn: Callable, hook=None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
                tracer.spans.append(Span(sid, name, start, end, parent,
                                         tracer.item))
            if hook is not None:
                hook(tracer, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every TARGETS function for the duration of the block."""
        restore = []
        try:
            for module_name, attr, name, hook in TARGETS:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    setattr(cls, meth, self.wrap(name, orig, hook))
                    restore.append((cls, meth, orig))
                    continue
                orig = getattr(module, attr)
                wrapper = self.wrap(name, orig, hook)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "toeplimit" and not mod_name.startswith("toeplimit."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                            restore.append((mod, key, orig))
            yield self
        finally:
            for owner, key, orig in reversed(restore):
                setattr(owner, key, orig)

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: Dict[int, List[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent is not None:
                children[s.parent].append(s)
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.id] = (s.end - s.start) - covered
        return out

    def layer_metrics(self, passes: int) -> Dict[str, float]:
        """Every LAYER_METRICS entry per traced pass, plus seed_yield
        (accepted outliers per refine_zero call)."""
        self_s = self.self_times()
        seconds: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for s in self.spans:
            seconds[s.name] += self_s[s.id]
            calls[s.name] += 1
        out = {}
        for metric, (kind, source) in LAYER_METRICS.items():
            if kind == "s":
                value = sum(seconds[n] for n in source)
            elif kind == "calls":
                value = sum(calls[n] for n in source)
            else:
                value = self.counters[source]
            out[metric] = value / passes
        refines = calls["limitsets.refine_zero"]
        out["limitsets.seed_yield"] = (
            self.counters["limitsets.outliers.accepted"] / refines
            if refines else 0.0)
        return out

    def span_names(self) -> List[str]:
        return sorted({s.name for s in self.spans})

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": list(Span.__dataclass_fields__),
                       "spans": [list(asdict(s).values()) for s in self.spans]},
                      fh, separators=(",", ":"))
