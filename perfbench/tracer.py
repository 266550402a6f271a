"""Spans around the calls the CLI makes into each module, from outside ``src/``.

A ``Tracer`` replaces public names in the modules that look them up (for
instance ``commonshock.estimation.profile_score``, which the generic solver
calls through its module globals) with wrappers that record a span per call:
name, start, end, parent and a few attributes read off the result. Spans stay
in memory until the caller writes them out. ``uninstall`` puts every original
object back, so the program runs untouched outside a traced block.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


def _sigma_attrs(model):
    return {"n": int(model.n)}


def _design_attrs(design):
    return {"n_obs": int(design.n_obs), "m_cols": int(design.M.shape[1])}


def _solver_attrs(fit):
    return {"cycles": int(fit.n_iter)}


def _forecast_attrs(fd):
    return {"n_future": int(fd.m_star.shape[0])}


# (module, attribute looked up by the caller, span name, attributes of the result)
TARGETS = (
    ("commonshock.cli", "read_claims_csv", "cli.read_claims_csv", None),
    ("commonshock.arrays", "ClaimCollection.restrict_to_diagonals", "arrays.restrict", None),
    ("commonshock.cli", "stack_log", "arrays.stack_log", None),
    ("commonshock.cli", "build_partition", "partitions.build_partition", None),
    ("commonshock.design", "build_partition", "partitions.build_partition", None),
    ("commonshock.cli", "assemble", "design.assemble", _design_attrs),
    ("commonshock.design", "reduce_columns", "design.reduce_columns", None),
    ("commonshock.cli", "SigmaModel", "covariance.sigma_model", _sigma_attrs),
    ("commonshock.estimation", "SigmaModel", "covariance.sigma_model", _sigma_attrs),
    ("commonshock.cli", "gls_fit", "estimation.gls_fit", None),
    ("commonshock.estimation", "gls_fit", "estimation.gls_fit", None),
    ("commonshock.estimation", "profile_score", "estimation.profile_score", None),
    ("commonshock.cli", "ml_dispersion_generic", "estimation.dispersion", _solver_attrs),
    ("commonshock.cli", "ml_dispersion_cellwise", "estimation.dispersion", None),
    ("commonshock.cli", "build_forecast_design", "forecast.build_forecast_design", _forecast_attrs),
    ("commonshock.cli", "predict", "forecast.predict", None),
    ("commonshock.forecast", "raw_mean", "lognormal.moment_map", None),
    ("commonshock.forecast", "raw_cov", "lognormal.moment_map", None),
)

ROOT = "cli.main"
# per-layer metrics derived from sizes rather than measured
COMPUTED = ("covariance.factor_flops", "covariance.sigma_bytes")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list = []

    @contextmanager
    def span(self, name: str):
        sp = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                  time.perf_counter())
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, target, attrs=None):
        """A traced stand-in for a function or class, transparent to callers."""
        tracer = self
        if isinstance(target, type):
            class Traced(target):
                def __init__(self, *args, **kwargs):
                    with tracer.span(name) as sp:
                        super().__init__(*args, **kwargs)
                        if attrs is not None:
                            sp.attrs.update(attrs(self))

            Traced.__name__ = target.__name__
            Traced.__qualname__ = target.__qualname__
            Traced.__module__ = target.__module__
            return Traced

        @functools.wraps(target)
        def traced(*args, **kwargs):
            with tracer.span(name) as sp:
                result = target(*args, **kwargs)
                if attrs is not None:
                    sp.attrs.update(attrs(result))
                return result

        return traced

    def install(self, targets=TARGETS) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, name, attrs in targets:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(name, original, attrs))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps({"id": sp.id, "name": sp.name, "parent": sp.parent,
                                     "start": sp.start, "end": sp.end, "attrs": sp.attrs}) + "\n")


def span_table(spans) -> dict:
    """Per span name: call count, total (inclusive) and self seconds.

    Self time is a span's duration minus its direct children's; spans of one
    thread nest, so the children never overlap.
    """
    child_time = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            child_time[sp.parent] += sp.duration
    table = {}
    for sp in spans:
        row = table.setdefault(sp.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += sp.duration
        row["self_s"] += sp.duration - child_time[sp.id]
    return table


def command_spans(spans, root_id: int) -> list:
    """The spans of one command: the root span and everything under it."""
    keep = {root_id}
    out = []
    for sp in spans:  # parents are recorded before their children
        if sp.id == root_id or sp.parent in keep:
            keep.add(sp.id)
            out.append(sp)
    return out


def _sum_attr(spans, name, key) -> float:
    return float(sum(sp.attrs.get(key, 0) for sp in spans if sp.name == name))


def layer_metrics(fit_spans, forecast_spans) -> dict:
    """Per-layer metrics of one ``fit`` and one ``forecast`` command.

    Modules on the fit path are read from the fit command; ``forecast`` and
    ``lognormal`` from the forecast command, whose own refit they do not
    include. ``*_s`` values are inclusive seconds, except ``cli.self_s``.
    """
    fit, fc = span_table(fit_spans), span_table(forecast_spans)

    def total(table, name):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(table, name):
        return float(table.get(name, {}).get("calls", 0))

    sigma_sizes = [sp.attrs["n"] for sp in fit_spans if sp.name == "covariance.sigma_model"]
    assembled = [sp for sp in fit_spans if sp.name == "design.assemble"]
    return {
        "estimation.profile_score_calls": (calls(fit, "estimation.profile_score"), "count"),
        "estimation.solver_cycles": (_sum_attr(fit_spans, "estimation.dispersion", "cycles"), "count"),
        "estimation.profile_score_s": (total(fit, "estimation.profile_score"), "s"),
        "estimation.dispersion_s": (total(fit, "estimation.dispersion"), "s"),
        "estimation.gls_fit_calls": (calls(fit, "estimation.gls_fit"), "count"),
        "estimation.gls_fit_s": (total(fit, "estimation.gls_fit"), "s"),
        "covariance.sigma_model_calls": (calls(fit, "covariance.sigma_model"), "count"),
        "covariance.sigma_model_s": (total(fit, "covariance.sigma_model"), "s"),
        # COMPUTED: Cholesky flops over the fit, and the bytes of its largest Sigma
        "covariance.factor_flops": (float(sum(n**3 / 3.0 for n in sigma_sizes)), "flop"),
        "covariance.sigma_bytes": (float(max(sigma_sizes, default=0) ** 2 * 8), "B"),
        "design.assemble_s": (total(fit, "design.assemble"), "s"),
        "design.reduce_columns_s": (total(fit, "design.reduce_columns"), "s"),
        "design.n_obs": (float(assembled[0].attrs["n_obs"]) if assembled else 0.0, "count"),
        "design.m_cols": (float(assembled[0].attrs["m_cols"]) if assembled else 0.0, "count"),
        "forecast.build_forecast_design_s": (total(fc, "forecast.build_forecast_design"), "s"),
        "forecast.predict_s": (total(fc, "forecast.predict"), "s"),
        "forecast.n_future": (_sum_attr(forecast_spans, "forecast.build_forecast_design", "n_future"), "count"),
        "lognormal.moment_map_s": (total(fc, "lognormal.moment_map"), "s"),
        "cli.read_claims_csv_s": (total(fit, "cli.read_claims_csv"), "s"),
        "cli.self_s": (fit.get(ROOT, {}).get("self_s", 0.0), "s"),
        "arrays.restrict_s": (total(fit, "arrays.restrict"), "s"),
        "arrays.stack_log_s": (total(fit, "arrays.stack_log"), "s"),
        "partitions.build_partition_s": (total(fit, "partitions.build_partition"), "s"),
    }

