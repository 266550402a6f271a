"""Correctness gate for the reports of ``commonshock fit`` and ``forecast``.

The model is rebuilt from the generated files through the package's public
API, independently of the CLI's own assembly, and every reported dispersion
estimate is put back into the public ``profile_score``. A report passes only
if it satisfies the solver's convergence rule there.
"""

from __future__ import annotations

import math

import numpy as np

from commonshock.arrays import stack_log
from commonshock.cli import read_claims_csv
from commonshock.covariance import CellwiseTwoLevel, DiagonalScalar
from commonshock.design import ShockSpec, assemble
from commonshock.estimation import ml_dispersion_cellwise, profile_score
from commonshock.partitions import build_partition

from generate import CSV_NAME, Workload

SOLVER_TOL = 1e-9  # the CLI's default ``tol``, which the generated configs keep
# Allowed |score_k| at an interior estimate. The generic solver stops below
# SOLVER_TOL itself; the closed form solves the score equations analytically,
# so its score is zero up to rounding in sums of ~n terms of size n / omega.
# 1e3 * SOLVER_TOL is the 1e-6 of acceptance criterion 2.
SCORE_TOL = 1e3 * SOLVER_TOL
# generic_small fits the closed form's model with the generic solver; the
# two must agree as in acceptance criterion 2
CLOSED_FORM_RTOL = 1e-8


class Model:
    """The workload's model on the fitted triangle, built once per input."""

    def __init__(self, workload: Workload, directory):
        full = read_claims_csv([f"{directory}/{CSV_NAME}"])
        coll = full.restrict_to_diagonals(workload.size)
        layout = coll.layout
        shock = ShockSpec(
            partition=build_partition(workload.partition, layout),
            include_across=True,
            shared_across_mean=True,
        )
        self.workload = workload
        self.design = assemble(layout, shock, "chain_ladder")
        self.y = stack_log(coll)
        if workload.covariance == "cellwise_two_level":
            self.structure = CellwiseTwoLevel(layout.n_arrays, layout.cells_per_array)
        else:
            self.structure = DiagonalScalar(self.design.A)
        self._closed_form = None

    def closed_form_omega(self) -> np.ndarray:
        if self._closed_form is None:
            self._closed_form = ml_dispersion_cellwise(self.y, self.design).omega_hat
        return self._closed_form


def _finite_positive(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) and v > 0 for v in values)


def check_fit(model: Model, report: dict) -> list:
    """Problems with one fit report; an empty list means it passed."""
    disp = report.get("dispersion", {})
    names = model.structure.omega_names
    if sorted(disp) != sorted(names):
        return [f"dispersion keys {sorted(disp)} != {sorted(names)}"]
    omega = np.array([disp[k] for k in names], dtype=float)
    if not np.all(np.isfinite(omega)) or np.any(omega < 0):
        return [f"dispersion estimate {omega.tolist()} is not finite and non-negative"]
    problems = []
    if not math.isfinite(report.get("loglik", math.nan)):
        problems.append("log-likelihood is not finite")
    score = profile_score(model.y, model.design, model.structure, omega)
    for name, w, s in zip(names, omega, score):
        if w == 0.0:
            if s > 0.0:
                problems.append(f"{name} = 0 but the score {s:.3g} points inward")
        elif abs(s) >= SCORE_TOL:
            problems.append(f"score for {name} is {s:.3g} (limit {SCORE_TOL:g})")
    if model.workload.name == "generic_small":
        ref = model.closed_form_omega()
        rel = np.abs(omega - ref) / np.abs(ref)
        if np.any(rel > CLOSED_FORM_RTOL):
            problems.append(
                f"generic estimate {omega.tolist()} differs from the closed form "
                f"{ref.tolist()} by {rel.max():.3g} relative (limit {CLOSED_FORM_RTOL:g})"
            )
    return problems


def check_forecast(model: Model, report: dict) -> list:
    """Problems with one forecast report; an empty list means it passed."""
    n_arrays = model.workload.n_arrays
    reserves = report.get("reserves", [])
    ses = report.get("std_errors", [])
    problems = []
    if len(reserves) != n_arrays or len(ses) != n_arrays:
        problems.append(f"expected {n_arrays} reserves and standard errors")
    values = reserves + ses + [report.get("reserve_total"), report.get("std_error_total")]
    if not _finite_positive(values):
        problems.append(f"reserves or standard errors not finite and positive: {values}")
    elif not math.isclose(sum(reserves), report["reserve_total"], rel_tol=1e-9):
        problems.append("reserve total is not the sum of the per-array reserves")
    return problems
