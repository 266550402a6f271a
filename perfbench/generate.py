"""Seeded inputs for the benchmark workloads: a claim CSV and a run config.

Each workload is a collection of N congruent S x S claim rectangles drawn
from the multiplicative shock model the package fits,

    ln X[n,i,j] = level_n + row_n[i] + col_n[j] + ln U[p(i,j)] + ln Z[n,i,j],

with ``ln U`` shared across arrays within each subset of the workload's
partition and ``ln Z`` white noise. The config fits the upper triangle
(``t_max = S``); the lower triangle is held out, as in the bundled data.
Only NumPy is used, so the program under test sees nothing but the files.
The same (workload, seed) always gives byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

SHOCK_SD = 0.089  # sd of ln U, about the bundled data's estimate
IDIO_SD = 0.124  # sd of ln Z

CSV_NAME = "claims.csv"
CONFIG_NAME = "run.cfg"


@dataclass(frozen=True)
class Workload:
    name: str
    n_arrays: int
    size: int  # S: the grid is S x S and the fitted triangle has S(S+1)/2 cells
    partition: str
    covariance: str
    init_omega: tuple = ()  # empty: the CLI default
    datasets: int = 1  # inputs per seed; a run's repetitions cycle through them
    why: str = ""

    @property
    def n_obs(self) -> int:
        return self.n_arrays * self.size * (self.size + 1) // 2

    def resized(self, size: int) -> "Workload":
        """The same model on another triangle size (for the scaling ladder)."""
        return replace(self, size=size)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "closed_form_large", 2, 50, "cell", "cellwise_two_level",
            why="dense-n closed-form path: a few big Sigma factorisations, "
                "large design and forecast, no iterative solver",
        ),
        Workload(
            "generic_small", 2, 15, "cell", "diagonal_scalar", (0.01, 0.01),
            why="generic ML solver on the closed form's model: hundreds of "
                "small profile-score evaluations",
        ),
        # the solver's work here still depends on the data (80 to 128 score
        # evaluations over 24 inputs), so each run fits many inputs. Runnable
        # by name and in --workload all, but not declared in BENCHMARK.json:
        # a third workload would cut every run short of the length the shared
        # host needs for steady times (see README.md)
        Workload(
            "calendar_n4", 4, 10, "diagonal", "diagonal_scalar", datasets=64,
            why="N = 4 with calendar shocks shared across arrays: generic "
                "solver with a non-identity cell-side shock matrix",
        ),
    )
}


def _subset_key(partition: str, i: int, j: int):
    if partition == "cell":
        return i, j
    if partition == "diagonal":
        return i + j - 1
    raise ValueError(f"unsupported partition {partition!r}")


def chain_ladder_basis(size: int) -> np.ndarray:
    """Orthonormal basis of one array's chain-ladder design on the triangle.

    The design has an indicator per accident row 2..S and per development
    column 1..S, over the fitted cells in row-major order.
    """
    cells = [(i, j) for i in range(size) for j in range(size) if i + j < size]
    C = np.zeros((len(cells), 2 * size - 1))
    for k, (i, j) in enumerate(cells):
        if i > 0:
            C[k, i - 1] = 1.0
        C[k, size - 1 + j] = 1.0
    q, _ = np.linalg.qr(C)
    return q


def _residual_space_draws(rng, basis: np.ndarray, sds) -> np.ndarray:
    """One draw per sd, orthogonal to ``basis`` and to each other.

    Each draw has squared norm (cells - basis columns) * sd^2 exactly.
    """
    z = rng.standard_normal((basis.shape[0], len(sds)))
    z -= basis @ (basis.T @ z)
    q, _ = np.linalg.qr(z)
    q -= basis @ (basis.T @ q)
    dof = basis.shape[0] - basis.shape[1]
    return q * (np.sqrt(dof) * np.asarray(sds))


def _fitted_draws(rng, subsets: np.ndarray, size: int, n_arrays: int):
    """Shock (one value per subset) and per-array noise on the fitted cells.

    The design's span absorbs part of any shock, and the fitted residuals see
    only the rest. The shock is scaled so that this rest has exactly its
    expected energy, SHOCK_SD^2 tr(R^T R), with R the subset indicators with
    the design projected out. The noise is drawn orthogonal to the design,
    to that rest and across arrays, with exact norms. Under the cell
    partition this fixes the sufficient statistics of the likelihood for
    every seed. Under the diagonal partition it removes most of the
    input-to-input spread in the solver's work.
    """
    basis = chain_ladder_basis(size)
    A0 = (subsets[:, None] == np.unique(subsets)[None, :]).astype(float)
    R = A0 - basis @ (basis.T @ A0)
    u = rng.standard_normal(A0.shape[1])
    u *= SHOCK_SD * np.sqrt(np.sum(R * R) / np.sum((R @ u) ** 2))
    rest = R @ u
    noise = _residual_space_draws(
        rng, np.hstack([basis, rest[:, None] / np.linalg.norm(rest)]), [IDIO_SD] * n_arrays
    )
    return A0 @ u, noise.T


def log_claims(workload: Workload, seed: int, index: int = 0) -> np.ndarray:
    """Log claim values, shape (N, S, S), of input ``index`` of the seed.

    The fitted triangle's shock and noise come from ``_fitted_draws``; the
    held-out cells get plain normal draws.
    """
    rng = np.random.default_rng([seed, index, workload.n_arrays, workload.size])
    N, S = workload.n_arrays, workload.size
    i = np.arange(1, S + 1)
    out = np.empty((N, S, S))
    for n in range(N):
        level = 6.0 + 0.8 * n + rng.normal(0.0, 0.1)
        row = np.concatenate([[0.0], np.cumsum(rng.normal(0.03, 0.05, S - 1))])
        # development curve: rises, peaks around j = 3..5, then decays
        a = 1.5 + 0.3 * rng.random()
        b = 0.35 + 0.1 * rng.random()
        col = a * np.log(i) - b * (i - 1) + rng.normal(0.0, 0.05, S)
        out[n] = level + row[:, None] + col[None, :]

    keys = {}
    subset = np.empty((S, S), dtype=int)
    for r in range(S):
        for c in range(S):
            subset[r, c] = keys.setdefault(_subset_key(workload.partition, r + 1, c + 1), len(keys))
    shock = rng.normal(0.0, SHOCK_SD, len(keys))[subset]
    noise = rng.normal(0.0, IDIO_SD, out.shape)
    fitted = np.add.outer(np.arange(S), np.arange(S)) < S  # row-major, as the design
    shock[fitted], noise[:, fitted] = _fitted_draws(rng, subset[fitted], S, N)
    return out + shock[None, :, :] + noise


def claims_csv(workload: Workload, seed: int, index: int = 0) -> str:
    logs = log_claims(workload, seed, index)
    lines = ["array,accident,development,value"]
    N, S = workload.n_arrays, workload.size
    for n in range(N):
        for i in range(S):
            for j in range(S):
                lines.append(f"{n + 1},{i + 1},{j + 1},{float(np.exp(logs[n, i, j]))!r}")
    return "\n".join(lines) + "\n"


def config_text(workload: Workload) -> str:
    lines = [
        f"# benchmark workload {workload.name}",
        f"data = {CSV_NAME}",
        f"t_max = {workload.size}",
        f"partition = {workload.partition}",
        f"covariance = {workload.covariance}",
    ]
    if workload.init_omega:
        lines.append("init_omega = " + ", ".join(repr(float(v)) for v in workload.init_omega))
    return "\n".join(lines) + "\n"


def write_inputs(workload: Workload, seed: int, directory, index: int = 0) -> Path:
    """Write the claim CSV and config into ``directory``; return the config path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / CSV_NAME).write_text(claims_csv(workload, seed, index), encoding="utf-8")
    cfg = directory / CONFIG_NAME
    cfg.write_text(config_text(workload), encoding="utf-8")
    return cfg
