"""Command-line surface: data ingestion, configuration, and reports.

Commands: fit, forecast, simulate, inspect. Configuration is a flat
key = value file (see README for the key reference); claim data travels in
CSV files with header ``array,accident,development,value``. Reports are
written twice, as a readable text table and as JSON with the same content.
Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np

from .arrays import ArrayLayout, ClaimCollection, diagonal_of, future_cells, stack_log
# SigmaModel, gls_fit and ml_dispersion_cellwise are unused here but stay
# module attributes: perfbench/tracer.py wraps this module's names
from .covariance import STRUCTURE_KINDS, SigmaModel, structure_for  # noqa: F401
from .design import IDIO_VARIANTS, ShockSpec, assemble, frame_times
from .errors import CommonShockError, ConfigError, DataError, DesignError, NumericalError
from .estimation import (  # noqa: F401
    MAX_ITER,
    SCORE_TOL,
    chain_ladder_effect_table,
    dependence_stats,
    gls_fit,
    ml_dispersion_cellwise,
    ml_dispersion_generic,
)
from .forecast import (
    build_forecast_design,
    independence_counterfactual_cov,
    predict,
    reserve_correlation,
)
from .partitions import PARTITION_KINDS, build_partition
from .simulate import ROUNDING_MODES, SimSpec, simulate

CSV_HEADER = ("array", "accident", "development", "value")

_KNOWN_KEYS = {
    "data", "t_max", "partition", "design", "covariance",
    "sigma2", "tau2", "v2",
    "include_across_shock", "include_within_shock", "shared_shock_mean",
    "tol", "max_iter", "init_omega", "out", "seed",
    "n_arrays", "n_rows", "n_cols", "mask",
    "shock_mean_log", "shock_sd", "idio_sd", "rounding",
}
# per-array keys, arrays numbered from 1
_ARRAY_KEY = re.compile(r"(row_effects|col_effects|tau2|v2)_[1-9][0-9]*")
# keys that fix or free a variance component
_VARIANCE_KEY = re.compile(r"sigma2|(tau2|v2)(_[1-9][0-9]*)?")


# ---------------------------------------------------------------------------
# claim CSV
# ---------------------------------------------------------------------------

def read_claims_csv(paths) -> ClaimCollection:
    """Read one collection from one or more claim CSV files.

    Each file's header line is checked and its rows are parsed in bulk, and
    the index ranges and duplicate cells are checked over all files at once.
    When any of that fails, every file goes through ``_read_claim_lines``,
    the line-by-line parser, so that each data error names its file and line.
    The congruence check, the mask and the value grid are then built with
    array indexing.
    """
    paths = list(paths)
    rows = _read_claim_rows_bulk(paths)
    collection = None if rows is None else _collection_from_rows(*rows)
    if collection is None:
        collection = _collection_from_rows(*_read_claim_lines(paths))
    return collection


def _is_header(line: str) -> bool:
    return tuple(f.strip().lower() for f in line.strip().split(",")) == CSV_HEADER


# a CSV row: array, accident and development indices and the claim value
_CSV_ROW = np.dtype([("n", np.int64), ("i", np.int64), ("j", np.int64), ("value", np.float64)])


def _read_claim_rows_bulk(paths):
    """(array, accident, development, value) columns of all files, or None.

    None when a file is missing, its first line is not the header, or
    ``np.loadtxt`` rejects a row or finds none; the line parser then reports
    the fault. ``loadtxt`` parses numbers as ``float`` and ``int`` do, but
    accepts less (no "1.0" or "1_0" as an index, no "#" comments), so a file
    it takes gives the line parser's values to the bit. Both skip a UTF-8
    byte-order mark, which Excel's "CSV UTF-8" writes.
    """
    import warnings

    columns = []
    for path in paths:
        p = Path(path)
        if not p.exists():
            return None
        try:
            with open(p, encoding="utf-8-sig") as fh:
                if not _is_header(fh.readline()):
                    return None
                # warnings as errors: loadtxt warns on a file with no rows, and
                # numpy before 2.0 warns where it reads "1.0" as an index
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    data = np.loadtxt(fh, delimiter=",", dtype=_CSV_ROW, comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
        if data.size == 0:
            return None
        columns.append(data)
    data = np.concatenate(columns)
    return data["n"], data["i"], data["j"], data["value"]


def _read_claim_lines(paths):
    """(array, accident, development, value) columns, parsed line by line.

    Every data error names its file and line; a missing array id, the next id's first.
    """
    seen = set()  # (array, i, j) of the rows read so far
    first_line = {}  # array id -> "file:line" of its first row
    rows_read, values_read = [], []
    for path in paths:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"data file does not exist: {p}")
        rows = 0
        with open(p, encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                parts = [f.strip() for f in line.split(",")]
                if lineno == 1:
                    if not _is_header(line):
                        raise DataError(
                            f"{p}:{lineno}: expected header "
                            f"'{','.join(CSV_HEADER)}', got {line!r}"
                        )
                    continue
                if len(parts) != 4:
                    raise DataError(f"{p}:{lineno}: expected 4 fields, got {len(parts)}")
                try:
                    key = int(parts[0]), int(parts[1]), int(parts[2])
                    value = float(parts[3])
                except ValueError as exc:
                    raise DataError(f"{p}:{lineno}: {exc}") from None
                n, i, j = key
                if n < 1:
                    raise DataError(f"{p}:{lineno}: array ids start at 1")
                if i < 1 or j < 1:
                    raise DataError(
                        f"{p}:{lineno}: accident and development indices start at 1"
                    )
                if key in seen:
                    raise DataError(f"{p}:{lineno}: duplicate cell (array {n}, {i}, {j})")
                seen.add(key)
                first_line.setdefault(n, f"{p}:{lineno}")
                rows_read.append(key)
                values_read.append(value)
                rows += 1
        if rows == 0:
            raise DataError(f"{p}: no data rows")
    for k, n in enumerate(sorted(first_line), start=1):
        if n != k:  # ids 1 to k - 1 are there, k is not
            raise DataError(
                f"{first_line[n]}: array {n} with no array {k}: "
                "array ids run from 1 to the number of arrays"
            )
    n, i, j = np.array(rows_read, dtype=np.int64).reshape(-1, 3).T
    return n, i, j, np.array(values_read)


def _collection_from_rows(n, i, j, values):
    """The collection of the parsed rows; None on an index below 1, array
    ids other than 1..N, or a duplicate cell.

    Raises DataError when the arrays do not cover the same cells.
    """
    if n.min() < 1 or i.min() < 1 or j.min() < 1:
        return None
    # rows sorted by array, then cell: each array's cells are one slice
    order = np.lexsort((j, i, n))
    n, i, j = n[order], i[order], j[order]
    if np.any((n[1:] == n[:-1]) & (i[1:] == i[:-1]) & (j[1:] == j[:-1])):
        return None
    array_ids, first, counts = np.unique(n, return_index=True, return_counts=True)
    if array_ids[-1] != array_ids.size:
        return None
    common = slice(0, counts[0])
    for a, start, count in zip(array_ids[1:], first[1:], counts[1:]):
        other = slice(start, start + count)
        if count != counts[0] or not (
            np.array_equal(i[other], i[common]) and np.array_equal(j[other], j[common])
        ):
            raise DataError(
                f"arrays are not congruent: array {a} covers different cells "
                f"than array {array_ids[0]}"
            )
    n_rows, n_cols = int(i[common].max()), int(j[common].max())
    mask = np.zeros((n_rows, n_cols), dtype=bool)
    mask[i[common] - 1, j[common] - 1] = True
    grid = np.full((array_ids.size, n_rows, n_cols), np.nan)
    arrays = np.repeat(np.arange(array_ids.size), counts)
    grid[arrays, i - 1, j - 1] = values[order]
    return ClaimCollection(ArrayLayout(array_ids.size, n_rows, n_cols, mask), grid)


def write_claims_csv(path, collection: ClaimCollection) -> None:
    lines = [",".join(CSV_HEADER)]
    lay = collection.layout
    for n in range(1, lay.n_arrays + 1):
        for (i, j) in lay.stacking_order:
            v = collection.value(n, i, j)
            text = str(int(v)) if float(v).is_integer() else repr(float(v))
            lines.append(f"{n},{i},{j},{text}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def parse_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file does not exist: {p}")
    cfg, lines = {}, {}
    for lineno, line in enumerate(p.read_text(encoding="utf-8-sig").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{p}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KNOWN_KEYS and not _ARRAY_KEY.fullmatch(key):
            raise ConfigError(f"{p}:{lineno}: unknown key {key!r}")
        if key in cfg:
            raise ConfigError(f"{p}:{lineno}: key {key!r} is already set on line {lines[key]}")
        cfg[key], lines[key] = value.strip(), lineno
    return cfg


def _get_bool(cfg, key, default):
    raw = cfg.get(key)
    if raw is None:
        return default
    low = raw.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"{key} must be true or false, got {raw!r}")


def _get_float(cfg, key, default=None):
    raw = cfg.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {raw!r}") from None


def _get_int(cfg, key, default=None):
    raw = cfg.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from None


def _get_list(cfg, key):
    raw = cfg.get(key)
    if raw is None:
        raise ConfigError(f"missing required key {key!r}")
    try:
        return [float(f.strip()) for f in raw.split(",") if f.strip()]
    except ValueError:
        raise ConfigError(f"{key} must be a comma-separated list of numbers") from None


def _get_choice(cfg, key, choices, default):
    raw = cfg.get(key, default)
    if raw not in choices:
        raise ConfigError(
            f"{key} must be one of: {', '.join(choices)}; got {raw!r}"
        )
    return raw


# ---------------------------------------------------------------------------
# model assembly from config
# ---------------------------------------------------------------------------

def _load_collection(cfg) -> ClaimCollection:
    raw = cfg.get("data")
    if not raw:
        raise ConfigError("missing required key 'data'")
    paths = [f.strip() for f in raw.split(",") if f.strip()]
    return read_claims_csv(paths)


def _build_model(cfg):
    """Load the data and assemble the design, as every model command does.

    Returns (full_collection, fit_collection, t_max, design); the partition
    and shock specification travel on ``design.shock``.
    """
    full = _load_collection(cfg)
    rows, cols = np.nonzero(full.layout.mask)
    observed_tmax = int(diagonal_of(rows + 1, cols + 1).max())
    t_max = _get_int(cfg, "t_max", observed_tmax)
    if not 1 <= t_max <= observed_tmax:
        # past the last observed diagonal, the cells between it and t_max
        # would be neither fitted nor forecast
        raise ConfigError(f"t_max must be between 1 and {observed_tmax}, got {t_max}")
    fit_coll = full.restrict_to_diagonals(t_max) if t_max < observed_tmax else full

    kind = _get_choice(cfg, "partition", PARTITION_KINDS, "cell")
    variant = _get_choice(cfg, "design", IDIO_VARIANTS, "chain_ladder")
    shock = ShockSpec(
        partition=build_partition(kind, fit_coll.layout),
        include_across=_get_bool(cfg, "include_across_shock", True),
        include_within=_get_bool(cfg, "include_within_shock", False),
        shared_across_mean=_get_bool(cfg, "shared_shock_mean", True),
    )
    return full, fit_coll, t_max, assemble(fit_coll.layout, shock, variant)


def _fit_from_config(cfg):
    """Shared fit pipeline for the fit and forecast commands: one call of
    the ML entry, whether every variance component is given, some are, or
    none.

    Returns (fit, free, full_collection, fit_collection, t_max), ``free``
    marking the components estimated.
    """
    full, fit_coll, t_max, design = _build_model(cfg)
    layout = design.layout
    y = stack_log(fit_coll)

    kind = _get_choice(cfg, "covariance", STRUCTURE_KINDS, "cellwise_two_level")
    structure = structure_for(
        kind, layout.n_arrays, layout.cells_per_array, lambda: design.A, lambda: design.B
    )

    names = structure.omega_names
    # a per-array component's base key (tau2 of tau2_1) sets every array's
    bases = [n.rsplit("_", 1)[0] if n.rsplit("_", 1)[-1].isdigit() else n for n in names]
    for key in cfg:
        if _VARIANCE_KEY.fullmatch(key) and key not in names and key not in bases:
            raise ConfigError(
                f"{key} names no variance component of {kind}, whose components are "
                f"{', '.join(names)}"
            )
    values = []  # None for a component to estimate, and to start where the solver picks
    for name, base in zip(names, bases):
        raw = cfg.get(name, cfg.get(base, "estimate"))
        try:
            values.append(None if raw == "estimate" else float(raw))
        except ValueError:
            raise ConfigError(f"{name} must be 'estimate' or a number") from None
    free = [v is None for v in values]
    start = _get_list(cfg, "init_omega") if "init_omega" in cfg else values
    if len(start) == len(values):  # else the solver names the size it needs
        # a given component starts, and is held, at its value
        start = [w if v is None else v for w, v in zip(start, values)]
    fit = ml_dispersion_generic(
        y, design, structure, start, tol=_get_float(cfg, "tol", SCORE_TOL),
        max_iter=_get_int(cfg, "max_iter", MAX_ITER), free_mask=free,
    )
    return fit, free, full, fit_coll, t_max


def _extended_residuals(fit, full: ClaimCollection):
    """(d, True): residuals over every data cell, one row per array, in the
    full layout's stacking order, the fit's own on the fitted cells and the
    data less their fitted means beyond the fit region, whose design rows
    alone are applied, by blocks; or (the fit's own residuals, False)
    where a later cell's mean is not estimable."""
    cells = full.layout.stacking_order
    fitted = fit.design.layout.mask[tuple(np.array(cells).T - 1)]
    d = stack_log(full).reshape(full.layout.n_arrays, -1)
    d[:, fitted] = fit.residual.reshape(full.layout.n_arrays, -1)
    later = [cell for cell, f in zip(cells, fitted) if not f]
    if later:
        try:
            blocks = fit.design.blocks_for_cells(later)
        except DesignError:
            return d[:, fitted], False
        d[:, ~fitted] -= frame_times(*blocks, fit.kappa_hat, len(d)).reshape(len(d), -1)
    return d, True


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def _sig4(x) -> str:
    if x is None:
        return "-"
    if x == 0:
        return "0"
    return f"{x:.4g}"


def _write_report(out_prefix, text: str, payload: dict) -> None:
    prefix = Path(out_prefix)
    if prefix.parent != Path("."):
        prefix.parent.mkdir(parents=True, exist_ok=True)
    Path(f"{prefix}.txt").write_text(text, encoding="utf-8")
    Path(f"{prefix}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_fit(cfg, out_prefix) -> dict:
    fit, free, full, fit_coll, t_max = _fit_from_config(cfg)
    lay = fit.design.layout

    payload = {
        "n_arrays": lay.n_arrays,
        "grid": [lay.n_rows, lay.n_cols],
        "fitted_cells_per_array": lay.cells_per_array,
        "t_max": t_max,
        "loglik": fit.loglik,
    }
    lines = ["Fit report", "==========",
             f"arrays: {lay.n_arrays}   grid: {lay.n_rows} x {lay.n_cols}   "
             f"fitted cells per array: {lay.cells_per_array}   t_max: {t_max}", ""]

    if fit.design.idio_variant == "chain_ladder":
        table = chain_ladder_effect_table(fit)
        payload["location"] = table
        lines.append("Location parameters (exponentiated)")
        header = "index"
        for n in range(1, lay.n_arrays + 1):
            header += f"  array{n}_row  array{n}_col"
        lines.append(header)
        for k in range(max(lay.n_rows, lay.n_cols)):
            row = f"{k + 1:5d}"
            for n in range(1, lay.n_arrays + 1):
                r = table[f"array_{n}"]["row_effects"]
                c = table[f"array_{n}"]["column_effects"]
                row += f"  {_sig4(r[k]) if k < len(r) else '':>10}"
                row += f"  {_sig4(c[k]) if k < len(c) else '':>10}"
            lines.append(row)
    else:
        payload["location"] = {
            "labels": [list(map(str, lbl)) for lbl in fit.labels],
            "kappa": [float(v) for v in fit.kappa_hat],
        }
        lines.append("Location parameters")
        for lbl, v in zip(fit.labels, fit.kappa_hat):
            lines.append(f"  {'/'.join(map(str, lbl)):20} {_sig4(float(v))}")

    lines.append("")
    lines.append("Dispersion parameters")
    disp = {name: float(w) for name, w in zip(fit.sigma.structure.omega_names, fit.omega_hat)}
    payload["dispersion"] = disp
    for (name, w), estimated in zip(disp.items(), free):
        note = f"sd {_sig4(float(np.sqrt(w)))}" if estimated else "fixed"
        lines.append(f"  {name:8} {_sig4(w)}   ({note})")

    if lay.n_arrays == 2:
        (d1, d2), every_cell = _extended_residuals(fit, full)
        corr, agree = dependence_stats(d1, d2)
        payload["dependence"] = {
            "correlation": corr,
            "sign_agreement": agree,
            "cells": int(d1.size),
        }
        if not every_cell:
            payload["dependence"]["over"] = "fitted cells: the later cells' means are not estimable"
        lines.append("")
        lines.append(f"Residual dependence ({payload['dependence'].get('over', 'all data cells')})")
        lines.append(f"  corr(d1, d2) = {corr:.4g}")
        lines.append(f"  sign agreement = {agree} / {d1.size}")

    lines.append("")
    lines.append(f"log-likelihood = {fit.loglik:.6g}")
    text = "\n".join(lines) + "\n"
    _write_report(out_prefix, text, payload)
    print(text, end="")
    return payload


def cmd_forecast(cfg, out_prefix, independence: bool = False) -> dict:
    fit, _, full, fit_coll, t_max = _fit_from_config(cfg)
    lay = fit.design.layout
    region = future_cells(lay, t_max)
    fd = build_forecast_design(fit.design, region)
    result = predict(fit, fd)

    payload = {
        "t_max": t_max,
        "future_cells_per_array": len(region),
        "reserves": [float(r) for r in result.reserves],
        "reserve_total": result.reserve_total,
        "std_errors": [float(s) for s in result.std_errors],
        "std_error_total": result.std_error_total,
        "covs_percent": [100.0 * float(c) for c in result.covs],
        "cov_total_percent": 100.0 * result.cov_total,
    }
    lines = ["Reserve forecast", "================",
             f"t_max: {t_max}   future cells per array: {len(region)}", ""]
    head = "          " + "".join(f"  array {n:>2}" for n in range(1, lay.n_arrays + 1)) + "       total"
    lines.append(head)
    lines.append("forecast  " + "".join(f"  {r:>8.0f}" for r in result.reserves) + f"  {result.reserve_total:>10.0f}")
    lines.append("std error " + "".join(f"  {s:>8.0f}" for s in result.std_errors) + f"  {result.std_error_total:>10.0f}")
    lines.append("CoV       " + "".join(f"  {100 * c:>7.1f}%" for c in result.covs) + f"  {100 * result.cov_total:>9.1f}%")

    if lay.n_arrays == 2 and len(region) > 0:
        rc = reserve_correlation(result)
        payload["reserve_correlation"] = rc
        lines.append("")
        lines.append(f"reserve correlation (arrays 1, 2): {rc:.4g}")
    if independence:
        icov = independence_counterfactual_cov(result)
        payload["independence_cov_percent"] = 100.0 * icov
        lines.append(f"independence counterfactual total CoV: {100 * icov:.1f}%")

    text = "\n".join(lines) + "\n"
    _write_report(out_prefix, text, payload)
    print(text, end="")
    return payload


def cmd_simulate(cfg, out_path, seed=None) -> str:
    n_arrays = _get_int(cfg, "n_arrays", 2)
    n_rows = _get_int(cfg, "n_rows")
    n_cols = _get_int(cfg, "n_cols")
    for key, size in (("n_arrays", n_arrays), ("n_rows", n_rows), ("n_cols", n_cols)):
        if size < 1:
            raise ConfigError(f"{key} must be a positive integer, got {size}")
    mask_kind = _get_choice(cfg, "mask", ("full", "triangle"), "full")
    if mask_kind == "triangle":
        if n_rows != n_cols:
            raise ConfigError("triangle mask needs a square grid")
        layout = ArrayLayout.triangle(n_arrays, n_rows)
    else:
        layout = ArrayLayout.full(n_arrays, n_rows, n_cols)

    rows = np.array([_get_list(cfg, f"row_effects_{n}") for n in range(1, n_arrays + 1)])
    cols = np.array([_get_list(cfg, f"col_effects_{n}") for n in range(1, n_arrays + 1)])
    spec = SimSpec(
        layout=layout,
        row_effects=rows,
        col_effects=cols,
        shock_mean_log=_get_float(cfg, "shock_mean_log", 0.0),
        shock_sd=_get_float(cfg, "shock_sd"),
        idio_sd=_get_float(cfg, "idio_sd"),
        seed=seed if seed is not None else _get_int(cfg, "seed", 0),
        partition_kind=_get_choice(cfg, "partition", PARTITION_KINDS, "cell"),
        rounding=_get_choice(cfg, "rounding", ROUNDING_MODES, "none"),
    )
    collection = simulate(spec)
    write_claims_csv(out_path, collection)
    print(f"wrote {layout.n_observations} cells to {out_path}")
    return str(out_path)


def cmd_inspect(cfg) -> str:
    """Print the model's dimensions, counted from the design without forming
    its shock blocks A and B or the unreduced idiosyncratic block I_N (x) C0."""
    _, _, _, design = _build_model(cfg)
    lay, shock = design.layout, design.shock
    N, n_obs, P = lay.n_arrays, lay.n_observations, shock.partition.n_subsets
    q = design._rows.idiosyncratic(design.idio_variant)[0].shape[1]
    a_cols = P if shock.include_across else 0
    b_cols = N * P if shock.include_within else 0
    lines = [
        "Model dimensions",
        "================",
        f"arrays (N):                {N}",
        f"grid (I* x J):             {lay.n_rows} x {lay.n_cols}",
        f"cells per array |A|:       {lay.cells_per_array}",
        f"observations N|A|:         {n_obs}",
        f"partition '{shock.partition.kind}' subsets P: {P}",
        f"idiosyncratic params q:    {q}",
        f"A block:                   {n_obs} x {a_cols}",
        f"B block:                   {n_obs} x {b_cols}",
        f"C block:                   {n_obs} x {N * q}",
        f"L = [A B I]:               {n_obs} x {a_cols + b_cols + n_obs}",
        f"M before reduction:        {n_obs} x {len(design.full_labels)}",
        f"M after reduction:         {n_obs} x {len(design.kept)}",
    ]
    if design.dropped:
        lines.append("dropped columns:")
        for lbl, reason in design.dropped:
            lines.append(f"  {'/'.join(map(str, lbl))}  ({reason})")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    return text


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commonshock",
        description="Fit, forecast, and simulate common-shock log-normal claim models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("fit", "forecast", "simulate", "inspect"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a key = value config file")
        p.add_argument("--out", default=None, help="output path (prefix for reports)")
        if name == "simulate":
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if name == "forecast":
            p.add_argument(
                "--independence-counterfactual",
                action="store_true",
                help="also report the total CoV with cross-array covariance zeroed",
            )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.command == "fit":
            cmd_fit(cfg, args.out or cfg.get("out", "report"))
        elif args.command == "forecast":
            cmd_forecast(
                cfg,
                args.out or cfg.get("out", "report"),
                independence=args.independence_counterfactual,
            )
        elif args.command == "simulate":
            cmd_simulate(cfg, args.out or cfg.get("out", "simulated.csv"), seed=args.seed)
        elif args.command == "inspect":
            cmd_inspect(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, DesignError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except CommonShockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
