"""The dense reference of the model, written from the package's public blocks.

The package applies the design M = [X | I_N (x) C0], the forecast rows M*
and the covariance Sigma(omega) by their blocks and never forms them. Every
test that checks those block products against dense matrices forms them
here, and nowhere else:

- ``M``, ``M_full``, ``rows`` and ``M_star``: the reduced and unreduced
  designs and the reduced rows of any cells (``array_frame`` of the blocks),
  and ``estimability_error``, the forecast rows' check on the dense rows;
- ``gls``: GLS from the dense Sigma, one Cholesky and one Householder QR,
  with its aliasing verdict (Sigma = I gives least squares);
- ``score``: the profile score's terms and the information from the dense
  D_k = dSigma/domega_k (``dsigma_domega``);
- ``parameter_error``, ``omega_star`` and ``reserve_moments``: the forecast
  covariance M* Var[kappa] M*^T + Sigma*(omega) + diag(var), and the
  per-array reserve sums of its raw-scale covariance;
- ``fitted_raw``: the raw-scale fitted values and covariance of a fit.
"""

import numpy as np

import commonshock as cs
from commonshock.covariance import structure_for
from commonshock.kron import array_frame


def M(design) -> np.ndarray:
    """The reduced design [X | I_N (x) C0], (n_obs, n_params)."""
    return array_frame(design.X, design.C0, design.layout.n_arrays)


def unreduced_blocks(design, cells=None):
    """(X, C0) of the unreduced design [xi | eta | I_N (x) C0]: over the
    fitted cells as ``assemble`` builds them, or over ``cells`` as the
    forecast rows are built."""
    if cells is None:
        return design._rows.design(design.shock, design.idio_variant)[:2]
    return design._cell_blocks(cells)


def M_full(design, cells=None) -> np.ndarray:
    """The unreduced design over the fitted cells, or over ``cells``, array
    index outermost."""
    return array_frame(*unreduced_blocks(design, cells), design.layout.n_arrays)


def rows(design, cells) -> np.ndarray:
    """The reduced rows of arbitrary grid cells, array index outermost, from
    ``blocks_for_cells``, which checks them for estimability."""
    return array_frame(*design.blocks_for_cells(cells), design.layout.n_arrays)


def estimability_error(design, cells):
    """The DesignError text of the dense estimability check, or None: the
    mismatch M*_dropped - M*_kept coef over the unreduced rows of ``cells``,
    its worst row and, in that row, its worst dropped column."""
    cells = tuple(cells)
    full = M_full(design, cells)
    drop_idx = [k for k in range(full.shape[1]) if k not in design.kept]
    mismatch = np.abs(full[:, drop_idx] - full[:, list(design.kept)] @ design.coef)
    row_max = mismatch.max(axis=1)
    worst = int(np.argmax(row_max))
    if row_max[worst] <= 1e-8:
        return None
    i, j = cells[worst % len(cells)]
    bad_col = drop_idx[int(np.argmax(mismatch[worst]))]
    return (
        f"cell (array {worst // len(cells) + 1}, i={i}, j={j}) requires parameter "
        f"{design.full_labels[bad_col]} that is not identified by the observed data; "
        "supply the future values by hand (an AR(1) extrapolation plus forecast offsets)"
    )


def M_star(fd) -> np.ndarray:
    """The forecast rows M* = [X* | I_N (x) C0*], (N n_future, n_params)."""
    return array_frame(fd.x_star, fd.c0_star, fd.n_arrays)


def gls(y, M, s=0, sigma=None):
    """(kappa, residual, loglik, Var[kappa], aliased) of GLS from the dense
    covariance ``sigma``, or least squares where it is None (Sigma = I).

    Sigma = L L^T by one Cholesky factor, and L^-1 M by one Householder QR
    with M's s shock-mean columns last, as the array frame orders them.
    ``aliased`` lists, in M's order, the columns whose diagonal entry of R
    is at most 1e-12 times the largest (or 1), or that have none; the other
    entries are then None.
    """
    n, m = M.shape
    if sigma is None:
        whiten, logdet = (lambda a: a), 0.0
    else:
        chol = np.linalg.cholesky(sigma)
        whiten, logdet = (lambda a: np.linalg.solve(chol, a)), 2.0 * np.log(np.diagonal(chol)).sum()
    order = list(range(s, m)) + list(range(s))
    q, r = np.linalg.qr(whiten(M[:, order]))
    rdiag = np.abs(np.pad(np.diagonal(r), (0, m - min(n, m))))
    aliased = sorted(order[j] for j in np.where(rdiag <= 1e-12 * rdiag.max(initial=1.0))[0])
    if aliased:
        return None, None, None, None, aliased
    r_inv = np.linalg.inv(r)
    kappa, var = np.empty(m), np.empty((m, m))
    kappa[order] = r_inv @ (q.T @ whiten(y))
    var[np.ix_(order, order)] = r_inv @ r_inv.T
    d = y - M @ kappa
    wd = whiten(d)
    loglik = -0.5 * (n * np.log(2.0 * np.pi) + logdet + wd @ wd)
    return kappa, d, loglik, var, []


def score(y, M, structure, omega):
    """tr(Sigma^-1 D_k), (Sigma^-1 d)^T D_k (Sigma^-1 d) and the information
    tr(Sigma^-1 D_k Sigma^-1 D_l), from the dense D_k and np.linalg.solve,
    at the residual d of ``gls``."""
    D = [cs.dsigma_domega(structure, k) for k in range(structure.n_params)]
    S = sum(w * d for w, d in zip(omega, D))
    e = np.linalg.solve(S, gls(y, M, 0, S)[1])
    SiD = [np.linalg.solve(S, d) for d in D]
    traces = np.array([np.trace(a) for a in SiD])
    quads = np.array([e @ d @ e for d in D])
    info = np.array([[np.sum(a * b.T) for b in SiD] for a in SiD])
    return traces, quads, info


def future_structure(fit, fd):
    """The fitted structure rebuilt over the forecast region, from the
    region's own shock blocks (``shock_blocks_for_cells``)."""
    blocks = fit.design.shock_blocks_for_cells(fd.cells)
    return structure_for(fit.sigma.structure.kind, fd.n_arrays, len(fd.cells), *blocks)


def parameter_error(fit, fd) -> np.ndarray:
    """M* Var[kappa] M*^T."""
    m_star = M_star(fd)
    return m_star @ fit.var_kappa @ m_star.T


def omega_star(fit, fd, var=0.0) -> np.ndarray:
    """Omega* = M* Var[kappa] M*^T + Sigma*(omega) + diag(var)."""
    out = parameter_error(fit, fd) + future_structure(fit, fd).sigma(fit.sigma.omega)
    return out + np.diag(np.broadcast_to(var, len(out)))


def array_sums(cov, n_arrays: int) -> np.ndarray:
    """The N x N sums of ``cov`` over each pair of arrays' rows and columns."""
    by_array = np.kron(np.eye(n_arrays), np.ones((len(cov) // n_arrays, 1)))
    return by_array.T @ cov @ by_array


def reserve_moments(fit, fd, var=0.0):
    """(Omega*, reserve_cov): ``omega_star`` and the per-array sums of its
    raw-scale covariance, ``raw_cov`` at the location M* kappa."""
    omega = omega_star(fit, fd, var)
    xi = cs.raw_cov(cs.LogNormalSummary(M_star(fd) @ fit.kappa_hat, omega))
    return omega, array_sums(xi, fd.n_arrays)


def fitted_raw(fit):
    """Raw-scale fitted values and covariance of a log-scale fit: (cells,
    covariance), ``cells`` of shape (n_arrays, n_rows, n_cols) with NaN
    outside the fitted region, ``covariance`` the full raw-scale covariance
    in stacking order, ``raw_mean`` and ``raw_cov`` at (y_hat, omega_fit)."""
    summary = cs.LogNormalSummary(fit.y_hat, fit.omega_fit)
    return cs.unstack(cs.raw_mean(summary), fit.design.layout), cs.raw_cov(summary)
