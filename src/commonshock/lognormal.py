"""Moment maps between the log scale and the raw claim scale.

For ln X ~ N(theta, Sigma): E[X_k] = exp(theta_k + Sigma_kk / 2) and
Cov[X_k, X_l] = E[X_k] E[X_l] (exp(Sigma_kl) - 1) (Aitchison and Brown 1957).
Applied to fitted values and forecasts, with the fitted-mean covariance
playing the role of Sigma.

``block_raw_moments`` sums that covariance over each pair of arrays, for
the per-array reserves, from Sigma = B B^T + sum_t G_t (x) F_t F_t^T +
C (x) I + diag(var) over N arrays. By the mixed-product rule of (x), its
block (a, b) is sum_t G_t[a, b] F_t F_t^T + C[a, b] I + B_a B_b^T (+ var_a
where a = b), and pairs with equal blocks share one expm1.
``block_covariance`` writes the dense Sigma from the same blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

# exp saturates near 709 in double precision; reject rather than return inf
_EXP_GUARD = 700.0
# cells of one array that ``block_raw_moments`` reads at a time
ROW_BLOCK = 128


@dataclass(frozen=True)
class LogNormalSummary:
    """Location vector and log-scale covariance of a multivariate log-normal."""

    location: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        loc = np.asarray(self.location, dtype=float).ravel()
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (loc.size, loc.size):
            raise NumericalError("covariance shape does not match the location vector")
        object.__setattr__(self, "location", loc)
        object.__setattr__(self, "covariance", cov)


def raw_mean(summary: LogNormalSummary, k: int = None):
    """E[X_k] = exp(theta_k + Sigma_kk / 2); all components when k is None."""
    means = _exp_guarded(summary.location + 0.5 * np.diag(summary.covariance))
    return means if k is None else float(means[k])


def _exp_guarded(exponent: np.ndarray) -> np.ndarray:
    """exp(exponent); NumericalError for an entry above ``_EXP_GUARD`` or NaN."""
    if not np.all(exponent <= _EXP_GUARD):
        raise NumericalError(
            "raw-scale mean would overflow or is undefined (log-scale mean plus "
            f"half variance exceeds {_EXP_GUARD} or is NaN)"
        )
    return np.exp(exponent)


def raw_cov(summary: LogNormalSummary, k: int = None, l: int = None):
    """Cov[X_k, X_l] = E[X_k] E[X_l] (exp(Sigma_kl) - 1); full matrix when unindexed."""
    means = raw_mean(summary)
    cov = np.outer(means, means) * np.expm1(summary.covariance)
    if k is None:
        return cov
    return float(cov[k, l])


def _by_array(B, var, n_arrays: int):
    """B (n x k) and var (n, or None) in stacking order as (N, c, k) and (N, c)."""
    c = len(B) // n_arrays
    return B.reshape(n_arrays, c, B.shape[1]), None if var is None else var.reshape(n_arrays, c)


def _block(C, terms, B, var, a: int, b: int, hs, p0: int, p1: int, start: int) -> np.ndarray:
    """Rows p0:p1 of block (a, b) of Sigma from column ``start`` (p0 or p1)
    on, with ``hs`` the terms' h_t = F_t[p0:p1] F_t[p0:]^T and B, var by
    array: in this order, sum_t G_t[a, b] h_t, on the chunk's square C[a, b]
    and, where a = b, var_a, and B_a[p0:p1] B_b[start:]^T."""
    out = None
    for (G, _), h in zip(terms, hs):
        if G[a, b] and out is None:
            out = np.multiply(h[:, start - p0 :], G[a, b])
        elif G[a, b]:
            out += G[a, b] * h[:, start - p0 :]
    if out is None:
        out = np.zeros((p1 - p0, B.shape[1] - start))
    if start == p0:
        d = np.arange(p1 - p0)
        out[d, d] += C[a, b]
        if var is not None and a == b:
            out[d, d] += var[a, p0:p1]
    if B.shape[2]:
        out += B[a, p0:p1] @ B[b, start:].T
    return out


def _distinct_blocks(C, terms, B, var, p0: int, p1: int) -> list:
    """The ordered array pairs as one (pairs, 2) array per distinct block over
    cells p0:p1, diagonal blocks first. Without B columns a block reads (a, b)
    only through G_t[a, b], C[a, b] and, where a = b, var_a[p0:p1]."""
    groups = {}
    for a in range(len(C)):
        for b in range(len(C)):
            if B.shape[2]:
                key = (a != b, a, b)
            else:
                diag = None if a != b or var is None else var[a, p0:p1].tobytes()
                key = (a != b, C[a, b], diag, *(G[a, b] for G, _ in terms))
            groups.setdefault(key, []).append((a, b))
    return [np.array(pairs) for key, pairs in sorted(groups.items(), key=lambda kv: kv[0][0])]


def block_raw_moments(location, C, terms, B, var):
    """Raw means and the covariance of the array totals, block by block.

    ln X ~ N(location, Sigma) over N = len(C) arrays of c cells, stacked
    array by array, with Sigma = B B^T + sum_t G_t (x) F_t F_t^T + C (x) I
    + diag(var) (N x N G_t, c-row F_t, B of N c rows, var or None). Returns
    the ``raw_mean`` vector and the N x N S[a, b] = sum over k in array a,
    l in array b of mu_k mu_l expm1(Sigma_kl).

    Sigma is read in chunks of ``ROW_BLOCK`` cells p0:p1, last chunk first,
    each h_t formed once per chunk, and each ordered pair's block (a, b)
    right of the chunk's square, with the square where a <= b: an entry
    right of it counts for (a, b) and (b, a), as does an off-diagonal
    square's, so every column's mean is known when read. Equal blocks share
    one expm1; the diagonal ones come first and give the chunk's means.
    """
    n_c = len(C)
    B, var = _by_array(B, var, n_c)
    loc = np.asarray(location, dtype=float).reshape(n_c, -1).T
    c = loc.shape[0]
    means = np.zeros((c, n_c))  # cell by array; 0 until a chunk's diagonal block sets it
    S = np.zeros((n_c, n_c))
    for p0 in range(ROW_BLOCK * ((c - 1) // ROW_BLOCK), -1, -ROW_BLOCK):
        p1 = min(p0 + ROW_BLOCK, c)
        hs = [F[p0:p1] @ F[p0:].T for _, F in terms]
        for pairs in _distinct_blocks(C, terms, B, var, p0, p1):
            a, b = pairs[0]  # a <= b where any pair has it: G_t and C are symmetric
            start = p0 if a <= b else p1
            vals = _block(C, terms, B, var, a, b, hs, p0, p1, start)
            pa, pb = pairs.T
            if a == b:
                exponent = loc[p0:p1, pa] + 0.5 * np.diagonal(vals)[:, None]
                means[p0:p1, pa] = _exp_guarded(exponent)
            np.expm1(vals, out=vals)
            # column weights of the group's own arrays rb only; pair (a, b) reads [a, j]
            rb = sorted(set(pb.tolist()))
            j = np.searchsorted(rb, pb)
            rows, cols, sq = means[p0:p1], means[start:, rb], p1 - start  # sq: square's width
            square = (rows.T @ (vals[:, :sq] @ cols[:sq]))[pa, j]
            upper = (rows.T @ (vals[:, sq:] @ cols[sq:]))[pa, j]
            # (a, b) takes the part right of the square, and the square where
            # a <= b; (b, a) takes the same, with the square where a < b
            S[pa, pb] += upper + (pa <= pb) * square
            S[pb, pa] += upper + (pa < pb) * square
            del vals  # the next block is formed without this one held
    return means.T.ravel(), 0.5 * (S + S.T)


def block_covariance(C, terms, B, var) -> np.ndarray:
    """The dense Sigma of ``block_raw_moments``, from the same blocks: each
    (a, b), a <= b, over all c rows, mirrored into (b, a). A diagonal block
    adds matrices times their own transposes (h_t = F_t F_t^T, B_a B_a^T),
    which BLAS forms exactly symmetric, and diagonals, so Sigma comes out
    exactly symmetric."""
    n_c = len(C)
    B, var = _by_array(B, var, n_c)
    c = B.shape[1]
    hs = [F @ F.T for _, F in terms]
    out = np.empty((n_c * c, n_c * c))
    for a in range(n_c):
        for b in range(a, n_c):
            blk = _block(C, terms, B, var, a, b, hs, 0, c, 0)
            out[a * c : (a + 1) * c, b * c : (b + 1) * c] = blk
            out[b * c : (b + 1) * c, a * c : (a + 1) * c] = blk.T
    return out
