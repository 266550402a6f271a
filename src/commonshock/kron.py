"""Dense Kronecker-product helpers that assemble covariances and designs.

The heavy lifting is delegated to numpy; these wrappers fix the conventions
(2-d float arrays everywhere) relied on by the covariance builders.
"""

import numpy as np


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two dense matrices.

    Block (i, j) of the result equals ``a[i, j] * b``, so an (m, n) and a
    (p, q) input produce an (m*p, n*q) output.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    return np.kron(a, b)


def array_frame(X: np.ndarray, C0: np.ndarray, n_blocks: int) -> np.ndarray:
    """The dense [X | I_N (x) C0] with N = ``n_blocks``.

    Array n's rows hold C0 in the array's own column block, filled block by
    block rather than by a Kronecker product.
    """
    (k, q), s, N = C0.shape, X.shape[1], n_blocks
    out = np.zeros((N * k, s + N * q))
    out[:, :s] = X
    for n in range(N):
        out[n * k : (n + 1) * k, s + n * q : s + (n + 1) * q] = C0
    return out
