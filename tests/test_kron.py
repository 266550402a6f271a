import numpy as np

import commonshock as cs


def test_identity_times_identity():
    np.testing.assert_array_equal(cs.kron(np.eye(2), np.eye(3)), np.eye(6))


def test_scalar_case():
    b = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(cs.kron(np.array([[2.0]]), b), 2.0 * b)


def test_block_expansion():
    a = np.array([[1.0, 0.0], [0.0, 2.0]])
    b = np.array([[3.0, 4.0], [5.0, 6.0]])
    expected = np.array(
        [[3, 4, 0, 0], [5, 6, 0, 0], [0, 0, 6, 8], [0, 0, 10, 12]], dtype=float
    )
    np.testing.assert_array_equal(cs.kron(a, b), expected)


def test_ones_and_identity():
    stacked = cs.kron(np.ones((2, 1)), np.eye(2))
    assert stacked.shape == (4, 2)
    np.testing.assert_array_equal(stacked, np.vstack([np.eye(2), np.eye(2)]))


def test_transpose_and_mixed_product_properties():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m, n, p, q, r, s = rng.integers(1, 6, size=6)
        a = rng.normal(size=(m, n))
        b = rng.normal(size=(p, q))
        c = rng.normal(size=(n, r))
        d = rng.normal(size=(q, s))
        np.testing.assert_allclose(
            cs.kron(a, b).T, cs.kron(a.T, b.T), atol=1e-10
        )
        np.testing.assert_allclose(
            cs.kron(a, b) @ cs.kron(c, d), cs.kron(a @ c, b @ d), atol=1e-10
        )


def test_vector_absorption_properties():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n, p, q = rng.integers(1, 6, size=3)
        a = rng.normal(size=(n, 1))
        b = rng.normal(size=(p, q))
        c = rng.normal(size=(q, 3))
        np.testing.assert_allclose(
            cs.kron(a, b) @ c, cs.kron(a, b @ c), atol=1e-10
        )
        c2 = rng.normal(size=(3, p))
        np.testing.assert_allclose(
            c2 @ cs.kron(a.T, b), cs.kron(a.T, c2 @ b), atol=1e-10
        )
