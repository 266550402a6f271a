"""Property tests of the design invariants over random layouts, masks and partitions."""

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import commonshock as cs
from commonshock.arrays import ArrayLayout, ClaimCollection
from commonshock.design import IDIO_VARIANTS, _frame_norm, reduce_columns
from commonshock.kron import array_frame
from commonshock.partitions import PARTITION_KINDS


@st.composite
def layouts(draw):
    n_arrays = draw(st.integers(1, 3))
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["full", "triangle", "random"]))
    if shape == "full":
        return ArrayLayout.full(n_arrays, rows, cols)
    if shape == "triangle":
        return ArrayLayout.triangle(n_arrays, rows)
    mask = np.array(draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols)))
    mask[draw(st.integers(0, rows * cols - 1))] = True
    return ArrayLayout(n_arrays, rows, cols, mask.reshape(rows, cols))


@st.composite
def designs(draw):
    lay = draw(layouts())
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shape = (lay.n_arrays, lay.n_rows, lay.n_cols)
    tables = []
    for _ in range(2):
        table = rng.uniform(0.5, 2.0, shape) if draw(st.booleans()) else None
        if table is not None:
            # zero coefficients leave some shock-mean columns empty ("unobserved")
            table[rng.random(shape) < draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))] = 0.0
        tables.append(table)
    shock = cs.ShockSpec(
        partition=cs.build_partition(draw(st.sampled_from(PARTITION_KINDS)), lay),
        include_across=draw(st.booleans()),
        include_within=draw(st.booleans()),
        shared_across_mean=draw(st.booleans()),
        alpha=tables[0],
        beta=tables[1],
    )
    return cs.assemble(lay, shock, draw(st.sampled_from(IDIO_VARIANTS))), rng


def both_shock_means():
    # within- and across-array means on the same subsets: which of them the
    # reduction keeps depends on its order, within-array means first
    lay = ArrayLayout.full(2, 2, 2)
    shock = cs.ShockSpec(
        partition=cs.build_partition("cell", lay), include_within=True, shared_across_mean=False
    )
    return cs.assemble(lay, shock), np.random.default_rng(0)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(designs())
@example(both_shock_means())
def test_design_invariants(case):
    design, rng = case
    lay = design.layout
    order = lay.stacking_order
    # fitted rows rebuilt cell by cell are the assembled design, exactly
    np.testing.assert_array_equal(design.rows_for_cells(order), design.M)
    np.testing.assert_array_equal(design.full_rows_for_cells(order), design.M_full)
    # the alias coefficients rebuild every dropped column from the kept ones
    dropped = [k for k in range(design.M_full.shape[1]) if k not in design.kept]
    np.testing.assert_allclose(design.M @ design.coef, design.M_full[:, dropped], atol=1e-9)
    # the block reduction is the dense sweep of M_full in assemble's priority:
    # idiosyncratic columns, then within-array means, then across-array ones
    labels = design.full_labels
    rank = {"xi": 2, "xi_shared": 2, "eta": 1}
    priority = sorted(range(len(labels)), key=lambda k: (rank.get(labels[k][0], 0), k))
    kept, dense_dropped, coef, reasons = reduce_columns(design.M_full, priority)
    assert tuple(kept) == design.kept and dense_dropped == dropped
    assert design.dropped == tuple((labels[d], reasons[d]) for d in dropped)
    np.testing.assert_allclose(design.coef, coef, rtol=1e-10, atol=1e-10)
    assert np.linalg.matrix_rank(design.M) == design.n_params
    # stacking is the mask order, and unstacking inverts it
    values = np.exp(rng.normal(size=(lay.n_arrays, lay.n_rows, lay.n_cols)))
    coll = ClaimCollection(lay, np.where(lay.mask, values, np.nan))
    grid = cs.unstack(cs.stack_log(coll), lay)
    np.testing.assert_array_equal(grid[:, lay.mask], np.log(values[:, lay.mask]))
    assert np.isnan(grid[:, ~lay.mask]).all()
    # M applied by its blocks is the dense product, up to the order of the
    # sums: within 1e-13 of each row's sum of absolute terms
    v = rng.normal(size=(design.n_params, 2))
    for w in (v, v[:, 0]):
        terms = np.abs(design.M) @ np.abs(w)
        assert np.all(np.abs(design.times(w) - design.M @ w) <= 1e-13 * terms)


@st.composite
def frame_blocks(draw):
    """Blocks (X, C0, N) of M = [X | I_N (x) C0]: N up to 4 and s up to 4
    shock-mean columns, with C0 wider than its rows at times (N q > n
    then), 0/1 entries as assembled designs have, zero columns, and X off
    C0's top left singular vector in every array."""
    N, k = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    q, s = draw(st.integers(0, 8)), draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    if draw(st.booleans()):
        X, C0 = (rng.random((N * k, s)) < 0.4) * 1.0, (rng.random((k, q)) < 0.4) * 1.0
    else:
        X = rng.normal(size=(N * k, s)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
        C0 = rng.normal(size=(k, q))
    if q and draw(st.booleans()):
        C0[:, draw(st.integers(0, q - 1))] = 0.0
    if s and draw(st.booleans()):
        X[:, draw(st.integers(0, s - 1))] = 0.0
    if q and s and draw(st.booleans()):
        X = off_top_direction(X, C0, N)
    return X, C0, N


def off_top_direction(X, C0, N):
    """X with each array's rows projected off C0's top left singular
    vector, and scaled to a tenth of ||C0||_2: lam_max(M^T M) is then
    lam_max(C0^T C0), the root f <= 0 just right of it."""
    u = np.linalg.svd(C0)[0][:, 0]
    Xa = X.reshape(N, len(C0), -1)
    Xa = Xa - u[:, None] * (u @ Xa)[:, None, :]
    scale = 0.1 * np.linalg.norm(C0, 2) / max(np.linalg.norm(Xa.reshape(len(X), -1), 2), 1e-300)
    return (Xa * scale).reshape(X.shape)


def assert_frame_norm(X, C0, N):
    """``_frame_norm``, which sets the reduction's tolerance, squared, is the
    largest eigenvalue of the dense M^T M to 1e-13 relative."""
    M = array_frame(X, C0, N)
    want = max(np.linalg.eigvalsh(M.T @ M)[-1], 0.0) if M.size else 0.0
    got = _frame_norm(X, C0, N) ** 2
    assert abs(got - want) <= 1e-13 * want


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(frame_blocks())
@example((np.zeros((6, 2)), np.eye(3)[:, [0, 2, 1]] * [3.0, 1.0, 2.0], 2))
@example((np.ones((4, 1)), np.zeros((4, 3)), 1))
@example((np.zeros((3, 0)), np.ones((3, 5)), 1))
@example((np.arange(12.0).reshape(6, 2), np.zeros((2, 0)), 3))
def test_frame_norm_is_the_dense_norm(blocks):
    X, C0, N = blocks
    event(f"s = {X.shape[1] if X.shape[1] < 2 else '2 or more'}, N = {N}")
    assert_frame_norm(X, C0, N)


@pytest.mark.parametrize("N", [1, 3])
def test_frame_norm_without_weight_on_the_top_direction(N, monkeypatch):
    # X orthogonal to C0's top singular direction in every array: f <= 0
    # just right of lam_max(C0^T C0), which is the answer, found from one
    # eigendecomposition of C0^T C0 and one of the s x s matrix
    rng = np.random.default_rng(N)
    C0 = rng.normal(size=(6, 4)) * [4.0, 1.0, 1.0, 1.0]
    X = off_top_direction(rng.normal(size=(N * 6, 3)), C0, N)
    assert_frame_norm(X, C0, N)
    top = np.sqrt(np.linalg.eigh(C0.T @ C0)[0][-1])
    shapes, eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert _frame_norm(X, C0, N) == top
    assert shapes == [(4, 4), (3, 3)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(designs())
@example(both_shock_means())
def test_frame_norm_of_assembled_designs(case):
    design, _ = case
    X, C0, _ = design._rows.design(design.shock, design.idio_variant)
    assert_frame_norm(X, C0, design.layout.n_arrays)
