"""Property tests of the design invariants over random layouts, masks and partitions."""

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import commonshock as cs
from commonshock.arrays import ArrayLayout, ClaimCollection
from commonshock.design import IDIO_VARIANTS, _reduce_blocks, reduce_columns
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
    then), 0/1 entries as assembled designs have, and zero columns."""
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
    return X, C0, N


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(frame_blocks())
@example((np.zeros((6, 2)), np.eye(3)[:, [0, 2, 1]] * [3.0, 1.0, 2.0], 2))
@example((np.ones((4, 1)), np.zeros((4, 3)), 1))
@example((np.zeros((3, 0)), np.ones((3, 5)), 1))
@example((np.arange(12.0).reshape(6, 2), np.zeros((2, 0)), 3))
def test_block_reduction_is_the_dense_reduction_at_any_scale(blocks):
    # the threshold is relative to M's largest column norm, which the
    # blocks and the dense M share: the same kept, dropped and reasons as
    # the dense sweep in the same priority (idiosyncratic columns first),
    # and the same at every scale of M
    X, C0, N = blocks
    s = X.shape[1]
    event(f"s = {s if s < 2 else '2 or more'}, N = {N}")
    priority = list(range(s, s + N * C0.shape[1])) + list(range(s))
    results = []
    for scale in (1e-12, 1.0, 1e12):
        kept, dropped, _, reasons = reduce_columns(array_frame(X, C0, N) * scale, priority)
        by_blocks = _reduce_blocks(X * scale, range(s), C0 * scale, range(C0.shape[1]), N)
        assert (by_blocks[0], by_blocks[1], by_blocks[3]) == (kept, dropped, reasons)
        results.append((kept, dropped, reasons))
    assert results[0] == results[1] == results[2]
