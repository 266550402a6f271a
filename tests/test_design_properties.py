"""Property tests of the design invariants over random layouts, masks and partitions."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import commonshock as cs
from commonshock.arrays import ArrayLayout, ClaimCollection
from commonshock.design import IDIO_VARIANTS, reduce_columns
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
    shock = cs.ShockSpec(partition=cs.build_partition("cell", lay), include_within=True)
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
