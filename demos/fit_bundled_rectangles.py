"""Fit the bundled two-rectangle dataset.

Walks through the core workflow: restrict the data to the conventional
triangle (calendar diagonals t <= 15), assemble the cross-classified design
with a cell-matched across-array shock, estimate the location parameters by
GLS and the two variance components in closed form, and inspect the
dependence left in the residuals.
"""

import numpy as np

import commonshock as cs
from commonshock.datasets import load_bundled_rectangles
from commonshock.design import frame_times
from commonshock.estimation import SCORE_TOL

full = load_bundled_rectangles()
print(f"loaded {full.layout.n_arrays} arrays of "
      f"{full.layout.n_rows} x {full.layout.n_cols} cells")

# the estimation set: cells on calendar diagonals 1..15 (the usual triangle)
fit_coll = full.restrict_to_diagonals(15)
layout = fit_coll.layout
print(f"estimation set: {layout.cells_per_array} cells per array")

# cell-matched across-array shock with a tied mean; chain-ladder means.
# The tied shock mean aliases the column effects and is absorbed by them.
partition = cs.build_partition("cell", layout)
shock = cs.ShockSpec(partition=partition, include_across=True, shared_across_mean=True)
design = cs.assemble(layout, shock, "chain_ladder")
print(f"design: {design.n_obs} observations, {design.n_params} parameters, "
      f"dropped {[lbl for lbl, _ in design.dropped]}")

y = cs.stack_log(fit_coll)
fit = cs.ml_dispersion_cellwise(y, design)
sigma_hat, v_hat = np.sqrt(fit.omega_hat)
print(f"\ndispersion estimates: shock sd = {sigma_hat:.4f}, "
      f"idiosyncratic sd = {v_hat:.4f}")
print(f"log-likelihood = {fit.loglik:.2f}")

table = cs.chain_ladder_effect_table(fit)
print("\nexponentiated effects (row effect, column effect):")
print("  i/j    array 1              array 2")
for k in range(15):
    a1 = table["array_1"]
    a2 = table["array_2"]
    print(f"  {k + 1:3d}  {a1['row_effects'][k]:7.3f} {a1['column_effects'][k]:9.1f}"
          f"    {a2['row_effects'][k]:7.3f} {a2['column_effects'][k]:10.1f}")

# residual dependence, extended over all 225 cells of each rectangle: the
# design rows of every cell, as blocks (X*, C0*), applied to the estimates
x_ext, c0_ext = design.blocks_for_cells(full.layout.stacking_order)
d = cs.stack_log(full) - frame_times(x_ext, c0_ext, fit.kappa_hat, 2)
d1, d2 = d.reshape(2, -1)
corr, agree = cs.dependence_stats(d1, d2)
print(f"\nresidual dependence over all cells: corr = {corr:.3f}, "
      f"matching signs in {agree} of {d1.size} cells")

# the same two components solve the score equations of the full likelihood:
# every component of the score is rounding noise, below the solver's stop
score = cs.profile_score(y, design, fit.sigma.structure, fit.omega_hat)
print(f"profile score at the closed-form solution below {SCORE_TOL:g} in every "
      f"component: {bool(np.all(np.abs(score) < SCORE_TOL))}")
