"""The one table of liftmix's numerical thresholds, and Higham's gamma_k.

Every check reads its entry of TOL when it runs, and every reported
`tolerances` block is built from the entries its checks read, so a printed
tolerance is the number its check uses.  Docstrings elsewhere name an entry
instead of repeating its value.  This module imports nothing from the
package, so any module can read it; conductance's one cut cap (`_cut_cap`)
reads cut_weight, and its cut screen reads `_gamma`.
"""

TOL = {
    # entries within this of [0, 1] are rounding and get clamped; entries above it are support
    "entry_clamp": 1e-12,
    # a matrix column's raw sum may miss 1 by this before it is renormalized exactly
    "column_sum": 1e-6,
    # a distribution or init-map column must sum to 1, a clock perturbation to 0, within this
    "vector_sum": 1e-9,
    # l1 residual a least-squares stationary solve must meet after its polish step
    "stationary_solve": 1e-10,
    # l1 residual of P pi - pi accepted for a stated stationary law (check_stationary's default)
    "stationary_residual": 1e-9,
    # l1 residual accepted for a lift's steady state pi-hat, which averaging may leave in transit
    "steady_state_residual": 1e-8,
    # l1 residual accepted for a flow reference chain at the lift's marginal law
    "flow_reference_residual": 1e-6,
    # flow-match deviation accepted under any smaller budget delta, exact matching included
    "flow_exact_slack": 1e-8,
    # a base node whose steady-state marginal is at most this carries no mass
    "dead_marginal": 1e-15,
    # half-lazy averaging of a reducible lift's steady state stops at this TV step change ...
    "averaging_step": 1e-10,
    # ... once its limit's largest column l1 residual is at most this
    "averaging_residual": 1e-9,
    # one-step marginal change (TV, or a same-fiber column gap) that breaks invariance
    "invariance_one_step": 1e-12,
    # marginal TV from pi, at any step of the horizon, that breaks invariance under (S)
    "invariance_horizon_tv": 1e-9,
    # a measured value may cross its conductance or diameter bound by this float error
    "bound_slack": 1e-9,
    # per-step rounding a certified scan adds to its measured drift rho
    "scan_drift": 1e-12,
    # margin of a certified scan stop over the float error of its TV sums and rho
    "scan_margin": 1e-9,
    # a cut weighs at most 1/2 up to this, so both sides of an even split are cuts
    "cut_weight": 1e-12,
    # a cut whose conductance falls this far below the LP's t joins the LP
    "lp_cut_violation": 1e-9,
    # the LP chain's columns, stationarity and cut rows hold within this, as its phi may err
    "lp_feasibility": 1e-8,
    # HiGHS primal feasibility tolerance of the one tighter re-solve
    "lp_resolve": 1e-10,
    # the spanning-tree correction's demand sum and residual stay within this
    "tree_residual": 1e-10,
    # TV from the target of a construction claimed exact (the bridges, and the mixer at diameter)
    "exact_tv": 1e-10,
    # TV of an irreducible mixer's steady-state marginal from pi
    "stationary_tv": 1e-8,
    # entry gap between a replicated lift's unlifted chain and its base chain
    "unlift_match": 1e-12,
    # TV between a replicated lift's marginal trajectory and its unlifted chain's, per step
    "step_tv": 1e-9,
    # flow deviation of the four-cycle lift, whose flows match its reference exactly
    "flow_tv": 1e-9,
    # distance from 1 of any column sum of a bridge step
    "bridge_column_sum": 1e-12,
}


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u) (Accuracy and Stability of
    Numerical Algorithms, 3.1): a sum of nonnegative terms, added in any
    order with no term rounded more than k times, lies within gamma_k of
    its exact value, relatively."""
    ku = k * 2.0**-53  # u, the unit roundoff of IEEE doubles
    return ku / (1.0 - ku)
