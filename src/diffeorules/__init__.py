"""Exact Feynman rules of scalar-field substitutions and machine checks of
their tree-level cancellation identities.

The package generates the interaction vertices induced by replacing a scalar
field with a power-series substitution tangent to identity, evaluates tree
amplitude sums as exact rational functions of offshell variables, and
verifies that the substitution leaves onshell amplitudes untouched, for
quadratic and arbitrary-polynomial propagators and for the derivative
extension of the transformation.
"""

from .algebra import (
    AlgebraError,
    DenominatorAnnihilationError,
    DivisionByZeroError,
    Kind,
    Monomial,
    Polynomial,
    RationalFunction,
    Scalar,
    Symbol,
    coupling,
    diffeo_coeff,
    edge_symbol,
    fixed_offshell,
    generic_symbol,
    mass_sq,
    parse_rational,
    rf,
)
from .series import (
    PowerSeries,
    bell_partial,
    fc_functional_residual,
    fc_series,
    fuss_catalan,
    inverse_series_tree_sums,
    invert,
    tree_sum_closed_form,
    tuned_diffeo_coeffs,
    vertex_coefficients,
)
from .rules import (
    ROOT,
    DiffeoSpec,
    Interaction,
    NonlocalSpec,
    TheorySpec,
    canonical_subset,
    edge_var,
    free_vertex,
    generalized_vertex,
    interaction_vertex,
    nonlocal_beta,
    propagator,
    total_vertex,
)
from .trees import (
    TreeSumResult,
    TreeTopology,
    amplitude,
    amputated_tree_sum,
    coupling_linear_tree_sum,
    enumerate_decorations,
    enumerate_trees,
    evaluate_at_kinematics,
    glue_four_point,
    interacting_rooted_tree_sum,
    random_conserving_momenta,
    recursive_tree_sum,
    rooted_tree_sum,
    symmetrized_one_offshell_sum,
    topology_count,
    vertex_pair_edge_coefficient,
)
from .verify import CheckSpec, Report, check_names, default_suite, run_suite, suite_passed

__version__ = "0.1.0"
