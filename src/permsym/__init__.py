"""Exact permutation-symmetry analysis for parametric Hamiltonian matrices.

Given a square matrix whose entries are polynomials in real parameters with
Gaussian-rational coefficients, this package enumerates every permutation
matrix P with P^T H P = H, analyzes the group those permutations form, and
splits the underlying space into invariant subspaces via the projectors
(I +/- P)/2 attached to involutive symmetries.
"""

from .decompose import (
    ProjectorPair,
    SubspaceBasis,
    block_form,
    column_space_basis,
    is_invariant_subspace,
    projectors_from_involution,
    verify_eigenpair,
)
from .groups import (
    GroupError,
    SymmetryGroup,
    conjugacy_classes,
    element_orders,
    generate_from,
    generating_set,
    involutions,
    is_commutative,
    verify_closure,
)
from .matrices import DimensionError, ExactMatrix, direct_sum, kron, star2
from .models import ModelError, ModelSpec, build, list_models, sigma, sigma_at
from .perms import Perm, compose, induced_site_perm, inverse
from .scalars import (
    GaussRational,
    Monomial,
    ParseError,
    PolyScalar,
    as_scalar,
    param,
    parse,
    rational,
)
from .search import (
    MODE_LEAF_CHECK,
    MODE_PRUNED,
    SearchConfig,
    SearchResult,
    count_symmetries,
    find_symmetries,
    is_symmetry,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionError",
    "ExactMatrix",
    "GaussRational",
    "GroupError",
    "MODE_LEAF_CHECK",
    "MODE_PRUNED",
    "ModelError",
    "ModelSpec",
    "Monomial",
    "ParseError",
    "Perm",
    "PolyScalar",
    "ProjectorPair",
    "SearchConfig",
    "SearchResult",
    "SubspaceBasis",
    "SymmetryGroup",
    "as_scalar",
    "block_form",
    "build",
    "column_space_basis",
    "compose",
    "conjugacy_classes",
    "count_symmetries",
    "direct_sum",
    "element_orders",
    "find_symmetries",
    "generate_from",
    "generating_set",
    "induced_site_perm",
    "inverse",
    "involutions",
    "is_commutative",
    "is_invariant_subspace",
    "is_symmetry",
    "kron",
    "list_models",
    "param",
    "parse",
    "projectors_from_involution",
    "rational",
    "sigma",
    "sigma_at",
    "star2",
    "verify_closure",
    "verify_eigenpair",
    "__version__",
]
