"""Exact permutation-symmetry analysis for parametric Hamiltonian matrices.

Given a square matrix whose entries are polynomials in real parameters with
Gaussian-rational coefficients, this package enumerates every permutation
matrix P with P^T H P = H, analyzes the group those permutations form, and
splits the underlying space into invariant subspaces via the projectors
(I +/- P)/2 attached to involutive symmetries.
"""

from importlib import import_module

from .matrices import DimensionError, ExactMatrix, direct_sum, kron, star2
from .models import ModelError, ModelSpec, build, list_models, sigma, sigma_at
from .perms import Perm, induced_site_perm
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
    find_symmetries,
    is_symmetry,
)

__version__ = "0.1.0"

# The group and decompose layers load on first access (PEP 562), so a CLI
# command that needs neither does not import them.
_LAZY = {name: module for module, names in [
    ("decompose", "ProjectorPair SubspaceBasis block_form column_space_basis"
                  " is_invariant_subspace projectors_from_involution verify_eigenpair"),
    ("groups", "GroupError SymmetryGroup conjugacy_classes element_orders generate_from"
               " generating_set involutions is_commutative verify_closure"),
] for name in names.split()}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})

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
    "conjugacy_classes",
    "direct_sum",
    "element_orders",
    "find_symmetries",
    "generate_from",
    "generating_set",
    "induced_site_perm",
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
