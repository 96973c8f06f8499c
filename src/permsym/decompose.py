"""Projectors from involutive symmetries and exact invariant-subspace tools.

An involution P yields the projector pair (I+P)/2, (I-P)/2.  Subspace bases
are primitive integer vectors (entry gcd 1, first nonzero entry positive),
which keeps everything inside exact arithmetic; unit-norm versions of such
vectors would only differ by irrational scalar factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .matrices import DimensionError, ExactMatrix
from .scalars import ONE, ZERO, as_scalar, rational


@dataclass(frozen=True)
class ProjectorPair:
    pi1: ExactMatrix
    pi2: ExactMatrix


class SubspaceBasis:
    """Linearly independent primitive integer column vectors."""

    __slots__ = ("vectors",)

    def __init__(self, vectors):
        vectors = tuple(tuple(int(x) for x in v) for v in vectors)
        if vectors:
            n = len(vectors[0])
            if any(len(v) != n for v in vectors):
                raise ValueError("basis vectors of unequal length")
            if _rank([[Fraction(x) for x in v] for v in vectors]) != len(vectors):
                raise ValueError("basis vectors are linearly dependent")
        object.__setattr__(self, "vectors", vectors)

    def __setattr__(self, name, value):
        raise AttributeError("SubspaceBasis is immutable")

    def __len__(self):
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)

    def __eq__(self, other):
        return isinstance(other, SubspaceBasis) and self.vectors == other.vectors

    def __hash__(self):
        return hash(self.vectors)

    def __repr__(self):
        return f"SubspaceBasis({[list(v) for v in self.vectors]})"


def projectors_from_involution(p):
    """Exact (I+P)/2 and (I-P)/2 for a permutation with p*p = identity."""
    if p.order() > 2:
        raise ValueError(f"not an involution: {p} has order {p.order()}")
    n = len(p)
    ident = ExactMatrix.identity(n)
    pm = p.to_matrix()
    half = rational(1, 2)
    return ProjectorPair(pi1=(ident + pm) * half, pi2=(ident - pm) * half)


# -- exact rational elimination helpers ---------------------------------


def _rref(rows):
    """Reduced row echelon form in place; returns the list of pivot columns.

    Rows are replaced, never mutated, so callers may pass rows they share.
    Scaling and elimination only touch the pivot row's non-zero columns; a
    pivot that is already 1 is not scaled.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((k for k in range(r, len(rows)) if rows[k][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        support = [(t, y) for t, y in enumerate(rows[r]) if y != 0]
        if rows[r][c] != 1:
            inv = 1 / rows[r][c]
            support = [(t, y * inv) for t, y in support]
            row = list(rows[r])
            for t, y in support:
                row[t] = y
            rows[r] = row
        for k in range(len(rows)):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                row = list(rows[k])
                for t, y in support:
                    row[t] = row[t] - f * y
                rows[k] = row
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _rank(rows):
    return len(_rref([list(r) for r in rows]))


def _primitive(vec):
    """Scale a rational vector to integers with gcd 1, first nonzero positive.

    Zeros stay 0 and are left out of the lcm, the scaling and the gcd.
    """
    nonzero = [(k, x) for k, x in enumerate(vec) if x]
    denom = lcm(*(x.denominator for _, x in nonzero))
    scaled = [(k, x.numerator * (denom // x.denominator)) for k, x in nonzero]
    g = gcd(*(x for _, x in scaled))
    if scaled and scaled[0][1] < 0:
        g = -g
    ints = [0] * len(vec)
    for k, x in scaled:
        ints[k] = x // g
    return tuple(ints)


def _constant_fraction_matrix(m):
    """Entries of a parameter-free matrix as Fractions; rejects imaginary parts."""
    out = []
    zero = Fraction(0)
    e = m.entries()
    for r in range(m.rows):
        row = []
        for c in range(m.cols):
            x = e[r * m.cols + c]
            if x is ZERO:
                row.append(zero)
                continue
            if not x.is_constant():
                raise ValueError(f"parametric entry at ({r}, {c}): {x}")
            v = x.constant_value()
            if v.im:
                raise ValueError(f"non-real constant entry at ({r}, {c}): {x}")
            row.append(v.re)
        out.append(row)
    return out


def column_space_basis(m):
    """Primitive integer basis of the column space of a constant matrix.

    Deterministic: the basis is the reduced row echelon form of the
    transposed matrix, each row scaled primitive.
    """
    rows = _constant_fraction_matrix(m)
    cols = [[rows[r][c] for r in range(m.rows)] for c in range(m.cols)]
    _rref(cols)
    basis = [_primitive(v) for v in cols if any(v)]
    return SubspaceBasis(basis)


def _monomial_components(vec):
    """Split a PolyScalar vector into per-monomial rational vectors.

    Returns {monomial: (real part vector, imaginary part vector)}.
    """
    comps = {}
    n = len(vec)
    for idx, x in enumerate(vec):
        for mono, coeff in x.terms():
            re, im = comps.setdefault(mono, ([Fraction(0)] * n, [Fraction(0)] * n))
            re[idx] = coeff.re
            im[idx] = coeff.im
    return comps


def is_invariant_subspace(h, basis):
    """True iff H maps span(basis) into itself.

    Coefficients in the combinations may be polynomials in the parameters, so
    the span is invariant exactly when the real and imaginary part of every
    monomial of every image lies in it: one elimination over the basis rows
    and all those part vectors finds no rank beyond the basis.
    """
    if not h.is_square():
        raise DimensionError("need a square matrix")
    if len(basis) and len(basis.vectors[0]) != h.rows:
        raise DimensionError(
            f"basis vectors of length {len(basis.vectors[0])} do not match size {h.rows}"
        )
    rows = [[Fraction(x) for x in v] for v in basis]
    # row c of (H S)^T is the image of basis vector c
    s = ExactMatrix(h.rows, len(basis), [x for row in zip(*basis) for x in row])
    images = (h @ s).transpose()
    for c in range(len(basis)):
        for re, im in _monomial_components(images.row(c)).values():
            rows += [re, im]
    return _rank(rows) == len(basis)


def block_form(h, basis1, basis2):
    """H rewritten in the basis b1 + b2, exactly; blocks sized |b1| and |b2|.

    Computes ``S^-1 (H S)`` for the matrix ``S`` whose columns are the basis
    vectors.  Since ``S`` is invertible, the result is block diagonal exactly
    when both spans are H-invariant, so a non-zero off-block entry is the
    invariance test.  Raises ValueError if the vectors do not form a full
    basis or the two subspaces are not H-invariant.
    """
    if not h.is_square():
        raise DimensionError("need a square matrix")
    n = h.rows
    vectors = list(basis1) + list(basis2)
    if len(vectors) != n:
        raise ValueError(f"{len(vectors)} basis vectors for dimension {n}: not a full basis")
    for basis in (basis1, basis2):
        if len(basis) and len(basis.vectors[0]) != n:
            raise DimensionError(
                f"basis vectors of length {len(basis.vectors[0])} do not match size {n}"
            )
    s_inv = _invert_rational(vectors, n)
    if s_inv is None:
        raise ValueError("basis vectors are linearly dependent: not a full basis")
    shared = {1: ONE}
    s = _shared_matrix([[vectors[c][r] for c in range(n)] for r in range(n)], shared)
    result = _shared_matrix(s_inv, shared) @ (h @ s)

    k = len(basis1)
    e = result.entries()
    for r in range(n):
        off_block = e[r * n + k : (r + 1) * n] if r < k else e[r * n : r * n + k]
        if any(off_block):
            raise ValueError("subspaces are not invariant under the matrix")
    return result


def _shared_matrix(rows, shared):
    """Exact square matrix of rational rows; equal entries share one PolyScalar."""
    entries = []
    for row in rows:
        for q in row:
            if not q:
                entries.append(ZERO)
                continue
            x = shared.get(q)
            if x is None:
                x = shared[q] = rational(q)
            entries.append(x)
    return ExactMatrix(len(rows), len(rows), entries)


def _invert_rational(column_vectors, n):
    """Rows of the exact inverse of the matrix whose columns are the given
    vectors, as Fractions; None if that matrix is singular."""
    zero, one = Fraction(0), Fraction(1)
    aug = [
        [Fraction(v[r]) if v[r] else zero for v in column_vectors]
        + [one if c == r else zero for c in range(n)]
        for r in range(n)
    ]
    pivots = _rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in aug]


def verify_eigenpair(h, eigenvalue, vector):
    """Exact check that H v == eigenvalue * v for an integer vector v."""
    if not h.is_square():
        raise DimensionError("need a square matrix")
    if len(vector) != h.rows:
        raise DimensionError(f"vector length {len(vector)} does not match size {h.rows}")
    if not any(vector):
        raise ValueError("zero vector is not an eigenvector")
    image = (h @ ExactMatrix(h.rows, 1, vector)).entries()
    lam = as_scalar(eigenvalue)
    return all(image[r] == lam * Fraction(vector[r]) for r in range(h.rows))
