"""Projectors from involutive symmetries and exact invariant-subspace tools.

An involution P yields the projector pair (I+P)/2, (I-P)/2.  Subspace bases
are primitive integer vectors (entry gcd 1, first nonzero entry positive),
which keeps everything inside exact arithmetic; unit-norm versions of such
vectors would only differ by irrational scalar factors.  A basis holds its
vectors as sparse rows, as a matrix does, and is made dense only for a report.

Every question here is answered by one exact Gauss-Jordan elimination over
sparse rows (``_rref``): the rank of a basis, the column space of a
projector, whether a span is invariant, and the block form, which solves
``S X = H S`` for the matrix ``S`` whose columns are the basis vectors.
Its work follows the fill, not the row count.  ``S`` is real, so a
Gaussian-rational entry goes in as its real and imaginary parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import repeat
from math import lcm
from operator import index

from .matrices import DimensionError, ExactMatrix, _set
from .scalars import GaussRational, PolyScalar, _Frozen, _q, as_scalar, rational


@dataclass(frozen=True)
class ProjectorPair:
    pi1: ExactMatrix
    pi2: ExactMatrix


class SubspaceBasis(_Frozen):
    """Linearly independent primitive integer column vectors, stored as sparse
    rows (index to non-zero int) of one length ``n``; ``vectors`` and
    iteration build the dense tuples on each read, for a report."""

    __slots__ = ("_rows", "_n")

    def __init__(self, vectors):
        vectors = [list(map(_integer, v)) for v in vectors]
        n = len(vectors[0]) if vectors else 0
        if any(len(v) != n for v in vectors):
            raise ValueError("basis vectors of unequal length")
        rows = tuple({k: x for k, x in enumerate(v) if x} for v in vectors)
        # _rref edits its rows in place, so it gets copies
        if len(_rref(list(map(dict, rows)), n)) != len(rows):
            raise ValueError("basis vectors are linearly dependent")
        _set(self, "_rows", rows)
        _set(self, "_n", n)

    @classmethod
    def _trusted(cls, n, rows):
        """Wrap a tuple of independent sparse integer rows of length n, unchecked."""
        basis = object.__new__(cls)
        _set(basis, "_rows", rows)
        _set(basis, "_n", n if rows else 0)
        return basis

    @property
    def vectors(self):
        zeros = repeat(0)
        return tuple(tuple(map(row.get, range(self._n), zeros)) for row in self._rows)

    def __len__(self):
        return len(self._rows)

    def __iter__(self):
        return iter(self.vectors)

    def __eq__(self, other):
        return (isinstance(other, SubspaceBasis)
                and self._n == other._n and self._rows == other._rows)

    def __hash__(self):
        return hash((self._n, tuple(frozenset(row.items()) for row in self._rows)))

    def __repr__(self):
        return f"SubspaceBasis({[list(v) for v in self.vectors]})"


def _integer(x, what="basis"):
    try:
        return index(x)
    except TypeError:
        raise ValueError(f"{what} entry {x!r} is not an integer") from None


def projectors_from_involution(p):
    """Exact (I+P)/2 and (I-P)/2 for a permutation with p*p = identity."""
    if p.order() > 2:
        raise ValueError(f"not an involution: {p} has order {p.order()}")
    n = len(p)
    ident = ExactMatrix.identity(n)
    pm = p.to_matrix()
    half = rational(1, 2)
    return ProjectorPair(pi1=(ident + pm) * half, pi2=(ident - pm) * half)


# -- exact sparse elimination ---------------------------------------------


def _rref(rows, ncols):
    """Reduced row echelon form in place; returns the list of pivot columns.

    A row is a dict from a key to a non-zero int, or a Fraction if not
    integral; every entry made keeps that rule, so integral work stays in C.
    Pivots are taken from the keys 0..ncols-1 in order; any other key is a
    right-hand side that rides along.  The pivot rows end up first, in pivot
    order, each scaled so that its pivot is 1; the list and its dicts change
    in place.  An index from each pivot column to the rows that hold it, kept
    under fill and cancellation, gives the pivot (any row not yet a pivot row)
    and the rows to eliminate, so the work follows the fill (Davis 2006,
    ch. 2-3).  Without a right-hand side, or at full rank, the pivot rows are
    the unique RREF whichever row is taken.
    """
    holders = {c: set() for c in range(ncols)}
    for k, row in enumerate(rows):
        for t in row:
            if (held := holders.get(t)) is not None:
                held.add(k)
    done = {}  # each pivot row to its column, in pivot order
    for c, held in holders.items():
        k = next((k for k in held if k not in done), None)
        if k is None:
            continue
        done[k] = c
        pivot = rows[k]
        if pivot[c] != 1:
            inv = _q(Fraction(1) / pivot[c])
            for t, y in pivot.items():
                pivot[t] = _q(y * inv)
        for e in list(held):
            if e == k:
                continue
            row = rows[e]
            f = row[c]
            for t, y in pivot.items():
                fy = y if f == 1 else _q(f * y)
                v = row.get(t)
                if v is None:
                    row[t] = -fy
                    if (fill := holders.get(t)) is not None:
                        fill.add(e)
                elif v := v - fy:
                    row[t] = _q(v)
                else:
                    del row[t]
                    if (fill := holders.get(t)) is not None:
                        fill.discard(e)
    rows[:] = [*map(rows.__getitem__, done), *(row for k, row in enumerate(rows) if k not in done)]
    return list(done.values())


def _primitive(row):
    """A sparse RREF row as a sparse integer row, scaled to gcd 1.

    The row leads with its pivot 1, so scaling by the lcm of the denominators
    gives a positive lead, and for each prime of that lcm the entry whose
    denominator holds its highest power is left prime to it: the gcd is 1.
    """
    denom = lcm(*(x.denominator for x in row.values()))
    return {k: x.numerator * (denom // x.denominator) for k, x in row.items()}


def column_space_basis(m):
    """Primitive integer basis of the column space of a constant matrix.

    Deterministic: the basis is the reduced row echelon form of the
    transposed matrix, each row scaled primitive.  Its pivot rows are
    independent, so the basis wraps them with no second elimination.
    """
    cols = [{} for _ in range(m.cols)]
    for r, row in enumerate(m._r):
        for c, x in sorted(row.items()):
            if not x.is_constant():
                raise ValueError(f"parametric entry at ({r}, {c}): {x}")
            v = x.constant_value()
            if v.im:
                raise ValueError(f"non-real constant entry at ({r}, {c}): {x}")
            cols[c][r] = v.re
    rank = len(_rref(cols, m.rows))
    return SubspaceBasis._trusted(m.rows, tuple(map(_primitive, cols[:rank])))


def _image_rows(h, columns):
    """Row r of ``H S`` for the matrix ``S`` with the given sparse integer
    columns, as a dict from (column, monomial factors, part) to the non-zero
    int or Fraction real (part 0) or imaginary (part 1) part of the
    coefficient of that monomial in entry (r, column).  ``S`` is real, so
    an elimination by its rows never mixes the two parts."""
    cover = [[] for _ in range(h.rows)]
    for c, v in enumerate(columns):
        for u, x in v.items():
            cover[u].append((c, x))
    out = []
    for h_row in h._r:
        row = {}
        for u, y in h_row.items():
            for mono, coeff in y.terms():
                for part, q in enumerate((coeff.re, coeff.im)):
                    if q:
                        for c, x in cover[u]:
                            key = (c, mono.factors, part)
                            row[key] = row.get(key, 0) + (q if x == 1 else q * x)
        out.append({key: v for key, v in row.items() if v})
    return out


def _check_basis_length(basis, n):
    if len(basis) and basis._n != n:
        raise DimensionError(f"basis vectors of length {basis._n} do not match size {n}")


def is_invariant_subspace(h, basis):
    """True iff H maps span(basis) into itself.

    Coefficients in the combinations may be polynomials in the parameters, so
    the span is invariant exactly when the coefficient vector of every
    monomial in every image lies in it: one elimination over the basis rows
    and those vectors finds no rank beyond the basis.  The basis is real, so
    a Gaussian-rational vector lies in its span exactly when its real and
    imaginary parts do, and each part is checked as its own vector.
    """
    if not h.is_square():
        raise DimensionError("need a square matrix")
    _check_basis_length(basis, h.rows)
    images = {}
    for r, row in enumerate(_image_rows(h, basis._rows)):
        for key, v in row.items():
            images.setdefault(key, {})[r] = v
    rows = [*map(dict, basis._rows), *images.values()]
    return len(_rref(rows, h.rows)) == len(basis)


def block_form(h, basis1, basis2):
    """H rewritten in the basis b1 + b2, exactly; blocks sized |b1| and |b2|.

    Solves ``S X = H S`` for the matrix ``S`` whose columns are the basis
    vectors, by one elimination of the rows of ``[S | H S]``; the right half
    is keyed by (column, monomial, part), so each entry of ``X`` comes out
    as the real and imaginary parts of its monomial coefficients.  Since
    ``S`` is invertible, ``X`` is block diagonal exactly when both spans are
    H-invariant, so a non-zero off-block entry is the invariance test.  Raises
    ValueError if the vectors do not form a full basis or the two subspaces
    are not H-invariant.
    """
    if not h.is_square():
        raise DimensionError("need a square matrix")
    n = h.rows
    columns = basis1._rows + basis2._rows
    if len(columns) != n:
        raise ValueError(f"{len(columns)} basis vectors for dimension {n}: not a full basis")
    for basis in (basis1, basis2):
        _check_basis_length(basis, n)
    rows = _image_rows(h, columns)
    for c, v in enumerate(columns):
        for r, x in v.items():
            rows[r][c] = x
    if _rref(rows, n) != list(range(n)):
        raise ValueError("basis vectors are linearly dependent: not a full basis")

    k = len(basis1)
    # per call: each monomial by its factors, and each entry by its parts
    monos = {m.factors: m for row in h._r for y in row.values() for m, _ in y.terms()}

    @cache
    def entry(parts):
        return PolyScalar([
            (monos[f], GaussRational(0, q) if part else GaussRational(q)) for f, part, q in parts
        ])

    out = []
    for r, row in enumerate(rows):
        terms = {}
        for key, q in row.items():
            if isinstance(key, tuple):
                c, factors, part = key
                if (r < k) != (c < k):
                    raise ValueError("subspaces are not invariant under the matrix")
                terms.setdefault(c, []).append((factors, part, q))
        out.append({c: entry(tuple(t)) for c, t in terms.items()})
    return ExactMatrix._trusted(n, n, tuple(out))


def verify_eigenpair(h, eigenvalue, vector):
    """Exact check that H v == eigenvalue * v for an integer vector v."""
    if not h.is_square():
        raise DimensionError("need a square matrix")
    if len(vector) != h.rows:
        raise DimensionError(f"vector length {len(vector)} does not match size {h.rows}")
    vector = [_integer(x, "vector") for x in vector]
    if not any(vector):
        raise ValueError("zero vector is not an eigenvector")
    image = h @ ExactMatrix(h.rows, 1, vector)
    lam = as_scalar(eigenvalue)
    return all(image[r, 0] == lam * x for r, x in enumerate(vector))
