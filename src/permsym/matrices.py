"""Dense matrices over PolyScalar with the exact operations used throughout:
multiplication, transpose, conjugate transpose, Kronecker product, direct sum
and the 2x2 star product.  All matrices are immutable.

Entries are stored densely, row-major, but every zero entry is the shared
``ZERO`` singleton, so the kernels skip zeros with an identity test instead of
touching them.  ``@`` is a row-wise sparse product (Gustavson, ACM TOMS 1978):
the non-zeros of each row of the right operand are listed once, and each
non-zero ``a[r, t]`` adds ``a[r, t] * b[t, c]`` into the row's accumulator in
ascending ``t``.  ``kron`` emits whole runs of ``ZERO`` for zero entries of its
left operand, and ``+``, ``-`` and scalar ``*`` pass zeros through.  Products
with the ``ONE`` singleton return the other factor.  Results of these kernels
are built by a trusted constructor that skips re-coercing entries that are
already PolyScalars; entries that cancel to zero are replaced by ``ZERO``.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, PolyScalar, as_scalar


class DimensionError(ValueError):
    pass


class ExactMatrix:
    __slots__ = ("rows", "cols", "_e", "_hash")

    def __init__(self, rows, cols, entries):
        entries = tuple(as_scalar(x) or ZERO for x in entries)
        if len(entries) != rows * cols:
            raise DimensionError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_e", entries)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _trusted(cls, rows, cols, entries):
        """Wrap a tuple of PolyScalars whose zeros are all ``ZERO``, unchecked."""
        m = object.__new__(cls)
        object.__setattr__(m, "rows", rows)
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_e", entries)
        object.__setattr__(m, "_hash", None)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, rows):
        """Build from an iterable of rows; entries may be scalars or strings."""
        rows = [list(r) for r in rows]
        if not rows:
            raise DimensionError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionError("ragged rows")
        return cls(len(rows), width, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n):
        entries = [ONE if r == c else ZERO for r in range(n) for c in range(n)]
        return cls._trusted(n, n, tuple(entries))

    @classmethod
    def zeros(cls, rows, cols=None):
        cols = rows if cols is None else cols
        return cls._trusted(rows, cols, (ZERO,) * (rows * cols))

    # -- access --------------------------------------------------------

    def __getitem__(self, key):
        r, c = key
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"index {key} out of range for {self.rows}x{self.cols}")
        return self._e[r * self.cols + c]

    def row(self, r):
        return self._e[r * self.cols : (r + 1) * self.cols]

    def entries(self):
        return self._e

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_square(self):
        return self.rows == self.cols

    # -- algebra --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch: {self.shape} + {other.shape}")
        return ExactMatrix._trusted(self.rows, self.cols, tuple([
            a if b is ZERO else b if a is ZERO else (a + b or ZERO)
            for a, b in zip(self._e, other._e)
        ]))

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch: {self.shape} - {other.shape}")
        return ExactMatrix._trusted(self.rows, self.cols, tuple([
            a if b is ZERO else (a - b or ZERO) for a, b in zip(self._e, other._e)
        ]))

    def __neg__(self):
        return ExactMatrix._trusted(
            self.rows, self.cols, tuple([a if a is ZERO else -a for a in self._e])
        )

    def __mul__(self, scalar):
        s = as_scalar(scalar) if not isinstance(scalar, ExactMatrix) else None
        if s is None:
            return NotImplemented
        if not s:
            return ExactMatrix._trusted(self.rows, self.cols, (ZERO,) * len(self._e))
        # a product of non-zero polynomials is non-zero
        return ExactMatrix._trusted(
            self.rows, self.cols,
            tuple([a if a is ZERO else s if a is ONE else a * s for a in self._e]),
        )

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        s = as_scalar(scalar)
        return ExactMatrix(self.rows, self.cols, [a / s for a in self._e])

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        n, m, k = self.rows, other.cols, self.cols
        a, b = self._e, other._e
        b_rows = [
            [(c, y) for c, y in enumerate(b[t * m : (t + 1) * m]) if y is not ZERO]
            for t in range(k)
        ]
        out = [ZERO] * (n * m)
        for r in range(n):
            acc = {}
            for t, x in enumerate(a[r * k : (r + 1) * k]):
                if x is ZERO:
                    continue
                for c, y in b_rows[t]:
                    xy = x if y is ONE else y if x is ONE else x * y
                    prev = acc.get(c)
                    acc[c] = xy if prev is None else prev + xy
            base = r * m
            for c, v in acc.items():
                if v:
                    out[base + c] = v
        return ExactMatrix._trusted(n, m, tuple(out))

    def transpose(self):
        e, cols = self._e, self.cols
        return ExactMatrix._trusted(
            cols, self.rows, tuple(x for c in range(cols) for x in e[c::cols])
        )

    def conjugate(self):
        return ExactMatrix(self.rows, self.cols, [a.conjugate() for a in self._e])

    def dagger(self):
        """Conjugate transpose; parameters are treated as real."""
        return self.transpose().conjugate()

    def is_hermitian(self):
        if not self.is_square():
            raise DimensionError("hermiticity is defined for square matrices only")
        n = self.rows
        e = self._e
        for r in range(n):
            for c in range(r, n):
                x, y = e[r * n + c], e[c * n + r]
                if (x is not ZERO or y is not ZERO) and x != y.conjugate():
                    return False
        return True

    def is_permutation_matrix(self):
        """True iff entries are 0/1 with exactly one 1 per row and column."""
        if not self.is_square():
            return False
        n = self.rows
        seen_cols = set()
        for r in range(n):
            ones = [c for c in range(n) if self._e[r * n + c] == ONE]
            if len(ones) != 1:
                return False
            if any(self._e[r * n + c] for c in range(n) if c != ones[0]):
                return False
            seen_cols.add(ones[0])
        return len(seen_cols) == n

    def substitute(self, bindings):
        return ExactMatrix(self.rows, self.cols, [a.substitute(bindings) for a in self._e])

    # -- comparison and rendering ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.shape == other.shape and self._e == other._e

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, self._e))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"<ExactMatrix {self.rows}x{self.cols}>"

    def __str__(self):
        cells = [[str(x) for x in self.row(r)] for r in range(self.rows)]
        widths = [max(len(cells[r][c]) for r in range(self.rows)) for c in range(self.cols)]
        return "\n".join(
            "[" + "  ".join(cells[r][c].rjust(widths[c]) for c in range(self.cols)) + "]"
            for r in range(self.rows)
        )


def kron(a, b):
    """Kronecker product, (a.rows*b.rows) x (a.cols*b.cols)."""
    ae, be, ac, bc = a._e, b._e, a.cols, b.cols
    b_rows = [be[r * bc : (r + 1) * bc] for r in range(b.rows)]
    zeros = (ZERO,) * bc
    out = []
    for ar in range(a.rows):
        a_row = ae[ar * ac : (ar + 1) * ac]
        for b_row in b_rows:
            for x in a_row:
                if x is ZERO:
                    out.extend(zeros)
                else:
                    out.extend([
                        ZERO if y is ZERO else x if y is ONE else y if x is ONE else x * y
                        for y in b_row
                    ])
    return ExactMatrix._trusted(a.rows * b.rows, ac * bc, tuple(out))


def direct_sum(a, b):
    """Block-diagonal sum, zeros off the blocks."""
    rows, cols = a.rows + b.rows, a.cols + b.cols
    out = [ZERO] * (rows * cols)
    for r in range(a.rows):
        for c in range(a.cols):
            out[r * cols + c] = a[r, c]
    for r in range(b.rows):
        for c in range(b.cols):
            out[(a.rows + r) * cols + (a.cols + c)] = b[r, c]
    return ExactMatrix(rows, cols, out)


def star2(a, b):
    """Star product of two 2x2 matrices: a on the corners, b in the middle.

    ``star2(A, B)`` is the 4x4 matrix
    ``[[a00, 0, 0, a01], [0, b00, b01, 0], [0, b10, b11, 0], [a10, 0, 0, a11]]``.
    """
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise DimensionError("star product is defined for 2x2 operands only")
    z = ZERO
    return ExactMatrix.from_rows(
        [
            [a[0, 0], z, z, a[0, 1]],
            [z, b[0, 0], b[0, 1], z],
            [z, b[1, 0], b[1, 1], z],
            [a[1, 0], z, z, a[1, 1]],
        ]
    )
