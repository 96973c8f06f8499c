"""Sparse matrices over PolyScalar with the exact operations used throughout:
multiplication, transpose, conjugate transpose, Kronecker product, direct sum
and the 2x2 star product.  All matrices are immutable.

A matrix stores its non-zeros only, as one dict per row mapping a column to a
non-zero PolyScalar; there is no other storage.  A row dict is never changed
once a matrix holds it, so matrices may share rows, and the modules of this
package read and build the dicts directly; the matrix-file reader of ``cli``
fills them from its parsed tokens.  ``entries()`` and ``row(r)`` build a dense
row-major tuple on each call, in which every zero is the shared ``ZERO``
singleton.  ``@`` is a row-wise sparse product
(Gustavson, ACM TOMS 1978): each non-zero ``a[r, t]``, in ascending ``t``,
adds ``a[r, t] * b[t, c]`` over the non-zeros of row ``t`` of ``b`` into the
row's accumulator.  Products with the ``ONE`` singleton return the other
factor.  A product of non-zero polynomials is non-zero, so only a row in
which two products met in a column is filtered for sums that cancel.

``+`` and the entrywise maps (unary minus, scalar ``*`` and ``/``,
``conjugate``, ``substitute``) memoise one call by operand value, ``(x, y)``
in ``+`` and ``x`` in a map: each distinct operand is computed once, a zero
result included, which the memo holds as ``ZERO``.  So a map's memo never
outgrows its operand's non-zeros, nor the memo of ``+`` the right operand's;
where sums cancel, that is more than the output's.  A row of ``+`` whose
right row is empty is the left row itself, shared.  ``@`` memoises its
products by ``(x, y)`` too, but a product need not fill an entry of its own,
so its memo takes a new pair only while it holds fewer than the non-zeros of
the output rows made so far.
"""

from __future__ import annotations

from .scalars import ONE, ZERO, PolyScalar, as_scalar


class DimensionError(ValueError):
    pass


_set = object.__setattr__


class ExactMatrix:
    __slots__ = ("rows", "cols", "_r")

    def __init__(self, rows, cols, entries):
        # each distinct string or number is converted once, so equal ones
        # share one scalar; the key holds the type, so 1.0 is not taken for 1
        converted = {}

        def convert(x):
            if isinstance(x, PolyScalar):
                return x or ZERO
            key = (type(x), x)
            try:
                y = converted.get(key)
            except TypeError:  # unhashable: as_scalar refuses it
                return as_scalar(x)
            if y is None:
                y = converted[key] = as_scalar(x) or ZERO
            return y

        entries = tuple(map(convert, entries))
        if len(entries) != rows * cols:
            raise DimensionError(
                f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(entries)}"
            )
        _set(self, "rows", rows)
        _set(self, "cols", cols)
        _set(self, "_r", tuple(
            {c: x for c, x in enumerate(entries[r * cols : (r + 1) * cols]) if x is not ZERO}
            for r in range(rows)
        ))

    @classmethod
    def _trusted(cls, rows, cols, row_dicts):
        """Wrap a tuple of row dicts of non-zero PolyScalars, unchecked."""
        m = object.__new__(cls)
        _set(m, "rows", rows)
        _set(m, "cols", cols)
        _set(m, "_r", row_dicts)
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
        return cls._trusted(n, n, tuple({r: ONE} for r in range(n)))

    @classmethod
    def zeros(cls, rows, cols=None):
        cols = rows if cols is None else cols
        return cls._trusted(rows, cols, tuple({} for _ in range(rows)))

    # -- access --------------------------------------------------------

    def __getitem__(self, key):
        r, c = key
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"index {key} out of range for {self.rows}x{self.cols}")
        return self._r[r].get(c, ZERO)

    def row(self, r):
        """Row ``r`` as a tuple; every zero is ``ZERO``."""
        out = [ZERO] * self.cols
        for c, x in self._r[r].items():
            out[c] = x
        return tuple(out)

    def entries(self):
        """All entries, row-major; every zero is ``ZERO``."""
        return tuple(x for r in range(self.rows) for x in self.row(r))

    @property
    def shape(self):
        return (self.rows, self.cols)

    def is_square(self):
        return self.rows == self.cols

    # -- algebra --------------------------------------------------------

    def _map(self, f):
        """The matrix of ``f(x)`` over the non-zeros ``x``; zero results are dropped."""
        memo = {}

        def g(x):
            y = memo.get(x)
            if y is None:
                y = memo[x] = f(x) or ZERO
            return y

        return ExactMatrix._trusted(self.rows, self.cols, tuple(
            {c: y for c, x in row.items() if (y := g(x)) is not ZERO} for row in self._r
        ))

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch: {self.shape} + {other.shape}")
        memo = {}
        out = []
        for a_row, b_row in zip(self._r, other._r):
            row = dict(a_row) if b_row else a_row
            for c, y in b_row.items():
                key = (row.pop(c, ZERO), y)
                s = memo.get(key)
                if s is None:
                    s = memo[key] = key[0] + y or ZERO
                if s is not ZERO:
                    row[c] = s
            out.append(row)
        return ExactMatrix._trusted(self.rows, self.cols, tuple(out))

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise DimensionError(f"shape mismatch: {self.shape} - {other.shape}")
        return self + (-other)

    def __neg__(self):
        return self._map(lambda a: -a)

    def __mul__(self, scalar):
        if isinstance(scalar, ExactMatrix):
            return NotImplemented
        s = as_scalar(scalar)
        return self._map(lambda a: s if a is ONE else a * s)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        # ONE / s raises for a zero or non-constant divisor, even with no entry to map
        return self * (ONE / as_scalar(scalar))

    def __matmul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        b = other._r
        memo = {}
        room = 0  # the output's non-zeros so far: the most the memo may hold
        out = []
        for a_row in self._r:
            acc = {}
            met = False  # whether two products met in a column of this row
            for t, x in sorted(a_row.items()) if len(a_row) > 1 else a_row.items():
                for c, y in b[t].items():
                    xy = x if y is ONE else y if x is ONE else memo.get((x, y))
                    if xy is None:
                        xy = x * y
                        if len(memo) < room:
                            memo[x, y] = xy
                    prev = acc.get(c)
                    if prev is not None:
                        xy = prev + xy
                        met = True
                    acc[c] = xy
            out.append(row := {c: v for c, v in acc.items() if v} if met else acc)
            room += len(row)
        return ExactMatrix._trusted(self.rows, other.cols, tuple(out))

    def transpose(self):
        out = tuple({} for _ in range(self.cols))
        for r, row in enumerate(self._r):
            for c, x in row.items():
                out[c][r] = x
        return ExactMatrix._trusted(self.cols, self.rows, out)

    def conjugate(self):
        return self._map(lambda a: a.conjugate())

    def dagger(self):
        """Conjugate transpose; parameters are treated as real."""
        return self.transpose().conjugate()

    def is_hermitian(self):
        if not self.is_square():
            raise DimensionError("hermiticity is defined for square matrices only")
        # every non-zero (u, v) must face its conjugate at (v, u); then the
        # non-zero positions are closed under transposition, so the zeros
        # face zeros too
        rows = self._r
        conj = {}
        for u, row in enumerate(rows):
            for v, x in row.items():
                y = rows[v].get(u)
                if y is None:
                    return False
                c = conj.get(x)
                if c is None:
                    c = x.conjugate()
                    c = conj[x] = x if c == x else c
                if y is not c and y != c:
                    return False
        return True

    def is_permutation_matrix(self):
        """True iff entries are 0/1 with exactly one 1 per row and column."""
        if not self.is_square() or any(len(row) != 1 for row in self._r):
            return False
        ones = {c for row in self._r for c, x in row.items() if x == ONE}
        return len(ones) == self.rows

    def substitute(self, bindings):
        return self._map(lambda a: a.substitute(bindings))

    # -- comparison and rendering ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.shape == other.shape and self._r == other._r

    def __hash__(self):
        # equal matrices hold equal dicts, whatever order their keys went in
        return hash((self.rows, self.cols, tuple(frozenset(row.items()) for row in self._r)))

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
    bc = b.cols
    # a product of non-zero polynomials is non-zero
    out = tuple(
        {
            ac * bc + c: x if y is ONE else y if x is ONE else x * y
            for ac, x in a_row.items()
            for c, y in b_row.items()
        }
        for a_row in a._r
        for b_row in b._r
    )
    return ExactMatrix._trusted(a.rows * b.rows, a.cols * bc, out)


def direct_sum(a, b):
    """Block-diagonal sum, zeros off the blocks."""
    shifted = tuple({a.cols + c: x for c, x in row.items()} for row in b._r)
    return ExactMatrix._trusted(a.rows + b.rows, a.cols + b.cols, a._r + shifted)


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
