"""Permutations of basis indices and their matrix realization.

A permutation is stored as its image array: ``p.image[u]`` is where index
``u`` goes.  The matrix realization puts a 1 at row ``u``, column
``image[u]``, and composition is defined so that the realization is a
homomorphism: ``(p * q).to_matrix() == p.to_matrix() @ q.to_matrix()``.
"""

from __future__ import annotations

from math import lcm

from .matrices import ExactMatrix
from .scalars import ONE, ZERO


class Perm:
    __slots__ = ("image",)

    def __init__(self, image):
        image = tuple(int(x) for x in image)
        if sorted(image) != list(range(len(image))):
            raise ValueError(f"not a permutation of 0..{len(image) - 1}: {image}")
        object.__setattr__(self, "image", image)

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @classmethod
    def identity(cls, n):
        return cls(range(n))

    @classmethod
    def parse(cls, text):
        """Parse the textual form ``j_0,j_1,...,j_{n-1}`` (0-based)."""
        try:
            return cls(int(part) for part in text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad permutation {text!r}: {exc}") from None

    def __len__(self):
        return len(self.image)

    def __call__(self, u):
        return self.image[u]

    def __mul__(self, other):
        """Apply self first, then other; matches the matrix product order."""
        if not isinstance(other, Perm):
            return NotImplemented
        a, b = self.image, other.image
        if len(a) != len(b):
            raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
        # a composition of two permutations is a permutation: skip the check
        return _trusted(tuple([b[j] for j in a]))

    def inverse(self):
        inv = [0] * len(self.image)
        for u, j in enumerate(self.image):
            inv[j] = u
        return Perm(inv)

    def is_identity(self):
        return all(j == u for u, j in enumerate(self.image))

    def order(self):
        """Least m >= 1 with p^m = identity (lcm of cycle lengths)."""
        return cycles_order(self.cycles())

    def cycles(self):
        """All cycles, fixed points included, each starting at its least element."""
        seen = [False] * len(self.image)
        out = []
        for start in range(len(self.image)):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            j = self.image[start]
            while j != start:
                cycle.append(j)
                seen[j] = True
                j = self.image[j]
            out.append(tuple(cycle))
        return out

    def cycle_string(self):
        return format_cycles(self.cycles())

    def to_matrix(self):
        """The 0/1 matrix with a 1 at (u, image[u]) for every u."""
        n = len(self.image)
        entries = [ZERO] * (n * n)
        for u, j in enumerate(self.image):
            entries[u * n + j] = ONE
        return ExactMatrix(n, n, entries)

    @classmethod
    def from_matrix(cls, m):
        """Inverse of to_matrix; rejects anything but a permutation matrix."""
        if not m.is_permutation_matrix():
            raise ValueError("not a permutation matrix")
        return cls([m.row(u).index(ONE) for u in range(m.rows)])

    def __eq__(self, other):
        return isinstance(other, Perm) and self.image == other.image

    def __lt__(self, other):
        return self.image < other.image

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        return f"Perm({list(self.image)})"

    def __str__(self):
        return ",".join(str(j) for j in self.image)


# the slot's own setter, which bypasses the immutability guard in __setattr__
_set_image = Perm.image.__set__


def _trusted(image):
    """A Perm from an image tuple already known to be a permutation,
    without the validation in ``Perm.__init__``."""
    p = object.__new__(Perm)
    _set_image(p, image)
    return p


def cycles_order(cycles):
    """The order of the permutation with these cycles: lcm of their lengths."""
    return lcm(*(len(c) for c in cycles))


def format_cycles(cycles):
    """Cycles in the text form ``(0 3)(1 2)`` that ``Perm.cycle_string`` uses."""
    return "".join("(" + " ".join(str(v) for v in c) + ")" for c in cycles)


def induced_site_perm(g):
    """Lift a permutation of n sites to the 2^n spin basis indices.

    Basis index bits are ordered with site 0 as the most significant bit.
    The bit sitting at site k moves to site ``g(k)``, which makes the lift a
    group homomorphism for ``*``: the lift of ``g * h`` is the lift of ``g``
    times the lift of ``h``.
    """
    n = len(g)
    if n < 1:
        raise ValueError("need at least one site")
    size = 1 << n
    image = [0] * size
    shifts = [(n - 1 - k, n - 1 - g(k)) for k in range(n)]
    for b in range(size):
        c = 0
        for src, dst in shifts:
            if (b >> src) & 1:
                c |= 1 << dst
        image[b] = c
    return Perm(image)
