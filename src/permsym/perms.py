"""Permutations of basis indices and their matrix realization.

A permutation is stored as its image array: ``p.image[u]`` is where index
``u`` goes.  The matrix realization puts a 1 at row ``u``, column
``image[u]``, and composition is defined so that the realization is a
homomorphism: ``(p * q).to_matrix() == p.to_matrix() @ q.to_matrix()``.
"""

from __future__ import annotations

from functools import lru_cache, total_ordering
from math import lcm
from operator import index

from .matrices import ExactMatrix
from .scalars import ONE, _Frozen


@total_ordering
class Perm(_Frozen):
    """A permutation of ``0..n-1`` by its image tuple.  ``_order`` keeps the
    order once a cycle walk has found it: the int only, not the cycle string,
    so that a large group's elements stay small."""

    __slots__ = ("image", "_order")

    def __init__(self, image):
        image = tuple(image)
        try:
            image = tuple(map(index, image))
        except TypeError:
            raise ValueError(f"permutation entries must be integers: {image}") from None
        if sorted(image) != list(range(len(image))):
            raise ValueError(f"not a permutation of 0..{len(image) - 1}: {image}")
        object.__setattr__(self, "image", image)

    @classmethod
    def identity(cls, n):
        return cls(range(n))

    @classmethod
    def parse(cls, text):
        """Parse the textual form ``j_0,j_1,...,j_{n-1}`` (0-based, ASCII digits)."""
        try:
            return cls(_index(part) for part in text.split(","))
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
        # inverse[image[u]] = u: the indices sorted by their images
        return _trusted(tuple(sorted(range(len(self.image)), key=self.image.__getitem__)))

    def is_identity(self):
        return all(j == u for u, j in enumerate(self.image))

    def order(self):
        """Least m >= 1 with p^m = identity (lcm of cycle lengths)."""
        try:
            return self._order
        except AttributeError:
            _set_order(self, order := cycle_summary(self.image)[1])
            return order

    def cycles(self):
        """All cycles, fixed points included, each starting at its least element."""
        seen = set()
        out = []
        for start in range(len(self.image)):
            if start not in seen:
                cycle = [start]
                while (j := self.image[cycle[-1]]) != start:
                    cycle.append(j)
                seen.update(cycle)
                out.append(tuple(cycle))
        return out

    def cycle_string(self):
        text, order = cycle_summary(self.image)
        _set_order(self, order)
        return text

    def to_matrix(self):
        """The 0/1 matrix with a 1 at (u, image[u]) for every u."""
        n = len(self.image)
        return ExactMatrix._trusted(n, n, tuple({j: ONE} for j in self.image))

    @classmethod
    def from_matrix(cls, m):
        """Inverse of to_matrix; rejects anything but a permutation matrix."""
        if not m.is_permutation_matrix():
            raise ValueError("not a permutation matrix")
        return cls(next(iter(row)) for row in m._r)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.image == other.image

    def __lt__(self, other):
        if not isinstance(other, Perm):
            return NotImplemented
        return self.image < other.image

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        return f"Perm({list(self.image)})"

    def __str__(self):
        return ",".join(str(j) for j in self.image)


# the slots' own setters, which bypass the immutability guard in __setattr__
_set_image = Perm.image.__set__
_set_order = Perm._order.__set__


def _trusted(image):
    """A Perm from an image tuple already known to be a permutation,
    without the validation in ``Perm.__init__``."""
    p = object.__new__(Perm)
    _set_image(p, image)
    return p


def _index(field):
    """``int(field)``, refused unless the field is ASCII decimal digits:
    ``int`` also takes signs, spaces, underscores and other scripts' digits."""
    value = int(field)
    if not (field.isascii() and field.isdigit()):
        raise ValueError(f"{field!r} is not an ASCII decimal index")
    return value


@lru_cache(maxsize=8)
def _labels(n):
    """``str(u)`` for each index ``u < n``: one table per length, shared by calls."""
    return tuple(map(str, range(n)))


def cycle_summary(image):
    """The cycle string ``(0 3)(1 2)`` and the order of the permutation with
    this image, from one walk over it.

    Cycles are listed as ``Perm.cycles`` lists them, fixed points included.
    """
    n = len(image)
    labels = _labels(n)
    seen = bytearray(n)
    parts = []
    lengths = set()
    for start in range(n):
        if seen[start]:
            continue
        j = image[start]
        if j == start:
            # a fixed point: no later start can reach it, so it needs no mark
            parts.append("(" + labels[start] + ")")
            continue
        cycle = [labels[start]]
        while j != start:
            cycle.append(labels[j])
            seen[j] = 1
            j = image[j]
        parts.append("(" + " ".join(cycle) + ")")
        lengths.add(len(cycle))
    return "".join(parts), lcm(*lengths)


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
