"""Group structure of a set of permutations: closure verification,
multiplication table, element orders, conjugacy classes and generators.
"""

from __future__ import annotations

from collections import deque

from .perms import Perm


class GroupError(ValueError):
    """Raised when a set of permutations fails a group axiom.

    ``witness`` holds the offending element or pair, when there is one.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SymmetryGroup:
    """A verified permutation group: ordered elements plus the generators that
    proved their closure.

    ``elements[0]`` is the identity.  ``generators`` are the elements that
    ``verify_closure``'s scan kept, in element order.  ``table[a][b]`` is the
    index of ``elements[a] * elements[b]``; it costs |G|^2 products and is
    built on first access.
    """

    __slots__ = ("elements", "generators", "_index", "_table")

    def __init__(self, elements, generators):
        object.__setattr__(self, "elements", tuple(elements))
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "_index", {p: k for k, p in enumerate(self.elements)})
        object.__setattr__(self, "_table", None)

    def __setattr__(self, name, value):
        raise AttributeError("SymmetryGroup is immutable")

    @property
    def table(self):
        if self._table is None:
            index = self._index
            table = tuple(
                tuple(index[p * q] for q in self.elements) for p in self.elements
            )
            object.__setattr__(self, "_table", table)
        return self._table

    @property
    def order(self):
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def index_of(self, p):
        return self._index[p]

    def __contains__(self, p):
        return p in self._index


def verify_closure(elements):
    """Check the group axioms and return the SymmetryGroup.

    The input order is preserved (identity moved to the front if needed);
    raises GroupError naming the first witness of a failed axiom.

    The elements are scanned in order and each one the closure so far has not
    reached becomes a generator.  The closure grows as in Dimino's algorithm:
    every reached element is multiplied by every generator exactly once, and
    every product must lie in the set.  That is |G|*r products for r
    generators.  Reaching all elements proves the set a group: it is then the
    closure of its generators under composition, which for permutations also
    holds every inverse.
    """
    elements = list(elements)
    if not elements:
        raise GroupError("empty set has no identity")
    n = len(elements[0])
    if any(len(p) != n for p in elements):
        raise GroupError("elements act on different index sets")
    if len(set(elements)) != len(elements):
        raise GroupError("duplicate elements")

    ident = Perm.identity(n)
    if ident not in set(elements):
        raise GroupError("missing identity", witness=ident)
    elements.remove(ident)
    elements.insert(0, ident)

    index = {p: k for k, p in enumerate(elements)}
    gens = []
    reached = [ident]
    seen = {ident}
    for g in elements:
        if len(reached) == len(elements):
            break
        if g in seen:
            continue
        gens.append(g)
        # reached[:old] is closed under the earlier generators, so its
        # elements need only the new one; elements reached from here on
        # need every generator
        old = len(reached)
        for k, x in enumerate(reached):
            for h in gens if k >= old else (g,):
                prod = x * h
                if prod not in seen:
                    if prod not in index:
                        raise GroupError(
                            f"not closed: element {index[x]} * element {index[h]} = "
                            f"{prod} is outside the set",
                            witness=(x, h),
                        )
                    seen.add(prod)
                    reached.append(prod)
    return SymmetryGroup(elements, gens)


def is_commutative(group):
    """True iff the generators commute pairwise."""
    gens = group.generators
    return all(p * q == q * p for i, p in enumerate(gens) for q in gens[i + 1:])


def element_orders(group):
    """(index, order) for every element, in element order."""
    return [(k, p.order()) for k, p in enumerate(group.elements)]


def involutions(group):
    """Elements of order exactly 2."""
    return [p for p in group.elements if p.order() == 2]


def conjugacy_classes(group):
    """Partition of element indices under conjugation, classes by least member.

    Each class is the orbit of its least member under conjugation by the
    generators, which costs 2*r products per class member.
    """
    elements = group.elements
    gens = [(g.inverse(), g) for g in group.generators]
    assigned = [False] * len(elements)
    classes = []
    for k in range(len(elements)):
        if assigned[k]:
            continue
        assigned[k] = True
        members = [k]
        for j in members:
            y = elements[j]
            for g_inv, g in gens:
                i = group.index_of(g_inv * y * g)
                if not assigned[i]:
                    assigned[i] = True
                    members.append(i)
        classes.append(tuple(sorted(members)))
    return classes


def generate_from(generators):
    """Closure of the generators under composition, as a SymmetryGroup.

    Breadth-first product saturation; the identity is always included and
    elements are ordered lexicographically.
    """
    generators = list(generators)
    if not generators:
        raise GroupError("need at least one generator")
    n = len(generators[0])
    if any(len(p) != n for p in generators):
        raise GroupError("generators act on different index sets")
    ident = Perm.identity(n)
    seen = {ident}
    queue = deque([ident])
    while queue:
        p = queue.popleft()
        for g in generators:
            q = p * g
            if q not in seen:
                seen.add(q)
                queue.append(q)
    # finite closure under products of generators contains all inverses
    return verify_closure(sorted(seen))


def generating_set(group):
    """A small (greedy, not necessarily minimal) generating subset.

    These are the generators ``verify_closure`` kept: scanning elements in
    order, each one not generated by the elements kept so far; the trivial
    group yields an empty list.
    """
    return list(group.generators)
