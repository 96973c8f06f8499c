"""Group structure of a set of permutations: closure verification, element
orders, conjugacy classes and generators.

The group layer composes image tuples, ``Perm.image``: "apply ``x``, then
``h``" is ``itemgetter(*x)(h)``, the image of ``x * h``, a tuple because a
group of two or more elements acts on n >= 2 indices.  A verified group
keeps one dict from image tuple to element position, which serves every
membership test and index lookup.
"""

from __future__ import annotations

from operator import itemgetter

from .perms import Perm, _trusted
from .scalars import _Frozen


class GroupError(ValueError):
    """Raised when a set of permutations fails a group axiom.

    ``witness`` holds the offending element or pair, when there is one.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SymmetryGroup(_Frozen):
    """A verified permutation group: ordered elements plus the generators that
    proved their closure.

    ``elements[0]`` is the identity.  ``generators`` are the elements that
    ``verify_closure``'s scan kept, in element order, or those given to
    ``generate_from``, without duplicates or the identity.  ``index_of`` and
    ``in`` read the one index of the group, a dict from the image tuple of
    each element to its position in ``elements``.
    """

    __slots__ = ("elements", "generators", "_index")

    def __init__(self, elements, generators, index):
        self._fill(elements=tuple(elements), generators=tuple(generators), _index=index)

    @property
    def order(self):
        return len(self.elements)

    def index_of(self, p):
        return self._index[p.image]

    def __contains__(self, p):
        return isinstance(p, Perm) and p.image in self._index


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
    ident = Perm.identity(n)
    if ident in elements:
        elements.remove(ident)
        elements.insert(0, ident)
    images = [p.image for p in elements]
    index = dict(zip(images, range(len(images))))
    if len(index) != len(images):
        raise GroupError("duplicate elements")
    if images[0] != ident.image:
        raise GroupError("missing identity", witness=ident)

    gens = []
    reached = [images[0]]
    seen = bytearray(len(images))
    seen[0] = 1
    for k, g in enumerate(images):
        if len(reached) == len(images):
            break
        if seen[k]:
            continue
        gens.append(g)
        # reached[:old] is closed under the earlier generators, so its
        # elements need only the new one; elements reached from here on
        # need every generator
        old = len(reached)
        for i, x in enumerate(reached):
            get = itemgetter(*x)
            for h in gens if i >= old else (g,):
                prod = get(h)
                at = index.get(prod)
                if at is None:
                    a, b = index[x], index[h]
                    raise GroupError(
                        f"not closed: element {a} * element {b} = "
                        f"{_trusted(prod)} is outside the set",
                        witness=(elements[a], elements[b]),
                    )
                if not seen[at]:
                    seen[at] = 1
                    reached.append(prod)
    return SymmetryGroup(elements, [elements[index[g]] for g in gens], index)


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
    index = group._index
    images = list(index)
    gens = [(itemgetter(*g.inverse().image), g.image) for g in group.generators]
    assigned = bytearray(len(images))
    classes = []
    for k in range(len(images)):
        if assigned[k]:
            continue
        assigned[k] = 1
        members = [k]
        for m in members:
            y = images[m]
            for g_inv, g in gens:
                # the image of g_inv * y * g
                i = index[itemgetter(*g_inv(y))(g)]
                if not assigned[i]:
                    assigned[i] = 1
                    members.append(i)
        classes.append(tuple(sorted(members)))
    return classes


def generate_from(generators):
    """Closure of the generators under composition, as a SymmetryGroup.

    One breadth-first closure multiplies every reached element by every
    generator once, so the set is closed under products and, being finite,
    holds every inverse: it proves itself a group.  Elements are ordered
    lexicographically; ``generators`` are the given ones without duplicates
    or the identity, in the given order.
    """
    generators = list(generators)
    if not generators:
        raise GroupError("need at least one generator")
    n = len(generators[0])
    if any(len(p) != n for p in generators):
        raise GroupError("generators act on different index sets")
    ident = tuple(range(n))
    gens = [g for g in dict.fromkeys(p.image for p in generators) if g != ident]
    seen = {ident}
    queue = [ident]
    for p in queue:
        for g in gens:
            q = tuple([g[j] for j in p])
            if q not in seen:
                seen.add(q)
                queue.append(q)
    images = sorted(seen)
    index = dict(zip(images, range(len(images))))
    elements = list(map(_trusted, images))
    return SymmetryGroup(elements, [elements[index[g]] for g in gens], index)


def generating_set(group):
    """The group's stored generators, as ``SymmetryGroup`` describes them:
    a small, not necessarily minimal, generating subset; the trivial group
    yields an empty list."""
    return list(group.generators)
