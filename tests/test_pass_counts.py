"""Deterministic work counts of one spin-chain pass: the finds on the L = 6, 7
and 8 site chains, each listing its symmetries as a report record does, and
spin-flip decompositions of the L = 6 and 7 site chains.  The counts do not
depend on the host, so they pin the work that timings only estimate."""

from permsym import Perm, find_symmetries, is_symmetry, perms
from permsym.decompose import block_form, column_space_basis, projectors_from_involution
from permsym.perms import cycle_summary
from permsym.scalars import PolyScalar

from helpers import ising_chain

FINDS, DECOMPOSES = (6, 7, 8), (6, 7)


def test_scalar_additions_of_the_chain_builds(monkeypatch):
    # each + makes one scalar addition per distinct pair of entries, sums
    # that cancel included; recomputing the cancelled sums made 1,105
    add = PolyScalar.__add__
    made = []
    monkeypatch.setattr(PolyScalar, "__add__", lambda x, y: made.append(1) or add(x, y))
    for L in FINDS + DECOMPOSES:
        ising_chain(L)
    assert len(made) == 273


def test_one_cycle_walk_per_listed_symmetry(monkeypatch):
    walks = []
    monkeypatch.setattr(
        perms, "cycle_summary", lambda image: walks.append(image) or cycle_summary(image)
    )
    listed = 0
    for L in FINDS:
        result = find_symmetries(ising_chain(L))
        for p in result.perms:
            # an element's order divides the group's, 4L
            assert p.cycle_string() and 4 * L % p.order() == 0
        listed += len(result.perms)
    for L in DECOMPOSES:
        h = ising_chain(L)
        flip = Perm([(1 << L) - 1 - u for u in range(1 << L)])
        assert is_symmetry(h, flip) and flip.order() == 2
        pair = projectors_from_involution(flip)
        block_form(h, column_space_basis(pair.pi1), column_space_basis(pair.pi2))
    # a record's string and order take one walk, and the involution's order
    # is asked twice; walking for each made 172
    assert listed == 84
    assert len(walks) == 86
