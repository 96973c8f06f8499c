import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from permsym import groups
from permsym import (
    GroupError,
    Perm,
    build,
    conjugacy_classes,
    element_orders,
    find_symmetries,
    generate_from,
    generating_set,
    induced_site_perm,
    involutions,
    is_commutative,
    verify_closure,
)

from helpers import (
    SITE_MAPS,
    closure_bruteforce,
    conjugacy_classes_bruteforce,
    table_closure,
    table_conjugacy_classes,
    table_generating_set,
    table_is_commutative,
)


@pytest.fixture(scope="module")
def hubbard_group():
    return verify_closure(find_symmetries(build("hubbard2")).perms)


@pytest.fixture(scope="module")
def triple_group():
    return verify_closure(find_symmetries(build("triple_spin")).perms)


@pytest.fixture(scope="module")
def c4v_group():
    gens = [induced_site_perm(Perm(image)) for image in SITE_MAPS.values()]
    return generate_from(gens)


class TestVerifyClosure:
    def test_klein_four_table(self, hubbard_group):
        g = hubbard_group
        assert g.order == 4
        assert g.elements[0] == Perm.identity(4)
        # every element is its own inverse
        for p in g.elements:
            assert p * p == g.elements[0]
        assert is_commutative(g)

    def test_immutable(self, hubbard_group):
        with pytest.raises(AttributeError, match="SymmetryGroup is immutable"):
            hubbard_group.order = 5

    def test_triple_spin_closed(self, triple_group):
        assert triple_group.order == 24
        assert not is_commutative(triple_group)

    def test_not_closed_witness(self):
        cycle = Perm([1, 2, 0])
        with pytest.raises(GroupError) as info:
            verify_closure([Perm.identity(3), cycle])
        assert "not closed" in str(info.value)
        assert info.value.witness == (cycle, cycle)

    def test_not_closed_witness_keeps_the_product_order(self):
        # a * b lies in the set and b * a does not: the witness is the pair
        # whose product, applying the first and then the second, falls outside
        a, b = Perm([1, 0, 2]), Perm([0, 2, 1])
        assert b * a != a * b
        with pytest.raises(GroupError, match="not closed") as info:
            verify_closure([Perm.identity(3), a, b, a * b])
        assert info.value.witness == (b, a)

    def test_missing_identity(self):
        with pytest.raises(GroupError) as info:
            verify_closure([Perm([1, 0])])
        assert "identity" in str(info.value)

    def test_empty_input(self):
        with pytest.raises(GroupError):
            verify_closure([])

    def test_mixed_lengths(self):
        with pytest.raises(GroupError):
            verify_closure([Perm.identity(2), Perm.identity(3)])

    def test_duplicate_elements(self):
        with pytest.raises(GroupError, match="duplicate elements"):
            verify_closure([Perm.identity(2), Perm([1, 0]), Perm([1, 0])])

    def test_membership_takes_perms_only(self, hubbard_group):
        g = hubbard_group
        for k, p in enumerate(g.elements):
            assert p in g and g.index_of(p) == k
            assert tuple(p.image) not in g
        outsider = Perm([1, 0, 2, 3])
        assert outsider not in g
        with pytest.raises(KeyError):
            g.index_of(outsider)

    def test_identity_moved_first(self):
        g = verify_closure([Perm([1, 0]), Perm.identity(2)])
        assert g.elements[0] == Perm.identity(2)

    def test_search_results_always_close(self):
        for name in ("fermi3", "twospin_H", "twospin_K", "ising4"):
            perms = find_symmetries(build(name)).perms
            assert verify_closure(perms).order == len(perms)


class TestIsCommutative:
    def test_examples(self, hubbard_group, triple_group):
        assert is_commutative(hubbard_group)
        assert not is_commutative(triple_group)
        assert is_commutative(verify_closure([Perm.identity(3)]))


class TestElementOrders:
    def test_klein_four(self, hubbard_group):
        orders = dict(element_orders(hubbard_group))
        assert orders[0] == 1
        assert all(orders[k] == 2 for k in range(1, 4))

    def test_identity_order_one(self):
        g = verify_closure([Perm.identity(4)])
        assert element_orders(g) == [(0, 1)]

    def test_orders_divide_group_order(self, triple_group, c4v_group):
        for g in (triple_group, c4v_group):
            for _, order in element_orders(g):
                assert g.order % order == 0

    def test_involutions_are_order_two(self, triple_group):
        for p in involutions(triple_group):
            assert p.order() == 2
            assert not p.is_identity()


class TestConjugacyClasses:
    def test_abelian_singletons(self, hubbard_group):
        classes = conjugacy_classes(hubbard_group)
        assert len(classes) == 4
        assert all(len(c) == 1 for c in classes)

    def test_c4v_class_sizes(self, c4v_group):
        classes = conjugacy_classes(c4v_group)
        assert sorted(len(c) for c in classes) == [1, 1, 2, 2, 2]
        oracle = conjugacy_classes_bruteforce(c4v_group.elements)
        expected = {
            frozenset(c4v_group.elements[k] for k in cls) for cls in classes
        }
        assert set(oracle) == expected

    def test_triple_spin_matches_bruteforce(self, triple_group):
        classes = conjugacy_classes(triple_group)
        assert sorted(len(c) for c in classes) == [1, 3, 6, 6, 8]
        oracle = conjugacy_classes_bruteforce(triple_group.elements)
        expected = {
            frozenset(triple_group.elements[k] for k in cls) for cls in classes
        }
        assert set(oracle) == expected

    def test_class_equation(self, triple_group, c4v_group, hubbard_group):
        for g in (triple_group, c4v_group, hubbard_group):
            classes = conjugacy_classes(g)
            assert sum(len(c) for c in classes) == g.order
            assert all(g.order % len(c) == 0 for c in classes)
            assert classes[0] == (0,)


class TestGenerateFrom:
    def test_single_involution(self):
        g = generate_from([Perm([1, 0, 3, 2])])
        assert g.order == 2

    def test_c4v_from_two_generators(self):
        c4 = induced_site_perm(Perm([1, 2, 3, 0]))
        sv = induced_site_perm(Perm([1, 0, 3, 2]))
        g = generate_from([c4, sv])
        assert g.order == 8
        assert not is_commutative(g)

    def test_matches_bruteforce_closure(self):
        gens = [Perm([1, 2, 0, 3]), Perm([0, 1, 3, 2])]
        assert set(generate_from(gens).elements) == closure_bruteforce(gens)

    def test_empty_rejected(self):
        with pytest.raises(GroupError):
            generate_from([])

    def test_mixed_lengths_rejected(self):
        with pytest.raises(GroupError, match="different index sets"):
            generate_from([Perm([1, 0]), Perm([1, 2, 0])])

    def test_one_closure_builds_the_group(self, monkeypatch):
        c4 = induced_site_perm(Perm([1, 2, 3, 0]))
        sv = induced_site_perm(Perm([1, 0, 3, 2]))
        ident = Perm.identity(len(c4))
        checked = verify_closure(generate_from([c4, sv]).elements)

        def refuse(elements):
            raise AssertionError("the closure was checked a second time")

        # the breadth-first closure is the proof: no verify_closure pass after it
        monkeypatch.setattr(groups, "verify_closure", refuse)
        g = generate_from([sv, ident, c4, sv, c4 * c4])
        assert g.elements == checked.elements and g.elements[0] == ident
        assert list(g.elements) == sorted(g.elements)
        assert [g.index_of(p) for p in g.elements] == list(range(8))
        assert g.generators == (sv, c4, c4 * c4)
        assert generating_set(g) == [sv, c4, c4 * c4]
        assert conjugacy_classes(g) == conjugacy_classes(checked)
        assert generate_from([ident, ident]).generators == ()

    @seed(7)
    @settings(max_examples=40, deadline=None, database=None)
    @given(st.integers(1, 5).flatmap(
        lambda d: st.lists(st.permutations(range(d)).map(Perm), min_size=1, max_size=4)))
    def test_generators_are_the_given_ones(self, gens):
        g = generate_from(gens)
        ident = Perm.identity(len(gens[0]))
        assert list(g.generators) == [p for p in dict.fromkeys(gens) if p != ident]
        assert set(g.elements) == closure_bruteforce(gens)
        checked = verify_closure(g.elements)
        assert g.elements == checked.elements
        assert conjugacy_classes(g) == conjugacy_classes(checked)
        assert is_commutative(g) == is_commutative(checked)


class TestGeneratingSet:
    def test_klein_four_needs_two(self, hubbard_group):
        gens = generating_set(hubbard_group)
        assert len(gens) == 2
        assert set(generate_from(gens).elements) == set(hubbard_group.elements)

    def test_trivial_group_empty(self):
        assert generating_set(verify_closure([Perm.identity(3)])) == []

    def test_round_trip_all_groups(self, hubbard_group, triple_group, c4v_group):
        for g in (hubbard_group, triple_group, c4v_group):
            gens = generating_set(g)
            regenerated = generate_from(gens) if gens else None
            if regenerated is None:
                assert g.order == 1
            else:
                assert list(regenerated.elements) == sorted(g.elements)
                assert regenerated.order == g.order


@st.composite
def shuffled_groups(draw):
    """The group of 1-3 random permutations of degree 2-6, in random order."""
    degree = draw(st.integers(2, 6))
    gens = draw(st.lists(st.permutations(range(degree)).map(Perm), min_size=1, max_size=3))
    return draw(st.permutations(generate_from(gens).elements))


class TestAgainstTableOracle:
    @seed(6)
    @settings(max_examples=30, deadline=None, database=None)
    @given(st.data())
    def test_group_layer_matches_oracle(self, data):
        perms = data.draw(shuffled_groups())
        elements, table = table_closure(perms)
        group = verify_closure(perms)
        assert list(group.elements) == elements
        assert generating_set(group) == [elements[k] for k in table_generating_set(table)]
        assert is_commutative(group) == table_is_commutative(table)
        assert conjugacy_classes(group) == table_conjugacy_classes(table)

        # a few members plus the identity: usually not closed
        subset = data.draw(st.lists(st.sampled_from(perms), max_size=8, unique=True))
        subset.append(Perm.identity(len(perms[0])))
        subset = list(dict.fromkeys(subset))
        members = set(subset)
        closed = all(x * g in members for x in subset for g in subset)
        if closed:
            assert set(verify_closure(subset).elements) == members
        else:
            with pytest.raises(GroupError, match="not closed") as info:
                verify_closure(subset)
            x, g = info.value.witness
            assert x in members and g in members
            assert x * g not in members
