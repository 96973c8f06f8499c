import itertools
import random
import warnings

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from permsym import (
    ExactMatrix,
    Perm,
    SearchConfig,
    SearchResult,
    build,
    find_symmetries,
    is_symmetry,
)
import permsym.search
from permsym.search import (
    MODE_LEAF_CHECK,
    MODE_PRUNED,
    _color_table,
    _plan,
    _stabiliser_chain,
)

from helpers import rand_symmetric, reference_search, small_entry_pool

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, database=None)


@pytest.fixture
def rng():
    return random.Random(77003)


class TestIsSymmetry:
    def test_fermi3_equal_levels(self):
        h = build("fermi3", {"k1": "k", "k2": "k", "k3": "k"})
        assert is_symmetry(h, Perm([2, 1, 0]))

    def test_fermi3_distinct_levels(self):
        h = build("fermi3")
        assert not is_symmetry(h, Perm([2, 1, 0]))

    def test_identity_always(self):
        for name in ("fermi3", "hubbard2", "twospin_K", "triple_spin"):
            h = build(name)
            assert is_symmetry(h, Perm.identity(h.rows))

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            is_symmetry(ExactMatrix.zeros(2, 3), Perm([0, 1]))
        with pytest.raises(ValueError):
            is_symmetry(ExactMatrix.identity(3), Perm([0, 1]))

    def test_agrees_with_matrix_commutation(self, rng):
        pool = small_entry_pool()
        for _ in range(25):
            h = rand_symmetric(rng, 4, pool)
            image = list(range(4))
            rng.shuffle(image)
            p = Perm(image)
            pm = p.to_matrix()
            assert is_symmetry(h, p) == (pm @ h == h @ pm)
            assert is_symmetry(h, p) == (pm.transpose() @ h @ pm == h)

    def test_inverse_is_symmetry_too(self, rng):
        pool = small_entry_pool()
        for _ in range(25):
            h = rand_symmetric(rng, 5, pool)
            image = list(range(5))
            rng.shuffle(image)
            p = Perm(image)
            assert is_symmetry(h, p) == is_symmetry(h, p.inverse())


def reference_is_symmetry(h, p):
    n = h.rows
    return all(h[p(u), p(v)] == h[u, v] for u in range(n) for v in range(n))


@st.composite
def nearly_symmetric(draw):
    """(H, p): p fixes n-1 and H is constant on the orbits of index pairs
    under p, so p is a symmetry, unless one entry (n-1, u) or (u, n-1) with
    p(u) != u is then changed.  Every mismatch lies in the last row or the
    last column, because the orbit of (u, n-1) stays in the last column."""
    n = draw(st.integers(1, 6))
    p = Perm([*draw(st.permutations(range(n - 1))), n - 1])
    entries = {}
    for u in range(n):
        for v in range(n):
            value = draw(st.integers(0, 2))
            x, y = u, v
            while (x, y) not in entries:
                entries[x, y] = value
                x, y = p(x), p(y)
    moved = [u for u in range(n) if p(u) != u]
    if moved:
        u = draw(st.sampled_from(moved))
        where = draw(st.sampled_from([None, (n - 1, u), (u, n - 1)]))
        if where is not None:
            entries[where] = 3
    rows = [[entries[u, v] for v in range(n)] for u in range(n)]
    return ExactMatrix.from_rows(rows), p


class TestIsSymmetryProperty:
    @seed(2718)
    @PROPERTY_SETTINGS
    @given(nearly_symmetric())
    def test_matches_entrywise_loop(self, case):
        h, p = case
        assert is_symmetry(h, p) == reference_is_symmetry(h, p)
        assert is_symmetry(h, Perm.identity(h.rows))


class TestFindSymmetries:
    def test_hubbard2_exact_set(self):
        result = find_symmetries(build("hubbard2"))
        images = [p.image for p in result.perms]
        assert images == [(0, 1, 2, 3), (0, 2, 1, 3), (3, 1, 2, 0), (3, 2, 1, 0)]
        assert result.exhausted
        assert result.count == 4

    def test_twospin_K_identity_only(self):
        result = find_symmetries(build("twospin_K"))
        assert [p.image for p in result.perms] == [(0, 1, 2, 3)]

    def test_triple_spin_count(self):
        result = find_symmetries(build("triple_spin"))
        assert result.count == 24

    def test_results_sorted_identity_first(self, rng):
        pool = small_entry_pool()
        for _ in range(10):
            h = rand_symmetric(rng, 5, pool)
            result = find_symmetries(h)
            assert list(result.perms) == sorted(result.perms)
            assert result.perms[0] == Perm.identity(5)

    def test_found_set_closed_under_product_and_inverse(self, rng):
        pool = small_entry_pool()
        for _ in range(8):
            h = rand_symmetric(rng, 5, pool)
            found = set(find_symmetries(h).perms)
            for p in found:
                assert p.inverse() in found
                for q in found:
                    assert p * q in found

    def test_determinism(self):
        h = build("triple_spin")
        a = find_symmetries(h)
        b = find_symmetries(h)
        assert a == b

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            find_symmetries(ExactMatrix.zeros(2, 3))

    def test_non_hermitian_runs_without_warning(self):
        # the CLI reports a non-hermitian input; the search only searches
        m = ExactMatrix.from_rows([[0, 1], [0, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = find_symmetries(m)
        assert [p.image for p in result.perms] == [(0, 1)]


class TestLeafCheckConformance:
    def test_models_match_reference_search(self):
        for name in ("fermi3", "hubbard2", "twospin_H", "twospin_K"):
            h = build(name)
            expected, trials = reference_search(h)
            result = find_symmetries(h, SearchConfig(mode=MODE_LEAF_CHECK))
            assert [p.image for p in result.perms] == expected
            assert result.nodes_visited == trials

    def test_random_matrices_match_reference_search(self, rng):
        pool = small_entry_pool()
        for n in (3, 4, 5):
            for _ in range(8):
                h = rand_symmetric(rng, n, pool)
                expected, trials = reference_search(h)
                result = find_symmetries(h, SearchConfig(mode=MODE_LEAF_CHECK))
                assert [p.image for p in result.perms] == expected
                assert result.nodes_visited == trials


class TestModeEquivalence:
    def test_small_models(self):
        for name in ("fermi3", "hubbard2", "twospin_H", "twospin_K"):
            h = build(name)
            leaf = find_symmetries(h, SearchConfig(mode=MODE_LEAF_CHECK))
            pruned = find_symmetries(h, SearchConfig(mode=MODE_PRUNED))
            assert leaf.perms == pruned.perms

    def test_random_matrices(self, rng):
        pool = small_entry_pool()
        for _ in range(15):
            h = rand_symmetric(rng, 5, pool)
            leaf = find_symmetries(h, SearchConfig(mode=MODE_LEAF_CHECK))
            pruned = find_symmetries(h, SearchConfig(mode=MODE_PRUNED))
            assert leaf.perms == pruned.perms


class TestBudgets:
    def test_node_budget_partial(self):
        h = build("triple_spin")
        full = find_symmetries(h)
        partial = find_symmetries(h, SearchConfig(node_budget=100))
        assert not partial.exhausted
        assert partial.nodes_visited == 100
        assert list(partial.perms) == list(full.perms)[: partial.count]

    def test_node_budget_large_enough(self):
        h = build("hubbard2")
        result = find_symmetries(h, SearchConfig(node_budget=10**6))
        assert result.exhausted
        assert result.count == 4

    def test_max_results(self):
        h = build("triple_spin")
        result = find_symmetries(h, SearchConfig(max_results=3))
        assert result.count == 3
        assert len(result.perms) == 3
        assert not result.exhausted
        assert result.perms[0] == Perm.identity(8)

    def test_max_results_not_reached(self):
        result = find_symmetries(build("hubbard2"), SearchConfig(max_results=100))
        assert result.exhausted

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            SearchConfig(mode="bogus")
        with pytest.raises(ValueError):
            SearchConfig(max_results=0)
        with pytest.raises(ValueError):
            SearchConfig(node_budget=-1)


class TestCountOnly:
    def test_counts(self):
        cfg = SearchConfig(count_only=True)
        assert find_symmetries(build("fermi3", {"k1": "k", "k2": "k", "k3": "k"}), cfg).count == 2
        assert find_symmetries(build("twospin_H"), cfg).count == 4
        assert find_symmetries(build("fermi3", {"k2": "q", "k3": "q"}), cfg).count == 1

    def test_count_only_config_returns_no_perms(self):
        result = find_symmetries(build("hubbard2"), SearchConfig(count_only=True))
        assert result.count == 4
        assert result.perms == ()


class TestParallel:
    def test_leaf_mode_needs_no_color_table(self, monkeypatch):
        # leaf-check is the oracle for pruned, so it must not share the
        # colour table with it
        def refuse(*args, **kwargs):
            raise AssertionError("leaf-check used the pruned search's machinery")

        monkeypatch.setattr(permsym.search, "_color_table", refuse)
        for name in ("fermi3", "hubbard2", "twospin_H"):
            h = build(name)
            expected, trials = reference_search(h)
            result = find_symmetries(h, SearchConfig(mode=MODE_LEAF_CHECK))
            assert [p.image for p in result.perms] == expected
            assert result.nodes_visited == trials and result.exhausted


class TestResultShape:
    def test_result_is_frozen_record(self):
        result = find_symmetries(build("hubbard2"))
        assert isinstance(result, SearchResult)
        with pytest.raises(Exception):
            result.count = 0

    def test_degenerate_parameters_enlarge_group(self):
        cfg = SearchConfig(count_only=True)
        tied = build("fermi3", {"k1": "k", "k2": "k", "k3": "k"})
        assert find_symmetries(tied, cfg).count == 2
        scalar = build("fermi3", {"k1": "k", "k2": "k", "k3": "k", "t": 0})
        assert find_symmetries(scalar, cfg).count == 6


class TestPrunedNodeCounts:
    """Exact node counts of the pruned search: they pin the candidate lists,
    and change only when the search does."""

    def test_ising4(self):
        chain = find_symmetries(build("ising4"))
        assert (chain.nodes_visited, chain.count) == (98, 16)
        tree = find_symmetries(build("ising4"), SearchConfig(node_budget=10**12))
        assert (tree.nodes_visited, tree.count) == (634, 16)

    def test_triple_spin(self):
        chain = find_symmetries(build("triple_spin"))
        assert (chain.nodes_visited, chain.count) == (26, 24)
        tree = find_symmetries(build("triple_spin"), SearchConfig(node_budget=10**12))
        assert (tree.nodes_visited, tree.count) == (220, 24)
        # the budget tests cut the whole tree at 50 and 100 nodes
        assert tree.nodes_visited > 100

    def test_budgeted_run_with_jobs_is_cut_as_serial(self):
        h = build("triple_spin")
        budget = SearchConfig(node_budget=100)
        partial = find_symmetries(h, budget)
        assert not partial.exhausted and partial.nodes_visited == 100
        assert partial == find_symmetries(h, budget)


# -- property suites ---------------------------------------------------------


@st.composite
def color_matrices(draw, max_n=6):
    """A square matrix of small integer entries, so that entries collide.

    It is symmetric or not, and its entries are either independent or
    constant on the orbits of index pairs under a random permutation ``g``,
    which makes ``g`` a symmetry and the group larger.
    """
    n = draw(st.integers(1, max_n))
    symmetric = draw(st.booleans())
    colors = draw(st.integers(1, 3))
    g = draw(st.permutations(range(n))) if draw(st.booleans()) else list(range(n))
    entries = {}
    for u in range(n):
        for v in range(n):
            if (u, v) in entries:
                continue
            value = draw(st.integers(0, colors - 1))
            x, y = u, v
            while (x, y) not in entries:
                entries[x, y] = value
                if symmetric:
                    entries[y, x] = value
                x, y = g[x], g[y]
    return ExactMatrix.from_rows([[entries[u, v] for v in range(n)] for u in range(n)])


def relabel(h, sigma):
    """The matrix with index u renamed sigma(u): out[sigma(u), sigma(v)] = h[u, v]."""
    n = h.rows
    inv = sigma.inverse()
    return ExactMatrix.from_rows([[h[inv(u), inv(v)] for v in range(n)] for u in range(n)])


def search(h, **cfg):
    return find_symmetries(h, SearchConfig(**cfg))


class TestSearchProperties:
    @seed(5150)
    @PROPERTY_SETTINGS
    @given(color_matrices())
    def test_pruned_equals_leaf_check(self, h):
        leaf = search(h, mode=MODE_LEAF_CHECK)
        pruned = search(h, mode=MODE_PRUNED)
        assert list(pruned.perms) == list(leaf.perms)
        assert pruned.count == leaf.count and pruned.exhausted

    @seed(6021)
    @PROPERTY_SETTINGS
    @given(color_matrices(max_n=5))
    def test_every_budget_gives_a_prefix(self, h):
        # leaf-check tries n candidates under every node, so it takes n <= 4 only
        modes = (MODE_PRUNED, MODE_LEAF_CHECK) if h.rows <= 4 else (MODE_PRUNED,)
        for mode in modes:
            # the whole tree: an unbudgeted pruned run builds a chain instead
            full = search(h, mode=mode, node_budget=10**12)
            for budget in range(1, full.nodes_visited + 2):
                part = search(h, mode=mode, node_budget=budget)
                assert list(part.perms) == list(full.perms)[: part.count]
                if budget < full.nodes_visited:
                    assert not part.exhausted and part.nodes_visited == budget
                else:
                    assert part == full
            for limit in range(1, full.count + 1):
                part = search(h, mode=mode, max_results=limit)
                assert list(part.perms) == list(full.perms)[:limit]
                assert part.count == limit and not part.exhausted

    @seed(7340)
    @PROPERTY_SETTINGS
    @given(color_matrices(), st.randoms(use_true_random=False))
    def test_relabelling_conjugates_the_symmetries(self, h, rnd):
        image = list(range(h.rows))
        rnd.shuffle(image)
        sigma = Perm(image)
        found = search(relabel(h, sigma)).perms
        expected = sorted(sigma.inverse() * p * sigma for p in search(h).perms)
        assert list(found) == expected


def sift(chain, image):
    """True iff ``image`` factors through the chain's representatives: at
    level i, divide by the representative that sends i where image does."""
    g = list(image)
    for i, reps in enumerate(chain):
        u = reps.get(g[i])
        if u is None:
            return False
        inverse = [0] * len(u)
        for x, y in enumerate(u):
            inverse[y] = x
        g = [inverse[y] for y in g]
    return True


class TestStabiliserChain:
    @seed(3141)
    @PROPERTY_SETTINGS
    @given(color_matrices())
    def test_chain_equals_leaf_check_and_the_whole_tree(self, h):
        chain = search(h)
        leaf = search(h, mode=MODE_LEAF_CHECK)
        tree = search(h, node_budget=10**12)
        assert list(chain.perms) == list(leaf.perms) == list(tree.perms)
        assert chain.count == leaf.count == tree.count
        assert chain.exhausted and tree.exhausted
        assert chain.nodes_visited <= tree.nodes_visited
        assert search(h, count_only=True).count == chain.count

    @seed(2024)
    @PROPERTY_SETTINGS
    @given(color_matrices())
    def test_sifting_agrees_with_membership(self, h):
        group = set(reference_search(h)[0])
        colors = _color_table(h)
        chain, _ = _stabiliser_chain(h, colors, _plan(colors))
        for image in itertools.permutations(range(h.rows)):
            assert sift(chain, image) == (image in group)

    def test_generators_are_checked_against_h(self, monkeypatch):
        monkeypatch.setattr(permsym.search, "is_symmetry", lambda h, p: False)
        with pytest.raises(AssertionError, match="internal error"):
            find_symmetries(build("hubbard2"), SearchConfig(count_only=True))
