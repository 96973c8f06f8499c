import itertools
import random
import warnings
from dataclasses import replace
from unittest import mock

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
from permsym.scalars import parse
from permsym.search import (
    MODE_LEAF_CHECK,
    MODE_PRUNED,
    VERIFY_BLOCK,
    _all_symmetries,
    _chain_elements,
    _color_table,
    _plan,
    _refine,
    _stabiliser_chain,
    first_non_symmetry,
)

from helpers import (
    LookupCountingDict,
    dense_plan,
    dense_refine,
    ising_chain,
    rand_symmetric,
    reference_search,
    small_entry_pool,
)

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


@st.composite
def sparse_nearly_symmetric(draw):
    """(H, p): H is mostly zeros and constant on the orbits of index pairs
    under p, so p is a symmetry, unless one edit then breaks it.  Setting an
    entry can change a row's non-zero count.  Moving an entry (a, b), which
    is non-zero unless H is all zeros, onto another column of its row, or
    swapping it with any entry, keeps every row's count or trades counts
    between two rows."""
    n = draw(st.integers(1, 12))
    p = Perm(draw(st.permutations(range(n))))
    value = st.sampled_from((0, 0, 0, 0, 1, 2))
    entries = {}
    for u in range(n):
        for v in range(n):
            if (u, v) in entries:
                continue
            x, y, fill = u, v, draw(value)
            while (x, y) not in entries:
                entries[x, y] = fill
                x, y = p(x), p(y)
    nonzero = [k for k in sorted(entries) if entries[k]] or sorted(entries)
    a, b = draw(st.sampled_from(nonzero))
    c, d = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    edit = draw(st.sampled_from(("none", "set", "move", "swap")))
    if edit == "set":
        entries[c, d] = draw(st.integers(0, 2))
    elif edit == "move":
        entries[a, b], entries[a, c] = entries[a, c], entries[a, b]
    elif edit == "swap":
        entries[a, b], entries[c, d] = entries[c, d], entries[a, b]
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

    @seed(2719)
    @settings(max_examples=200, deadline=None, database=None)
    @given(sparse_nearly_symmetric())
    def test_sparse_matches_entrywise_loop(self, case):
        h, p = case
        assert is_symmetry(h, p) == reference_is_symmetry(h, p)
        assert is_symmetry(h, p.inverse()) == reference_is_symmetry(h, p.inverse())


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


class TestListingBound:
    """A listing holds at most _LIST_MAX image entries, whichever path lists."""

    @pytest.mark.parametrize("cfg", [
        SearchConfig(),
        SearchConfig(max_results=10**9),
        SearchConfig(node_budget=10**9),
        SearchConfig(mode=MODE_LEAF_CHECK),
    ], ids=["chain", "max-results", "node-budget", "leaf"])
    def test_a_listing_stops_at_the_bound(self, monkeypatch, cfg):
        h = ExactMatrix.zeros(4)  # all 24 permutations are symmetries
        monkeypatch.setattr(permsym.search, "_LIST_MAX", 24 * 4)
        assert len(find_symmetries(h, cfg).perms) == 24
        monkeypatch.setattr(permsym.search, "_LIST_MAX", 24 * 4 - 1)
        with pytest.raises(ValueError, match="^over 23 symmetries of dimension 4: too many to list$"):
            find_symmetries(h, cfg)
        assert find_symmetries(h, replace(cfg, count_only=True)).count == 24
        partial = find_symmetries(h, replace(cfg, max_results=23))
        assert (len(partial.perms), partial.exhausted) == (23, False)

    def test_a_zero_matrix_of_dimension_16_is_counted_not_listed(self):
        h = ExactMatrix.zeros(16)
        assert find_symmetries(h, SearchConfig(count_only=True)).count == 20922789888000
        with pytest.raises(ValueError, match="^over 262144 symmetries of dimension 16"):
            find_symmetries(h)


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


@st.composite
def sparse_color_matrices(draw, max_n=16):
    """A square matrix with at most 2n non-zero entries of 1 to 3, symmetric or not."""
    n = draw(st.integers(1, max_n))
    symmetric = draw(st.booleans())
    index = st.integers(0, n - 1)
    rows = [[0] * n for _ in range(n)]
    for u, v, x in draw(st.lists(st.tuples(index, index, st.integers(1, 3)), max_size=2 * n)):
        rows[u][v] = x
        if symmetric:
            rows[v][u] = x
    return ExactMatrix.from_rows(rows)


@st.composite
def tree_color_matrices(draw, max_n=24):
    """A tree whose vertex u > 0 hangs from an earlier vertex, often u - 1, with
    edge weights of 1 or 2, one or both ways: long paths need many rounds."""
    n = draw(st.integers(1, max_n))
    both_ways = draw(st.booleans())
    rows = [[0] * n for _ in range(n)]
    for u in range(1, n):
        parent = draw(st.one_of(st.just(u - 1), st.integers(0, u - 1)))
        rows[parent][u] = draw(st.integers(1, 2))
        if both_ways:
            rows[u][parent] = rows[parent][u]
    return ExactMatrix.from_rows(rows)


class TestColorTable:
    @seed(2720)
    @PROPERTY_SETTINGS
    @given(color_matrices(max_n=12))
    def test_equal_colours_exactly_for_equal_entries(self, h):
        pairs = _color_table(h)
        n = h.rows
        cells = [(h[u, v], pairs[u].get(v, (0, 0))[0]) for u in range(n) for v in range(n)]
        for x, a in cells:
            for y, b in cells:
                assert (x == y) == (a == b)
        assert all(c == 0 for x, c in cells if not x)

    @seed(2721)
    @PROPERTY_SETTINGS
    @given(st.one_of(color_matrices(max_n=12), sparse_color_matrices()))
    def test_keys_are_the_non_zero_pairs_and_mirror(self, h):
        pairs = _color_table(h)
        assert len(pairs) == h.rows
        for u in range(h.rows):
            for v in range(h.rows):
                assert (v in pairs[u]) == bool(h[u, v] or h[v, u])
                if v in pairs[u]:
                    assert pairs[u][v] == pairs[v][u][::-1]


def dense_colors(pairs):
    """The dense n x n table of out-colours that ``pairs`` describes."""
    n = len(pairs)
    return [[pairs[u].get(v, (0, 0))[0] for v in range(n)] for u in range(n)]


class TestRefinement:
    """The refinement over non-zero pairs gives the dense refinement's cells,
    numbered the same way."""

    @seed(1971)
    @PROPERTY_SETTINGS
    @given(st.one_of(color_matrices(max_n=12), sparse_color_matrices(), tree_color_matrices()))
    def test_matches_dense_refinement(self, h):
        pairs = _color_table(h)
        assert _refine(pairs) == dense_refine(dense_colors(pairs))

    def test_spin_chains_and_paths_match_dense_refinement(self):
        paths = [
            ExactMatrix.from_rows([[int(abs(u - v) == 1) for v in range(n)] for u in range(n)])
            for n in (2, 9, 40)
        ]
        # index 0 and index 2 have the same non-zero pairs into the same cells,
        # but different diagonals: only the cell they start in tells them apart
        diagonal = ExactMatrix.from_rows([[0, 1, 0], [1, 1, 0], [0, 0, 1]])
        for h in (build("ising4"), *map(ising_chain, (5, 6, 7)), *paths, diagonal):
            pairs = _color_table(h)
            assert _refine(pairs) == dense_refine(dense_colors(pairs))


class TestPlan:
    """The anchors read from the non-zeros and the ranked zero classes give
    the plan of the scan over every earlier index."""

    @seed(1968)
    @PROPERTY_SETTINGS
    @given(st.one_of(color_matrices(max_n=12), sparse_color_matrices(), tree_color_matrices()))
    def test_matches_the_dense_scan(self, h):
        pairs = _color_table(h)
        assert _plan(pairs) == dense_plan(pairs)

    def test_spin_chains_paths_and_relabellings_match_the_dense_scan(self):
        paths = [
            ExactMatrix.from_rows([[int(abs(u - v) == 1) for v in range(n)] for u in range(n)])
            for n in (2, 9, 40)
        ]
        relabelled = []
        for k in range(4):
            image = list(range(32))
            random.Random(k).shuffle(image)
            relabelled.append(relabel(ising_chain(5), Perm(image)))
        for h in (*map(ising_chain, range(4, 10)), *paths, *relabelled):
            pairs = _color_table(h)
            assert _plan(pairs) == dense_plan(pairs)

    def test_lookups_grow_with_the_non_zeros(self):
        # the scan over every earlier index reads each row of ising10 about
        # n/2 times: 64 lookups per non-zero; the plan reads each a few times
        pairs = list(map(LookupCountingDict, _color_table(ising_chain(10))))
        nnz = sum(map(len, pairs))
        LookupCountingDict.lookups = 0
        plan = _plan(pairs)
        assert LookupCountingDict.lookups <= 2 * nnz
        LookupCountingDict.lookups = 0
        assert dense_plan(pairs) == plan
        assert LookupCountingDict.lookups > 30 * nnz


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


def product_list(chain):
    """The chain's elements as a product list: one representative per level,
    composed by indexing, in the order ``_chain_elements`` lists them."""
    found = [tuple(range(len(chain)))]
    for reps in reversed(chain):
        if len(reps) > 1:
            found = [tuple(u[x] for x in g) for u in reps.values() for g in found]
    return found


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
        # results are built unchecked, so check here that each is a permutation
        for result in (chain, leaf, tree):
            for p in result.perms:
                assert type(p.image) is tuple and sorted(p.image) == list(range(h.rows))
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

    @seed(1618)
    @PROPERTY_SETTINGS
    @given(st.one_of(color_matrices(), sparse_color_matrices(max_n=8)))
    def test_elements_are_the_product_list_in_order(self, h):
        colors = _color_table(h)
        chain, _ = _stabiliser_chain(h, colors, _plan(colors))
        assert _chain_elements(chain) == product_list(chain)

    @pytest.mark.parametrize("rows", [[[1]], [[0]], [[1, 0], [0, 1]], [[0, 1], [1, 0]],
                                      [[1, 0], [0, 2]]])
    def test_elements_in_dimensions_1_and_2(self, rows):
        h = ExactMatrix.from_rows(rows)
        colors = _color_table(h)
        chain, _ = _stabiliser_chain(h, colors, _plan(colors))
        elements = _chain_elements(chain)
        assert elements == product_list(chain)
        assert all(type(g) is tuple and len(g) == h.rows for g in elements)
        assert [Perm(g) for g in sorted(elements)] == list(find_symmetries(h, SearchConfig(
            mode=MODE_LEAF_CHECK)).perms)

    def test_generators_are_checked_against_h(self, monkeypatch):
        monkeypatch.setattr(permsym.search, "is_symmetry", lambda h, p: False)
        with pytest.raises(AssertionError, match="internal error"):
            find_symmetries(build("hubbard2"), SearchConfig(count_only=True))


# -- group-major re-verification ---------------------------------------------


def oracle_first_non_symmetry(h, perms):
    return next((p for p in perms if not is_symmetry(h, p)), None)


@st.composite
def parametric_matrices(draw):
    """A colour matrix whose entry k is a fresh parse of ``a*k + b``: equal
    entries are distinct objects, so ``==`` and not identity decides."""
    h = draw(st.one_of(color_matrices(), sparse_color_matrices(max_n=8)))
    n = h.rows
    return ExactMatrix.from_rows(
        [[parse(f"a*{h[u, v]}+b") if h[u, v] else 0 for v in range(n)] for u in range(n)]
    )


@st.composite
def listings(draw):
    """(H, perms): up to 40 of H's symmetries, drawn with repeats, and random
    permutations, most of them non-symmetries, inserted at random positions.
    H is dense or sparse, symmetric or not."""
    h = draw(st.one_of(
        color_matrices(), sparse_color_matrices(max_n=10), tree_color_matrices(max_n=10),
        parametric_matrices(),
    ))
    found = find_symmetries(h, SearchConfig(max_results=40)).perms
    perms = draw(st.lists(st.sampled_from(found), max_size=12))
    for image in draw(st.lists(st.permutations(range(h.rows)), max_size=3)):
        perms.insert(draw(st.integers(0, len(perms))), Perm(image))
    return h, perms


GAUSSIAN_POOL = ["0", "1", "2", "i", "1+i", "2-i", "-1/2*i"]
REAL_POOL = ["0", "1", "3", "a"]


@st.composite
def hermitian_listings(draw):
    """(H, perms) for a hermitian H with complex entries, constant on the
    orbits of index pairs under a random ``g``, or for the same H with one
    conjugate pair broken.  Its diagonal is constant or drawn per orbit, zero
    included.  perms mixes the symmetries of H and of the unbroken H, which
    on a broken H fail at the broken pair only, with random permutations."""
    n = draw(st.integers(1, 7))
    g = draw(st.permutations(range(n))) if draw(st.booleans()) else list(range(n))
    entries = {}
    for u in range(n):
        for v in range(u, n):
            if (u, v) in entries:
                continue
            orbit = [(u, v)]
            while (g[orbit[-1][0]], g[orbit[-1][1]]) != (u, v):
                orbit.append((g[orbit[-1][0]], g[orbit[-1][1]]))
            # an orbit that holds a pair and its transpose takes a real entry
            real = any((y, x) in orbit for x, y in orbit)
            x = parse(draw(st.sampled_from(REAL_POOL if real else GAUSSIAN_POOL)))
            for a, b in orbit:
                entries[a, b], entries[b, a] = x, x.conjugate()
    if draw(st.booleans()):
        d = parse(draw(st.sampled_from(REAL_POOL)))
        entries.update({(u, u): d for u in range(n)})
    h = ExactMatrix.from_rows([[entries[u, v] for v in range(n)] for u in range(n)])
    assert h.is_hermitian()
    pool = list(find_symmetries(h, SearchConfig(max_results=40)).perms)
    if n > 1 and draw(st.booleans()):
        u, v = draw(st.permutations(range(n)))[:2]
        entries[v, u] = entries[u, v].conjugate() + 1
        h = ExactMatrix.from_rows([[entries[u, v] for v in range(n)] for u in range(n)])
        assert not h.is_hermitian()
        pool += find_symmetries(h, SearchConfig(max_results=40)).perms
    perms = draw(st.lists(st.sampled_from(pool), max_size=12))
    for image in draw(st.lists(st.permutations(range(n)), max_size=3)):
        perms.insert(draw(st.integers(0, len(perms))), Perm(image))
    return h, perms


class TestFirstNonSymmetry:
    @seed(3141)
    @settings(max_examples=200, deadline=None, database=None)
    @given(listings(), st.sampled_from([1, 2, 3, 7, VERIFY_BLOCK]))
    def test_matches_is_symmetry_in_order(self, case, block):
        h, perms = case
        with mock.patch.object(permsym.search, "VERIFY_BLOCK", block):
            assert first_non_symmetry(h, perms) is oracle_first_non_symmetry(h, perms)
        # the kernel itself, whose false rejections the walk with is_symmetry would
        # hide, with the triangle rule where H is hermitian and without it
        if perms:
            expected = all(is_symmetry(h, p) for p in perms)
            assert _all_symmetries(h._r, perms) == expected
            assert _all_symmetries(h._r, perms, h.is_hermitian()) == expected

    @seed(1729)
    @settings(max_examples=200, deadline=None, database=None)
    @given(hermitian_listings(), st.sampled_from([1, 3, VERIFY_BLOCK]))
    def test_hermitian_and_broken_inputs(self, case, block):
        h, perms = case
        with mock.patch.object(permsym.search, "VERIFY_BLOCK", block):
            assert first_non_symmetry(h, perms) is oracle_first_non_symmetry(h, perms)
        if perms:
            expected = all(is_symmetry(h, p) for p in perms)
            assert _all_symmetries(h._r, perms) == expected
            assert _all_symmetries(h._r, perms, h.is_hermitian()) == expected

    def test_only_a_lower_triangle_entry_fails(self):
        # (0 1)(2 3) keeps every non-zero with u < v, but sends H[2, 0] = 1
        # onto H[3, 1] = 2: H is not hermitian, so the lower triangle is checked
        h = ExactMatrix.from_rows([[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 2, 0, 0]])
        p = Perm([1, 0, 3, 2])
        assert not h.is_hermitian() and not is_symmetry(h, p)
        assert _all_symmetries(h._r, [p], hermitian=True)  # the rule would miss it
        assert not _all_symmetries(h._r, [p])
        assert first_non_symmetry(h, [Perm.identity(4), p]) is p

    @pytest.mark.parametrize("diagonal", [[5, 5, 0], [5, 0], [0, 5], [5, 5, 7, 0, 0, 0]])
    def test_only_the_diagonal_fails(self, diagonal):
        # no non-zero off the diagonal: each swap of two unequal entries fails,
        # whichever class is the largest, the zero one included
        n = len(diagonal)
        h = ExactMatrix.from_rows([[diagonal[u] if u == v else 0 for v in range(n)]
                                   for u in range(n)])
        for u, v in itertools.combinations(range(n), 2):
            swap = Perm([v if w == u else u if w == v else w for w in range(n)])
            assert _all_symmetries(h._r, [swap], True) == (diagonal[u] == diagonal[v])
            assert first_non_symmetry(h, [swap]) is oracle_first_non_symmetry(h, [swap])

    def test_distinct_equal_entries_are_compared_by_value(self):
        rows = [[parse(x) for x in row] for row in (["a+b", "t"], ["t", "b+a"])]
        h = ExactMatrix.from_rows(rows)
        assert h[0, 0] == h[1, 1] and h[0, 0] is not h[1, 1]
        perms = [Perm.identity(2), Perm([1, 0])]
        assert _all_symmetries(h._r, perms)
        assert first_non_symmetry(h, perms) is None

    def test_a_non_zero_sent_onto_a_zero(self):
        # a directed 3-cycle: every row has one non-zero, and the swap sends
        # the non-zero H[0, 1] onto the zero H[1, 0]
        h = ExactMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        swap = Perm([1, 0, 2])
        perms = [Perm.identity(3), Perm([1, 2, 0]), swap, Perm([2, 1, 0])]
        assert first_non_symmetry(h, perms) is swap

    def test_empty_list(self):
        assert first_non_symmetry(build("hubbard2"), []) is None
        assert first_non_symmetry(ExactMatrix.zeros(2, 3), ()) is None

    def test_lists_longer_than_a_block(self):
        k7 = find_symmetries(ExactMatrix.from_rows([[1] * 7] * 7)).perms
        assert len(k7) == 5040 > VERIFY_BLOCK
        assert first_non_symmetry(ExactMatrix.from_rows([[1] * 7] * 7), k7) is None
        # a distinct last diagonal entry: the symmetries are the 720 that fix 6
        h = ExactMatrix.from_rows([[1] * 7] * 6 + [[1] * 6 + [2]])
        assert first_non_symmetry(h, k7) is k7[1]
        fixing = [p for p in k7 if p(6) == 6] * 7
        assert first_non_symmetry(h, fixing) is None
        bad = [Perm([6, 0, 1, 2, 3, 4, 5]), Perm([0, 1, 2, 3, 4, 6, 5])]
        fixing[4500:4500] = bad[:1]
        fixing.insert(4900, bad[1])
        assert first_non_symmetry(h, fixing) is bad[0]
        assert oracle_first_non_symmetry(h, fixing) is bad[0]

    def test_refusals_are_those_of_is_symmetry(self):
        h = ExactMatrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        swap = Perm([1, 0, 2])
        assert first_non_symmetry(h, [swap, Perm.identity(4)]) is swap
        with pytest.raises(ValueError, match="length 4"):
            first_non_symmetry(h, [Perm.identity(3), Perm.identity(4), swap])
        with pytest.raises(ValueError, match="square"):
            first_non_symmetry(ExactMatrix.zeros(2, 3), [Perm.identity(2)])
