import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from permsym import (
    DimensionError,
    ExactMatrix,
    Perm,
    SubspaceBasis,
    block_form,
    build,
    column_space_basis,
    find_symmetries,
    induced_site_perm,
    is_invariant_subspace,
    is_symmetry,
    PolyScalar,
    parse,
    projectors_from_involution,
    verify_eigenpair,
)
from permsym.decompose import _rref
from permsym.scalars import I, _q

from helpers import (
    LookupCountingDict,
    _rref as reference_rref,
    constant_kernel_basis,
    ising_chain,
    rand_scalar,
    rand_symmetric,
    reference_search,
    reference_similarity,
    small_entry_pool,
)


@pytest.fixture(scope="module")
def hubbard():
    return build("hubbard2")


@pytest.fixture(scope="module")
def fermi_equal():
    return build("fermi3", {"k1": "k", "k2": "k", "k3": "k"})


class TestProjectors:
    def test_identity_perm(self):
        pair = projectors_from_involution(Perm.identity(3))
        assert pair.pi1 == ExactMatrix.identity(3)
        assert pair.pi2 == ExactMatrix.zeros(3)

    def test_hubbard_involution(self):
        pair = projectors_from_involution(Perm([3, 2, 1, 0]))
        assert pair.pi1 == ExactMatrix.from_rows(
            [
                ["1/2", "0", "0", "1/2"],
                ["0", "1/2", "1/2", "0"],
                ["0", "1/2", "1/2", "0"],
                ["1/2", "0", "0", "1/2"],
            ]
        )

    def test_rejects_higher_order(self):
        with pytest.raises(ValueError):
            projectors_from_involution(Perm([1, 2, 0]))

    def test_projector_identities_all_catalog_involutions(self):
        for name in ("fermi3", "hubbard2", "twospin_H", "twospin_K", "triple_spin"):
            h = build(name)
            n = h.rows
            ident = ExactMatrix.identity(n)
            for p in find_symmetries(h).perms:
                if p.order() != 2:
                    continue
                pair = projectors_from_involution(p)
                assert pair.pi1 @ pair.pi1 == pair.pi1
                assert pair.pi2 @ pair.pi2 == pair.pi2
                assert pair.pi1 @ pair.pi2 == ExactMatrix.zeros(n)
                assert pair.pi1 + pair.pi2 == ident
                # the projectors commute with h, so both images are invariant
                assert pair.pi1 @ h == h @ pair.pi1
                b1 = column_space_basis(pair.pi1)
                b2 = column_space_basis(pair.pi2)
                assert len(b1) + len(b2) == n
                assert is_invariant_subspace(h, b1)
                assert is_invariant_subspace(h, b2)


class TestColumnSpaceBasis:
    def test_bell_plus(self):
        pair = projectors_from_involution(Perm([3, 2, 1, 0]))
        assert column_space_basis(pair.pi1) == SubspaceBasis([(1, 0, 0, 1), (0, 1, 1, 0)])

    def test_bell_minus(self):
        pair = projectors_from_involution(Perm([3, 2, 1, 0]))
        assert column_space_basis(pair.pi2) == SubspaceBasis([(1, 0, 0, -1), (0, 1, -1, 0)])

    def test_zero_matrix(self):
        basis = column_space_basis(ExactMatrix.zeros(3))
        assert len(basis) == 0 and basis.vectors == ()
        assert basis == SubspaceBasis([]) and hash(basis) == hash(SubspaceBasis([]))

    def test_parametric_entries_rejected(self):
        with pytest.raises(ValueError):
            column_space_basis(build("hubbard2"))

    def test_primitive_vectors(self):
        m = ExactMatrix.from_rows([["2/3", "0"], ["4/3", "0"]])
        assert column_space_basis(m) == SubspaceBasis([(1, 2)])

    def test_dependent_input_vectors_rejected(self):
        with pytest.raises(ValueError, match="^basis vectors are linearly dependent$"):
            SubspaceBasis([(1, 0), (2, 0)])
        with pytest.raises(ValueError, match="^basis vectors are linearly dependent$"):
            SubspaceBasis([(0, 0, 0)])

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="^basis vectors of unequal length$"):
            SubspaceBasis([(1, 0), (0, 1, 0)])
        # every entry is checked before the lengths
        with pytest.raises(ValueError, match="^basis entry 0.5 is not an integer$"):
            SubspaceBasis([(1, 0), (0, 1, 0), (0.5,)])

    def test_vectors_are_stored_as_sparse_rows(self):
        basis = SubspaceBasis(iter([iter((0, 3, 0)), [True, 0, -2]]))
        assert basis._rows == ({1: 3}, {0: 1, 2: -2}) and basis._n == 3
        assert all(type(x) is int for row in basis._rows for x in row.values())
        assert basis.vectors == ((0, 3, 0), (1, 0, -2)) == tuple(basis)
        assert repr(basis) == "SubspaceBasis([[0, 3, 0], [1, 0, -2]])"
        assert basis != SubspaceBasis([(0, 3, 0, 0), (1, 0, -2, 0)])
        assert basis != SubspaceBasis([(0, 3, 0)]) and basis != basis.vectors
        assert {basis: 1}[SubspaceBasis([(0, 3, 0), (1, 0, -2)])] == 1

    def test_checks_leave_the_stored_rows_alone(self, hubbard):
        # _rref reduces its rows in place, so every caller must hand it
        # copies: the first row of each basis reduces the second
        b1 = SubspaceBasis([(1, 0, 0, 1), (1, 1, 1, 1)])
        b2 = SubspaceBasis([(1, 0, 0, -1), (1, 1, -1, -1)])
        stored = ({0: 1, 3: 1}, {0: 1, 1: 1, 2: 1, 3: 1}, {0: 1, 3: -1}, {0: 1, 1: 1, 2: -1, 3: -1})
        assert b1._rows + b2._rows == stored
        assert is_invariant_subspace(hubbard, b1) and is_invariant_subspace(hubbard, b2)
        assert block_form(hubbard, b1, b2) == reference_similarity(hubbard, list(b1) + list(b2))
        assert b1._rows + b2._rows == stored

    def test_basis_entries_must_be_integers(self):
        # int() would read these as (0, 1), (0, 1, 0, 0), (1, 0) and (1, 0)
        for vector, entry in (
            ((Fraction(1, 2), 1), "Fraction(1, 2)"),
            ((0.9, 1, 0, 0), "0.9"),
            (("1", 0), "'1'"),
            ((1.0, 0), "1.0"),
        ):
            with pytest.raises(ValueError) as err:
                SubspaceBasis([(0, 1), vector])
            assert str(err.value) == f"basis entry {entry} is not an integer"
        assert SubspaceBasis([(0, 1), (-2, 0)]).vectors == ((0, 1), (-2, 0))


class TestInvariantSubspace:
    def test_bell_subspace_invariant(self, hubbard):
        assert is_invariant_subspace(hubbard, SubspaceBasis([(1, 0, 0, 1), (0, 1, 1, 0)]))

    def test_single_axis_not_invariant(self, hubbard):
        # H e0 = (U, t, t, 0) leaves the axis
        assert not is_invariant_subspace(hubbard, SubspaceBasis([(1, 0, 0, 0)]))

    def test_full_standard_basis(self, hubbard):
        basis = SubspaceBasis([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        assert is_invariant_subspace(hubbard, basis)

    def test_dimension_mismatch(self, hubbard):
        with pytest.raises(ValueError):
            is_invariant_subspace(hubbard, SubspaceBasis([(1, 0)]))


class TestBlockForm:
    def test_hubbard_bell_blocks(self, hubbard):
        b1 = SubspaceBasis([(1, 0, 0, 1), (0, 1, 1, 0)])
        b2 = SubspaceBasis([(1, 0, 0, -1), (0, 1, -1, 0)])
        blocks = block_form(hubbard, b1, b2)
        assert blocks == ExactMatrix.from_rows(
            [
                ["U", "2*t", "0", "0"],
                ["2*t", "0", "0", "0"],
                ["0", "0", "U", "0"],
                ["0", "0", "0", "0"],
            ]
        )
        # cross-check by multiplying back: S B = H S
        s = ExactMatrix.from_rows(
            [[1, 0, 1, 0], [0, 1, 0, 1], [0, 1, 0, -1], [1, 0, -1, 0]]
        )
        assert s @ blocks == hubbard @ s

    def test_twospin_blocks_are_2_plus_2(self):
        h = build("twospin_H")
        pair = projectors_from_involution(Perm([1, 0, 3, 2]))
        b1 = column_space_basis(pair.pi1)
        b2 = column_space_basis(pair.pi2)
        blocks = block_form(h, b1, b2)
        for r in range(4):
            for c in range(4):
                if (r < 2) != (c < 2):
                    assert blocks[r, c].is_zero()

    def test_full_basis_identity_case(self, hubbard):
        basis = SubspaceBasis([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        assert block_form(hubbard, basis, SubspaceBasis([])) == hubbard

    def test_rejects_partial_basis(self, hubbard):
        with pytest.raises(ValueError):
            block_form(hubbard, SubspaceBasis([(1, 0, 0, 1)]), SubspaceBasis([]))

    def test_rejects_non_invariant_split(self, hubbard):
        b1 = SubspaceBasis([(1, 0, 0, 0), (0, 1, 0, 0)])
        b2 = SubspaceBasis([(0, 0, 1, 0), (0, 0, 0, 1)])
        with pytest.raises(ValueError):
            block_form(hubbard, b1, b2)


class TestEigenpairs:
    def test_known_eigenpairs(self, fermi_equal):
        assert verify_eigenpair(fermi_equal, parse("2*k-2*t"), (1, -1, 1))
        assert verify_eigenpair(fermi_equal, parse("2*k+t"), (1, 0, -1))

    def test_wrong_vector_rejected(self, fermi_equal):
        assert not verify_eigenpair(fermi_equal, parse("2*k+t"), (1, 1, 1))

    def test_errors(self, fermi_equal):
        with pytest.raises(ValueError):
            verify_eigenpair(fermi_equal, parse("2*k+t"), (0, 0, 0))
        with pytest.raises(ValueError):
            verify_eigenpair(fermi_equal, parse("2*k+t"), (1, 0))

    def test_vector_entries_must_be_integers(self, fermi_equal):
        # each of these is (1, 0, -1) or a multiple of it, read another way
        for vector, entry in (
            (("1", "0", "-1"), "'1'"),
            ((Fraction(1, 2), 0, Fraction(-1, 2)), "Fraction(1, 2)"),
            ((1.0, 0, -1), "1.0"),
        ):
            with pytest.raises(ValueError) as err:
                verify_eigenpair(fermi_equal, parse("2*k+t"), vector)
            assert str(err.value) == f"vector entry {entry} is not an integer"

    def test_double_eigenvalue_kernel(self, fermi_equal):
        shifted = fermi_equal - ExactMatrix.identity(3) * parse("2*k+t")
        kernel = constant_kernel_basis(shifted)
        assert len(kernel) == 2
        for v in kernel:
            assert verify_eigenpair(fermi_equal, parse("2*k+t"), v)

    def test_simple_eigenvalue_kernel(self, fermi_equal):
        shifted = fermi_equal - ExactMatrix.identity(3) * parse("2*k-2*t")
        kernel = constant_kernel_basis(shifted)
        assert len(kernel) == 1
        assert verify_eigenpair(fermi_equal, parse("2*k-2*t"), kernel[0])


def involution_split(p):
    pair = projectors_from_involution(p)
    return column_space_basis(pair.pi1), column_space_basis(pair.pi2)


def planted_involution(rng, n):
    """A random involution that swaps each of a random pairing's pairs with
    probability 0.7."""
    order = list(range(n))
    rng.shuffle(order)
    image = list(range(n))
    for a, b in zip(order[0::2], order[1::2]):
        if rng.random() < 0.7:
            image[a], image[b] = b, a
    return Perm(image)


def rand_with_involution(rng, n, complex_entries):
    """(H, P): H is hermitian and P-invariant.  Real H starts from the small
    symmetric pool; complex H from A + A^dagger with random Gaussian-rational
    polynomial entries, so blocks get imaginary and multi-monomial entries."""
    if complex_entries:
        a = ExactMatrix(n, n, [rand_scalar(rng) for _ in range(n * n)])
        h = a + a.dagger()
    else:
        h = rand_symmetric(rng, n, small_entry_pool())
    p = planted_involution(rng, n)
    return ExactMatrix(n, n, [h[u, v] + h[p(u), p(v)] for u in range(n) for v in range(n)]), p


def rand_symmetric_with_involution(rng, n):
    """H + P H P^T for a random symmetric H and a random involution P, so that
    the reference search usually has a non-trivial involution to find."""
    return rand_with_involution(rng, n, complex_entries=False)[0]


def random_full_basis(rng, n):
    """n random independent integer vectors with entries in -1..1."""
    while True:
        vectors = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(n)]
        try:
            SubspaceBasis(vectors)
        except ValueError:
            continue
        return vectors


class TestBlockFormOracle:
    def test_matches_fraction_similarity_for_every_involution(self):
        rng = random.Random(1208)
        checked = 0
        for _ in range(60):
            h = rand_symmetric_with_involution(rng, rng.randint(2, 5))
            found, _ = reference_search(h)
            for image in found:
                p = Perm(image)
                if p.order() != 2:
                    continue
                b1, b2 = involution_split(p)
                blocks = block_form(h, b1, b2)
                assert blocks == reference_similarity(h, list(b1) + list(b2))
                checked += 1
        assert checked >= 40

    def test_raises_exactly_when_a_split_is_not_invariant(self):
        rng = random.Random(4721)
        outcomes = {True: 0, False: 0}
        for _ in range(40):
            n = rng.randint(2, 4)
            h = rand_symmetric_with_involution(rng, n)
            involutions = [p for p in map(Perm, reference_search(h)[0]) if p.order() == 2]
            if involutions and rng.random() < 0.5:
                b1, b2 = involution_split(rng.choice(involutions))
                vectors = list(b1) + list(b2)
                rng.shuffle(vectors)
            else:
                vectors = random_full_basis(rng, n)
            k = rng.randint(0, n)
            b1, b2 = SubspaceBasis(vectors[:k]), SubspaceBasis(vectors[k:])
            invariant = is_invariant_subspace(h, b1) and is_invariant_subspace(h, b2)
            outcomes[invariant] += 1
            if invariant:
                assert block_form(h, b1, b2) == reference_similarity(h, vectors)
            else:
                with pytest.raises(ValueError, match="not invariant"):
                    block_form(h, b1, b2)
        assert min(outcomes.values()) >= 5

    def test_rejects_dependent_full_count(self, hubbard):
        b1 = SubspaceBasis([(1, 0, 0, 1), (0, 1, 1, 0)])
        b2 = SubspaceBasis([(1, 1, 1, 1), (0, 0, 1, 0)])
        with pytest.raises(ValueError, match="linearly dependent"):
            block_form(hubbard, b1, b2)


def closed_form_bases(p):
    """e_a + e_b and e_a - e_b for each 2-cycle a < b, and e_a for each fixed point."""
    n = len(p)
    plus, minus = [], []
    for a in range(n):
        b = p(a)
        if b < a:
            continue
        v = [0] * n
        v[a] = v[b] = 1
        plus.append(tuple(v))
        if b != a:
            v[b] = -1
            minus.append(tuple(v))
    return SubspaceBasis(plus), SubspaceBasis(minus)


class TestIsing6ClosedForm:
    def test_basis_is_closed_form(self):
        h = ising_chain(6)
        flip = Perm([63 - u for u in range(64)])
        reflection = induced_site_perm(Perm([(1 - k) % 6 for k in range(6)]))
        for p in (flip, reflection, reflection * flip):
            assert p.order() == 2 and is_symmetry(h, p)
            b1, b2 = involution_split(p)
            assert (b1, b2) == closed_form_bases(p)
            # the closed-form vectors are orthogonal with |v|^2 = #non-zeros, so
            # S^-1 = diag(1/|v|^2) S^T and each block entry is v_i . H v_j / |v_i|^2
            vectors = list(b1) + list(b2)
            support = [[(u, x) for u, x in enumerate(v) if x] for v in vectors]
            expected = [
                sum(
                    (h[u, w] * Fraction(x * y, len(si)) for u, x in si for w, y in sj if h[u, w]),
                    PolyScalar(),
                )
                for si in support
                for sj in support
            ]
            assert block_form(h, b1, b2) == ExactMatrix(64, 64, expected)


class TestGaussianBlockForm:
    def test_catalog_involutions_with_imaginary_and_multi_monomial_entries(self):
        for name in ("triple_spin", "twospin_H"):
            h = build(name)
            for p in find_symmetries(h).perms:
                if p.order() == 2:
                    b1, b2 = involution_split(p)
                    assert block_form(h, b1, b2) == reference_similarity(h, list(b1) + list(b2))

    def test_random_hermitian_matches_fraction_similarity(self):
        rng = random.Random(3307)
        imaginary = 0
        for _ in range(30):
            h, p = rand_with_involution(rng, rng.randint(2, 5), complex_entries=True)
            b1, b2 = involution_split(p)
            blocks = block_form(h, b1, b2)
            assert blocks == reference_similarity(h, list(b1) + list(b2))
            imaginary += any(coeff.im for x in blocks.entries() for _, coeff in x.terms())
        assert imaginary >= 20


class TestIndependentOracles:
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_invariance_read_off_the_similarity(self, complex_entries):
        # span(b1) is invariant iff the lower-left block of S^-1 H S is zero,
        # span(b2) iff the upper-right one is
        rng = random.Random(5119 + complex_entries)
        outcomes = {True: 0, False: 0}
        for _ in range(40):
            n = rng.randint(2, 4)
            h, p = rand_with_involution(rng, n, complex_entries)
            if rng.random() < 0.5:
                vectors = [v for b in involution_split(p) for v in b]
                rng.shuffle(vectors)
            else:
                vectors = random_full_basis(rng, n)
            k = rng.randint(0, n)
            b1, b2 = SubspaceBasis(vectors[:k]), SubspaceBasis(vectors[k:])
            x = reference_similarity(h, vectors)
            lower = all(x[r, c].is_zero() for r in range(k, n) for c in range(k))
            upper = all(x[r, c].is_zero() for r in range(k) for c in range(k, n))
            assert is_invariant_subspace(h, b1) == lower
            assert is_invariant_subspace(h, b2) == upper
            if lower and upper:
                assert block_form(h, b1, b2) == x
            else:
                with pytest.raises(ValueError, match="not invariant"):
                    block_form(h, b1, b2)
            outcomes[lower and upper] += 1
        assert min(outcomes.values()) >= 5

    def test_column_space_basis_is_the_primitive_rref_of_the_transpose(self):
        rng = random.Random(8093)
        deficient = zero_columns = negative_lead = 0
        for _ in range(60):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            gens = [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rows)]
                for _ in range(rng.randint(0, min(rows, cols)))
            ]
            columns = []
            for _ in range(cols):
                coeffs = [rng.randint(-2, 2) for _ in gens] if rng.random() < 0.8 else []
                columns.append([sum(a * g[r] for a, g in zip(coeffs, gens)) for r in range(rows)])
            m = ExactMatrix(rows, cols, [columns[c][r] for r in range(rows) for c in range(cols)])
            transpose = [[Fraction(x) for x in col] for col in columns]
            rank = len(reference_rref(transpose))
            expected = []
            for v in transpose[:rank]:
                ints = [int(x * lcm(*(y.denominator for y in v))) for x in v]
                g = gcd(*ints)
                if next(x for x in ints if x) < 0:
                    g = -g
                expected.append(tuple(x // g for x in ints))
            basis = column_space_basis(m)
            assert basis == SubspaceBasis(expected)
            assert SubspaceBasis(basis.vectors) == basis
            assert hash(SubspaceBasis(basis.vectors)) == hash(basis)
            assert all(all(row.values()) for row in basis._rows)
            deficient += rank < min(rows, cols)
            zero_columns += any(not any(col) for col in columns)
            negative_lead += any(next((x for x in col if x), 0) < 0 for col in columns)
        assert deficient >= 10 and zero_columns >= 10 and negative_lead >= 10


def elimination_sets():
    """300 random sparse rational row sets, seeded: yields (pivot column
    count, right-hand-side keys, rows, rows made by combining earlier ones)."""
    rng = random.Random(2006)
    for _ in range(300):
        ncols, rhs = rng.randint(0, 7), [("rhs", j) for j in range(rng.randint(0, 3))]
        keys = [*range(ncols), *rhs]
        rows = []
        dependent = 0
        for _ in range(rng.randint(0, 8)):
            if rows and rng.random() < 0.3:
                # a combination of two earlier rows
                a, b, f = rng.choice(rows), rng.choice(rows), Fraction(rng.randint(-3, 3), 2)
                row = {t: x for t in keys if (x := a.get(t, 0) + f * b.get(t, 0))}
                dependent += 1
            else:
                row = {t: x for t in keys
                       if rng.random() < 0.4 and (x := Fraction(rng.randint(-4, 4), rng.randint(1, 3)))}
            rows.append(row)
        yield ncols, rhs, rows, dependent


class TestSparseElimination:
    """``_rref`` on sparse rows against the dense Gauss-Jordan of ``helpers``."""

    def test_matches_dense_elimination(self):
        dependent = deficient = riding = 0
        for ncols, rhs, rows, combined in elimination_sets():
            keys = [*range(ncols), *rhs]
            dependent += combined
            dense = [[Fraction(row.get(t, 0)) for t in keys] for row in rows]
            pivots = reference_rref(dense, ncols)
            sparse = list(map(dict, rows))
            assert _rref(sparse, ncols) == pivots
            r = len(pivots)
            out = [[Fraction(row.get(t, 0)) for t in keys] for row in sparse]
            # the rows span the same space: their full RREFs agree
            a, b = [row[:] for row in out], [row[:] for row in dense]
            assert reference_rref(a) == reference_rref(b) and a == b
            # the pivot rows are the unique RREF on the pivot columns, and the
            # other rows vanish there
            assert [row[:ncols] for row in out] == [row[:ncols] for row in dense]
            if all(t not in rhs for row in sparse[r:] for t in row):
                # no right-hand side is left over, so the pivot rows are unique
                assert out[:r] == dense[:r]
            else:
                riding += 1
            deficient += r < min(ncols, len(rows))
        assert dependent >= 100 and deficient >= 50 and riding >= 20

    def test_integral_entries_stay_ints(self):
        # the entries come in as scalars store their parts: an int when
        # integral, else a Fraction; so they go out
        fractions = 0
        for ncols, _, rows, _ in elimination_sets():
            sparse = [{t: _q(x) for t, x in row.items()} for row in rows]
            _rref(sparse, ncols)
            values = [x for row in sparse for x in row.values()]
            assert all(type(x) is int or x.denominator != 1 for x in values)
            fractions += sum(type(x) is Fraction for x in values)
        assert fractions >= 100

    def test_lookups_grow_with_the_non_zeros(self):
        # the columns of (I+P)/2 for the spin flip of dimension 1024, as
        # column_space_basis eliminates them; a scan of every row per pivot
        # makes about n^2/2 lookups
        n = 1024
        pair = projectors_from_involution(Perm([n - 1 - u for u in range(n)]))
        cols = [LookupCountingDict() for _ in range(n)]
        for r, row in enumerate(pair.pi1._r):
            for c, x in row.items():
                cols[c][r] = x.constant_value().re
        nnz = sum(map(len, cols))
        LookupCountingDict.lookups = 0
        assert len(_rref(cols, n)) == n // 2
        assert LookupCountingDict.lookups <= 4 * nnz


class TestImaginaryParts:
    """H = S + iA with S real symmetric and A real antisymmetric: the parts of
    each coefficient go through the elimination as vectors of their own."""

    def test_invariance_and_blocks_with_imaginary_parts(self):
        rng = random.Random(9071)
        outcomes = {True: 0, False: 0}
        for _ in range(60):
            n = rng.randint(2, 5)
            s, p = rand_with_involution(rng, n, complex_entries=False)
            keep = rng.random() < 0.5
            a = {}
            for u in range(n):
                for v in range(u + 1, n):
                    x = rand_scalar(rng)
                    a[u, v] = x + x.conjugate()
                    a[v, u] = -a[u, v]
            imag = [a.get((u, v), PolyScalar()) * I for u in range(n) for v in range(n)]
            if keep:
                imag = [imag[u * n + v] + imag[p(u) * n + p(v)] for u in range(n) for v in range(n)]
            h = s + ExactMatrix(n, n, imag)
            assert h.is_hermitian()
            b1, b2 = involution_split(p)
            x = reference_similarity(h, list(b1) + list(b2))
            k = len(b1)
            lower = all(x[r, c].is_zero() for r in range(k, n) for c in range(k))
            upper = all(x[r, c].is_zero() for r in range(k) for c in range(k, n))
            assert is_invariant_subspace(h, b1) == lower
            assert is_invariant_subspace(h, b2) == upper
            if lower and upper:
                assert block_form(h, b1, b2) == x
            else:
                # S is P-invariant, so only the imaginary parts break invariance
                assert not keep
                with pytest.raises(ValueError, match="not invariant"):
                    block_form(h, b1, b2)
            outcomes[lower and upper] += 1
        assert min(outcomes.values()) >= 10

    def test_column_space_basis_refuses_imaginary_entries(self):
        m = ExactMatrix.from_rows([["1", "i"], ["-i", "1"]])
        assert m.is_hermitian()
        with pytest.raises(ValueError, match="non-real"):
            column_space_basis(m)


class TestNonSquareInput:
    def test_rejected(self):
        h = ExactMatrix(2, 3, [1, 0, 0, 0, 1, 0])
        basis = SubspaceBasis([[1, 0]])
        for check in (lambda: is_invariant_subspace(h, basis), lambda: block_form(h, basis, basis),
                      lambda: verify_eigenpair(h, 1, [1, 0])):
            with pytest.raises(DimensionError, match="need a square matrix"):
                check()

    def test_basis_is_immutable(self):
        with pytest.raises(AttributeError, match="SubspaceBasis is immutable"):
            SubspaceBasis([[1, 0]])._n = 3
