import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from permsym import (
    DimensionError,
    ExactMatrix,
    Perm,
    build,
    direct_sum,
    kron,
    parse,
    rational,
    sigma,
    sigma_at,
    star2,
)
from permsym.scalars import ONE, ZERO, GaussRational, PolyScalar

from helpers import rand_matrix, rand_scalar, reference_kron, reference_matmul


@pytest.fixture
def rng():
    return random.Random(913)


def rand_perm_matrix(rng, n):
    image = list(range(n))
    rng.shuffle(image)
    return Perm(image).to_matrix()


class TestConstruction:
    def test_entry_count_checked(self):
        with pytest.raises(DimensionError):
            ExactMatrix(2, 2, [1, 2, 3])

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionError):
            ExactMatrix.from_rows([[1, 2], [3]])

    def test_string_entries(self):
        m = ExactMatrix.from_rows([["t", "0"], ["0", "-t"]])
        assert m[0, 0] == parse("t")
        assert m[1, 1] == -parse("t")

    def test_equal_entries_share_one_scalar(self):
        # Q5 from its string table: 2/5 on the edges, "U" on the diagonal
        m = ExactMatrix.from_rows([
            ["U" if u == v else "2/5" if bin(u ^ v).count("1") == 1 else "0" for v in range(32)]
            for u in range(32)
        ])
        assert {id(x) for x in m.entries()} == {id(x) for x in (ZERO, m[0, 0], m[0, 1])}
        assert (m[0, 0], m[0, 1]) == (parse("U"), parse("2/5"))
        # one key per type: 1.0 is not taken for the int 1 it equals
        with pytest.raises(TypeError):
            ExactMatrix.from_rows([[1, 1.0]])

    def test_str_right_aligns_each_column(self):
        m = ExactMatrix.from_rows([["10", "-1/2"], ["t", "0"]])
        assert str(m) == "[10  -1/2]\n[ t     0]"

    def test_immutability(self):
        m = ExactMatrix.identity(2)
        with pytest.raises(AttributeError):
            m.rows = 3

    def test_no_rows_rejected(self):
        with pytest.raises(DimensionError, match="at least one row"):
            ExactMatrix.from_rows([])

    def test_unhashable_entry_refused(self):
        with pytest.raises(TypeError, match="cannot interpret list as a scalar"):
            ExactMatrix(1, 1, [[1]])

    def test_index_out_of_range(self):
        with pytest.raises(IndexError, match=r"index \(2, 0\) out of range for 2x2"):
            ExactMatrix.identity(2)[2, 0]

    def test_repr(self):
        assert repr(ExactMatrix.zeros(2, 3)) == "<ExactMatrix 2x3>"


class TestOperands:
    def test_shape_mismatch(self):
        a, b = ExactMatrix.identity(2), ExactMatrix.identity(3)
        with pytest.raises(DimensionError, match=r"shape mismatch: \(2, 2\) \+ \(3, 3\)"):
            a + b
        with pytest.raises(DimensionError, match=r"shape mismatch: \(2, 2\) - \(3, 3\)"):
            a - b

    def test_non_matrix_operands_refused(self):
        m = ExactMatrix.identity(2)
        for op in (lambda: m + 1, lambda: m - 1, lambda: m * m, lambda: m @ 1):
            with pytest.raises(TypeError):
                op()
        assert (m == 1) is False


class TestMatmul:
    def test_pauli_involution(self):
        assert sigma(1) @ sigma(1) == ExactMatrix.identity(2)

    def test_pauli_product(self):
        # sigma1 * sigma2 = i * sigma3, frozen from the entry-wise product
        expected = ExactMatrix.from_rows([["i", "0"], ["0", "-i"]])
        assert sigma(1) @ sigma(2) == expected
        assert expected == sigma(3) * parse("i")

    def test_identity_neutral(self):
        h = build("hubbard2")
        assert ExactMatrix.identity(4) @ h == h
        assert h @ ExactMatrix.identity(4) == h

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            ExactMatrix.identity(2) @ ExactMatrix.identity(3)

    def test_transpose_of_product(self, rng):
        pool = [rand_scalar(rng, max_terms=2, max_degree=2) for _ in range(5)]
        for _ in range(15):
            a = rand_matrix(rng, 3, pool)
            b = rand_matrix(rng, 3, pool)
            assert (a @ b).transpose() == b.transpose() @ a.transpose()


class TestTransposeDagger:
    def test_sigma2_structure(self):
        assert sigma(2).transpose() == -sigma(2)
        assert sigma(2).dagger() == sigma(2)

    def test_transpose_involution(self, rng):
        pool = [rand_scalar(rng, max_terms=2) for _ in range(4)]
        m = rand_matrix(rng, 4, pool)
        assert m.transpose().transpose() == m

    def test_hubbard_hermitian(self):
        h = build("hubbard2")
        assert h.dagger() == h
        assert h.is_hermitian()


class TestHermitian:
    def test_fermi3(self):
        assert build("fermi3").is_hermitian()

    def test_sigma2(self):
        assert sigma(2).is_hermitian()

    def test_non_symmetric(self):
        assert not ExactMatrix.from_rows([[0, 1], [0, 0]]).is_hermitian()

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            ExactMatrix.zeros(2, 3).is_hermitian()


class TestKron:
    def test_identity(self):
        assert kron(ExactMatrix.identity(2), ExactMatrix.identity(2)) == ExactMatrix.identity(4)

    def test_triple_spin_entries(self):
        h = kron(kron(sigma(1), sigma(2)), sigma(3))
        assert h.shape == (8, 8)
        assert h[0, 6] == parse("-i")
        assert h[6, 0] == parse("i")
        assert h == build("triple_spin")

    def test_mixed_product_rule(self, rng):
        pool = [rand_scalar(rng, max_terms=2, max_degree=1) for _ in range(4)]
        for _ in range(10):
            a = rand_matrix(rng, 2, pool)
            b = rand_matrix(rng, 2, pool)
            c = rand_matrix(rng, 2, pool)
            d = rand_matrix(rng, 2, pool)
            assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)

    def test_perm_kron_perm_is_perm(self, rng):
        for _ in range(20):
            p = rand_perm_matrix(rng, rng.randint(1, 4))
            q = rand_perm_matrix(rng, rng.randint(1, 4))
            assert kron(p, q).is_permutation_matrix()


class TestDirectSum:
    def test_identity_blocks(self):
        i2 = ExactMatrix.identity(2)
        assert direct_sum(i2, i2) == ExactMatrix.identity(4)

    def test_swap_blocks(self):
        i2 = ExactMatrix.identity(2)
        p1 = direct_sum(i2, sigma(1))
        assert Perm.from_matrix(p1) == Perm([0, 1, 3, 2])
        p3 = direct_sum(sigma(1), sigma(1))
        assert Perm.from_matrix(p3) == Perm([1, 0, 3, 2])

    def test_perm_plus_perm_is_perm(self, rng):
        for _ in range(20):
            p = rand_perm_matrix(rng, rng.randint(1, 4))
            q = rand_perm_matrix(rng, rng.randint(1, 4))
            assert direct_sum(p, q).is_permutation_matrix()


class TestStar2:
    def test_swap_gate(self):
        p1 = star2(ExactMatrix.identity(2), sigma(1))
        assert Perm.from_matrix(p1) == Perm([0, 2, 1, 3])

    def test_both_sigma1(self):
        p3 = star2(sigma(1), sigma(1))
        assert Perm.from_matrix(p3) == Perm([3, 2, 1, 0])

    def test_identity_star_identity(self):
        i2 = ExactMatrix.identity(2)
        assert star2(i2, i2) == ExactMatrix.identity(4)

    def test_layout(self):
        a = ExactMatrix.from_rows([["a11", "a12"], ["a21", "a22"]])
        b = ExactMatrix.from_rows([["b11", "b12"], ["b21", "b22"]])
        s = star2(a, b)
        assert s == ExactMatrix.from_rows(
            [
                ["a11", "0", "0", "a12"],
                ["0", "b11", "b12", "0"],
                ["0", "b21", "b22", "0"],
                ["a21", "0", "0", "a22"],
            ]
        )

    def test_dimension_restriction(self):
        with pytest.raises(DimensionError):
            star2(ExactMatrix.identity(3), ExactMatrix.identity(3))

    def test_perm_star_perm_is_perm(self, rng):
        perms2 = [ExactMatrix.identity(2), sigma(1)]
        for a in perms2:
            for b in perms2:
                assert star2(a, b).is_permutation_matrix()


class TestScalarOps:
    def test_projector_arithmetic(self):
        p = Perm([1, 0]).to_matrix()
        pi1 = (ExactMatrix.identity(2) + p) * rational(1, 2)
        assert pi1 == ExactMatrix.from_rows([["1/2", "1/2"], ["1/2", "1/2"]])
        assert (ExactMatrix.identity(2) + p) / 2 == pi1

    def test_scalar_multiplication(self):
        m = sigma(3) * parse("w1")
        assert m[0, 0] == parse("w1")
        assert m[1, 1] == parse("-w1")
        assert parse("w1") * sigma(3) == m

    def test_negation_and_subtraction(self):
        h = build("fermi3")
        assert h - h == ExactMatrix.zeros(3)
        assert -h + h == ExactMatrix.zeros(3)


# -- sparse kernels against the naive references -----------------------------

# Mostly zeros, as in the spin-chain matrices; "t" and "-t" let sums cancel.
SPARSE_POOL = [ZERO] * 6 + [
    parse(x) for x in ("0", "1", "-1", "t", "-t", "2*a - 1/3*i", "a*t^2 + 1/2")
]
KERNEL_SETTINGS = settings(max_examples=60, deadline=None, database=None)


def sparse_matrices(rows, cols):
    """Random sparse matrices of one shape, plus the all-zero and identity ones."""
    dense = st.lists(
        st.sampled_from(SPARSE_POOL), min_size=rows * cols, max_size=rows * cols
    ).map(lambda entries: ExactMatrix(rows, cols, entries))
    special = [st.just(ExactMatrix.zeros(rows, cols))]
    if rows == cols:
        special.append(st.just(ExactMatrix.identity(rows)))
    return st.one_of(dense, *special)


def fresh_matrices(rows, cols):
    """Random sparse matrices whose equal entries are distinct objects; "t"
    and "-t", "1" and "-1" let sums cancel to zero."""
    texts = ["0"] * 4 + ["1", "-1", "t", "-t", "2*a - 1/3*i"]
    return st.lists(
        st.sampled_from(texts), min_size=rows * cols, max_size=rows * cols
    ).map(lambda cells: ExactMatrix._trusted(rows, cols, tuple(
        {c: x for c in range(cols) if (x := parse(cells[r * cols + c]))} for r in range(rows)
    )))


def gauss(re, im):
    """A fresh constant scalar: equal entries built by it are distinct objects."""
    return PolyScalar.constant(GaussRational(re, im))


@st.composite
def sparse_hermitian(draw, n):
    """A sparse hermitian matrix of Gaussian rationals; each entry and its
    mirror are distinct objects, so no comparison can rest on ``is``."""
    parts = st.fractions(min_value=-2, max_value=2, max_denominator=3)
    cells = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), parts, parts), max_size=2 * n
    ))
    rows = tuple({} for _ in range(n))
    for u, v, re, im in cells:
        x = gauss(re, 0 if u == v else im)
        if x:
            rows[u][v] = x
            rows[v][u] = gauss(re, 0 if u == v else -im)
    return ExactMatrix._trusted(n, n, rows)


def replaced(m, u, v, x):
    """m with entry (u, v) set to x, through the dense constructor."""
    entries = list(m.entries())
    entries[u * m.cols + v] = x
    return ExactMatrix(m.rows, m.cols, entries)


def assert_zeros_shared(m):
    assert all(x is ZERO for x in m.entries() if not x)


def by_index(m):
    """Every entry of m, row-major, read one at a time through ``[r, c]``."""
    return [m[r, c] for r in range(m.rows) for c in range(m.cols)]


def assert_dense_view(m):
    """``entries()`` and ``row(r)`` agree with ``[r, c]``; zeros are shared."""
    expected = by_index(m)
    assert list(m.entries()) == expected
    assert [x for r in range(m.rows) for x in m.row(r)] == expected
    assert_zeros_shared(m)


def is_hermitian_oracle(m):
    n = m.rows
    return all(m[r, c] == m[c, r].conjugate() for r in range(n) for c in range(n))


def is_permutation_oracle(m):
    n = m.rows
    cells = [(r, c) for r in range(n) for c in range(m.cols)]
    if m.cols != n or any(m[r, c] and m[r, c] != ONE for r, c in cells):
        return False
    ones = [(r, c) for r, c in cells if m[r, c] == ONE]
    return sorted(r for r, _ in ones) == sorted(c for _, c in ones) == list(range(n))


dims = st.integers(min_value=1, max_value=4)


class TestKernelOracles:
    @seed(1208)
    @KERNEL_SETTINGS
    @given(st.data())
    def test_matmul(self, data):
        n, k, m = data.draw(dims), data.draw(dims), data.draw(dims)
        a = data.draw(sparse_matrices(n, k))
        b = data.draw(sparse_matrices(k, m))
        product = a @ b
        assert product == reference_matmul(a, b)
        assert_zeros_shared(product)

    @seed(1978)
    @KERNEL_SETTINGS
    @given(st.data())
    def test_matmul_multiplies_each_pair_once_within_its_bound(self, data):
        # fresh entries: equal values are distinct objects, so the memo must
        # go by value.  It takes a new pair only while it holds fewer than the
        # non-zeros of the output rows made so far; a pair it holds is not
        # multiplied again
        n, k, m = data.draw(dims), data.draw(dims), data.draw(dims)
        a, b = data.draw(fresh_matrices(n, k)), data.draw(fresh_matrices(k, m))
        expected = reference_matmul(a, b)
        memo, room, products = set(), 0, 0
        for r, a_row in enumerate(a._r):
            for t, x in sorted(a_row.items()):
                for y in b._r[t].values():
                    if (x, y) not in memo:
                        products += 1
                        if len(memo) < room:
                            memo.add((x, y))
            room += len(expected._r[r])
        made = []
        multiply = PolyScalar.__mul__
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PolyScalar, "__mul__", lambda x, y: made.append((x, y)) or multiply(x, y))
            product = a @ b
        assert product == expected
        assert len(made) == products
        assert len(memo) <= sum(map(len, product._r))

    def test_spin_chain_couplings_make_one_product(self):
        # z_j z_{j+1} on 6 sites: a quarter of the rows multiply -1 by -1, and
        # every other product has a factor ONE
        made = []
        multiply = PolyScalar.__mul__
        z = [sigma_at(3, j, 6) for j in (1, 2)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PolyScalar, "__mul__", lambda x, y: made.append((x, y)) or multiply(x, y))
            product = z[0] @ z[1]
        assert product == reference_matmul(*z)
        assert len(made) == 1
        assert len({id(x) for row in product._r for x in row.values() if x is not ONE and x == 1}) == 1

    def test_rows_where_no_products_meet_are_not_filtered(self):
        # no two products of z_1 z_2 meet in a column, and a product of
        # non-zero polynomials is non-zero, so no entry is tested for zero
        tested = []
        truth = PolyScalar.__bool__
        z = [sigma_at(3, j, 6) for j in (1, 2)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PolyScalar, "__bool__", lambda x: tested.append(x) or truth(x))
            product = z[0] @ z[1]
        assert not tested
        assert product == reference_matmul(*z)

    @seed(3301)
    @KERNEL_SETTINGS
    @given(st.data())
    def test_add_makes_one_sum_per_distinct_pair(self, data):
        # fresh entries, so the memo must go by value; a sum that cancels is
        # memoised too, and a row with an empty right row is the left row
        rows, cols = data.draw(dims), data.draw(dims)
        a = data.draw(fresh_matrices(rows, cols))
        b = data.draw(fresh_matrices(rows, cols))
        add = PolyScalar.__add__
        for right in (b, -a, ExactMatrix.zeros(rows, cols)):
            made = []
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(PolyScalar, "__add__", lambda x, y: made.append((x, y)) or add(x, y))
                got = a + right
            pairs = list(zip(by_index(a), by_index(right)))
            assert got == ExactMatrix(rows, cols, [x + y for x, y in pairs])
            assert_dense_view(got)
            assert len(made) == len({(x, y) for x, y in pairs if y})
            for a_row, right_row, row in zip(a._r, right._r, got._r):
                if not right_row:
                    assert row is a_row

    @seed(4721)
    @KERNEL_SETTINGS
    @given(st.data())
    def test_kron(self, data):
        a = data.draw(sparse_matrices(data.draw(dims), data.draw(dims)))
        b = data.draw(sparse_matrices(data.draw(dims), data.draw(dims)))
        product = kron(a, b)
        assert product == reference_kron(a, b)
        assert_zeros_shared(product)

    @seed(2012)
    @KERNEL_SETTINGS
    @given(st.data())
    def test_add_sub_neg_scale_transpose(self, data):
        rows, cols = data.draw(dims), data.draw(dims)
        a = data.draw(sparse_matrices(rows, cols))
        b = data.draw(sparse_matrices(rows, cols))
        s = data.draw(st.sampled_from(SPARSE_POOL))
        ea, eb = a.entries(), b.entries()
        results = [
            (a + b, [x + y for x, y in zip(ea, eb)]),
            (a - b, [x - y for x, y in zip(ea, eb)]),
            (-a, [-x for x in ea]),
            (a * s, [x * s for x in ea]),
            (s * a, [s * x for x in ea]),
        ]
        for got, expected in results:
            assert got == ExactMatrix(rows, cols, expected)
            assert_zeros_shared(got)
        t = a.transpose()
        assert t.shape == (cols, rows)
        assert all(t[c, r] is a[r, c] for r in range(rows) for c in range(cols))

    def test_parsed_zeros_become_the_shared_zero(self):
        m = ExactMatrix.from_rows([["0", "t - t"], [0, "1"]])
        assert [x is ZERO for x in m.entries()] == [True, True, True, False]

    def test_cancelled_entries_become_the_shared_zero(self):
        a = ExactMatrix.from_rows([["t", "t"], ["t", "-t"]])
        b = ExactMatrix.from_rows([["1", "1"], ["-1", "1"]])
        for m in (a @ b, a + (-a), a - a, kron(a, b) - kron(a, b)):
            assert_zeros_shared(m)
        assert (a @ b)[0, 0] is ZERO and (a @ b)[1, 1] is ZERO

    @seed(3318)
    @KERNEL_SETTINGS
    @given(st.data())
    def test_dense_view_of_every_kernel(self, data):
        rows, cols = data.draw(dims), data.draw(dims)
        a = data.draw(sparse_matrices(rows, cols))
        b = data.draw(sparse_matrices(rows, cols))
        c = data.draw(sparse_matrices(data.draw(dims), data.draw(dims)))
        # each result is fresh, so its dense view is built here, after the kernel
        for m in (a, a + b, a - b, -a, a * parse("t"), a.transpose(), a @ b.transpose(),
                  kron(a, c), direct_sum(a, c), a.dagger(), a / 3):
            assert_dense_view(m)

    @seed(5150)
    @KERNEL_SETTINGS
    @given(st.data())
    def test_is_hermitian(self, data):
        n = data.draw(dims)
        a = data.draw(sparse_matrices(n, n))
        herm = ExactMatrix(n, n, [
            a[r, c] + a[c, r].conjugate() for r in range(n) for c in range(n)
        ])
        # an imaginary diagonal entry breaks hermiticity but not symmetry
        off = by_index(herm)
        off[0] = off[0] + parse("i")
        off = ExactMatrix(n, n, off)
        assert herm.is_hermitian() and is_hermitian_oracle(herm)
        assert not off.is_hermitian() and not is_hermitian_oracle(off)
        assert a.is_hermitian() == is_hermitian_oracle(a)
        assert herm.dagger() == herm

    @seed(7243)
    @KERNEL_SETTINGS
    @given(st.data())
    def test_is_hermitian_on_gaussian_rationals(self, data):
        n = data.draw(st.integers(min_value=1, max_value=5))
        herm = data.draw(sparse_hermitian(n))
        rows = herm._r
        off_diagonal = [(u, v) for u in range(n) for v in rows[u] if u != v]
        misses = []
        if any(rows):
            # one entry changed: adding i breaks x = conj(x) on the diagonal too
            u, v = data.draw(st.sampled_from([(u, v) for u in range(n) for v in rows[u]]))
            misses.append(replaced(herm, u, v, rows[u][v] + gauss(0, 1)))
        non_real = [(u, v) for u, v in off_diagonal if rows[u][v].conjugate() != rows[u][v]]
        if non_real:
            # one entry not conjugated: a fresh copy of its mirror
            u, v = data.draw(st.sampled_from(non_real))
            x = rows[v][u].constant_value()
            misses.append(replaced(herm, u, v, gauss(x.re, x.im)))
        if off_diagonal:
            # a zero opposite a non-zero
            u, v = data.draw(st.sampled_from(off_diagonal))
            misses.append(replaced(herm, u, v, ZERO))
        zeros = [(u, v) for u in range(n) for v in range(n) if u != v and v not in rows[u]]
        if zeros:
            # and a non-zero opposite a zero
            u, v = data.draw(st.sampled_from(zeros))
            misses.append(replaced(herm, u, v, gauss(1, 0)))
        assert herm.is_hermitian() and herm == herm.dagger()
        for m in misses:
            assert m != m.dagger() and not m.is_hermitian()
        other = data.draw(sparse_matrices(n, n))
        assert other.is_hermitian() == (other == other.dagger())

    @seed(6064)
    @KERNEL_SETTINGS
    @given(st.data())
    def test_is_permutation_matrix(self, data):
        n = data.draw(dims)
        image = data.draw(st.permutations(range(n)))
        p = Perm(image).to_matrix()
        entries = by_index(p)
        dropped = list(entries)
        dropped[image[0]] = ZERO
        variants = [(p, True), (p * 2, False), (ExactMatrix(n, n, dropped), False)]
        if n > 1:
            moved, extra = list(entries), list(entries)
            moved[image[0]], moved[image[1]] = ZERO, ONE  # two 1s in one column
            extra[image[1]] = ONE  # two 1s in row 0
            variants += [(ExactMatrix(n, n, moved), False), (ExactMatrix(n, n, extra), False)]
        variants.append((data.draw(sparse_matrices(n, n)), None))
        for m, expected in variants:
            assert m.is_permutation_matrix() == is_permutation_oracle(m)
            assert expected is None or m.is_permutation_matrix() == expected

    @seed(7331)
    @KERNEL_SETTINGS
    @given(st.data())
    def test_direct_sum(self, data):
        a = data.draw(sparse_matrices(data.draw(dims), data.draw(dims)))
        b = data.draw(sparse_matrices(data.draw(dims), data.draw(dims)))
        rows, cols = a.rows + b.rows, a.cols + b.cols
        expected = [
            a[r, c] if r < a.rows and c < a.cols
            else b[r - a.rows, c - a.cols] if r >= a.rows and c >= a.cols
            else ZERO
            for r in range(rows) for c in range(cols)
        ]
        got = direct_sum(a, b)
        assert got == ExactMatrix(rows, cols, expected)
        assert_dense_view(got)

    @seed(8086)
    @KERNEL_SETTINGS
    @given(st.data())
    def test_conjugate_dagger_substitute_divide(self, data):
        rows, cols = data.draw(dims), data.draw(dims)
        a = data.draw(sparse_matrices(rows, cols))
        # t -> 0 and t -> -t make entries vanish or cancel
        bindings = {"t": data.draw(st.sampled_from(["0", "-t", "1/2", "a"]))}
        s = data.draw(st.sampled_from([parse(x) for x in ("3", "-1/2", "2*i", "1 + i")]))
        cells = [(r, c) for r in range(rows) for c in range(cols)]
        results = [
            (a.conjugate(), ExactMatrix(rows, cols, [a[r, c].conjugate() for r, c in cells])),
            (a.dagger(), ExactMatrix(cols, rows, [
                a[r, c].conjugate() for c in range(cols) for r in range(rows)
            ])),
            (a.substitute(bindings),
             ExactMatrix(rows, cols, [a[r, c].substitute(bindings) for r, c in cells])),
            (a / s, ExactMatrix(rows, cols, [a[r, c] / s for r, c in cells])),
        ]
        for got, expected in results:
            assert got == expected
            assert_dense_view(got)

    @seed(9001)
    @KERNEL_SETTINGS
    @given(st.data())
    def test_equal_matrices_built_by_different_routes_hash_equal(self, data):
        rows, cols = data.draw(dims), data.draw(dims)
        a = data.draw(sparse_matrices(rows, cols))
        b = data.draw(sparse_matrices(data.draw(dims), data.draw(dims)))
        by_rows = ExactMatrix.from_rows([
            [a[i, j] * b[k, l] for j in range(a.cols) for l in range(b.cols)]
            for i in range(a.rows) for k in range(b.rows)
        ])
        a2 = data.draw(sparse_matrices(rows, cols))
        for x, y in ((a - a, ExactMatrix.zeros(rows, cols)), (kron(a, b), by_rows),
                     (a + a2, a2 + a)):
            assert x == y and hash(x) == hash(y)

    @seed(6174)
    @KERNEL_SETTINGS
    @given(st.data())
    def test_entrywise_kernels_compute_each_operand_once(self, data):
        rows, cols = data.draw(dims), data.draw(dims)
        a = data.draw(fresh_matrices(rows, cols))
        b = data.draw(fresh_matrices(rows, cols))
        s = data.draw(st.sampled_from([parse(x) for x in ("3", "-1/2", "2*i", "t", "0")]))
        bindings = {"t": data.draw(st.sampled_from(["0", "-t", "1/2", "a", "2*a - 1/3*i"]))}
        ea, eb = by_index(a), by_index(b)
        # + and - against the entrywise oracle; the non-zeros of each distinct
        # operand pair (x, y) with y non-zero are one object
        for got, op in ((a + b, lambda x, y: x + y), (a - b, lambda x, y: x - y)):
            assert got == ExactMatrix(rows, cols, [op(x, y) for x, y in zip(ea, eb)])
            assert_dense_view(got)
            shared = {}
            for x, y, z in zip(ea, eb, by_index(got)):
                if y and z:
                    assert shared.setdefault((x, y), z) is z
        # the entrywise maps: equal operands give one object, and for the
        # one-to-one maps equal entries are one object
        maps = [
            (-a, lambda x: -x, True),
            (a * s, lambda x: x * s, bool(s)),
            (s * a, lambda x: s * x, bool(s)),
            (a.conjugate(), lambda x: x.conjugate(), True),
            (a.substitute(bindings), lambda x: x.substitute(bindings), False),
        ]
        if s and s.is_constant():
            maps.append((a / s, lambda x: x / s, True))
        for got, f, one_to_one in maps:
            assert got == ExactMatrix(rows, cols, [f(x) for x in ea])
            assert_dense_view(got)
            shared = {}
            for x, z in zip(ea, by_index(got)):
                if z:
                    assert shared.setdefault(x, z) is z
            if one_to_one:
                non_zeros = [z for z in by_index(got) if z]
                assert len(set(map(id, non_zeros))) == len(set(non_zeros))

    def test_divide_by_zero_raises_on_a_zero_matrix(self):
        with pytest.raises(ZeroDivisionError):
            ExactMatrix.zeros(2) / 0
