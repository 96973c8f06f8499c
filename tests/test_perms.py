import copy
import itertools
import pickle
import random

import pytest

from permsym import ExactMatrix, Perm, build, induced_site_perm, is_symmetry
from permsym.matrices import direct_sum, star2
from permsym.models import sigma
from permsym import perms
from permsym.perms import cycle_summary


@pytest.fixture
def rng():
    return random.Random(4242)


def rand_perm(rng, n):
    image = list(range(n))
    rng.shuffle(image)
    return Perm(image)


class TestBasics:
    def test_bijection_enforced(self):
        with pytest.raises(ValueError):
            Perm([0, 0, 1])
        with pytest.raises(ValueError):
            Perm([1, 2, 3])

    def test_parse_and_str(self):
        p = Perm.parse("3,1,2,0")
        assert p == Perm([3, 1, 2, 0])
        assert str(p) == "3,1,2,0"
        with pytest.raises(ValueError):
            Perm.parse("3,1,x")

    def test_parse_takes_ascii_digits_only(self):
        # int() also reads other scripts' digits, underscores, signs and spaces
        for text in ("\u0663,1,2,0", "3,1,2,0_0", "+3,1,2,0", "3, 1,2,0"):
            with pytest.raises(ValueError, match="is not an ASCII decimal index"):
                Perm.parse(text)

    def test_entries_must_be_integers(self):
        # int() would read these as 0,1 and 1,0
        for image in ([0.9, 1.2], ["1", "0"], [1.0, 0]):
            with pytest.raises(ValueError, match="permutation entries must be integers"):
                Perm(image)
        assert Perm([True, False]).image == (1, 0)

    def test_compose_then_inverse(self, rng):
        for _ in range(20):
            p = rand_perm(rng, 6)
            assert p * p.inverse() == Perm.identity(6)
            assert p.inverse() * p == Perm.identity(6)

    def test_non_perm_operands_refused(self):
        with pytest.raises(TypeError):
            Perm([0]) * 3
        with pytest.raises(TypeError):
            Perm([0]) < 3
        assert Perm([0, 1]) < Perm([1, 0])

    def test_compose_length_mismatch(self):
        with pytest.raises(ValueError):
            Perm([0, 1]) * Perm([0, 1, 2])

    def test_order(self):
        assert Perm([1, 0, 3, 2]).order() == 2
        assert Perm.identity(5).order() == 1
        assert Perm([1, 2, 0]).order() == 3
        assert Perm([1, 2, 0, 4, 3]).order() == 6

    def test_cycles(self):
        assert Perm([2, 1, 0]).cycles() == [(0, 2), (1,)]
        assert Perm([2, 1, 0]).cycle_string() == "(0 2)(1)"
        assert Perm.identity(2).cycles() == [(0,), (1,)]

    def test_cycle_summary_matches_the_cycles(self, rng):
        perms = [Perm(image) for n in range(5) for image in itertools.permutations(range(n))]
        perms += [rand_perm(rng, n) for n in (9, 12) for _ in range(20)]
        for p in perms:
            text = "".join("(" + " ".join(str(u) for u in c) + ")" for c in p.cycles())
            power, order = p, 1
            while not power.is_identity():
                power, order = power * p, order + 1
            assert cycle_summary(p.image) == (text, order)
            assert p.order() == order and p.cycle_string() == text

    def test_one_cycle_walk_gives_the_string_and_the_order(self, rng, monkeypatch):
        walks = []
        monkeypatch.setattr(
            perms, "cycle_summary", lambda image: walks.append(image) or cycle_summary(image)
        )
        for n in (1, 5, 12):
            p = rand_perm(rng, n)
            text, order = cycle_summary(p.image)
            del walks[:]
            # a record asks for the string, then the order
            assert p.cycle_string() == text and p.order() == order
            assert len(walks) == 1
            # the order alone walks once, however often it is asked for
            q = Perm(p.image)
            assert q.order() == q.order() == order
            assert len(walks) == 2
            # the string is not kept: each call walks again
            assert q.cycle_string() == text
            assert len(walks) == 3

    def test_a_known_order_leaves_pickling_equality_and_hashing_alone(self, rng):
        for n in (0, 1, 7):
            p = rand_perm(rng, n)
            fresh = Perm(p.image)
            p.cycle_string()
            for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
                assert type(q) is Perm and q == p == fresh and q.image == p.image
                assert hash(q) == hash(p) == hash(fresh)
                assert not q < p and not p < q
                assert q.order() == p.order()
            assert {p: 1}[fresh] == 1
        with pytest.raises(AttributeError):
            p._order = 3


class TestMatrixRealization:
    def test_identity(self):
        assert Perm([0, 1, 2]).to_matrix() == ExactMatrix.identity(3)

    def test_antidiagonal(self):
        expected = ExactMatrix.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]])
        assert Perm([2, 1, 0]).to_matrix() == expected

    def test_star_product_realization(self):
        assert Perm([3, 1, 2, 0]).to_matrix() == star2(sigma(1), ExactMatrix.identity(2))

    def test_from_matrix_round_trip(self, rng):
        for _ in range(20):
            p = rand_perm(rng, 5)
            assert Perm.from_matrix(p.to_matrix()) == p

    def test_from_matrix_examples(self):
        assert Perm.from_matrix(ExactMatrix.identity(4)) == Perm([0, 1, 2, 3])
        assert Perm.from_matrix(direct_sum(sigma(1), sigma(1))) == Perm([1, 0, 3, 2])

    def test_from_matrix_rejects_bad_input(self):
        with pytest.raises(ValueError):
            Perm.from_matrix(ExactMatrix.from_rows([[0, 0], [1, 1]]))
        with pytest.raises(ValueError):
            Perm.from_matrix(ExactMatrix.from_rows([[1, 1], [0, 0]]))
        with pytest.raises(ValueError):
            Perm.from_matrix(ExactMatrix.from_rows([[2, 0], [0, 1]]))
        with pytest.raises(ValueError):
            Perm.from_matrix(ExactMatrix.zeros(2, 3))

    def test_homomorphism_exhaustive_small(self):
        for n in range(1, 5):
            for pa in itertools.permutations(range(n)):
                for pb in itertools.permutations(range(n)):
                    p, q = Perm(pa), Perm(pb)
                    assert (p * q).to_matrix() == p.to_matrix() @ q.to_matrix()

    def test_homomorphism_exhaustive_n5(self):
        perms = [Perm(p) for p in itertools.permutations(range(5))]
        mats = {p: p.to_matrix() for p in perms}
        for p in perms:
            for q in perms:
                assert mats[p * q] == mats[p] @ mats[q]

    def test_homomorphism_random_larger(self, rng):
        for _ in range(20):
            p = rand_perm(rng, 8)
            q = rand_perm(rng, 8)
            assert (p * q).to_matrix() == p.to_matrix() @ q.to_matrix()

    def test_transpose_is_inverse(self, rng):
        for _ in range(20):
            p = rand_perm(rng, 6)
            assert p.to_matrix().transpose() == p.inverse().to_matrix()


class TestInducedSitePerm:
    def test_identity(self):
        assert induced_site_perm(Perm.identity(4)) == Perm.identity(16)

    def test_half_rotation_by_bit_shuffle_oracle(self):
        # bits of index m are (site0 ... site3), site 0 most significant;
        # rotating the ring by two swaps the index halves bitwise
        c2 = Perm([2, 3, 0, 1])
        induced = induced_site_perm(c2)
        assert induced(1) == 4
        for m in range(16):
            bits = [(m >> (3 - k)) & 1 for k in range(4)]
            expected = 0
            for k in range(4):
                expected |= bits[k] << (3 - c2(k))
            assert induced(m) == expected

    def test_homomorphism_exhaustive_s3_s4(self):
        for n in (3, 4):
            perms = [Perm(p) for p in itertools.permutations(range(n))]
            lift = {p: induced_site_perm(p) for p in perms}
            for p in perms:
                for q in perms:
                    assert lift[p * q] == lift[p] * lift[q]

    def test_matrix_realization_homomorphism(self):
        p = Perm([1, 2, 0])
        q = Perm([0, 2, 1])
        mp = induced_site_perm(p).to_matrix()
        mq = induced_site_perm(q).to_matrix()
        assert induced_site_perm(p * q).to_matrix() == mp @ mq

    def test_site_maps_are_ising4_symmetries(self):
        h = build("ising4")
        for image in ((2, 3, 0, 1), (1, 2, 3, 0), (1, 0, 3, 2), (0, 3, 2, 1)):
            assert is_symmetry(h, induced_site_perm(Perm(image)))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            induced_site_perm(Perm([]))
