import pytest

from permsym import (
    ExactMatrix,
    ModelError,
    build,
    kron,
    list_models,
    rational,
    sigma,
    sigma_at,
)

from helpers import ising4_printed, kron_sigma_at


class TestPauli:
    def test_displays(self):
        assert sigma(1) == ExactMatrix.from_rows([[0, 1], [1, 0]])
        assert sigma(2) == ExactMatrix.from_rows([["0", "-i"], ["i", "0"]])
        assert sigma(3) == ExactMatrix.from_rows([[1, 0], [0, -1]])

    def test_bad_index(self):
        with pytest.raises(ModelError):
            sigma(4)

    def test_sigma_at_embeddings(self):
        i2 = ExactMatrix.identity(2)
        assert sigma_at(3, 1, 4) == kron(kron(kron(sigma(3), i2), i2), i2)
        assert sigma_at(1, 4, 4) == kron(kron(kron(i2, i2), i2), sigma(1))
        assert sigma_at(1, 1, 1) == sigma(1)

    def test_sigma_at_matches_the_kronecker_embedding(self):
        for n in range(1, 7):
            for j in range(1, n + 1):
                for k in (1, 2, 3):
                    assert sigma_at(k, j, n) == kron_sigma_at(k, j, n)

    def test_sigma_at_out_of_range(self):
        with pytest.raises(ModelError):
            sigma_at(1, 0, 4)
        with pytest.raises(ModelError):
            sigma_at(1, 5, 4)


class TestBuilders:
    def test_fermi3_display(self):
        assert build("fermi3") == ExactMatrix.from_rows(
            [
                ["k1+k2", "t", "-t"],
                ["t", "k1+k3", "t"],
                ["-t", "t", "k2+k3"],
            ]
        )

    def test_hubbard2_display(self):
        assert build("hubbard2") == ExactMatrix.from_rows(
            [
                ["U", "t", "t", "0"],
                ["t", "0", "0", "t"],
                ["t", "0", "0", "t"],
                ["0", "t", "t", "U"],
            ]
        )

    def test_twospin_formulas(self):
        i2 = ExactMatrix.identity(2)
        h = kron(sigma(3), i2) * "w1" + kron(i2, sigma(1)) * "w2" \
            + kron(sigma(3), sigma(1)) * "eps"
        assert build("twospin_H") == h
        k = kron(sigma(3), i2) * "w1" + kron(i2, sigma(1)) * "w2" \
            + kron(sigma(1), sigma(3)) * "eps"
        assert build("twospin_K") == k
        assert build("twospin_H") != build("twospin_K")

    def test_triple_spin_structure(self):
        h = build("triple_spin")
        assert h == kron(kron(sigma(1), sigma(2)), sigma(3))
        assert h.is_hermitian()
        # hermitian and unitary: squares to the identity
        assert h @ h == ExactMatrix.identity(8)

    def test_ising4_matches_printed_matrix(self):
        assert build("ising4") == ising4_printed()

    def test_all_outputs_hermitian_and_sized(self):
        for spec in list_models():
            h = build(spec.name)
            assert h.shape == (spec.dimension, spec.dimension)
            assert h.is_hermitian()

    def test_zero_bindings_give_zero_matrix(self):
        h = build("twospin_H", {"w1": 0, "w2": 0, "eps": 0})
        assert h == ExactMatrix.zeros(4)

    def test_binding_expressions(self):
        h = build("fermi3", {"k1": "k", "k2": "k", "k3": "k"})
        assert h[0, 0] == h[1, 1] == h[2, 2]
        bound = build("hubbard2", {"U": "4", "t": "1/2"})
        assert bound[0, 0] == rational(4)
        assert bound[0, 1] == rational(1, 2)


class TestCatalog:
    def test_listing(self):
        specs = list_models()
        assert len(specs) == 6
        by_name = {s.name: s for s in specs}
        assert by_name["fermi3"].dimension == 3
        assert by_name["ising4"].dimension == 16
        assert by_name["ising4"].parameter_names() == ["a", "b"]

    def test_unknown_model(self):
        with pytest.raises(ModelError):
            build("nonesuch")

    def test_unknown_parameter(self):
        with pytest.raises(ModelError):
            build("hubbard2", {"bogus": 1})

    def test_deterministic_builders(self):
        assert build("ising4") == build("ising4")
