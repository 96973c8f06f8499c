"""Catalog of the parametric Hamiltonian matrices used as fixtures and CLI
inputs: small Fermi clusters, coupled spin pairs, a triple-spin interaction
and a 4-site cyclic Ising chain in a transverse field.

Unbound parameters stay symbolic; bindings may be any exact scalar
(integers, rationals, or expressions in other parameters).
"""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import ExactMatrix, kron
from .scalars import ONE, ZERO, GaussRational, PolyScalar, as_scalar, param


class ModelError(ValueError):
    pass


def sigma(k):
    """The 2x2 Pauli matrix sigma_1, sigma_2 or sigma_3."""
    if k == 1:
        return ExactMatrix.from_rows([[ZERO, ONE], [ONE, ZERO]])
    if k == 2:
        mi = PolyScalar.constant(GaussRational(0, -1))
        pi = PolyScalar.constant(GaussRational(0, 1))
        return ExactMatrix.from_rows([[ZERO, mi], [pi, ZERO]])
    if k == 3:
        return ExactMatrix.from_rows([[ONE, ZERO], [ZERO, -ONE]])
    raise ModelError(f"sigma index must be 1, 2 or 3, not {k}")


def sigma_at(k, j, n):
    """Pauli sigma_k acting on site j (1-based) of an n-site chain.

    The Kronecker embedding with identity factors elsewhere, so site 1 is the
    most significant factor of the 2^n-dimensional space, built in one pass:
    row ``u`` has bit ``a`` at site ``j``, and each entry ``(b, x)`` of
    sigma's row ``a`` is the entry ``x`` at column ``u + (b - a) * 2^(n-j)``.
    """
    if not 1 <= j <= n:
        raise ModelError(f"site {j} out of range 1..{n}")
    shift = n - j
    offsets = [[((b - a) << shift, x) for b, x in row.items()] for a, row in enumerate(sigma(k)._r)]
    return ExactMatrix._trusted(1 << n, 1 << n, tuple(
        {u + d: x for d, x in offsets[(u >> shift) & 1]} for u in range(1 << n)
    ))


@dataclass(frozen=True)
class ModelSpec:
    name: str
    dimension: int
    parameters: tuple
    description: str
    builder: object

    def parameter_names(self):
        return [name for name, _ in self.parameters]


def _fermi3(k1, k2, k3, t):
    return ExactMatrix.from_rows(
        [
            [k1 + k2, t, -t],
            [t, k1 + k3, t],
            [-t, t, k2 + k3],
        ]
    )


def _hubbard2(U, t):
    z = PolyScalar()
    return ExactMatrix.from_rows(
        [
            [U, t, t, z],
            [t, z, z, t],
            [t, z, z, t],
            [z, t, t, U],
        ]
    )


def _twospin(w1, w2, eps, swapped):
    i2 = ExactMatrix.identity(2)
    base = kron(sigma(3), i2) * w1 + kron(i2, sigma(1)) * w2
    coupling = kron(sigma(1), sigma(3)) if swapped else kron(sigma(3), sigma(1))
    return base + coupling * eps


def _triple_spin():
    return kron(kron(sigma(1), sigma(2)), sigma(3))


def _ising4(a, b):
    n = 4
    z = [sigma_at(3, j, n) for j in range(1, n + 1)]
    x = [sigma_at(1, j, n) for j in range(1, n + 1)]
    coupling = ExactMatrix.zeros(16)
    field = ExactMatrix.zeros(16)
    for j in range(n):
        coupling = coupling + (z[j] @ z[(j + 1) % n])
        field = field + x[j]
    return coupling * a + field * b


CATALOG = {
    spec.name: spec
    for spec in [
        ModelSpec(
            name="fermi3",
            dimension=3,
            parameters=(
                ("k1", "on-site energy of mode 1"),
                ("k2", "on-site energy of mode 2"),
                ("k3", "on-site energy of mode 3"),
                ("t", "hopping amplitude"),
            ),
            description="three-mode Fermi trimer in the two-particle sector",
            builder=_fermi3,
        ),
        ModelSpec(
            name="hubbard2",
            dimension=4,
            parameters=(
                ("U", "on-site interaction"),
                ("t", "hopping amplitude"),
            ),
            description="two-point Hubbard model, N=2 and S_z=0 sector",
            builder=_hubbard2,
        ),
        ModelSpec(
            name="twospin_H",
            dimension=4,
            parameters=(
                ("w1", "level splitting of spin 1"),
                ("w2", "level splitting of spin 2"),
                ("eps", "coupling strength"),
            ),
            description="two coupled spins with a sigma3 x sigma1 interaction",
            builder=lambda w1, w2, eps: _twospin(w1, w2, eps, swapped=False),
        ),
        ModelSpec(
            name="twospin_K",
            dimension=4,
            parameters=(
                ("w1", "level splitting of spin 1"),
                ("w2", "level splitting of spin 2"),
                ("eps", "coupling strength"),
            ),
            description="same two spins with the interaction swapped to sigma1 x sigma3",
            builder=lambda w1, w2, eps: _twospin(w1, w2, eps, swapped=True),
        ),
        ModelSpec(
            name="triple_spin",
            dimension=8,
            parameters=(),
            description="triple spin interaction sigma1 x sigma2 x sigma3",
            builder=_triple_spin,
        ),
        ModelSpec(
            name="ising4",
            dimension=16,
            parameters=(
                ("a", "nearest-neighbour sigma3 coupling"),
                ("b", "transverse field strength"),
            ),
            description="cyclic 4-site Ising chain in a transverse field",
            builder=_ising4,
        ),
    ]
}


def list_models():
    """All catalog entries, in a fixed order."""
    return [CATALOG[name] for name in sorted(CATALOG)]


def build(name, params=None):
    """Construct a catalog matrix; unbound parameters stay symbolic.

    ``params`` maps parameter names to exact scalars (or expression strings);
    unknown model or parameter names raise ModelError.
    """
    spec = CATALOG.get(name)
    if spec is None:
        known = ", ".join(sorted(CATALOG))
        raise ModelError(f"unknown model {name!r} (known: {known})")
    names = spec.parameter_names()
    bindings = {pname: param(pname) for pname in names}
    for pname, value in (params or {}).items():
        if pname not in bindings:
            raise ModelError(f"model {name!r} has no parameter {pname!r} (has: {names})")
        bindings[pname] = as_scalar(value)
    return spec.builder(**bindings)
