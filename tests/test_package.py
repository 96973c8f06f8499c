"""The package namespace and what a cold CLI start imports.

``permsym`` imports its scalar, matrix, permutation, model and search layers
eagerly and the group and decompose layers on first access, so a CLI command
that needs neither never loads them."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import permsym

SRC = str(Path(permsym.__file__).parents[1])

HOMES = {
    "scalars": "GaussRational Monomial ParseError PolyScalar as_scalar param parse rational",
    "matrices": "DimensionError ExactMatrix direct_sum kron star2",
    "perms": "Perm induced_site_perm",
    "models": "ModelError ModelSpec build list_models sigma sigma_at",
    "search": "MODE_LEAF_CHECK MODE_PRUNED SearchConfig SearchResult find_symmetries is_symmetry",
    "groups": "GroupError SymmetryGroup conjugacy_classes element_orders generate_from "
              "generating_set involutions is_commutative verify_closure",
    "decompose": "ProjectorPair SubspaceBasis block_form column_space_basis "
                 "is_invariant_subspace projectors_from_involution verify_eigenpair",
}


def test_all_is_pinned():
    assert permsym.__all__ == [
        "DimensionError", "ExactMatrix", "GaussRational", "GroupError", "MODE_LEAF_CHECK",
        "MODE_PRUNED", "ModelError", "ModelSpec", "Monomial", "ParseError", "Perm",
        "PolyScalar", "ProjectorPair", "SearchConfig", "SearchResult", "SubspaceBasis",
        "SymmetryGroup", "as_scalar", "block_form", "build", "column_space_basis",
        "conjugacy_classes", "direct_sum", "element_orders", "find_symmetries",
        "generate_from", "generating_set", "induced_site_perm", "involutions",
        "is_commutative", "is_invariant_subspace", "is_symmetry", "kron", "list_models",
        "param", "parse", "projectors_from_involution", "rational", "sigma", "sigma_at",
        "star2", "verify_closure", "verify_eigenpair", "__version__",
    ]
    assert sorted(" ".join(HOMES.values()).split()) == sorted(permsym.__all__[:-1])


@pytest.mark.parametrize("module", HOMES)
def test_every_name_is_its_home_modules_object(module):
    home = import_module(f"permsym.{module}")
    for name in HOMES[module].split():
        assert getattr(permsym, name) is getattr(home, name), name


def test_star_import_and_dir_cover_all():
    namespace = {}
    exec("from permsym import *", namespace)
    assert {name: namespace[name] for name in permsym.__all__} == {
        name: getattr(permsym, name) for name in permsym.__all__
    }
    assert set(permsym.__all__) <= set(dir(permsym))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'permsym' has no attribute 'nope'$"):
        permsym.nope
    with pytest.raises(ImportError):
        exec("from permsym import nope", {})


def python(*args):
    """Run this interpreter with permsym's source on the path: (exit code, stdout, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60)
    return done.returncode, done.stdout, done.stderr


def imported(*args):
    """The modules one run imports, read from ``-X importtime``."""
    code, _, err = python("-X", "importtime", *args)
    assert code == 0, err
    lines = [line.split("|") for line in err.splitlines() if line.startswith("import time:")]
    return {fields[-1].strip() for fields in lines[1:]}


def test_a_lazy_name_loads_its_layer_and_is_cached():
    script = ("import sys, permsym; before = 'permsym.groups' in sys.modules; "
              "g = permsym.SymmetryGroup; "
              "print(before, 'permsym.groups' in sys.modules, vars(permsym)['SymmetryGroup'] is g, "
              "'permsym.decompose' in sys.modules)")
    assert python("-c", script) == (0, "False True True False\n", "")


LAYERS = {"dataclasses", "inspect", "permsym.groups", "permsym.decompose"}


@pytest.mark.parametrize("argv, unloaded", [
    (["models", "--format", "json"], LAYERS),
    (["find", "--model", "hubbard2"], {"permsym.groups", "permsym.decompose"}),
], ids=["models", "find"])
def test_a_cold_cli_start_loads_only_what_it_runs(argv, unloaded):
    # compared with a bare interpreter, whose site may already import some of these
    bare = imported("-c", "pass")
    added = imported("-m", "permsym.cli", *argv) - bare
    assert {"permsym", "permsym.search"} <= added
    assert not added & unloaded


@pytest.mark.parametrize("argv, layer", [
    (["group", "--model", "hubbard2"], "permsym.groups"),
    (["decompose", "--model", "hubbard2", "--perm", "3,1,2,0"], "permsym.decompose"),
], ids=["group", "decompose"])
def test_a_command_that_needs_a_layer_loads_it(argv, layer):
    assert layer in imported("-m", "permsym.cli", *argv)
