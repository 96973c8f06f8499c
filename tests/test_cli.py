import argparse
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import permsym.cli
from permsym import ExactMatrix, Perm, SearchResult, build, find_symmetries, is_symmetry
from permsym.cli import main, read_matrix_file, render_json
from permsym.models import CATALOG
from permsym.scalars import MAX_NESTING, MAX_POWER_SIZE, ZERO, parse

from helpers import ISING4_ROWS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_report(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def comparison_form(report):
    """The report with timing stripped, re-serialized deterministically."""
    report = dict(report)
    report.pop("timing", None)
    return json.dumps(report, indent=2, sort_keys=True)


class TestEntryPoint:
    """``python -m permsym.cli`` in a subprocess, as users and the benchmark
    launch it: ``main``'s return value becomes the exit status."""

    @staticmethod
    def run(*argv):
        env = {**os.environ, "PYTHONPATH": str(Path(permsym.cli.__file__).parents[1])}
        return subprocess.run([sys.executable, "-m", "permsym.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_report(self, capsys):
        done = self.run("models", "--format", "json")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout == run_cli(capsys, "models", "--format", "json")[1]

    def test_parse_error(self):
        done = self.run("find", "--model", "hubbard2", "--param", "U=1/0")
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: division by zero (at position 1)\n"

    def test_main_builds_its_parser_once(self, capsys, monkeypatch):
        assert run_cli(capsys, "models")[0] == 0
        built = []
        init = argparse.ArgumentParser.__init__
        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            lambda self, *args, **kw: built.append(kw) or init(self, *args, **kw))
        assert run_cli(capsys, "models", "--format", "json")[0] == 0
        assert built == []
        assert permsym.cli.build_parser() is not permsym.cli.build_parser() and built

    def test_a_usage_error_after_a_request_prints_the_usage(self, capsys):
        assert run_cli(capsys, "models")[0] == 0
        errs = []
        for parse_args in (main, permsym.cli.build_parser().parse_args):
            with pytest.raises(SystemExit) as exc:
                parse_args(["find", "--model", "ising4", "--jobs"])
            assert exc.value.code == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert errs[0].startswith("usage: permsym find ")
        assert errs[0].endswith("error: argument --jobs: expected one argument\n")


class TestFind:
    def test_hubbard_text(self, capsys):
        code, out, err = run_cli(capsys, "find", "--model", "hubbard2")
        assert code == 0
        assert "symmetries found: 4" in out
        assert "0,2,1,3" in out and "3,2,1,0" in out

    def test_hubbard_json_round_trip(self, capsys):
        report = json_report(capsys, "find", "--model", "hubbard2")
        images = [tuple(rec["image"]) for rec in report["symmetries"]]
        expected = [p.image for p in find_symmetries(build("hubbard2")).perms]
        assert images == expected
        assert report["search"]["count"] == 4
        assert report["search"]["exhausted"] is True

    def test_count_only(self, capsys):
        report = json_report(capsys, "find", "--model", "triple_spin", "--count-only")
        assert report["search"]["count"] == 24
        assert "symmetries" not in report

    def test_identity_only_note(self, capsys):
        code, out, err = run_cli(capsys, "find", "--model", "twospin_K")
        assert code == 0
        assert "symmetries found: 1" in out
        assert "only the identity" in out

    def test_param_binding(self, capsys):
        report = json_report(
            capsys, "find", "--model", "fermi3",
            "--param", "k1=k", "--param", "k2=k", "--param", "k3=k",
        )
        assert report["search"]["count"] == 2
        assert report["input"]["parameters"]["k1"] == "k"

    def test_leaf_mode_flag(self, capsys):
        report = json_report(capsys, "find", "--model", "hubbard2", "--mode", "leaf")
        assert report["search"]["mode"] == "leaf-check"
        assert report["search"]["count"] == 4

    @pytest.mark.parametrize("command", ["find", "group"])
    def test_unbudgeted_leaf_check_is_refused_above_dimension_8(self, capsys, tmp_path, command):
        # ising4 has 16! leaves; a second symmetry would stop --max-results 2 only late
        path = tmp_path / "k9.txt"
        path.write_text("9 9\n" + "\n".join(" ".join(["1"] * 9) for _ in range(9)) + "\n")
        for argv in (["--model", "ising4", "--max-results", "2"], ["--input", str(path)]):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, command, *argv, "--mode", "leaf")
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (3, "")
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "give --node-budget" in err

    def test_leaf_check_runs_up_to_dimension_8_or_with_a_budget(self, capsys):
        assert run_cli(capsys, "find", "--model", "hubbard2", "--mode", "leaf")[0] == 0
        code, out, err = run_cli(
            capsys, "find", "--model", "ising4", "--mode", "leaf", "--node-budget", "100"
        )
        assert (code, err) == (4, "")
        assert "nodes visited: 100\n" in out

    def test_jobs_flag_same_output(self, capsys):
        # the report gives the one worker used, whatever --jobs asks for
        a = json_report(capsys, "find", "--model", "ising4")
        b = json_report(capsys, "find", "--model", "ising4", "--jobs", "3")
        assert b["search"]["jobs"] == 1
        assert comparison_form(a) == comparison_form(b)
        code, out, err = run_cli(capsys, "find", "--model", "ising4", "--jobs", "3")
        assert code == 0
        assert "mode: pruned  jobs: 1\n" in out

    def test_determinism_byte_identical(self, capsys):
        a = json_report(capsys, "find", "--model", "triple_spin")
        b = json_report(capsys, "find", "--model", "triple_spin")
        assert comparison_form(a) == comparison_form(b)

    def test_max_results_reported(self, capsys):
        report = json_report(
            capsys, "find", "--model", "triple_spin", "--max-results", "3"
        )
        assert report["search"]["count"] == 3
        assert report["search"]["exhausted"] is False

    def test_node_budget_exit_code(self, capsys):
        code, out, err = run_cli(
            capsys, "find", "--model", "triple_spin", "--node-budget", "50",
            "--format", "json",
        )
        assert code == 4
        report = json.loads(out)
        assert report["search"]["exhausted"] is False
        assert report["search"]["nodes_visited"] == 50

    def test_budgets_in_text(self, capsys):
        code, out, err = run_cli(
            capsys, "find", "--model", "triple_spin", "--max-results", "3", "--node-budget", "1000"
        )
        assert code == 0
        assert out.splitlines()[1:6] == [
            "mode: pruned  jobs: 1",
            "nodes visited: 27",
            "exhausted: no",
            "max results: 3",
            "node budget: 1000",
        ]


class TestGroup:
    def test_triple_spin_summary(self, capsys):
        report = json_report(capsys, "group", "--model", "triple_spin")
        g = report["group"]
        assert g["order"] == 24
        assert g["commutative"] is False
        assert sum(1 for _, order in g["element_orders"] if order == 2) == g["involution_count"]
        assert g["involution_count"] == 9
        assert sum(len(c) for c in g["conjugacy_classes"]) == 24
        gens = [Perm(image) for image in g["generators"]]
        assert gens

    def test_text_output(self, capsys):
        code, out, err = run_cli(capsys, "group", "--model", "hubbard2")
        assert code == 0
        assert "group order: 4" in out
        assert "commutative: yes" in out

    def test_k7_full_symmetric_group(self, capsys, tmp_path):
        # 5040 elements: a |G|^2 group layer would take minutes here
        n = 7
        rows = [" ".join("d" if r == c else "1" for c in range(n)) for r in range(n)]
        path = tmp_path / "k7.txt"
        path.write_text(f"{n} {n}\n" + "\n".join(rows) + "\n", encoding="utf-8")
        g = json_report(capsys, "group", "--input", str(path))["group"]
        assert g["order"] == 5040
        assert len(g["conjugacy_classes"]) == 15

    def test_budget_refuses_partial_group(self, capsys):
        code, out, err = run_cli(
            capsys, "group", "--model", "triple_spin", "--node-budget", "50"
        )
        assert code == 4
        assert "complete symmetry set" in err


class TestDecompose:
    def test_bell_decomposition(self, capsys):
        report = json_report(
            capsys, "decompose", "--model", "hubbard2", "--perm", "3,2,1,0"
        )
        d = report["decomposition"]
        assert d["basis1"] == [[1, 0, 0, 1], [0, 1, 1, 0]]
        assert d["basis2"] == [[1, 0, 0, -1], [0, 1, -1, 0]]
        assert d["block1"] == [["U", "2*t"], ["2*t", "0"]]
        assert d["block2"] == [["U", "0"], ["0", "0"]]
        assert "sqrt(2)" in d["note"]

    def test_non_symmetry_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "decompose", "--model", "hubbard2", "--perm", "1,0,2,3"
        )
        assert code == 3
        assert "not a symmetry" in err

    def test_non_involution_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "decompose", "--model", "triple_spin", "--perm", "1,2,0,4,5,3,6,7"
        )
        assert code == 3

    def test_bad_perm_string(self, capsys):
        code, out, err = run_cli(
            capsys, "decompose", "--model", "hubbard2", "--perm", "zap"
        )
        assert code == 3

    def test_perm_takes_ascii_digits_only(self, capsys):
        # int() reads '\u0663' as 3 and '0_0' as 0
        for perm, field in (("\u0663,\u0662,\u0661,\u0660", "\u0663"), ("3,2,1,0_0", "0_0")):
            code, out, err = run_cli(capsys, "decompose", "--model", "hubbard2", "--perm", perm)
            assert (code, out) == (3, "")
            assert err == f"error: bad permutation {perm!r}: {field!r} is not an ASCII decimal index\n"

    @pytest.mark.parametrize("model, perm, message", [
        ("hubbard2", "0,1,2", "permutation length 3 does not match dimension 4"),
        # the lift of ising4's quarter turn commutes with H but has order 4
        ("ising4", "0,8,1,9,2,10,3,11,4,12,5,13,6,14,7,15",
         "0,8,1,9,2,10,3,11,4,12,5,13,6,14,7,15 is not an involution (order 4)"),
    ])
    def test_rejected_perm_is_one_line(self, capsys, model, perm, message):
        assert run_cli(capsys, "decompose", "--model", model, "--perm", perm) == (
            3, "", f"error: {message}\n"
        )

    def test_text_output(self, capsys):
        code, out, err = run_cli(capsys, "decompose", "--model", "hubbard2", "--perm", "3,2,1,0")
        assert code == 0
        lines = out.splitlines()
        assert lines[2:15] == [
            "involution: 3,2,1,0",
            "basis of the first invariant subspace:",
            "  (1, 0, 0, 1)",
            "  (0, 1, 1, 0)",
            "basis of the second invariant subspace:",
            "  (1, 0, 0, -1)",
            "  (0, 1, -1, 0)",
            "block of the first subspace:",
            "  [U  2*t]",
            "  [2*t  0]",
            "block of the second subspace:",
            "  [U  0]",
            "  [0  0]",
        ]
        assert lines[15].startswith("note: basis vectors are primitive integer vectors")
        assert lines[16].startswith("wall time: ")


class TestModels:
    def test_listing_text(self, capsys):
        code, out, err = run_cli(capsys, "models")
        assert code == 0
        for name in ("fermi3", "hubbard2", "twospin_H", "twospin_K", "triple_spin", "ising4"):
            assert name in out

    def test_listing_json(self, capsys):
        code, out, err = run_cli(capsys, "models", "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert len(report["models"]) == 6


# zero-valued tokens, and equal values written as different tokens
FILE_TOKENS = ["0", "a-a", "0*b", "0/7", "(a-a)*b", "1", "a", "1*a", "a+0", "-1/2", "b",
               "2*b", "b+b", "i", "(a+b)", "b+a", "a^2", "a*a"]


@st.composite
def token_tables(draw):
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cell = st.sampled_from(FILE_TOKENS)
    return [draw(st.lists(cell, min_size=cols, max_size=cols)) for _ in range(rows)]


class TestMatrixFiles:
    def write(self, tmp_path, text):
        path = tmp_path / "matrix.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_file_matches_model(self, capsys, tmp_path):
        path = self.write(tmp_path, "16 16\n" + "\n".join(ISING4_ROWS) + "\n")
        from_file = json_report(capsys, "find", "--input", path)
        from_model = json_report(capsys, "find", "--model", "ising4")
        assert [r["image"] for r in from_file["symmetries"]] == [
            r["image"] for r in from_model["symmetries"]
        ]

    def test_small_file(self, capsys, tmp_path):
        path = self.write(tmp_path, "2 2\n0 t\nt 0\n")
        report = json_report(capsys, "find", "--input", path)
        assert report["search"]["count"] == 2

    def test_bad_header(self, capsys, tmp_path):
        # str.isdigit() accepts '\u00b2' and '\u0662', and int() converts the
        # second and '+2'; 5000 digits are more than int() converts
        headers = ("two two", "2\u00b2 2", "\u0662 2", "9" * 5000 + " 2", "2", "2 2 2", "+2 2")
        for header in headers:
            path = self.write(tmp_path, f"{header}\n0 t\nt 0\n")
            code, out, err = run_cli(capsys, "find", "--input", path)
            assert (code, out) == (2, "")
            assert err == f"error: {path}:1: header must be 'rows cols'\n"

    @pytest.mark.parametrize("text, where, message", [
        ("", "", "empty matrix file"),
        ("0 0\n", ":1", "dimensions must be positive"),
        ("2 2\n0 t\n", "", "expected 2 entry rows after the header, found 1"),
    ])
    def test_malformed_file(self, capsys, tmp_path, text, where, message):
        path = self.write(tmp_path, text)
        assert run_cli(capsys, "find", "--input", path) == (2, "", f"error: {path}{where}: {message}\n")

    def test_bad_expression(self, capsys, tmp_path):
        path = self.write(tmp_path, "2 2\n0 t$\nt 0\n")
        code, out, err = run_cli(capsys, "find", "--input", path)
        assert code == 2
        assert "position" in err

    def test_wrong_entry_count(self, capsys, tmp_path):
        path = self.write(tmp_path, "2 2\n0 t 1\nt 0\n")
        code, out, err = run_cli(capsys, "find", "--input", path)
        assert code == 2

    def test_missing_file(self, capsys):
        code, out, err = run_cli(capsys, "find", "--input", "/nonexistent.txt")
        assert code == 2

    def test_non_square_rejected(self, capsys, tmp_path):
        # the search's own error, and no non-hermitian warning before it
        path = self.write(tmp_path, "1 2\n0 t\n")
        code, out, err = run_cli(capsys, "find", "--input", path)
        assert (code, out) == (3, "")
        assert err == "error: symmetry search needs a square matrix\n"

    def test_non_utf8_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"1 1\n\xff\n")
        code, out, err = run_cli(capsys, "find", "--input", str(path))
        assert code == 2
        assert err == f"error: {path}: not UTF-8 text: byte 0xff at offset 4\n"
        assert out == ""

    def test_parse_error_names_line_and_token(self, capsys, tmp_path):
        path = self.write(tmp_path, "2 2\n0 t\nt$ 0\n")
        code, out, err = run_cli(capsys, "find", "--input", path)
        assert code == 2
        assert err == f"error: {path}:3: 't$': unexpected character '$' (at position 1)\n"

    def test_deep_nesting_is_a_parse_error(self, capsys, tmp_path):
        for entry in ("(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1"):
            path = self.write(tmp_path, f"1 1\n{entry}\n")
            code, out, err = run_cli(capsys, "find", "--input", path)
            assert code == 2
            assert err.endswith(
                f": nesting deeper than {MAX_NESTING} levels (at position {MAX_NESTING})\n"
            )
            assert err.count("\n") == 1 and out == ""

    def test_huge_power_is_a_parse_error(self, capsys, tmp_path):
        for entry, position in (("(t+1)^999999999", 6), ("2^999999999", 2),
                                ("((t+1)^40)^40", 11)):
            path = self.write(tmp_path, f"1 1\n{entry}\n")
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "find", "--input", path)
            assert time.perf_counter() - start < 2
            assert code == 2
            assert err.endswith(
                f": power larger than MAX_POWER_SIZE = {MAX_POWER_SIZE} (at position {position})\n"
            )
            assert err.count("\n") == 1 and out == ""

    def test_huge_product_is_a_parse_error(self, capsys, tmp_path):
        entry = "*".join(["(a+b+c+d+e+f+g+h)"] * 7)
        path = self.write(tmp_path, f"1 1\n{entry}\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "find", "--input", path)
        assert time.perf_counter() - start < 2
        assert code == 2
        assert err.endswith(
            f": product larger than MAX_POWER_SIZE = {MAX_POWER_SIZE} (at position 53)\n"
        )
        assert err.count("\n") == 1 and out == ""

    def test_non_hermitian_warning_is_one_line(self, capsys, tmp_path):
        path = self.write(tmp_path, "2 2\n0 1\n2 0\n")
        code, out, err = run_cli(capsys, "find", "--input", path, "--format", "json")
        assert code == 0
        assert err == "warning: input matrix is not hermitian\n"
        assert json.loads(out)["search"]["count"] == 1

    def test_equal_tokens_share_one_scalar(self, tmp_path):
        path = self.write(tmp_path, "3 3\n2*t 1/2 0\n1/2 2*t 0\n0 0 -a\n")
        m = read_matrix_file(path)
        assert m[0, 0] is m[1, 1] and m[0, 1] is m[1, 0]
        assert m[0, 2] is ZERO and m[2, 1] is ZERO
        assert m == ExactMatrix.from_rows([["2*t", "1/2", "0"], ["1/2", "2*t", "0"], [0, 0, "-a"]])

    def test_reader_builds_the_row_dicts_itself(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("the reader went through ExactMatrix(...)")

        monkeypatch.setattr(ExactMatrix, "__init__", refuse)
        m = read_matrix_file(self.write(tmp_path, "2 3\n0 a-a 1\nb 0*b 0\n"))
        assert m.shape == (2, 3) and m._r == ({2: parse("1")}, {0: parse("b")})

    @seed(17)
    @settings(max_examples=80, deadline=None, database=None)
    @given(table=token_tables(), seps=st.lists(st.sampled_from([" ", "  ", "\t", " \t "]), min_size=1))
    def test_files_read_as_their_tokens(self, tmp_path_factory, table, seps):
        lines = [f"{len(table)} {len(table[0])}"]
        for k, row in enumerate(table):
            lines.append(seps[k % len(seps)].join(row))
        path = tmp_path_factory.mktemp("tokens") / "matrix.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        m = read_matrix_file(str(path))
        assert m == ExactMatrix.from_rows(table)
        entries = [x for row in m._r for x in row.values()]
        assert all(entries)  # a zero-valued token leaves no key
        assert len(set(map(id, entries))) == len(set(entries))  # one object per value


# -- the JSON renderer against json.dumps(indent=2, sort_keys=True) ---------

TRICKY_TEXT = ["", "é", "日本", "\U0001f600", '"', "\\", "\n", "\x00", "\x1f", "\x7f",
               "%s", "%", "],\n  [", "{}", "a\tb\r"]
texts = st.one_of(st.sampled_from(TRICKY_TEXT), st.text(max_size=8))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(),  # nan, infinities, subnormals and -0.0 included
    st.sampled_from([5e-324, 1e-300, 1.7976931348623157e308, -2.5, -0.0, 1e16, 0.1]),
    texts,
)
ints = st.integers(min_value=-3, max_value=99)


def lists(elements, max_size=4):
    return st.lists(elements, max_size=max_size)


def records():
    """Symmetry records; now and then one with another key set or value shape."""
    record = st.fixed_dictionaries({"image": lists(ints), "cycles": texts, "order": ints})
    odd = st.dictionaries(st.sampled_from(["image", "cycles", "order", "x"]),
                          st.one_of(scalars, lists(scalars), lists(lists(ints))))
    return lists(st.one_of(record, record, record, odd), max_size=6)


search_info = st.fixed_dictionaries({
    k: scalars for k in ("mode", "jobs", "count_only", "max_results", "node_budget",
                         "nodes_visited", "exhausted", "count")
})
input_info = st.one_of(
    st.fixed_dictionaries({"kind": texts, "name": texts, "dimension": ints,
                           "parameters": st.dictionaries(texts, texts, max_size=3)}),
    st.fixed_dictionaries({"kind": texts, "path": texts, "dimension": ints}),
)
timing = st.fixed_dictionaries({"wall_s": scalars, "load_s": scalars},
                               optional={"verify_s": scalars, "records_s": scalars})
report_shapes = {
    "find": st.fixed_dictionaries(
        {"command": texts, "input": input_info, "search": search_info, "timing": timing},
        optional={"symmetries": records(), "note": texts},
    ),
    "group": st.fixed_dictionaries({
        "command": texts, "input": input_info, "search": search_info,
        "symmetries": records(), "timing": timing,
        "group": st.fixed_dictionaries({
            "order": scalars, "commutative": scalars, "involution_count": scalars,
            "element_orders": lists(st.tuples(ints, ints), 6),
            "conjugacy_classes": lists(lists(ints)), "generators": lists(lists(ints)),
        }),
    }),
    "decompose": st.fixed_dictionaries({
        "command": texts, "input": input_info, "timing": timing,
        "decomposition": st.fixed_dictionaries({
            "involution": lists(ints), "basis1": lists(lists(ints)), "basis2": lists(lists(ints)),
            "block1": lists(lists(texts)), "block2": lists(lists(texts)), "note": texts,
        }),
    }),
    "models": st.fixed_dictionaries({
        "command": texts,
        "models": lists(st.fixed_dictionaries({
            "name": texts, "dimension": ints, "description": texts,
            "parameters": lists(lists(texts, 2)),
        })),
    }),
}
BIG_INTS = [2**63, -(2**63) - 1, 2**64 + 7, -(10**30)]


@st.composite
def int_columns(draw):
    """A column of int lists or tuples, bare, as one key of records or in a
    dict.  Its values repeat (a pool of up to 3: negatives, ints above 2**63,
    now and then a bool) or are all distinct, and some lists are empty."""
    pool = draw(lists(st.one_of(ints, st.sampled_from(BIG_INTS), st.booleans()), 3).filter(len))
    repeated = st.lists(st.sampled_from(pool), min_size=5, max_size=12)
    distinct = st.lists(st.integers(), unique=True, max_size=12)
    column = draw(st.lists(st.one_of(repeated, repeated, distinct, st.just([])),
                           min_size=1, max_size=8))
    if draw(st.booleans()):
        column = [tuple(v) for v in column]
    return draw(st.sampled_from([
        column, [{"image": v, "order": 2} for v in column], {"a": column, "b": column[0]},
    ]))


any_json = st.recursive(
    scalars,
    lambda inner: st.one_of(lists(inner), st.tuples(inner, inner), st.dictionaries(texts, inner, max_size=4)),
    max_leaves=24,
)
RENDER_SETTINGS = settings(max_examples=100, deadline=None, database=None)


class TestRenderJson:
    @pytest.mark.parametrize("command", sorted(report_shapes))
    def test_reports_match_the_stdlib(self, command):
        @seed(8128)
        @RENDER_SETTINGS
        @given(report_shapes[command])
        def check(report):
            assert render_json(report) == json.dumps(report, indent=2, sort_keys=True)

        check()

    @seed(2718)
    @RENDER_SETTINGS
    @given(any_json)
    def test_any_value_matches_the_stdlib(self, value):
        assert render_json(value) == json.dumps(value, indent=2, sort_keys=True)

    @seed(6174)
    @RENDER_SETTINGS
    @given(int_columns())
    def test_int_list_columns_match_the_stdlib(self, value):
        assert render_json(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_a_cube_find_report_matches_the_stdlib(self, capsys, tmp_path):
        path = graph_file(tmp_path, "q3", *cube(3))
        code, out, err = run_cli(capsys, "find", "--input", path, "--format", "json")
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert len(report["symmetries"]) == 48
        assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"

    def test_empty_containers(self):
        for value in ({}, [], (), [{}], [[]], {"a": {}}, [{}, {"a": []}], [[], [1], []],
                      [{"b": 1, "a": 2}] * 3):
            assert render_json(value) == json.dumps(value, indent=2, sort_keys=True)


def catalog_argvs():
    for name in sorted(CATALOG):
        yield ["find", "--model", name]
        yield ["find", "--model", name, "--count-only"]
        yield ["group", "--model", name]
        involution = [p for p in find_symmetries(build(name)).perms if p.order() <= 2][-1]
        yield ["decompose", "--model", name, "--perm", str(involution)]
    yield ["models"]


TIMED_ARGVS = [
    ["find", "--model", "hubbard2"],
    ["group", "--model", "hubbard2", "--param", "U=1/2"],
    ["decompose", "--model", "hubbard2", "--perm", "3,2,1,0"],
    ["find", "--input", "{file}"],
    ["group", "--input", "{file}"],
    ["decompose", "--input", "{file}", "--perm", "1,0"],
]


@pytest.mark.parametrize("argv", TIMED_ARGVS, ids=" ".join)
def test_timing_reports_the_load(capsys, tmp_path, argv):
    path = tmp_path / "h.txt"
    path.write_text("2 2\n0 a\na 0\n")
    timing = json_report(capsys, *(a.format(file=path) for a in argv))["timing"]
    if argv[0] == "decompose":
        assert sorted(timing) == ["load_s", "wall_s"]
    else:
        assert sorted(timing) == ["load_s", "records_s", "verify_s", "wall_s"]
    assert all(seconds >= 0 for seconds in timing.values())


def test_emitted_non_symmetry_is_an_internal_error(monkeypatch):
    # hubbard2's symmetries, with two non-symmetries in the 2nd and 3rd places
    perms = (Perm([0, 1, 2, 3]), Perm([1, 0, 2, 3]), Perm([0, 1, 3, 2]), Perm([3, 2, 1, 0]))
    h = build("hubbard2")
    assert [is_symmetry(h, p) for p in perms] == [True, False, False, True]
    found = SearchResult(perms=perms, count=4, nodes_visited=1, exhausted=True)
    monkeypatch.setattr(permsym.cli, "find_symmetries", lambda matrix, cfg: found)
    with pytest.raises(AssertionError, match=r"^internal error: emitted non-symmetry 1,0,2,3$"):
        main(["find", "--model", "hubbard2"])


class TestJsonLayout:
    @pytest.mark.parametrize("argv", list(catalog_argvs()), ids=" ".join)
    def test_stdout_is_the_stdlib_layout(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert code == 0, err
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


class TestValidation:
    def test_unknown_model(self, capsys):
        code, out, err = run_cli(capsys, "find", "--model", "nonesuch")
        assert code == 3

    def test_unknown_parameter(self, capsys):
        code, out, err = run_cli(capsys, "find", "--model", "hubbard2", "--param", "z=1")
        assert code == 3

    def test_bad_param_syntax(self, capsys):
        code, out, err = run_cli(capsys, "find", "--model", "hubbard2", "--param", "tequals1")
        assert code == 3

    def test_param_value_parse_error(self, capsys):
        code, out, err = run_cli(capsys, "find", "--model", "hubbard2", "--param", "t=1+")
        assert code == 2

    def test_param_with_file_input(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 1\n0\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "find", "--input", str(path), "--param", "t=1"
        )
        assert code == 3

    def test_model_and_input_conflict(self, capsys, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 1\n0\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "find", "--model", "hubbard2", "--input", str(path)
        )
        assert code == 3

    def test_no_input(self, capsys):
        code, out, err = run_cli(capsys, "find")
        assert code == 3

    def test_jobs_must_be_positive(self, capsys):
        for jobs in ("0", "-3"):
            code, out, err = run_cli(capsys, "find", "--model", "hubbard2", "--jobs", jobs)
            assert code == 3
            assert err == "error: jobs must be positive\n"
            assert out == ""

    @pytest.mark.parametrize("flag", ["--max-results", "--node-budget", "--jobs"])
    def test_integer_flags_take_ascii_digits_only(self, capsys, flag):
        # int() reads '\u0663' as 3 and '1_0' as 10
        for value in ("\u0663", "1_0"):
            with pytest.raises(SystemExit) as exc:
                main(["find", "--model", "hubbard2", flag, value])
            assert exc.value.code == 2
            assert f"error: argument {flag}: invalid int value: {value!r}\n" in capsys.readouterr().err
        code, out, err = run_cli(capsys, "find", "--model", "hubbard2", flag, "-3")
        assert code == 3 and err.startswith("error: ") and "must be positive" in err

    def test_jobs_is_checked_after_input_and_config_before_the_search(self, capsys, tmp_path):
        bad_header = tmp_path / "bad.txt"
        bad_header.write_text("two two\n0 t\nt 0\n", encoding="utf-8")
        non_square = tmp_path / "wide.txt"
        non_square.write_text("1 2\n0 t\n", encoding="utf-8")
        for argv, code, err in (
            (["--input", str(bad_header)], 2, f"error: {bad_header}:1: header must be 'rows cols'\n"),
            (["--model", "hubbard2", "--max-results", "0"], 3, "error: max_results must be positive\n"),
            (["--input", str(non_square)], 3, "error: jobs must be positive\n"),
        ):
            assert run_cli(capsys, "find", *argv, "--jobs", "0") == (code, "", err)


def graph_file(tmp_path, name, n, adjacent, image=None):
    """A graph as a matrix file: d on the diagonal, 1 on its edges, 0 elsewhere;
    index u is renamed image[u] when an image is given."""
    image = image or list(range(n))
    rows = [["0"] * n for _ in range(n)]
    for u in range(n):
        for v in range(n):
            if u == v:
                rows[image[u]][image[v]] = "d"
            elif adjacent(u, v):
                rows[image[u]][image[v]] = "1"
    path = tmp_path / f"{name}.txt"
    path.write_text(f"{n} {n}\n" + "\n".join(" ".join(r) for r in rows) + "\n", encoding="utf-8")
    return str(path)


def cube(d):
    return 1 << d, lambda u, v: bin(u ^ v).count("1") == 1


class TestLargeGroups:
    """Groups far larger than the search tree the stabiliser chain visits."""

    def count_only(self, capsys, path, expected, seconds):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "find", "--input", path, "--count-only")
        assert time.perf_counter() - start < seconds
        assert (code, err) == (0, "")
        assert f"symmetry count: {expected}\n" in out

    def test_k12(self, capsys, tmp_path):
        path = graph_file(tmp_path, "k12", 12, lambda u, v: True)
        self.count_only(capsys, path, 479001600, 1.0)

    def test_q6(self, capsys, tmp_path):
        self.count_only(capsys, graph_file(tmp_path, "q6", *cube(6)), 46080, 1.0)

    def test_relabelled_q5(self, capsys, tmp_path):
        image = list(range(32))
        random.Random(0).shuffle(image)
        path = graph_file(tmp_path, "q5", *cube(5), image)
        self.count_only(capsys, path, 3840, 10.0)

    def test_node_budget_on_a_long_path(self, capsys, tmp_path):
        # a path needs about n/2 refinement rounds, all before the budget counts a node
        path = graph_file(tmp_path, "path512", 512, lambda u, v: abs(u - v) == 1)
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "find", "--input", path, "--node-budget", "1", "--format", "json"
        )
        assert time.perf_counter() - start < 5.0
        assert (code, err) == (4, "")
        search = json.loads(out)["search"]
        assert (search["nodes_visited"], search["exhausted"]) == (1, False)

    @pytest.mark.parametrize("argv, seconds", [
        (["find", "--param", "a=0", "--param", "b=0"], 1.0),
        (["group", "--param", "a=0", "--param", "b=0"], 1.0),
        (["find", "--param", "b=0", "--format", "json"], 1.0),
        (["find", "--param", "b=0", "--max-results", "99999999999"], 5.0),
        (["group", "--param", "b=0", "--node-budget", "99999999999"], 5.0),
    ])
    def test_a_group_too_large_to_list_is_refused(self, capsys, argv, seconds):
        # with a = b = 0, ising4 is the zero matrix and its group is S16; with
        # b = 0 it is diagonal and its group has 2 * 12! * 2 elements: no
        # listing of either fits in memory
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, "--model", "ising4")
        assert time.perf_counter() - start < seconds
        assert (code, out) == (3, "")
        assert err == "error: over 262144 symmetries of dimension 16: too many to list\n"

    def test_a_group_too_large_to_list_is_counted(self, capsys):
        code, out, err = run_cli(capsys, "find", "--model", "ising4", "--param", "a=0",
                                 "--param", "b=0", "--count-only")
        assert (code, err) == (0, "")
        assert "symmetry count: 20922789888000\n" in out
