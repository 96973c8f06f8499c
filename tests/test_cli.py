import json
import random
import time

from permsym import ExactMatrix, Perm, build, find_symmetries
from permsym.cli import main, read_matrix_file
from permsym.scalars import MAX_NESTING, MAX_POWER_SIZE, ZERO

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
        # second; 5000 digits are more than int() converts
        for header in ("two two", "2\u00b2 2", "\u0662 2", "9" * 5000 + " 2"):
            path = self.write(tmp_path, f"{header}\n0 t\nt 0\n")
            code, out, err = run_cli(capsys, "find", "--input", path)
            assert (code, out) == (2, "")
            assert err == f"error: {path}:1: header must be 'rows cols'\n"

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
