"""Golden CLI reports: every report, stderr and exit code, byte for byte.

``golden_reports.json`` holds one case per command line: its argv, exit code,
stdout and stderr.  Each case is replayed through ``cli.main`` in process,
with the working directory set to a temp dir that holds the fixture files
below, so a file report's ``input.path`` is a stable relative name.  Only what
changes from run to run is stripped before the comparison: the ``timing``
object of a JSON report and the ``wall time:`` line of a text report.

The data records the reports as the program writes them.  After a change that
alters a report on purpose, regenerate it from the repo root with

    PYTHONPATH=src python tests/test_golden_reports.py

and review the diff of ``golden_reports.json``.
"""

import contextlib
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest

from permsym import build, find_symmetries
from permsym.cli import LEAF_MAX_UNBUDGETED, main
from permsym.models import CATALOG

DATA = Path(__file__).with_name("golden_reports.json")

# the 3-cube's adjacency matrix: 48 symmetries
Q3 = "8 8\n" + "".join(
    " ".join("1" if bin(u ^ v).count("1") == 1 else "0" for v in range(8)) + "\n"
    for u in range(8)
)
FIXTURES = {
    "q3.txt": Q3,
    # hermitian, with imaginary and parametric entries; (0 2)(1 3) is a symmetry
    "complex4.txt": "4 4\na 1+i 0 b/2\n1-i c b/2 0\n0 b/2 a 1+i\nb/2 0 1-i c\n",
    "malformed.txt": "2 2\n0 a$b\na$b 0\n",
}
FORMATS = ([], ["--format", "json"])

_TIMING = re.compile(r',\n  "timing": \{\n(?:    "\w+": [^\n]*\n)+  \}')
_WALL_TIME = re.compile(r"^wall time: [^\n]*\n", re.M)


def _first_two_involutions(name):
    perms = find_symmetries(build(name)).perms
    return [str(p) for p in perms if p.order() == 2][:2]


def golden_argvs():
    """Every command line the data holds, each without and with --format json."""
    argvs = [["models"]]
    for name in sorted(CATALOG):
        model = ["--model", name]
        argvs += [["find", *model], ["find", *model, "--count-only"],
                  ["find", *model, "--max-results", "3"], ["find", *model, "--node-budget", "50"],
                  ["group", *model]]
        if CATALOG[name].dimension <= LEAF_MAX_UNBUDGETED:
            argvs += [["find", *model, "--mode", "leaf"], ["group", *model, "--mode", "leaf"]]
        argvs += [["decompose", *model, "--perm", p] for p in _first_two_involutions(name)]
    # the cube's bit rotation is a symmetry of order 3, its bit-0 flip one of order 2
    rotation = ",".join(str((v << 1 & 7) | v >> 2) for v in range(8))
    flip = ",".join(str(v ^ 1) for v in range(8))
    argvs += [
        ["find", "--input", "q3.txt"], ["group", "--input", "q3.txt"],
        ["decompose", "--input", "q3.txt", "--perm", flip],
        ["decompose", "--input", "q3.txt", "--perm", rotation],
        ["find", "--input", "complex4.txt"], ["group", "--input", "complex4.txt"],
        ["decompose", "--input", "complex4.txt", "--perm", "2,3,0,1"],
        ["find", "--input", "malformed.txt"],
        ["decompose", "--model", "hubbard2", "--perm", "1,0,2,3"],
        ["decompose", "--model", "hubbard2", "--perm", "0,1,2"],
        ["find", "--model", "nosuch"],
        ["find", "--model", "hubbard2", "--param", "U=1/0"],
        ["find", "--model", "hubbard2", "--param", "U=\t(1 + i) / 2 ", "--param", "t=a^2"],
        ["find", "--model", "ising4", "--mode", "leaf"],
    ]
    return [argv + fmt for argv in argvs for fmt in FORMATS]


def write_fixtures(directory):
    for name, text in FIXTURES.items():
        (Path(directory) / name).write_text(text)


def replay(argv):
    """``argv`` run through ``cli.main``, with the run-to-run parts stripped."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    stdout = _WALL_TIME.sub("", _TIMING.sub("", out.getvalue()))
    return {"argv": list(argv), "exit": code, "stdout": stdout, "stderr": err.getvalue()}


@pytest.mark.parametrize("case", json.loads(DATA.read_text()) if DATA.exists() else [],
                         ids=lambda case: " ".join(case["argv"]))
def test_report_is_unchanged(case, tmp_path, monkeypatch):
    write_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert replay(case["argv"]) == case


def test_data_covers_every_command_line():
    assert [case["argv"] for case in json.loads(DATA.read_text())] == golden_argvs()


if __name__ == "__main__":
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        write_fixtures(directory)
        os.chdir(directory)
        cases = [replay(argv) for argv in golden_argvs()]
        os.chdir(cwd)
    DATA.write_text(json.dumps(cases, indent=1) + "\n")
