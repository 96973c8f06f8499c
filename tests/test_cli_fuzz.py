"""The command line's exit-code contract, fuzzed.

Every run of ``permsym.cli.main`` must end in exit code 0, 2, 3 or 4, print
no traceback and at most one stderr line besides the non-hermitian warning,
and finish within ``ALARM_S`` seconds.  argparse's usage errors count: they
raise ``SystemExit(2)`` after a usage block.  The inputs come from grammars of
matrix files (odd headers, non-ASCII digits, NUL and non-UTF-8 bytes, long
lines, huge exponents, deep nesting, zero-valued tokens), of flag values, and
of models, modes and budgets.  Leaf mode always gets a ``--node-budget``:
without one it may walk n! leaves, and the CLI refuses it only above
dimension 8.  Every run is in process; nothing starts a subprocess or a
thread.
"""

import io
import json
import signal
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from permsym import build, cli, find_symmetries
from permsym.models import CATALOG

ALARM_S = 5
WARNING = "warning: input matrix is not hermitian"
GROUP_STOPPED = ("search stopped before exhausting the tree; group analysis needs "
                 "the complete symmetry set")
FUZZ = settings(max_examples=120, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


class Overtime(BaseException):
    """Raised by SIGALRM; a BaseException, so no handler in the CLI takes it."""


@pytest.fixture(scope="module", autouse=True)
def alarm():
    def overtime(signum, frame):
        raise Overtime(f"a CLI run took over {ALARM_S} s")

    previous = signal.signal(signal.SIGALRM, overtime)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run(argv):
    """(exit code, stdout, stderr, whether argparse exited) of one bounded run."""
    out, err = io.StringIO(), io.StringIO()
    usage = False
    signal.alarm(ALARM_S)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code, usage = exc.code, True
    finally:
        signal.alarm(0)
    return code, out.getvalue(), err.getvalue(), usage


def check(argv):
    """Run ``argv`` and assert the contract."""
    code, out, err, usage = run(argv)
    assert "Traceback" not in err, (argv, err)
    if usage:
        # --help exits 0 with its text on stdout; a usage error exits 2
        assert code in (0, 2), (argv, code)
        if code == 2:
            lines = err.splitlines()
            assert lines[0].startswith("usage: permsym") and ": error: " in lines[-1], (argv, err)
        return
    assert code in (0, 2, 3, 4), (argv, code, err)
    lines = [line for line in err.splitlines() if line != WARNING]
    if code == 0:
        assert lines == [], (argv, err)
        if "json" in argv:
            json.loads(out)
    elif code == 4:
        assert lines in ([], [GROUP_STOPPED]), (argv, err)
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
        assert out == "", (argv, out)


# -- expressions and matrix files -------------------------------------------

def mostly(common, odd, one_in=8):
    """Draws from ``common``, but one in ``one_in`` from ``odd``."""
    return st.integers(1, one_in).flatmap(lambda k: odd if k == one_in else common)


ATOMS = ["0", "1", "2", "7", "12", "a", "b", "t", "x1", "k_2", "i", "-1/2", "2*a", "a/3",
         "a^2", "3^40", "a^99999", "a-a", "0*b", "0/3", "(a-a)*t"]
HOSTILE = [
    "", "?", "+", ")", "(", "a+", "1/0", "1/a", "2^0", "2^-1", "a^a", "a^٣",
    "٣", "１２", "²", "é", "Ω", "\x00", "a\x00", "1e5", "0x10",
    "1.5", "9" * 5000, "2^99999999", "(a+b+c+d)^40", "((a+1)^40)^40",
    "(" * 99 + "a" + ")" * 99, "(" * 101 + "a" + ")" * 101, "-" * 99 + "a", "-" * 101 + "a",
    "a" * 3000, "*".join(["(a+b+c+d+e+f+g+h)"] * 7),
]


def expressions(atoms, ops, exponents):
    return st.recursive(
        st.sampled_from(atoms),
        lambda e: st.one_of(
            st.tuples(e, st.sampled_from(ops), e).map("".join),
            e.map(lambda x: f"({x})"),
            e.map(lambda x: f"-{x}"),
            st.tuples(e, st.sampled_from(exponents)).map(lambda t: f"({t[0]})^{t[1]}"),
        ),
        max_leaves=6,
    )


# valid entries, and entries that are mostly parse errors
tokens = expressions(ATOMS, "+-*", ["1", "2", "3"])
hostile = st.one_of(
    st.sampled_from(HOSTILE),
    expressions(ATOMS + HOSTILE, "+-*/^", ["0", "2", "40", "99999", "٢", "2^2"]),
)
SEPARATORS = [" ", " ", "  ", "\t", " ", "\x0c", " ", "\u00a0"]
BAD_BYTES = [b"\x00", b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\xef\xbb\xbf", b"\x80\x80"]


@st.composite
def involutions(draw, n):
    """A random involution of range(n), as its image list."""
    image = list(range(n))
    free = draw(st.permutations(range(n)))
    for k in range(draw(st.integers(0, n // 2))):
        a, b = free[2 * k], free[2 * k + 1]
        image[a], image[b] = b, a
    return image


@st.composite
def matrix_files(draw):
    """(file bytes, dimension, an involution of that dimension)."""
    n = draw(st.integers(1, 5))
    inv = draw(involutions(n))
    cells = [[draw(tokens) for _ in range(n)] for _ in range(n)]
    if draw(st.integers(0, 2)) == 0:
        cells[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(hostile)
    if draw(st.booleans()):
        # one token per orbit of (u, v) under transposition and the involution,
        # so that the involution is a symmetry and decompose gets past its checks
        for u in range(n):
            for v in range(n):
                u1, v1 = min((u, v), (v, u), (inv[u], inv[v]), (inv[v], inv[u]))
                cells[u][v] = cells[u1][v1]
    lines = [draw(st.sampled_from(SEPARATORS)).join(row) for row in cells]
    edit = draw(st.sampled_from(["none"] * 10 + ["drop", "extra", "short", "long", "blank"]))
    k = draw(st.integers(0, n - 1))
    if edit == "drop":
        del lines[k]
    elif edit == "extra":
        lines.insert(k, lines[k])
    elif edit == "short":
        lines[k] = " ".join(cells[k][1:])
    elif edit == "long":
        lines[k] = " ".join([draw(tokens)] * draw(st.integers(n + 1, 3000)))
    elif edit == "blank":
        lines.insert(k, "  \t")
    header = draw(mostly(st.just(f"{n} {n}"), st.sampled_from([
        f"{n}\t{n}", f" {n}  {n} ", "", "2", f"{n} {n} {n}", f"-{n} {n}", f"0 {n}", "٢ 2",
        f"{n}x {n}", f"+{n} {n}", f"{n} {n + 1}", f"{n + 1} {n}", "99999999999999999999 1",
        "1 " + "9" * 30, "9" * 5000 + " 1",
    ])))
    text = draw(st.sampled_from(["\n", "\r\n", "\r"])).join([header] + lines) + "\n"
    data = text.encode("utf-8")
    if draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(BAD_BYTES)) + data[at:]
    return data, n, inv


# -- flags ------------------------------------------------------------------

SMALL_INTS = ["0", "1", "2", "3", "-1", "-0", "٣", "+2", "1e3", "", "0x10", " 3", "2.0",
              "1_0", "５"]
BIG_INTS = ["9" * 30, "9" * 5000, "123456789"]


def int_values(big):
    """Values for an integer flag; ``big`` admits sizes that bound nothing."""
    return mostly(st.integers(1, 20000).map(str), st.sampled_from(SMALL_INTS + BIG_INTS * big))


@st.composite
def search_flags(draw, command):
    """Search flags.  A budget bounds the tree walk it starts, so it is drawn
    no larger than 20,000 where nothing else bounds the run: in leaf mode,
    and with --count-only, which a listing's size does not bound."""
    count_only = command == "find" and draw(st.booleans())
    flags = ["--count-only"] if count_only else []
    mode = draw(mostly(st.sampled_from([None, "pruned", "leaf"]), st.sampled_from(["Leaf", ""])))
    if mode is not None:
        flags += ["--mode", mode]
    big = mode != "leaf" and not count_only
    if mode == "leaf" or draw(st.booleans()):
        flags += ["--node-budget", draw(int_values(big))]
    if draw(st.booleans()):
        flags += ["--max-results", draw(int_values(big))]
    if draw(st.integers(0, 3)) == 0:
        flags += ["--jobs", draw(int_values(big=True))]
    return flags


def perm_texts(n, involution):
    return st.one_of(
        st.just(",".join(map(str, involution))),
        st.permutations(range(n)).map(lambda p: ",".join(map(str, p))),
        st.lists(st.integers(-2, n + 2), max_size=n + 1).map(lambda p: ",".join(map(str, p))),
        st.sampled_from(["", ",", "0,,1", "٣", "1, 0", " 1,0", "a", "9" * 30, "9" * 5000,
                         "0;1", "-0", "1,0\x00"]),
    )


@st.composite
def command_flags(draw, n, involution):
    command = draw(st.sampled_from(["find", "find", "group", "group", "decompose", "decompose"]))
    flags = [command, "--format", draw(mostly(st.sampled_from(["json", "text"]), st.just("xml")))]
    if command == "decompose":
        flags += ["--perm", draw(perm_texts(n, involution))]
    else:
        flags += draw(search_flags(command))
    return flags


# -- catalog models ----------------------------------------------------------

MODEL_INVOLUTIONS = {
    name: [list(p.image) for p in find_symmetries(build(name)).perms if p.order() == 2]
    for name in sorted(CATALOG)
}


@st.composite
def model_inputs(draw):
    """(input flags, dimension, an involution of the unbound model)."""
    name = draw(mostly(st.sampled_from(sorted(CATALOG)), st.sampled_from(["nope", "", "ISING4"])))
    flags = ["--model", name]
    names = CATALOG[name].parameter_names() if name in CATALOG else []
    for _ in range(draw(st.integers(0, 3))):
        pname = draw(mostly(st.sampled_from(names or ["zz"]), st.sampled_from(["zz", "", "i"])))
        value = draw(mostly(tokens, hostile))
        flags += ["--param", draw(mostly(st.just(f"{pname}={value}"),
                                         st.sampled_from([value, f"={value}"])))]
    if name not in CATALOG:
        return flags, 2, [1, 0]
    n = CATALOG[name].dimension
    return flags, n, draw(st.sampled_from(MODEL_INVOLUTIONS[name] or [list(range(n))]))


class TestCliContract:
    @seed(20261019)
    @FUZZ
    @given(data=st.data())
    def test_matrix_files(self, workdir, data):
        content, n, involution = data.draw(matrix_files())
        path = workdir / "matrix.txt"
        path.write_bytes(content)
        check(data.draw(command_flags(n, involution)) + ["--input", str(path)])

    @seed(20261020)
    @FUZZ
    @given(data=st.data())
    def test_models_modes_and_budgets(self, data):
        flags, n, involution = data.draw(model_inputs())
        check(data.draw(command_flags(n, involution)) + flags)

    @seed(20261021)
    @settings(max_examples=80, deadline=None, database=None)
    @given(words=st.lists(st.sampled_from([
        "find", "group", "decompose", "models", "--model", "ising4", "hubbard2", "--input",
        "FILE", "--param", "a=1", "t=", "--format", "json", "text", "--mode", "pruned", "leaf",
        "--node-budget", "--max-results", "--jobs", "5", "100", "-1", "--count-only", "--perm",
        "1,0", "3,2,1,0", "--bogus", "-h",
    ]), max_size=9))
    def test_any_word_order(self, workdir, words):
        # no number here is above 100, so a leaf-check run stays bounded: it
        # walks at most 4! leaves of FILE, and at dimension 16 it is refused
        # unless a budget of at most 100 is given
        path = workdir / "words.txt"
        path.write_text("4 4\n0 t 0 0\nt 0 t 0\n0 t 0 t\n0 0 t 0\n", encoding="utf-8")
        check([str(path) if w == "FILE" else w for w in words])
