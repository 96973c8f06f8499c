import copy
import operator
import os
import pickle
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import permsym
from permsym import (
    ExactMatrix,
    GaussRational,
    ModelSpec,
    ParseError,
    Perm,
    PolyScalar,
    ProjectorPair,
    SearchConfig,
    SearchResult,
    SubspaceBasis,
    SymmetryGroup,
    as_scalar,
    param,
    parse,
    rational,
    verify_closure,
)
from permsym.models import CATALOG
from permsym.scalars import MAX_NESTING, MAX_POWER_SIZE, Monomial, _tokenize

from helpers import oracle_add, rand_scalar, reference_tokenize


@pytest.fixture
def rng():
    return random.Random(20240817)


class TestGaussRational:
    def test_field_basics(self):
        z = GaussRational(2, 3)
        assert z + GaussRational(1, -3) == GaussRational(3, 0)
        assert z * GaussRational(0, 1) == GaussRational(-3, 2)
        assert z / z == GaussRational(1, 0)
        assert -z == GaussRational(-2, -3)

    def test_conjugation_involution(self):
        z = GaussRational(2, 3)
        assert z.conjugate() == GaussRational(2, -3)
        assert z.conjugate().conjugate() == z

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GaussRational(1) / GaussRational(0)

    def test_fraction_parts(self):
        z = GaussRational(Fraction(1, 2), Fraction(-3, 4))
        assert z.re == Fraction(1, 2) and z.im == Fraction(-3, 4)

    @pytest.mark.parametrize("bad", [0.1, 1.0, "1/3", Decimal("0.5"), 1j])
    def test_inexact_parts_refused(self, bad):
        name = type(bad).__name__
        for args in ((bad,), (bad, 1), (1, bad)):
            with pytest.raises(TypeError, match=name):
                GaussRational(*args)

    def test_bool_and_integral_fraction_parts_become_ints(self):
        z = GaussRational(True, Fraction(6, 3))
        assert (type(z.re), type(z.im)) == (int, int) and z == GaussRational(1, 2)


# Gaussian rationals against pairs of Fractions, one (re, im) pair a value
parts = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)
pairs = st.tuples(parts, parts)
SCALAR_SETTINGS = settings(max_examples=200, deadline=None, database=None)


def ref(z):
    return (Fraction(z[0]), Fraction(z[1]))


def ref_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def assert_matches(z, expected):
    """``z`` holds the parts ``expected``, each an int exactly when it is integral."""
    assert (z.re, z.im) == expected
    for part, q in zip((z.re, z.im), expected):
        assert type(part) is (int if q.denominator == 1 else Fraction)


class TestGaussRationalOracle:
    @seed(1729)
    @SCALAR_SETTINGS
    @given(pairs, pairs)
    def test_field_operations(self, x, y):
        a, b = ref(x), ref(y)
        zx, zy = GaussRational(*x), GaussRational(*y)
        assert_matches(zx, a)
        assert_matches(zx + zy, (a[0] + b[0], a[1] + b[1]))
        assert_matches(zx - zy, (a[0] - b[0], a[1] - b[1]))
        assert_matches(zx * zy, ref_mul(a, b))
        assert_matches(-zx, (-a[0], -a[1]))
        assert_matches(zx.conjugate(), (a[0], -a[1]))
        d = b[0] * b[0] + b[1] * b[1]
        if d:
            assert_matches(zx / zy, ref_mul(a, (b[0] / d, -b[1] / d)))
        else:
            with pytest.raises(ZeroDivisionError):
                zx / zy

    @seed(1730)
    @SCALAR_SETTINGS
    @given(pairs, pairs)
    def test_equality_and_hash(self, x, y):
        a = ref(x)
        zx, zy = GaussRational(*x), GaussRational(*y)
        assert (zx == zy) == (a == ref(y))
        # the hash that the Fraction parts give, so ints and Fractions mix
        assert hash(zx) == (hash(a) if a[1] else hash(a[0]))
        if not a[1]:
            assert zx == a[0] == x[0]


@st.composite
def scalars(draw):
    """An int, Fraction, GaussRational or PolyScalar, drawn from few values so
    that equal values of different types come up often."""
    re = draw(st.sampled_from([0, 1, -2, Fraction(1, 2), Fraction(-3, 4)]))
    im = draw(st.sampled_from([0, 0, 1, Fraction(-1, 2)]))
    forms = [GaussRational(re, im), PolyScalar.constant(GaussRational(re, im))]
    if not im:
        forms.append(Fraction(re))
        if Fraction(re).denominator == 1:
            forms.append(int(re))
    forms.append(PolyScalar.constant(GaussRational(re, im)) + param("t") * draw(parts))
    return draw(st.sampled_from(forms))


class TestScalarHashes:
    @seed(1731)
    @SCALAR_SETTINGS
    @given(scalars(), scalars())
    def test_equal_scalars_hash_equal(self, a, b):
        if a == b:
            assert hash(a) == hash(b)

    def test_one_key_per_value(self):
        two = {parse("2"), 2, Fraction(2), GaussRational(2)}
        assert len(two) == 1
        assert len({parse("0"), 0, GaussRational(0)}) == 1
        assert len({parse("1/2 + i"), GaussRational(Fraction(1, 2), 1)}) == 1
        assert hash(parse("0")) == 0


class TestMonomial:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Monomial((("b", 1), ("a", 1)))
        with pytest.raises(ValueError):
            Monomial((("a", 0),))

    def test_product_merges_names(self):
        m = Monomial.variable("t") * Monomial.variable("t") * Monomial.variable("a")
        assert m.factors == (("a", 1), ("t", 2))
        assert m.degree == 3

    @pytest.mark.parametrize("bad", [2, GaussRational(2), parse("a")], ids=repr)
    def test_product_with_a_non_monomial_is_refused(self, bad):
        with pytest.raises(TypeError):
            Monomial.variable("a") * bad


class TestArithmetic:
    def test_additive_identity(self):
        x = parse("k1+k2")
        assert x + PolyScalar() == x

    def test_additive_inverse(self):
        t = param("t")
        assert (t + (-t)).is_zero()

    def test_sum_collects_terms(self):
        # (U + t) + (U - t) = 2U, re-checked against the term-merge oracle
        a = parse("U+t")
        b = parse("U-t")
        expected = oracle_add(a, b)
        assert a + b == expected
        assert a + b == parse("2*U")

    def test_imaginary_unit_square(self):
        assert parse("i") * parse("i") == rational(-1)

    def test_difference_of_squares(self):
        assert parse("t+U") * parse("t-U") == parse("t^2-U^2")

    def test_rational_product(self):
        assert rational(1, 2) * rational(1, 2) == rational(1, 4)

    def test_power(self):
        t = param("t")
        assert t ** 3 == t * t * t
        assert t ** 0 == rational(1)
        with pytest.raises(ValueError):
            t ** -1

    def test_division_by_constant(self):
        assert parse("t") / 2 == parse("1/2*t")
        assert parse("i*t") / parse("i") == parse("t")

    def test_division_errors(self):
        with pytest.raises(ValueError):
            parse("t") / parse("t")
        with pytest.raises(ZeroDivisionError):
            parse("t") / PolyScalar()

    def test_ring_axioms_random(self, rng):
        for _ in range(60):
            a = rand_scalar(rng)
            b = rand_scalar(rng)
            c = rand_scalar(rng)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + PolyScalar() == a
            assert a * rational(1) == a
            assert a * PolyScalar() == PolyScalar()

    def test_addition_matches_oracle_random(self, rng):
        for _ in range(40):
            a = rand_scalar(rng)
            b = rand_scalar(rng)
            assert a + b == oracle_add(a, b)

    def test_canonical_uniqueness(self, rng):
        for _ in range(40):
            a = rand_scalar(rng)
            b = rand_scalar(rng)
            assert ((a - b).is_zero()) == (a == b)
            assert (a - a).is_zero()

    def test_substitute(self):
        x = parse("k1+k2")
        assert x.substitute({"k1": param("k"), "k2": param("k")}) == parse("2*k")
        assert parse("t^2").substitute({"t": rational(3)}) == rational(9)
        assert parse("a*b").substitute({"a": parse("1+i")}) == parse("(1+i)*b")


class TestConjugation:
    def test_examples(self):
        assert parse("i*t").conjugate() == parse("-i*t")
        assert parse("k1+k2").conjugate() == parse("k1+k2")
        z = parse("2+3*i")
        assert z.conjugate().conjugate() == z

    def test_ring_homomorphism_random(self, rng):
        for _ in range(40):
            a = rand_scalar(rng)
            b = rand_scalar(rng)
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()


class TestParse:
    def test_degree_one_terms(self):
        x = parse("k1+k2")
        assert len(x.terms()) == 2
        assert x.degree() == 1
        assert x.parameters() == ["k1", "k2"]

    def test_coefficient_on_parameter(self):
        x = parse("-4*a")
        ((mono, coeff),) = x.terms()
        assert mono == Monomial.variable("a")
        assert coeff == GaussRational(-4)

    def test_imaginary_constant(self):
        x = parse("1/2*i")
        assert x.is_constant()
        assert x.constant_value() == GaussRational(0, Fraction(1, 2))

    def test_parentheses_and_powers(self):
        assert parse("(t+1)^2") == parse("t^2+2*t+1")
        assert parse("2^3") == rational(8)
        assert parse("-t^2") == -param("t") ** 2

    def test_whitespace(self):
        assert parse(" t + 2 * u ") == parse("t+2*u")

    def test_syntax_error_positions(self):
        with pytest.raises(ParseError) as info:
            parse("t +")
        assert info.value.position == 3
        with pytest.raises(ParseError) as info:
            parse("t $ u")
        assert info.value.position == 2
        with pytest.raises(ParseError) as info:
            parse("(t+1")
        assert info.value.position == 4
        with pytest.raises(ParseError, match="unexpected 'b'") as info:
            parse("a b")
        assert info.value.position == 2

    def test_nesting_bound(self):
        for depth in (MAX_NESTING, MAX_NESTING + 1):
            for text in ("(" * depth + "t" + ")" * depth, "-" * depth + "t",
                         "-(" * (depth // 2) + "-" * (depth % 2) + "t" + ")" * (depth // 2)):
                if depth <= MAX_NESTING:
                    assert parse(text) == (-param("t") if text.count("-") % 2 else param("t"))
                    continue
                with pytest.raises(ParseError, match="nesting deeper") as info:
                    parse(text)
                assert info.value.position == MAX_NESTING

    def test_power_bound(self):
        # the largest powers of 2 and of t+1 under the bound, and one past it
        assert parse("2^2500") == rational(2 ** 2500)
        assert parse("(t+1)^49") == (param("t") + 1) ** 49
        for text, position in (("2^2501", 2), ("(t+1)^50", 6), ("(t+1)^999999999", 6),
                               ("2^999999999", 2), ("((t+1)^40)^40", 11),
                               ("((2^50)^50)^50", 12), ("(a+b+c+d+e+f+g+h)^5", 18)):
            with pytest.raises(ParseError, match=f"MAX_POWER_SIZE = {MAX_POWER_SIZE}") as info:
                parse(text)
            assert info.value.position == position

    def test_product_bound(self):
        # three factors of 8 terms pass (120 x 8 terms would be next); the
        # fourth fails at its '*', before any multiplication of that size
        x = "(a+b+c+d+e+f+g+h)"
        assert parse("*".join([x] * 3)) == parse(x + "^3")
        assert parse("(t+1)^49*(t+1)") == (param("t") + 1) ** 50
        assert parse("2^2500*2^2500") == rational(2 ** 5000)
        message = f"product larger than MAX_POWER_SIZE = {MAX_POWER_SIZE}"
        for text, position in (("*".join([x] * 4), 53), ("*".join([x] * 7), 53),
                               ("(t+1)^25*(t+1)^24", 8), ("2^2500*2^2500*2^2500*2^2500", 20)):
            with pytest.raises(ParseError, match=message) as info:
                parse(text)
            assert info.value.position == position

    def test_power_skips_the_unused_last_square(self, monkeypatch):
        # x^4 needs the squares x^2 and x^4 only; squaring x^4 once more
        # multiplied 330 terms by 330 for a result that was dropped
        x = parse("a+b+c+d+e+f+g+h")
        expected = x * x * x * x
        sizes = []
        mul = PolyScalar.__mul__

        def recording_mul(a, b):
            sizes.append((len(a.terms()), len(b.terms())))
            return mul(a, b)

        monkeypatch.setattr(PolyScalar, "__mul__", recording_mul)
        assert x ** 4 == expected
        assert sizes == [(8, 8), (36, 36), (1, 330)]

    def test_integer_literal_too_long(self):
        for text in ("9" * 5000, "t^" + "9" * 5000):
            with pytest.raises(ParseError, match="integer literal too long"):
                parse(text)

    def test_only_ascii_digits(self):
        # str.isdigit() accepts both characters, and int() converts the second
        for text, position in (("2\u00b2", 1), ("\u0663*a", 0)):
            with pytest.raises(ParseError, match="unexpected character") as info:
                parse(text)
            assert info.value.position == position

    def test_bad_exponent(self):
        with pytest.raises(ParseError):
            parse("t^0")
        with pytest.raises(ParseError):
            parse("t^u")

    def test_division_by_non_constant(self):
        with pytest.raises(ParseError) as info:
            parse("1/t")
        assert "non-constant" in str(info.value)

    def test_division_by_zero(self):
        with pytest.raises(ParseError):
            parse("t/0")
        with pytest.raises(ParseError):
            parse("t/(1-1)")

    def test_render_round_trip_examples(self):
        for text in ("0", "1", "-1", "i", "-i", "k1+k2", "-4*a", "1/2*i",
                      "(1+2*i)*t", "t^2-U^2+3/4", "a*b^2-2*b"):
            x = parse(text)
            assert parse(str(x)) == x

    def test_render_round_trip_random(self, rng):
        for _ in range(80):
            x = rand_scalar(rng)
            assert parse(str(x)) == x

    def test_hash_consistency(self, rng):
        for _ in range(20):
            x = rand_scalar(rng)
            y = parse(str(x))
            assert hash(x) == hash(y)


# token characters; whitespace by str.isspace(), including the separators
# \x1c-\x1f, \x85, NBSP and the ideographic space; NUL, ZWSP and BOM, which
# it refuses; and other scripts' digits and letters, which the grammar refuses
LEXER_ALPHABET = (
    "0123456789aAzZi_+-*/^() "
    "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f\x85\xa0\u3000"
    "\x00\u200b\ufeff"
    "\u0663\u00b2\U0001d7d8\u00e9\u0131\u0130\u212a\uff21."
)


def tokens_or_error(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc), exc.position


class TestTokenize:
    @seed(6437)
    @settings(max_examples=3000, deadline=None, database=None)
    @given(st.text(st.sampled_from(LEXER_ALPHABET), max_size=12))
    def test_matches_the_character_loop(self, text):
        assert tokens_or_error(_tokenize, text) == tokens_or_error(reference_tokenize, text)

    def test_tokens(self):
        assert _tokenize("\u3000x_1 ^(22)\x85") == [
            ("ident", "x_1", 1), ("^", "^", 5), ("(", "(", 6), ("int", "22", 7),
            (")", ")", 9), ("end", "", 11),
        ]


class TestRepr:
    @pytest.mark.parametrize("value", [
        PolyScalar([(Monomial((("a", 2),)), GaussRational(Fraction(1, 2), 1)),
                    (Monomial((("b", 1), ("t", 1))), GaussRational(0, -3)),
                    (Monomial(), Fraction(7, 3))]),
        Monomial((("a", 2), ("t", 1))),
        GaussRational(Fraction(-3, 4), 2),
        Perm([2, 0, 1]),
    ], ids=repr)
    def test_repr_evaluates_to_the_value(self, value):
        assert eval(repr(value), {**vars(permsym), "Fraction": Fraction}) == value


NON_NUMBERS = [None, 1.5, "1"]
OPERATORS = {operator.add: "+", operator.sub: "-", operator.mul: "*", operator.truediv: "/"}


# Python 3.11's TypeError text for each refused operand, recorded from the scalars
# before their coercion was written once: (left type, operator, right type) -> text.
REFUSALS = {
    ("GaussRational", "+", "NoneType"):
        "unsupported operand type(s) for +: 'GaussRational' and 'NoneType'",
    ("NoneType", "+", "GaussRational"):
        "unsupported operand type(s) for +: 'NoneType' and 'GaussRational'",
    ("GaussRational", "-", "NoneType"):
        "unsupported operand type(s) for -: 'GaussRational' and 'NoneType'",
    ("NoneType", "-", "GaussRational"):
        "unsupported operand type(s) for -: 'NoneType' and 'GaussRational'",
    ("GaussRational", "*", "NoneType"):
        "unsupported operand type(s) for *: 'GaussRational' and 'NoneType'",
    ("NoneType", "*", "GaussRational"):
        "unsupported operand type(s) for *: 'NoneType' and 'GaussRational'",
    ("GaussRational", "/", "NoneType"):
        "unsupported operand type(s) for /: 'GaussRational' and 'NoneType'",
    ("NoneType", "/", "GaussRational"):
        "unsupported operand type(s) for /: 'NoneType' and 'GaussRational'",
    ("GaussRational", "+", "float"):
        "unsupported operand type(s) for +: 'GaussRational' and 'float'",
    ("float", "+", "GaussRational"):
        "unsupported operand type(s) for +: 'float' and 'GaussRational'",
    ("GaussRational", "-", "float"):
        "unsupported operand type(s) for -: 'GaussRational' and 'float'",
    ("float", "-", "GaussRational"):
        "unsupported operand type(s) for -: 'float' and 'GaussRational'",
    ("GaussRational", "*", "float"):
        "unsupported operand type(s) for *: 'GaussRational' and 'float'",
    ("float", "*", "GaussRational"):
        "unsupported operand type(s) for *: 'float' and 'GaussRational'",
    ("GaussRational", "/", "float"):
        "unsupported operand type(s) for /: 'GaussRational' and 'float'",
    ("float", "/", "GaussRational"):
        "unsupported operand type(s) for /: 'float' and 'GaussRational'",
    ("GaussRational", "+", "str"):
        "unsupported operand type(s) for +: 'GaussRational' and 'str'",
    ("str", "+", "GaussRational"):
        'can only concatenate str (not "GaussRational") to str',
    ("GaussRational", "-", "str"):
        "unsupported operand type(s) for -: 'GaussRational' and 'str'",
    ("str", "-", "GaussRational"):
        "unsupported operand type(s) for -: 'str' and 'GaussRational'",
    ("GaussRational", "*", "str"):
        "can't multiply sequence by non-int of type 'GaussRational'",
    ("str", "*", "GaussRational"):
        "can't multiply sequence by non-int of type 'GaussRational'",
    ("GaussRational", "/", "str"):
        "unsupported operand type(s) for /: 'GaussRational' and 'str'",
    ("str", "/", "GaussRational"):
        "unsupported operand type(s) for /: 'str' and 'GaussRational'",
    ("PolyScalar", "+", "NoneType"):
        "unsupported operand type(s) for +: 'PolyScalar' and 'NoneType'",
    ("NoneType", "+", "PolyScalar"):
        "unsupported operand type(s) for +: 'NoneType' and 'PolyScalar'",
    ("PolyScalar", "-", "NoneType"):
        "unsupported operand type(s) for -: 'PolyScalar' and 'NoneType'",
    ("NoneType", "-", "PolyScalar"):
        "unsupported operand type(s) for -: 'NoneType' and 'PolyScalar'",
    ("PolyScalar", "*", "NoneType"):
        "unsupported operand type(s) for *: 'PolyScalar' and 'NoneType'",
    ("NoneType", "*", "PolyScalar"):
        "unsupported operand type(s) for *: 'NoneType' and 'PolyScalar'",
    ("PolyScalar", "/", "NoneType"):
        "unsupported operand type(s) for /: 'PolyScalar' and 'NoneType'",
    ("NoneType", "/", "PolyScalar"):
        "unsupported operand type(s) for /: 'NoneType' and 'PolyScalar'",
    ("PolyScalar", "+", "float"):
        "unsupported operand type(s) for +: 'PolyScalar' and 'float'",
    ("float", "+", "PolyScalar"):
        "unsupported operand type(s) for +: 'float' and 'PolyScalar'",
    ("PolyScalar", "-", "float"):
        "unsupported operand type(s) for -: 'PolyScalar' and 'float'",
    ("float", "-", "PolyScalar"):
        "unsupported operand type(s) for -: 'float' and 'PolyScalar'",
    ("PolyScalar", "*", "float"):
        "unsupported operand type(s) for *: 'PolyScalar' and 'float'",
    ("float", "*", "PolyScalar"):
        "unsupported operand type(s) for *: 'float' and 'PolyScalar'",
    ("PolyScalar", "/", "float"):
        "unsupported operand type(s) for /: 'PolyScalar' and 'float'",
    ("float", "/", "PolyScalar"):
        "unsupported operand type(s) for /: 'float' and 'PolyScalar'",
    ("PolyScalar", "+", "str"):
        "unsupported operand type(s) for +: 'PolyScalar' and 'str'",
    ("str", "+", "PolyScalar"):
        'can only concatenate str (not "PolyScalar") to str',
    ("PolyScalar", "-", "str"):
        "unsupported operand type(s) for -: 'PolyScalar' and 'str'",
    ("str", "-", "PolyScalar"):
        "unsupported operand type(s) for -: 'str' and 'PolyScalar'",
    ("PolyScalar", "*", "str"):
        "can't multiply sequence by non-int of type 'PolyScalar'",
    ("str", "*", "PolyScalar"):
        "can't multiply sequence by non-int of type 'PolyScalar'",
    ("PolyScalar", "/", "str"):
        "unsupported operand type(s) for /: 'PolyScalar' and 'str'",
    ("str", "/", "PolyScalar"):
        "unsupported operand type(s) for /: 'str' and 'PolyScalar'",
}


class TestOperands:
    def test_reversed_operators(self):
        g = GaussRational(1, 1)
        assert 1 - g == GaussRational(0, -1)
        assert 1 / g == GaussRational(Fraction(1, 2), Fraction(-1, 2))
        assert 1 - parse("a") == parse("1-a")

    def test_a_number_over_a_polynomial(self):
        assert 1 / parse("2") == parse("1/2")
        assert Fraction(1, 3) / parse("-2") == parse("-1/6")
        assert GaussRational(0, 1) / parse("2") == parse("i/2")
        with pytest.raises(ValueError) as by_poly:
            parse("1") / parse("a")
        with pytest.raises(ValueError) as by_int:
            1 / parse("a")
        assert str(by_int.value) == str(by_poly.value) == "division by a non-constant: a"
        with pytest.raises(ZeroDivisionError):
            1 / parse("0")

    @pytest.mark.parametrize("value", [GaussRational(1, 1), 2 * param("a")], ids=repr)
    @pytest.mark.parametrize("bad", NON_NUMBERS)
    @pytest.mark.parametrize("op", list(OPERATORS))
    def test_a_non_number_is_refused(self, value, bad, op):
        for left, right in ((value, bad), (bad, value)):
            with pytest.raises(TypeError) as refused:
                op(left, right)
            key = type(left).__name__, OPERATORS[op], type(right).__name__
            assert str(refused.value) == REFUSALS[key]

    @seed(1733)
    @SCALAR_SETTINGS
    @given(scalars(), scalars())
    def test_mixed_operands_meet_as_polynomials(self, a, b):
        exact = (GaussRational, PolyScalar)
        assume(isinstance(a, exact) or isinstance(b, exact))
        poly = isinstance(a, PolyScalar) or isinstance(b, PolyScalar)
        for op in OPERATORS:
            if op is operator.truediv and not (as_scalar(b).is_constant() and b != 0):
                continue
            result = op(a, b)
            assert result == op(as_scalar(a), as_scalar(b))
            assert type(result) is (PolyScalar if poly else GaussRational)

    def test_inexact_coefficient_refused(self):
        with pytest.raises(TypeError, match="^cannot use float as a coefficient$"):
            PolyScalar([(Monomial(), 1.5)])
        with pytest.raises(TypeError, match="^cannot use float as a coefficient$"):
            PolyScalar.constant(1.5)
        with pytest.raises(TypeError, match="^cannot interpret float as a scalar$"):
            as_scalar(1.5)

    def test_constant_value_of_a_non_constant(self):
        with pytest.raises(ValueError, match="not a constant: 2\\*a"):
            parse("2*a").constant_value()

    def test_empty_monomial_is_one(self):
        assert str(Monomial()) == "1"

    @pytest.mark.parametrize("value", [GaussRational(1, 1), Monomial(), param("a")], ids=repr)
    def test_immutable(self, value):
        with pytest.raises(AttributeError, match="is immutable"):
            value.re = 2


VALUES = [
    GaussRational(1, 1),
    Monomial.variable("a"),
    param("a"),
    ExactMatrix.from_rows([[1]]),
    Perm([1, 0]),
    SubspaceBasis([[1, 0]]),
    verify_closure([Perm([0, 1]), Perm([1, 0])]),
    SearchConfig(),
    SearchResult((Perm([1, 0]),), 1, 2, True),
    ProjectorPair(ExactMatrix.from_rows([[1]]), ExactMatrix.zeros(1)),
    CATALOG["ising4"],  # the twospin builders are lambdas, which do not pickle
]


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("existing", [True, False], ids=["existing", "new"])
def test_every_value_class_is_immutable(value, existing):
    cls = type(value)
    name = cls.__slots__[0] if existing else "extra"
    before = getattr(value, name, None)
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        setattr(value, name, 1)
    with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
        delattr(value, name)
    assert getattr(value, name, None) is before


def pickled(value):
    return pickle.loads(pickle.dumps(value))


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, pickled],
                         ids=["copy", "deepcopy", "pickle"])
def test_every_value_class_copies_and_pickles(value, duplicate):
    twin = duplicate(value)
    assert type(twin) is type(value)
    if isinstance(value, SymmetryGroup):  # compared by identity
        assert (twin.elements, twin.generators) == (value.elements, value.generators)
    else:
        assert twin == value and hash(twin) == hash(value)


class TestRecords:
    """The four records: the reprs are the text of the frozen dataclasses
    they were, and equality and hashing go by field values."""

    def test_reprs(self):
        spec = CATALOG["ising4"]
        assert [repr(r) for r in VALUES[-4:]] == [
            "SearchConfig(mode='pruned', max_results=None, node_budget=None, count_only=False)",
            "SearchResult(perms=(Perm([1, 0]),), count=1, nodes_visited=2, exhausted=True)",
            "ProjectorPair(pi1=<ExactMatrix 1x1>, pi2=<ExactMatrix 1x1>)",
            "ModelSpec(name='ising4', dimension=16, parameters=(('a', 'nearest-neighbour "
            "sigma3 coupling'), ('b', 'transverse field strength')), description='cyclic "
            f"4-site Ising chain in a transverse field', builder={spec.builder!r})",
        ]
        assert repr(SearchConfig("leaf-check", 3, 10, True)) == (
            "SearchConfig(mode='leaf-check', max_results=3, node_budget=10, count_only=True)")

    def test_equality_and_hash_by_value(self):
        a = SearchConfig("pruned", 3)
        b = SearchConfig(max_results=3)
        assert a == b and hash(a) == hash(b) and not a != b
        assert a != SearchConfig(max_results=4)
        assert len({a, b, SearchConfig()}) == 2
        pair = ProjectorPair(ExactMatrix.zeros(1), ExactMatrix.zeros(1))
        assert pair == ProjectorPair(ExactMatrix.zeros(1), ExactMatrix.zeros(1))
        # the same field values in a tuple or a record of another type are not equal
        fields = ("pruned", 3, None, False)
        assert a != fields and fields != a
        assert SearchResult(*fields) != a and a != SearchResult(*fields)

    @pytest.mark.parametrize("build", [
        lambda: SearchConfig(bogus=1),
        lambda: SearchConfig("pruned", None, None, False, None),
        lambda: SearchResult((), 0, 0),
        lambda: ProjectorPair(ExactMatrix.zeros(1)),
        lambda: ProjectorPair(ExactMatrix.zeros(1), ExactMatrix.zeros(1), pi3=None),
        lambda: ModelSpec("x", 1, (), "x"),
    ], ids=["unknown", "too-many", "missing", "missing-pair", "unknown-pair", "missing-spec"])
    def test_a_wrong_signature_is_a_type_error(self, build):
        with pytest.raises(TypeError):
            build()


def test_a_pickled_polynomial_hashes_as_the_loading_process_does():
    # a parametric polynomial's hash comes from str hashes, which depend on the
    # process's hash seed, so the hash cached before pickling must not travel
    value = parse("2*a + b^2 - i")
    hash(value)
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    script = ("import pickle, sys; from permsym import parse; "
              "print({parse('2*a + b^2 - i'): 'found'}.get(pickle.load(sys.stdin.buffer)))")
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": str(Path(permsym.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(value), env=env,
                          capture_output=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"found\n", b"")
