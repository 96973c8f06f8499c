"""Exact scalars: multivariate polynomials in real parameters over the Gaussian rationals.

Every matrix entry in this package is a :class:`PolyScalar`.  Coefficients are
Gaussian rationals (complex numbers with exact rational parts, each an ``int``
when integral and a ``fractions.Fraction`` otherwise; inexact parts such as
floats are refused), kept in a canonical sparse form so equality of values is
decidable by plain ``==``.
Parameters are symbols standing for real numbers, so complex conjugation acts
on coefficients only.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import comb


class ParseError(ValueError):
    """Raised for malformed scalar expressions; carries the 0-based position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _q(x):
    """A rational part as it is stored: an int when integral, else a Fraction."""
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return x if x.denominator != 1 else x.numerator
    raise TypeError(f"cannot use {type(x).__name__} as a rational part")


class GaussRational:
    """Complex number with exact rational real and imaginary parts.

    Each part is an int when integral, else a Fraction, so integral arithmetic
    builds no Fraction.  Parts other than ints and Fractions are refused.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _q(re))
        object.__setattr__(self, "im", _q(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussRational):
            return x
        if isinstance(x, (int, Fraction)):
            return GaussRational(x)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = Fraction(other.re * other.re + other.im * other.im)
        if d == 0:
            raise ZeroDivisionError("division by zero")
        return GaussRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def conjugate(self):
        return GaussRational(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return _imag_str(self.im)
        im = _imag_str(self.im)
        sep = "+" if not im.startswith("-") else ""
        return f"{self.re}{sep}{im}"


def _imag_str(q):
    if q == 1:
        return "i"
    if q == -1:
        return "-i"
    return f"{q}*i"


class Monomial:
    """Product of parameter powers, e.g. ``t^2*U``; the empty product is 1.

    Factors are stored as a tuple of (name, exponent) pairs with names
    strictly ascending and exponents >= 1.
    """

    __slots__ = ("factors",)

    def __init__(self, factors=()):
        factors = tuple(factors)
        names = [n for n, _ in factors]
        if names != sorted(set(names)):
            raise ValueError("monomial factors must have strictly ascending names")
        if any(e < 1 for _, e in factors):
            raise ValueError("monomial exponents must be >= 1")
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    @classmethod
    def variable(cls, name, exponent=1):
        return cls(((name, exponent),))

    @property
    def degree(self):
        return sum(e for _, e in self.factors)

    def __mul__(self, other):
        merged = dict(self.factors)
        for name, e in other.factors:
            merged[name] = merged.get(name, 0) + e
        return Monomial(sorted(merged.items()))

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __str__(self):
        if not self.factors:
            return "1"
        return "*".join(n if e == 1 else f"{n}^{e}" for n, e in self.factors)

    def __repr__(self):
        return f"Monomial({self.factors!r})"


_ONE_MONO = Monomial()


class PolyScalar:
    """Canonical multivariate polynomial with GaussRational coefficients.

    Values are immutable; two PolyScalars compare equal exactly when they
    denote the same polynomial.  Term order is graded (degree-major), which
    also fixes the rendering produced by ``str``.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=()):
        """Build from (Monomial, coefficient) pairs; zero terms are dropped."""
        if isinstance(terms, dict):
            terms = terms.items()
        collected = {}
        for mono, coeff in terms:
            coeff = _gauss(coeff)
            if coeff:
                acc = collected.get(mono)
                acc = coeff if acc is None else acc + coeff
                if acc:
                    collected[mono] = acc
                elif mono in collected:
                    del collected[mono]
        ordered = tuple(
            sorted(collected.items(), key=lambda item: (-item[0].degree, item[0].factors))
        )
        object.__setattr__(self, "_terms", ordered)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("PolyScalar is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value):
        return cls(((_ONE_MONO, _gauss(value)),))

    @classmethod
    def variable(cls, name):
        return cls(((Monomial.variable(name), GaussRational(1)),))

    # -- inspection ---------------------------------------------------

    def terms(self):
        """Canonical (Monomial, GaussRational) pairs, highest degree first."""
        return self._terms

    def is_zero(self):
        return not self._terms

    def is_constant(self):
        return not self._terms or (len(self._terms) == 1 and self._terms[0][0] == _ONE_MONO)

    def constant_value(self):
        """The value of a constant polynomial, as a GaussRational."""
        if not self._terms:
            return GaussRational(0)
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return self._terms[0][1]

    def degree(self):
        return self._terms[0][0].degree if self._terms else 0

    def parameters(self):
        """Sorted names of all parameters that occur."""
        names = set()
        for mono, _ in self._terms:
            names.update(n for n, _ in mono.factors)
        return sorted(names)

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, PolyScalar):
            return x
        if isinstance(x, (int, Fraction, GaussRational)):
            return PolyScalar.constant(x)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        return PolyScalar(self._terms + other._terms)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return PolyScalar(tuple((m, -c) for m, c in self._terms))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._terms or not other._terms:
            return ZERO
        out = {}
        for m1, c1 in self._terms:
            for m2, c2 in other._terms:
                m = m1 * m2
                c = c1 * c2
                acc = out.get(m)
                out[m] = c if acc is None else acc + c
        return PolyScalar(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("PolyScalar powers must be non-negative integers")
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def __truediv__(self, other):
        """Exact division by a nonzero constant."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.is_constant():
            raise ValueError(f"division by a non-constant: {other}")
        value = other.constant_value()
        if not value:
            raise ZeroDivisionError("division by zero")
        inv = GaussRational(1) / value
        return PolyScalar(tuple((m, c * inv) for m, c in self._terms))

    def conjugate(self):
        """Complex-conjugate every coefficient; parameters are real symbols."""
        return PolyScalar(tuple((m, c.conjugate()) for m, c in self._terms))

    def substitute(self, bindings):
        """Replace parameters by PolyScalar values; missing names stay symbolic."""
        out = ZERO
        for mono, coeff in self._terms:
            term = PolyScalar.constant(coeff)
            for name, e in mono.factors:
                if name in bindings:
                    term = term * (as_scalar(bindings[name]) ** e)
                else:
                    term = term * PolyScalar(((Monomial.variable(name, e), GaussRational(1)),))
            out = out + term
        return out

    # -- equality and rendering ---------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a constant hashes as its GaussRational, as it compares equal to it
        h = self._hash
        if h is None:
            h = hash(self.constant_value() if self.is_constant() else self._terms)
            object.__setattr__(self, "_hash", h)
        return h

    def __bool__(self):
        return bool(self._terms)

    def __repr__(self):
        return f"parse({str(self)!r})"

    def __str__(self):
        if not self._terms:
            return "0"
        parts = [_term_str(m, c) for m, c in self._terms]
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out


def _term_str(mono, coeff):
    if mono == _ONE_MONO:
        return str(coeff)
    if coeff.im and coeff.re:
        return f"({coeff})*{mono}"
    if not coeff.im:
        r = coeff.re
        if r == 1:
            return str(mono)
        if r == -1:
            return f"-{mono}"
        return f"{r}*{mono}"
    return f"{_imag_str(coeff.im)}*{mono}"


def _gauss(value):
    if isinstance(value, GaussRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussRational(value)
    raise TypeError(f"cannot use {type(value).__name__} as a coefficient")


def as_scalar(x):
    """Coerce ints, Fractions, GaussRationals, strings and PolyScalars."""
    if isinstance(x, PolyScalar):
        return x
    if isinstance(x, (int, Fraction, GaussRational)):
        return PolyScalar.constant(x)
    if isinstance(x, str):
        return parse(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as a scalar")


ZERO = PolyScalar()
ONE = PolyScalar.constant(1)
I = PolyScalar.constant(GaussRational(0, 1))


def param(name):
    """The polynomial consisting of the single parameter ``name``."""
    return PolyScalar.variable(name)


def rational(numerator, denominator=1):
    return PolyScalar.constant(Fraction(numerator, denominator))


# -- expression parsing ------------------------------------------------
#
# expr   := term (('+'|'-') term)*
# term   := unary (('*'|'/') unary)*
# unary  := '-' unary | power
# power  := atom ('^' INT)?
# atom   := INT | IDENT | '(' expr ')'
#
# 'i' is the imaginary unit and is reserved; division requires a nonzero
# constant divisor.

# Bound on the nesting of parentheses and unary minus signs in one expression.
# Every level costs the recursive-descent parser up to five stack frames, so
# deeper input fails with a ParseError before it can exhaust the interpreter's
# recursion limit (1000 frames by default).
MAX_NESTING = 100

# Bound on the size of one power x^k or product x*y, checked before it is
# computed.  The bound is taken on an upper estimate of the expanded result,
# where a term's size is its degree plus the bit lengths of its coefficient's
# numerators and denominators.  For x^k it is the number of ways to pick k of
# the t terms of x with repetition, C(t+k-1, k), times k times the largest
# term of x; so 2^k is allowed up to k = 2,500 and (t+1)^k up to k = 49, while
# (t+1)^999999999 and nested powers such as ((t+1)^40)^40 are a ParseError.
# For x*y it is the number of term pairs times the sum of the largest terms,
# so a chain of factors such as (a+b+c+d+e+f+g+h)*(a+...)*... fails by its
# fourth factor.
MAX_POWER_SIZE = 10_000


def _term_size(mono, coeff):
    return mono.degree + sum(
        q.numerator.bit_length() + q.denominator.bit_length() for q in (coeff.re, coeff.im)
    )


def _largest_term(value):
    return max((_term_size(m, c) for m, c in value.terms()), default=0)


def _power_size(value, k):
    """The estimate of the size of ``value ** k`` that MAX_POWER_SIZE bounds."""
    size = k * _largest_term(value)
    if size > MAX_POWER_SIZE:
        return size
    return comb(len(value.terms()) + k - 1, k) * size


def _product_size(x, y):
    """The estimate of the size of ``x * y`` that MAX_POWER_SIZE bounds."""
    return len(x.terms()) * len(y.terms()) * (_largest_term(x) + _largest_term(y))


# ASCII classes only: \d and \w also match other scripts' digits and letters.
# In a str pattern \s, like str.lstrip(), takes exactly what str.isspace() accepts.
_TOKEN = re.compile(r"\s*(?:(?P<int>[0-9]+)|(?P<ident>[A-Za-z][A-Za-z0-9_]*)|([-+*/^()]))")


def _tokenize(text):
    tokens = []
    pos = 0
    while match := _TOKEN.match(text, pos):
        group = match.lastindex
        tokens.append((match.lastgroup or match[group], match[group], match.start(group)))
        pos = match.end()
    rest = text[pos:].lstrip()
    if rest:
        raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def nest(self, pos):
        """Enter one level of nesting at ``pos``; the caller leaves it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos)

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.next()
            rhs = self.unary()
            if op == "*":
                if _product_size(value, rhs) > MAX_POWER_SIZE:
                    raise ParseError(
                        f"product larger than MAX_POWER_SIZE = {MAX_POWER_SIZE}", pos
                    )
                value = value * rhs
            else:
                if not rhs.is_constant():
                    raise ParseError("division by a non-constant", pos)
                if not rhs.constant_value():
                    raise ParseError("division by zero", pos)
                value = value / rhs
        return value

    def unary(self):
        if self.peek()[0] == "-":
            self.nest(self.next()[2])
            value = -self.unary()
            self.depth -= 1
            return value
        return self.power()

    def power(self):
        value = self.atom()
        if self.peek()[0] == "^":
            self.next()
            tok = self.next()
            k = _int(tok) if tok[0] == "int" else 0
            if k < 1:
                raise ParseError("exponent must be a positive integer", tok[2])
            if _power_size(value, k) > MAX_POWER_SIZE:
                raise ParseError(f"power larger than MAX_POWER_SIZE = {MAX_POWER_SIZE}", tok[2])
            value = value ** k
        return value

    def atom(self):
        tok = self.next()
        kind, text, pos = tok
        if kind == "int":
            return PolyScalar.constant(_int(tok))
        if kind == "ident":
            if text == "i":
                return I
            return PolyScalar.variable(text)
        if kind == "(":
            self.nest(pos)
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        raise ParseError(f"unexpected {text or 'end of input'!r}", pos)


def _int(tok):
    try:
        return int(tok[1])
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError("integer literal too long", tok[2]) from None


def parse(text):
    """Parse an expression into a canonical PolyScalar.

    Raises ParseError (with a position) on malformed input, division by a
    non-constant, a zero divisor, nesting deeper than ``MAX_NESTING``, or a
    power or product larger than ``MAX_POWER_SIZE``.
    """
    return _Parser(text).parse()
