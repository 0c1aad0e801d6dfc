"""Exact polynomial and rational-function algebra over the rationals.

Everything here is exact, and there is one polynomial type, ``Polynomial``:
a positive rational content times a primitive polynomial with integer
coefficients (Gauss's lemma).  A product multiplies contents and integer
parts with no gcd, a sum takes one common denominator and one integer gcd,
and ``coeffs`` builds the ``fractions.Fraction`` coefficients on demand.
Equality is true equality.  The positive-real / minimum-function
predicates are decided with Routh's test, Descartes' rule of signs and
Sturm chains, not numerical root finding.  The PR test's even-part sign
is a yes/no question: an even-part profile of degree two or less takes
its closed form, and above that the profile's odd-multiplicity part, by
Yun's square-free decomposition, is decided by Descartes' rule with
Collins-Akritas bisection (integer Taylor shifts, no Sturm chain).
Sturm chains serve only root counts and isolation; they and the Routh
rows read one primitive remainder sequence, ``_remainders``, on the
integer parts as int lists.  Gcds and their cofactors come from ``_gcd``
on the same lists: the common power of s comes off, and a heuristic gcd,
checked by exact division, gives the rest, with that remainder sequence as
its fallback.  A ``RationalFunction`` is reduced on
the int parts, and the PR test reads num + den and the even-part
numerator as int sums, so from the impedance's leading minors to the
verdict no Polynomial arithmetic runs.  A polynomial gets one
Sturm chain: its last member is gcd(p, p') up to a constant, and divided
by it the chain is one of the square-free part.  Only
``is_positive_real`` runs the PR test and keeps its verdict on the
``RationalFunction``, so a function is tested at most once.  Values at
s = j*w are ``QComplex`` numbers with rational parts.
Determinants and linear solves run one fraction-free elimination loop,
``_eliminate``, on bare ints: an element of Z[s], Z[x] or Z[j] is one
trimmed ascending int list ([re, im] in j), [] as zero, and each ring has
one fused row step with its exact-division check.  Its two entry points
answer in the ring of their entries: ``leading_minors``, the forward
half, gives the leading minors and the determinant of one pass, over Z
or Z[x] on a pair's hybrid Bezout rows, over Z[s] on the nodal
impedance's stamp triples and on sI - A; ``solve`` adds
the back half, over Z on cleared rows or over Z[j] (Gaussian integers)
on the phasor rows it is given: numerators over its last pivot.  A row with a zero in the pivot column skips that
step and catches up when it is next read, so sparse rows cost little.
Up to sign, every subresultant R_k of a pair is a leading minor of its
hybrid Bezout matrix, built from the integer primitive parts or from a
fixture pair's coefficients in x as Z[x] int lists, so one pass gives
R_0(x) and R_1(x) as identities in x.  Interpolation reads integer
points and gives an int numerator over one int, and Sturm signs stay in Z
as well.  A law that a computed answer obeys raises ``InvariantViolation``.
Real roots come from one exact isolator, ``real_roots``: a rational root
is a Fraction and an irrational one an open interval with rational ends,
so a minimum frequency whose square is irrational is kept as such a
bracket.  No computation here uses floating point.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, List, Optional, Sequence, Tuple, Union

Q = Fraction
NEG_INF = -math.inf



class PolyratError(Exception):
    """Base error for this module."""


class ZeroDenominator(PolyratError):
    pass


class PoleAtPoint(PolyratError):
    pass


class NotPR(PolyratError):
    pass


class NotMinimum(PolyratError):
    pass


class NotBiquadratic(PolyratError):
    pass


class NotRationalParams(PolyratError):
    """The function is a biquadratic minimum function, but its canonical
    parameters are irrational and cannot be represented exactly."""


class DegreeTooSmall(PolyratError):
    pass


class InvariantViolation(Exception):
    """A law that every computed answer obeys failed: a fault of the
    program, not of its input (CLI exit code 4).  ``law`` names the law and
    ``context`` holds what it failed on.  The check is a plain ``if``, so
    it also runs under ``python -O``.  Defined here, below every other
    module, so that each of them can raise it."""

    def __init__(self, law: str, **context):
        detail = ", ".join(f"{k}={v}" for k, v in context.items())
        super().__init__(f"invariant {law} violated"
                         + (f": {detail}" if detail else ""))
        self.law = law
        self.context = context


def _as_q(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected exact rational, got {type(x).__name__}")


def sqrt_fraction(x: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None if irrational."""
    x = _as_q(x)
    if x < 0:
        return None
    if x == 0:
        return Q(0)
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


class QComplex:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_q(re)
        self.im = _as_q(im)

    def __add__(self, other):
        other = qcomplex(other)
        return QComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = qcomplex(other)
        return QComplex(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return qcomplex(other) - self

    def __mul__(self, other):
        other = qcomplex(other)
        return QComplex(self.re * other.re - self.im * other.im,
                        self.re * other.im + self.im * other.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = qcomplex(other)
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by exact complex zero")
        return QComplex((self.re * other.re + self.im * other.im) / d,
                        (self.im * other.re - self.re * other.im) / d)

    def __rtruediv__(self, other):
        return qcomplex(other) / self

    def __neg__(self):
        return QComplex(-self.re, -self.im)

    def conjugate(self) -> "QComplex":
        return QComplex(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __eq__(self, other):
        try:
            other = qcomplex(other)
        except TypeError:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"QComplex({self.re!r}, {self.im!r})"

    def __str__(self):
        return f"{self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}j"


def qcomplex(x) -> QComplex:
    if isinstance(x, QComplex):
        return x
    if isinstance(x, (int, Fraction)):
        return QComplex(x, 0)
    raise TypeError(f"cannot coerce {type(x).__name__} to QComplex")


class Polynomial:
    """Univariate polynomial with exact rational coefficients, stored as a
    positive Fraction ``content`` times ``prim``, a tuple of ints ascending
    by degree, with gcd 1, no trailing zeros and the polynomial's sign.  The
    zero polynomial has content 0, an empty ``prim`` and degree -inf.  The
    form is unique, so equality compares the two fields; ``coeffs`` gives
    the Fraction coefficients, ascending."""

    __slots__ = ("content", "prim")

    def __init__(self, coeffs: Iterable = ()):  # ascending degree
        cs = [_as_q(c) for c in coeffs]
        m = math.lcm(*(c.denominator for c in cs))
        p = _poly([c.numerator * (m // c.denominator) for c in cs], 1, m)
        self.content, self.prim = p.content, p.prim

    # -- structure -------------------------------------------------------------
    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        n, d = self.content.numerator, self.content.denominator
        return tuple(Fraction(n * x, d) for x in self.prim)

    @property
    def degree(self):
        return len(self.prim) - 1 if self.prim else NEG_INF

    def is_zero(self) -> bool:
        return not self.prim

    def is_constant(self) -> bool:
        return len(self.prim) <= 1

    def leading(self) -> Fraction:
        if not self.prim:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.content * self.prim[-1]

    def coeff(self, k: int) -> Fraction:
        return self.content * self.prim[k] if 0 <= k < len(self.prim) else Q(0)

    def __bool__(self):
        return bool(self.prim)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.prim == other.prim and self.content == other.content

    def __hash__(self):
        return hash((self.content, self.prim))

    # -- arithmetic -------------------------------------------------------------
    def __add__(self, other):
        # over one common denominator: with contents a and b, the sum is
        # gcd(an, bn) / lcm(ad, bd) times x * prim + y * other.prim for
        # integers x and y, and one integer gcd makes that primitive
        other = _as_poly(other)
        if not self.prim or not other.prim:
            return self if other.is_zero() else other
        (an, ad), (bn, bd) = (self.content.as_integer_ratio(),
                              other.content.as_integer_ratio())
        g, den = math.gcd(an, bn), math.lcm(ad, bd)
        x, y = an // g * (den // ad), bn // g * (den // bd)
        return _poly([x * c + y * d for c, d in zip_longest(
            self.prim, other.prim, fillvalue=0)], g, den)

    __radd__ = __add__

    def __neg__(self):
        return _new(self.content, tuple(-x for x in self.prim))

    def __sub__(self, other):
        return self + -_as_poly(other)

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __mul__(self, other):
        if type(other) is not Polynomial:
            if isinstance(other, (int, Fraction)):
                # a scalar scales the content, and its sign the primitive
                if not other or not self.prim:
                    return ZERO
                return _new(self.content * abs(other), self.prim if other > 0
                            else tuple(-x for x in self.prim))
            other = _as_poly(other)
        if not self.prim or not other.prim:
            return ZERO
        # the product of primitives is primitive (Gauss's lemma): no gcd
        return _new(self.content * other.content,
                    tuple(_mul(self.prim, other.prim)))

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = _as_poly(other)
        if not other.prim:
            raise ZeroDivisionError("polynomial division by zero")
        quot, rem, scale = _divide(self.prim, other.prim)
        a, b = self.content, other.content
        return (_poly(quot, a.numerator * b.denominator,
                      a.denominator * b.numerator * scale),
                _poly(rem, a.numerator, a.denominator * scale))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out, base = ONE, self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def monic(self) -> "Polynomial":
        lead = self.prim[-1] if self.prim else 1
        return _poly(list(self.prim), 1 if lead > 0 else -1, abs(lead))

    def derivative(self) -> "Polynomial":
        c = self.content
        return _poly([k * x for k, x in enumerate(self.prim)][1:],
                     c.numerator, c.denominator)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """The monic gcd (zero for two zeros): ``_gcd`` of the integer
        parts, a heuristic gcd over Z[s] checked by exact division, with
        the primitive remainder sequence as its fallback."""
        g = _gcd(self.prim, _as_poly(other).prim)[0]
        return _poly(g, 1, g[-1]) if g else ZERO

    def __call__(self, x):
        """Horner evaluation; works for Fraction and QComplex."""
        acc = x * 0  # typed zero so constants adopt the argument's type
        for c in reversed(self.prim):
            acc = acc * x + c
        return acc * self.content

    def eval_jomega(self, omega2: Fraction) -> Tuple[Fraction, Fraction]:
        """Evaluate at s = j*w0 where w0**2 = omega2 (rational, > 0).

        Returns (a, b) with p(j*w0) = a + j*b*w0, both exact rationals.
        """
        omega2, p = _as_q(omega2), self.prim
        a = b = Q(0)
        power = Q(1)  # (-omega2)**m
        for m in range(0, len(p), 2):
            a += p[m] * power
            if m + 1 < len(p):
                b += p[m + 1] * power
            power *= -omega2
        return a * self.content, b * self.content

    def flip_sign(self) -> "Polynomial":
        """p(-s)."""
        return _new(self.content, tuple(_flip(self.prim)))

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        return format_poly(self)


def _new(content: Fraction, prim: Tuple[int, ...]) -> Polynomial:
    """The Polynomial content * prim of an already canonical pair."""
    p = object.__new__(Polynomial)
    p.content, p.prim = content, prim
    return p


def _poly(ints: List[int], num: int = 1, den: int = 1) -> Polynomial:
    """The Polynomial num/den times the ints, made canonical: trailing
    zeros dropped, the gcd of the ints and the sign of num moved."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return _new(Q(0), ())
    g = math.gcd(*ints)
    if num < 0:
        g = -g
    if g != 1:
        ints = [x // g for x in ints]
    return _new(Fraction(num * g, den), tuple(ints))


def _mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """The product of the ascending int lists a and b, [] when either is
    empty (zero); trimmed factors give a trimmed product."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _add(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """The sum of the ascending int lists a and b, trimmed."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for j, y in enumerate(b):
        out[j] += y
    while out and not out[-1]:
        out.pop()
    return out


def _fma(u: List[int], x, y, v, w) -> List[int]:
    """u + x y - v w of the ascending int lists, trimmed: both products
    accumulate into one new list, with no list per product."""
    out = u + [0] * (max(len(x) + len(y), len(v) + len(w)) - 1 - len(u))
    for i, c in enumerate(x):
        if c:
            for j, d in enumerate(y, i):
                out[j] += c * d
    for i, c in enumerate(v):
        if c:
            for j, d in enumerate(w, i):
                out[j] -= c * d
    while out and not out[-1]:
        out.pop()
    return out


def _flip(a: Sequence[int]) -> List[int]:
    """a(-s) of the ascending int list a."""
    return [-x if k % 2 else x for k, x in enumerate(a)]


def _divide(a: Sequence[int], b: Sequence[int]):
    """(quot, rem, scale) with scale * a = quot * b + rem over Z[s], deg rem
    < deg b and scale > 0, for ascending ints a and b (b nonzero).  Long
    division scaling up only at a step whose top coefficient lc(b) does not
    divide: never when b is primitive and divides a (Gauss's lemma)."""
    rem, n, lead = list(a), len(b) - 1, b[-1]
    quot = [0] * max(len(rem) - n, 0)
    scale = 1
    for k in reversed(range(len(quot))):
        top = rem.pop()                     # coefficient of s^(k+n)
        q, r = divmod(top, lead)
        if r:
            f = abs(lead) // math.gcd(top, lead)
            rem = [x * f for x in rem]
            quot[k + 1:] = [x * f for x in quot[k + 1:]]
            scale *= f
            q = top * f // lead
        quot[k] = q
        if q:
            for j, y in enumerate(b[:-1], k):
                rem[j] -= q * y
    return quot, rem, scale


def _as_poly(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction)):
        return Polynomial([x])
    raise TypeError(f"cannot coerce {type(x).__name__} to Polynomial")


ZERO = Polynomial()
ONE = Polynomial([1])
S = Polynomial([0, 1])


class RationalFunction:
    """Coprime quotient of two Polynomials with monic denominator, reduced
    on their integer parts (``_reduced``); _pr holds the verdict of
    ``is_positive_real`` once it has been taken."""

    __slots__ = ("num", "den", "_pr")

    def __init__(self, num, den=ONE):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        c = num.content / den.content
        self.num, self.den = _reduced(num.prim, den.prim, c.numerator,
                                      c.denominator)

    @property
    def mcmillan_degree(self) -> int:
        if self.num.is_zero():
            return 0
        return int(max(self.num.degree, self.den.degree))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        return self.num.coeff(0) / self.den.coeff(0)

    # -- arithmetic -------------------------------------------------------------
    def __add__(self, other):
        other = as_ratfunc(other)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-as_ratfunc(other))

    def __rsub__(self, other):
        return as_ratfunc(other) - self

    def __mul__(self, other):
        other = as_ratfunc(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_ratfunc(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return as_ratfunc(other) / self

    def reciprocal(self) -> "RationalFunction":
        if self.is_zero():
            raise ZeroDivisionError("reciprocal of zero")
        return RationalFunction(self.den, self.num)

    def __eq__(self, other):
        try:
            other = as_ratfunc(other)
        except TypeError:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- evaluation -------------------------------------------------------------
    def __call__(self, x):
        return self.num(x) / self.den(x)

    def eval_jomega_pair(self, omega2: Fraction) -> Tuple[Fraction, Fraction]:
        """Value at s = j*w0 as an exact pair (a, b) meaning a + j*b*w0.

        Works even when w0 itself is irrational (only omega2 must be
        rational).  Raises ZeroDivisionError on a pole.
        """
        return _jomega_quotient(self.num, self.den, _as_q(omega2))

    def compose_winv(self, omega2: Fraction) -> "RationalFunction":
        """H(omega0**2 / s) for rational omega0**2."""
        if self.is_zero():
            return self
        omega2 = _as_q(omega2)
        dmax = max(int(self.num.degree), int(self.den.degree))

        def rev(p: Polynomial) -> Polynomial:
            return Polynomial([p.coeff(k) * omega2 ** k
                               for k in range(dmax, -1, -1)])

        return RationalFunction(rev(self.num), rev(self.den))

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self):
        return format_ratfunc(self)


def _reduced(a: Sequence[int], b: Sequence[int], n: int,
             d: int) -> Tuple[Polynomial, Polynomial]:
    """(num, den) of n/d times a/b, for trimmed int lists a and b (b
    nonzero) and ints n and d > 0: coprime, den monic.  a and b are the
    cofactors that their ``_gcd`` gives, so nothing is divided here.  Each
    Polynomial is one ``_poly``."""
    if not a:
        return ZERO, ONE
    _, a, b = _gcd(a, b)
    lead = b[-1]
    sign = 1 if lead > 0 else -1
    return (_poly(list(a), n * sign, d * abs(lead)),
            _poly(list(b), sign, abs(lead)))


def _ratfunc(a: Sequence[int], b: Sequence[int], n: int) -> RationalFunction:
    """The RationalFunction n times a/b of trimmed int lists (b nonzero,
    n > 0), reduced by ``_reduced`` with no Polynomial built on the way
    in."""
    h = object.__new__(RationalFunction)
    h.num, h.den = _reduced(a, b, n, 1)
    return h


def _jomega_quotient(num: Polynomial, den: Polynomial,
                     omega2: Fraction) -> Tuple[Fraction, Fraction]:
    """num/den at s = j*w0, where w0**2 = omega2, as an exact pair (a, b)
    meaning a + j*b*w0.  Raises ZeroDivisionError when den(j*w0) = 0."""
    na, nb = num.eval_jomega(omega2)
    da, db = den.eval_jomega(omega2)
    d = da * da + omega2 * db * db
    if d == 0:
        raise ZeroDivisionError("pole at j*omega0")
    return ((na * da + omega2 * nb * db) / d, (nb * da - na * db) / d)


def as_ratfunc(x) -> RationalFunction:
    if isinstance(x, RationalFunction):
        return x
    if isinstance(x, (int, Fraction, Polynomial)):
        return RationalFunction(_as_poly(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to RationalFunction")


def reduce(num, den) -> RationalFunction:
    """Canonical coprime, monic-denominator form of num/den."""
    return RationalFunction(num, den)


def eval_ratfunc(f: RationalFunction, z) -> QComplex:
    """Exact value of f at a complex point z (a QComplex or a rational).

    Raises PoleAtPoint when the denominator vanishes there and TypeError
    for a float or complex z.
    """
    z = qcomplex(z)
    d = f.den(z)
    if d.is_zero():
        raise PoleAtPoint("denominator vanishes at the given point")
    return f.num(z) / d


# ---------------------------------------------------------------------------
# Gcds and roots on trimmed int lists, as in the kernel: no helper builds a
# Polynomial
# ---------------------------------------------------------------------------

def _remainders(a: Sequence[int], b: Sequence[int], sign: int):
    """The primitive remainder sequence a, b, r_2, ... of the trimmed int
    lists a and b up to its last nonzero member, r_(k+1) sign times the
    primitive part of r_(k-1) mod r_k (Collins 1967; Brown & Traub 1971):
    with sign 1 its last member is gcd(a, b) up to a constant, with sign -1
    it is a Sturm chain when b = a'.  A generator: Routh's test stops early."""
    yield a
    while b:
        yield b
        r = _trimmed(_divide(a, b)[1])
        if r:
            g = sign * math.gcd(*r)
            if g != 1:
                r = [x // g for x in r]
        a, b = b, r


def _primitive(a: Sequence[int]) -> List[int]:
    """The nonzero int list a over the gcd of its entries, signed so that
    its leading coefficient is positive."""
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return list(a) if g == 1 else [x // g for x in a]


# the heuristic gcd's tries, and the most bits an evaluation may take,
# before the primitive remainder sequence takes over
_HEU_TRIES = 6
_HEU_BITS = 1 << 16


def _gcd(a: Sequence[int], b: Sequence[int]) -> Tuple[List[int], ...]:
    """(g, a / g, b / g): g = gcd(a, b) of the trimmed int lists a and b
    over Z[s], primitive with lc g > 0, and the exact cofactors over Z[s];
    ([], [], []) for two zeros.  The common power s^k of s comes off, then
    every power of s, and the rest's gcd is the heuristic gcd of their
    primitive parts A and B (Char, Geddes & Gonnet 1989; Geddes, Czapor &
    Labahn 1992, sec. 7.7): for an integer xi >= 2 min(|A|, |B|) + 2 (max
    norms), the digits of gcd(A(xi), B(xi)) in symmetric base xi are the
    coefficients of a candidate, and its primitive part is the gcd when it
    divides both A and B exactly (``_divide``, no scaling, no remainder).
    A failed try grows xi by about 2.73 (the factor 73794 / 27011 of the
    paper); after ``_HEU_TRIES`` of them, or once the bit length of xi
    times the larger length passes ``_HEU_BITS``, the last member of
    ``_remainders`` with sign 1 gives the gcd, dividing A and B once.  The
    cofactors are those quotients times the contents and powers of s."""
    if not a or not b:
        g = _primitive(a or b) if a or b else []
        return g, [a[-1] // g[-1]] if a else [], [b[-1] // g[-1]] if b else []
    za = next(i for i, x in enumerate(a) if x)
    zb = next(i for i, x in enumerate(b) if x)
    k = min(za, zb)
    A, B = _primitive(a[za:]), _primitive(b[zb:])

    def cofactors(g, qa, qb):
        if len(g) == 1:
            return [0] * k + [1], list(a[k:]), list(b[k:])
        ca, cb = a[-1] // A[-1], b[-1] // B[-1]
        return ([0] * k + g, [0] * (za - k) + [ca * x for x in qa],
                [0] * (zb - k) + [cb * x for x in qb])

    most = min(len(A), len(B))          # no divisor has more coefficients
    if most == 1:
        return cofactors([1], A, B)
    xi = 2 * min(max(map(abs, A)), max(map(abs, B))) + 2
    for _ in range(_HEU_TRIES):
        if xi.bit_length() * max(len(A), len(B)) > _HEU_BITS:
            break
        ha = hb = 0
        for x in reversed(A):
            ha = ha * xi + x
        for x in reversed(B):
            hb = hb * xi + x
        # xi exceeds the root bound of A or of B, so h > 0
        h, g = math.gcd(ha, hb), []
        while h and len(g) < most:
            d = h % xi
            if d > xi // 2:
                d -= xi
            g.append(d)
            h = (h - d) // xi
        if not h:
            g = _primitive(g)
            if len(g) == 1:
                return cofactors(g, A, B)
            qa, rem, scale = _divide(A, g)
            if scale == 1 and not any(rem):
                qb, rem, scale = _divide(B, g)
                if scale == 1 and not any(rem):
                    return cofactors(g, qa, qb)
        xi = xi * 73794 // 27011
    *_, g = _remainders(A, B, 1)
    g = _primitive(g)
    return cofactors(g, _divide(A, g)[0], _divide(B, g)[0])


def _derivative(a: Sequence[int]) -> List[int]:
    """The derivative of the ascending int list a."""
    return [k * x for k, x in enumerate(a)][1:]


def sturm_chain(p: Sequence[int]) -> List[Sequence[int]]:
    """Sturm chain of the int list p: p, the primitive part of p', then
    ``_remainders`` with sign -1, each member a positive multiple of the
    chain p, p', -rem(p, p'), ..., so with the same signs."""
    d = _derivative(p)
    g = math.gcd(*d)
    return list(_remainders(p, [x // g for x in d] if g > 1 else d, -1))


def _square_free_chain(p: Sequence[int]) -> Tuple[list, Sequence[int]]:
    """A Sturm chain of p / gcd(p, p'): p's chain divided by its last member
    g, gcd(p, p') up to a constant (Basu, Pollack & Roy 2006, ch. 2), and g.
    Unlike the undivided chain, it also counts right at a multiple root of
    p.  g is primitive, so the division is exact over Z[s]."""
    chain = sturm_chain(p)
    g = chain[-1]
    return (chain if len(g) <= 1 else [_divide(q, g)[0] for q in chain]), g


def _sign_at(p: Sequence[int], x) -> int:
    """The sign of the int list p at x, "+inf" or "-inf" included.  At x =
    a/b (b > 0) it is the sign of the integer sum p_i a^i b^(n-i), n = deg
    p, by homogeneous Horner: that is p(x) b^n.  An int x is read as x/1,
    with no Fraction."""
    if type(x) is str and x in ("+inf", "-inf"):
        s = 0 if not p else 1 if p[-1] > 0 else -1
        return s if x == "+inf" or len(p) % 2 else -s
    if type(x) is int:
        a, b = x, 1
    else:
        x = _as_q(x)
        a, b = x.numerator, x.denominator
    acc, bpow = 0, 1
    for c in reversed(p):
        acc = acc * a + c * bpow
        bpow *= b
    return (acc > 0) - (acc < 0)


def _sign_variations(a: Sequence[int]) -> int:
    """The sign changes of the int list a, zeros skipped: by Descartes'
    rule, the positive roots of a, counted with multiplicity, plus an even
    number."""
    signs = [x > 0 for x in a if x]
    return sum(map(operator.ne, signs, signs[1:]))


def _variations(chain: Sequence[Sequence[int]], x) -> int:
    return _sign_variations([_sign_at(p, x) for p in chain])


def count_real_roots(p: Polynomial, a="-inf", b="+inf") -> int:
    """Distinct real roots of p in (a, b], from its square-free chain."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    chain, _ = _square_free_chain(p.prim)
    return _variations(chain, a) - _variations(chain, b)


def real_roots(p: Polynomial, lo=None,
               width=None) -> List[Union[Fraction, Tuple[Fraction, Fraction]]]:
    """The distinct real roots of p above lo (all of them when lo is None),
    ascending: a Fraction for a rational root, an open interval (a, b) with
    rational ends for an irrational one, narrower than width when given.

    Above degree two p gives way to its primitive square-free part, the
    head of its square-free chain.  Degrees one and two with rational roots
    take closed forms.  Otherwise Sturm bisection on that chain isolates
    each root in an interval (a, b] and refines it below min(width, 1/L^2),
    L the leading coefficient with denominators cleared: the content's
    numerator (1 for the square-free part) times the primitive part's
    leading coefficient.  A rational root's denominator divides L and two
    distinct fractions with denominators <= L lie at least 1/L^2 apart, so
    the only candidate is the fraction nearest the midpoint with
    denominator <= L, and it is tested exactly.  An isolated root is
    simple, so each halving of its interval reads only the sign of the
    square-free part at its midpoint and at b, not the chain."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    c, num, chain = p.prim, p.content.numerator, None
    if len(c) > 3:
        chain, _ = _square_free_chain(c)
        c, num = chain[0], 1
    roots = None
    if len(c) <= 2:
        roots = [Fraction(-c[0], c[1])] if len(c) == 2 else []
    elif len(c) == 3:
        c0, c1, c2 = c
        disc = c1 * c1 - 4 * c2 * c0
        root = sqrt_fraction(disc)
        if root is not None:
            roots = sorted({(-c1 + root) / (2 * c2), (-c1 - root) / (2 * c2)})
        elif disc < 0:
            roots = []
    if roots is not None:
        return [r for r in roots if lo is None or r > lo]
    chain = chain or sturm_chain(c)
    lead = num * abs(c[-1])
    fine = Fraction(1, lead * lead)
    if width is not None:
        fine = min(fine, _as_q(width))
    bound = 1 + Fraction(max(map(abs, c)), abs(c[-1]))
    a = -bound if lo is None else _as_q(lo)
    if a >= bound:
        return []
    # (a, V(a), b, V(b)) with V(a) - V(b) roots in (a, b]; left half on top
    todo = [(a, _variations(chain, a), bound, _variations(chain, bound))]
    out: List[Union[Fraction, Tuple[Fraction, Fraction]]] = []
    while todo:
        a, va, b, vb = todo.pop()
        if va - vb > 1:
            m = (a + b) / 2
            vm = _variations(chain, m)
            if vm > vb:
                todo.append((m, vm, b, vb))
            if va > vm:
                todo.append((a, va, m, vm))
        elif va - vb == 1:
            # one simple root r of the square-free c in (a, b]: with sb the
            # sign of c(b), 0 if r = b, c is -sb left of r and sb from r to
            # b, so r is in (m, b] iff c(m) is nonzero and not sb
            sb = _sign_at(c, b)
            while b - a >= fine:
                m = (a + b) / 2
                sm = _sign_at(c, m)
                if sm and sm != sb:
                    a = m
                else:
                    b = m
            r = ((a + b) / 2).limit_denominator(lead)
            out.append(r if a < r <= b and _sign_at(c, r) == 0 else (a, b))
    return out


def strict_hurwitz(c: Sequence[int]) -> bool:
    """True iff all roots of the trimmed int list c lie in the open left
    half-plane (False for zero).

    Routh's test: the rows of the Routh array are the remainders of Euclid
    on f, the terms of c of the parity of its degree, and g, the others; c
    is strict Hurwitz iff they drop one degree at a time down to a
    constant, all with leading coefficients of the sign of lc c.
    ``_remainders`` with sign 1 gives positive multiples of the rows."""
    if not c:
        return False
    n = len(c) - 1
    f, g = ([x if k % 2 == r else 0 for k, x in enumerate(c)]
            for r in (n % 2, 1 - n % 2))
    for k, row in enumerate(_remainders(f, _trimmed(g), 1)):
        if len(row) != n + 1 - k or (row[-1] > 0) != (c[-1] > 0):
            return False
    return len(row) == 1


def even_part_numerator(g: RationalFunction) -> Polynomial:
    """r(s) = p(s)q(-s) + p(-s)q(s); 2*Re(g(jw)) = r(jw)/|q(jw)|^2.  The
    two products are taken on the integer parts and summed as int lists,
    over the product of the contents."""
    p, q = g.num.prim, g.den.prim
    (pn, pd), (qn, qd) = (g.num.content.as_integer_ratio(),
                          g.den.content.as_integer_ratio())
    return _poly(_add(_mul(p, _flip(q)), _mul(_flip(p), q)), pn * qn, pd * qd)


def even_part_profile(g: RationalFunction) -> Polynomial:
    """E(v) with E(w**2) = r(jw), the even-part numerator on the j-axis."""
    r = even_part_numerator(g)
    if any(r.prim[1::2]):
        raise InvariantViolation("even-part", numerator=r)
    return _new(r.content, tuple(-x if m % 2 else x
                                 for m, x in enumerate(r.prim[0::2])))


def _nonnegative_on_nonneg_axis(e: Polynomial) -> bool:
    """Whether the profile e is nonnegative on [0, oo): e(0) >= 0, a
    positive leading coefficient, and no root of odd multiplicity on
    (0, oo).  Up to degree two that last test is the closed form that
    ``real_roots`` also uses there: once c0, c2 >= 0, c0 + c1 v + c2 v^2
    changes sign on (0, oo) only at two distinct roots there, so it holds
    iff c1 >= 0 or c1^2 <= 4 c0 c2, with no chain.  Above degree two
    ``_odd_positive_root`` decides, by Descartes' rule and bisection on
    the odd-multiplicity part: a yes/no answer, with no Sturm chain."""
    if e.is_zero():
        return True
    # the content is positive, so the signs are those of the primitive part
    c = e.prim
    if c[0] < 0 or c[-1] < 0:
        return False
    if len(c) <= 3:
        c0, c1, c2 = (*c, 0, 0)[:3]
        return c1 >= 0 or c1 * c1 <= 4 * c0 * c2
    return not _odd_positive_root(c)


def _odd_part(f: Sequence[int]) -> List[int]:
    """The product of the factors of odd multiplicity of the primitive int
    list f (lc f > 0), by Yun's square-free decomposition (Yun 1976): with
    a_0 = gcd(f, f'), b_1 = f / a_0, c_1 = f' / a_0 and d_i = c_i - b_i',
    each a_i = gcd(b_i, d_i) is the product of the factors of multiplicity
    exactly i, and b_(i+1) = b_i / a_i, c_(i+1) = d_i / a_i.  Every gcd is
    ``_gcd``'s, primitive, and every quotient one of its cofactors, exact
    over Z[s].  f itself when gcd(f, f') = 1."""
    a, b, c = _gcd(f, _derivative(f))
    if len(a) == 1:
        return list(f)
    out, odd = [1], True
    while len(b) > 1:
        a, b, c = _gcd(b, _add(c, [-x for x in _derivative(b)]))
        if odd:
            out = _mul(out, a)
        odd = not odd
    return out


def _taylor_shift(a: Sequence[int]) -> List[int]:
    """a(x + 1) of the ascending int list a, by additions only."""
    a = list(a)
    for i in range(len(a) - 1):
        for j in reversed(range(i, len(a) - 1)):
            a[j] += a[j + 1]
    return a


def _odd_positive_root(c: Sequence[int]) -> bool:
    """Whether the nonzero int list c (lc c > 0) has a root of odd
    multiplicity on (0, oo): whether it changes sign there.

    The power of v comes off, and then the factors of even multiplicity
    (``_odd_part``), which leaves a square-free q with q(0) != 0 whose
    positive roots are the ones asked for.  No sign variation in q means
    no positive root.  Otherwise Cauchy's bound for positive roots, taken
    strict and as a power of two, gives k: with l the number of negative
    coefficients, 2^(k(n - i)) lc > l |q_i| for each q_i < 0, so q > 0 from
    2^k on, and p(u) = q(2^k u) has every positive root in (0, 1).
    Collins-Akritas bisection (Collins & Akritas 1976) then decides it on
    an explicit stack of polynomials, each mapping (0, 1) onto its
    interval: (1 + x)^n p(1 / (1 + x)) counts p's roots in (0, 1) by
    Descartes' rule; no variation drops the interval and one is a root;
    else the halves 2^n p(x / 2) and its Taylor shift by one are pushed,
    and a zero constant of the second is a root at the midpoint.  A
    square-free p ends in intervals of 0 or 1 variation (Vincent's
    theorem), so the loop ends; only integer shifts and additions run."""
    q = _odd_part(c[next(i for i, x in enumerate(c) if x):])
    if not _sign_variations(q):
        return False
    n, lead = len(q) - 1, q[-1]
    neg = sum(x < 0 for x in q)
    # b, the bit length of floor(l |q_i| / lc), has 2^b > l |q_i| / lc, so
    # k is the least with k (n - i) >= b for every q_i < 0
    k = max(-(-(neg * -x // lead).bit_length() // (n - i))
            for i, x in enumerate(q) if x < 0)
    todo = [[x << (i * k) for i, x in enumerate(q)]]
    while todo:
        p = todo.pop()
        v = _sign_variations(_taylor_shift(p[::-1]))
        if v == 1:
            return True
        if v:
            left = [x << (n - i) for i, x in enumerate(p)]
            right = _taylor_shift(left)
            if not right[0]:
                return True
            todo += (left, right)
    return False


def is_positive_real(g: RationalFunction) -> bool:
    """Positive-real test, exact.

    Uses the classical bilinear equivalence: g is PR iff g is identically
    zero, or num+den is strict Hurwitz and the even-part numerator is
    nonnegative along the imaginary axis.  Simplicity and positivity of the
    residues of imaginary-axis poles are implied.  The verdict is kept on
    g, so the other predicates on g and later calls do not test it again.
    """
    pr = getattr(g, "_pr", None)
    if pr is None:
        pr = g._pr = g.is_zero() or (
            strict_hurwitz(_num_plus_den(g))
            and _nonnegative_on_nonneg_axis(even_part_profile(g)))
    return pr


def _num_plus_den(g: RationalFunction) -> List[int]:
    """num + den of g as one int list over a common content: den is monic,
    so its content is 1 over its integer part's leading coefficient."""
    (n, d), lead = g.num.content.as_integer_ratio(), g.den.prim[-1]
    m = math.lcm(d, lead)
    return _add([n * (m // d) * x for x in g.num.prim],
                [m // lead * y for y in g.den.prim])


def is_lossless(g: RationalFunction) -> bool:
    return (is_positive_real(g) and not g.is_zero()
            and even_part_numerator(g).is_zero())


@dataclass(frozen=True)
class Omega:
    """A frequency w > 0 known by its square: exact when w**2 is rational,
    otherwise an open rational bracket lo < w**2 < hi."""

    omega2: Optional[Fraction]                      # exact w**2, or None
    bracket: Optional[Tuple[Fraction, Fraction]]    # None when omega2 is set

    @property
    def exact(self) -> Optional[Fraction]:
        """Exact w if rational, else None."""
        if self.omega2 is None:
            return None
        return sqrt_fraction(self.omega2)

    def __repr__(self):
        if self.omega2 is not None:
            return f"Omega(omega2={self.omega2})"
        return f"Omega({self.bracket[0]} < omega2 < {self.bracket[1]})"


def minimum_frequencies(g: RationalFunction) -> List[Omega]:
    """All w > 0 with Re(g(jw)) = 0, ascending; an irrational w**2 is
    bracketed to a width below 2**-60.

    Requires g PR and not lossless (a lossless function has zero real part
    everywhere, which NotPR also covers for the caller's purposes).
    """
    if not is_positive_real(g):
        raise NotPR("minimum frequencies are defined for PR functions")
    e = even_part_profile(g)
    if e.is_zero():
        raise NotPR("function is lossless; real part vanishes identically")
    return [Omega(r, None) if isinstance(r, Fraction) else Omega(None, r)
            for r in real_roots(e, Q(0), Fraction(1, 2**60))]


def is_minimum_function(g: RationalFunction) -> bool:
    """PR, not identically zero, no poles/zeros on jR or at infinity, not
    lossless, and the real part vanishes at some w0 > 0."""
    if not is_positive_real(g) or g.is_zero() or g.num.degree != g.den.degree:
        return False          # not PR, zero, or a pole or zero at infinity
    if _has_imaginary_axis_root(g.num) or _has_imaginary_axis_root(g.den):
        return False
    e = even_part_profile(g)
    return not e.is_zero() and count_real_roots(e, Q(0), "+inf") > 0


def _has_imaginary_axis_root(p: Polynomial) -> bool:
    c = p.prim
    if not c or c[0] == 0:
        return True
    # p(jw) = even(-w^2) + jw*odd(-w^2); common root u = -w^2 < 0 needed,
    # and u = 0 is none, as even(0) = p(0) != 0
    g = _gcd(_trimmed(c[0::2]), _trimmed(c[1::2]))[0]
    chain = _square_free_chain(g)[0] if len(g) > 1 else []
    return _variations(chain, "-inf") > _variations(chain, 0)


# ---------------------------------------------------------------------------
# Biquadratic minimum functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiquadParams:
    """Canonical parameters (K, omega0, W, F) of a biquadratic minimum
    function: K(s^2 + w0(1-W)F/W s + w0^2 W)/(s^2 + w0(1-W)/F s + w0^2/W),
    with either 0 < W < 1 and F > 0, or W > 1 and F < 0."""

    K: Fraction
    omega0: Fraction
    W: Fraction
    F: Fraction

    def __post_init__(self):
        for name in ("K", "omega0", "W", "F"):
            object.__setattr__(self, name, _as_q(getattr(self, name)))
        if self.K <= 0 or self.omega0 <= 0:
            raise ValueError("K and omega0 must be positive")
        if not ((0 < self.W < 1 and self.F > 0) or (self.W > 1 and self.F < 0)):
            raise ValueError("require 0<W<1 with F>0, or W>1 with F<0")


def biquad_template(p: BiquadParams) -> RationalFunction:
    """Expand the canonical biquadratic minimum function for p."""
    K, w0, W, F = p.K, p.omega0, p.W, p.F
    num = Polynomial([w0 * w0 * W, w0 * (1 - W) * F / W, 1]) * K
    den = Polynomial([w0 * w0 / W, w0 * (1 - W) / F, 1])
    return RationalFunction(num, den)


def biquad_params(h: RationalFunction) -> BiquadParams:
    """Recover (K, omega0, W, F) from a biquadratic minimum function.

    Raises NotMinimum / NotBiquadratic when h is not a biquadratic minimum
    function, and NotRationalParams when omega0 (hence F) is irrational.
    """
    if not is_minimum_function(h):
        raise NotMinimum("not a minimum function")
    if h.mcmillan_degree != 2:
        raise NotBiquadratic("McMillan degree is not two")
    freqs = minimum_frequencies(h)
    if len(freqs) != 1 or freqs[0].omega2 is None:
        raise NotBiquadratic("expected a single rational minimum frequency")
    v = freqs[0].omega2
    w0 = sqrt_fraction(v)
    K = h.num.leading()           # den is monic, so K = h(inf)
    W = h.num.coeff(0) / (K * v)
    if w0 is None:
        raise NotRationalParams("omega0**2 = %s is not a perfect square" % v)
    if W == 1:
        raise NotMinimum("degenerate parametrisation (W = 1)")
    F = h.num.coeff(1) * W / (K * w0 * (1 - W))
    params = BiquadParams(K, w0, W, F)
    if biquad_template(params) != h:
        raise NotBiquadratic("function does not match the biquadratic form")
    return params


# ---------------------------------------------------------------------------
# Exact elimination: the one home of determinants and solves.  One
# fraction-free loop, ``_eliminate``, runs over four rings, all on bare
# ints: Z (int entries), Z[s] and Z[x] (one trimmed ascending int list per
# element, [] as zero) and Z[j] (the Gaussian integer re + im j as
# [re, im], [re] or [], the same convention in j).  Each ring has one fused
# row step, (a p - lead b) / d with its exact-division check.  The forward
# half gives the leading minors and the determinant of one pass over Z,
# Z[s] or Z[x] (``leading_minors``: the nodal impedance's minors, the
# characteristic polynomial, the subresultants of a pair), and
# a solve adds the back half, over Z or Z[j] (``solve``).  Every answer is in the ring of
# the entries; no function here builds a Polynomial, Fraction or QComplex.
# ---------------------------------------------------------------------------

_INEXACT = "fraction-free elimination left a remainder"


def _step_int(row, top, cols, p, lead, d):
    """The row step of ``_eliminate`` over Z, in place on the columns cols
    of row: each entry a becomes (a p - lead b) / d, b the entry of the
    pivot row top in its column, or a p / d with lead None (a catch-up);
    d None stands for 1.  A remainder raises ArithmeticError, also under
    ``-O``.  It uses operators only, so any integral domain whose zero is
    falsy and whose divmod is division with remainder runs through it."""
    for j in cols:
        x = row[j] * p if lead is None else row[j] * p - lead * top[j]
        if d is not None:
            x, rem = divmod(x, d)
            if rem:
                raise ArithmeticError(_INEXACT)
        row[j] = x


def _step_poly(row, top, cols, p, lead, d):
    """``_step_int`` over Z[s] or Z[x], on trimmed ascending int lists:
    products by ``_mul`` and ``_fma``, and the division by ``_divide``,
    which scales up only where d does not divide."""
    for j in cols:
        x = (_mul(row[j], p) if lead is None or not top[j]
             else _fma([], row[j], p, lead, top[j]))
        if d is not None and x:
            x, rem, scale = _divide(x, d)
            if scale != 1 or any(rem):
                raise ArithmeticError(_INEXACT)
        row[j] = x


def _parts(z) -> Tuple[int, int]:
    """(re, im) of the Z[j] element z: [re, im], [re] or []."""
    return (z[0], z[1]) if len(z) == 2 else (z[0], 0) if z else (0, 0)


def _gauss(re: int, im: int) -> List[int]:
    """The Z[j] element re + im j: [re, im], [re] or []."""
    return [re, im] if im else [re] if re else []


def _step_gauss(row, top, cols, p, lead, d):
    """``_step_int`` over Z[j]: x / d is x conj(d) / |d|^2, and both parts
    must divide.  The parts of each entry are read inline; p, lead and d
    may be [] (zero), and a zero lead is a catch-up."""
    pr, pi = (p[0] if p else 0), (p[1] if len(p) == 2 else 0)
    if lead:
        lr, li = lead[0], (lead[1] if len(lead) == 2 else 0)
    else:
        top = None
    if d is not None:
        dr, di = (d[0] if d else 0), (d[1] if len(d) == 2 else 0)
        norm = dr * dr + di * di
    for j in cols:
        a = row[j]
        b = top[j] if top else None
        if not (a or b):
            continue
        ar, ai = (a[0] if a else 0), (a[1] if len(a) == 2 else 0)
        xr, xi = ar * pr - ai * pi, ar * pi + ai * pr
        if b:
            br, bi = b[0], (b[1] if len(b) == 2 else 0)
            xr, xi = xr - lr * br + li * bi, xi - lr * bi - li * br
        if d is not None:
            (xr, rr), (xi, ri) = (divmod(xr * dr + xi * di, norm),
                                  divmod(xi * dr - xr * di, norm))
            if rr or ri:
                raise ArithmeticError(_INEXACT)
        row[j] = [xr, xi] if xi else [xr] if xr else []


def _signed(x, sign: int):
    """x times sign = +-1 in x's ring: an int list entry by entry, any
    other entry by its own product."""
    if type(x) is list:
        return x if sign > 0 else [-c for c in x]
    return x * sign


def _eliminate(m, width, back, step):
    """Fraction-free elimination of the rows m in place (Bareiss 1968); with
    back, one-step fraction-free Gauss-Jordan (Nakos, Turner & Williams
    1997, "Fraction-free algorithms for linear and polynomial equations").

    The entries lie in one ring of this section, zero falsy, and step is
    its row step (``_step_int``, ``_step_poly`` or ``_step_gauss``).  The
    pivot p_k of each of the first width columns is its first nonzero entry
    at or below the current row.  A column with none ends a forward run,
    whose determinant is then zero, and is skipped with back.  Step k sets
    a_ij to (p_k a_ij - a_ic a_rj) / p_(k-1), p_(-1) being 1, on the rows
    below the pivot row and, with back, on the rows above it too.

    Where a_ic is zero the step would only scale the row by p_k / p_(k-1),
    so the row is skipped.  A row holds the entries of the step t it was
    last brought to; the scalings telescope, so at step k its entries are
    p_(k-1) / p_(t-1) times those.  A new pivot row is caught up by that
    factor, and a row with a_ic nonzero takes step k from its step-t
    entries, dividing by p_(t-1) in place of p_(k-1).  Only live columns
    are scaled: stale pivot-column entries are not divisible.  Returns
    (pivot columns, swap sign).  Pivot columns keep their pivots and stale
    entries that are never read; after back, every row is caught up on the
    other columns, and each pivot row holds the last pivot d as the
    coefficient of its pivot column."""
    rows = len(m)
    pivots: List[int] = []
    skipped: List[int] = []     # no pivot: zero from the current row down
    ps: list = []               # the pivot of each step so far
    at = [0] * rows             # the step each row was last brought to
    sign = 1

    def catch_up(i, cols):
        t = at[i]
        if t < len(ps):
            step(m[i], None, cols, ps[-1], None, ps[t - 1] if t else None)
            at[i] = len(ps)

    for c in range(width):
        r = len(pivots)
        if r == rows:
            break
        piv = r if m[r][c] else next(
            (i for i in range(r + 1, rows) if m[i][c]), None)
        if piv is None:
            if not back:
                break
            skipped.append(c)
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            at[r], at[piv] = at[piv], at[r]
            sign = -sign
        cols = skipped + list(range(c + 1, len(m[r])))
        catch_up(r, [c] + cols)
        top = m[r]
        p = top[c]
        for i in range(0 if back else r + 1, rows):
            row, t = m[i], at[i]
            lead = row[c]
            if i == r or not lead:
                continue
            step(row, top, cols, p, lead, ps[t - 1] if t else None)
            at[i] = r + 1
        at[r] = r + 1
        pivots.append(c)
        ps.append(p)
    if back:
        rest = [j for j in range(len(m[0]) if m else 0) if j not in pivots]
        for i in range(rows):
            catch_up(i, rest)
    return pivots, sign


def _over_lcd(xs) -> Tuple[List[int], int]:
    """(numerators, lcd) of xs over their common denominator: all-int xs as
    they are, over 1."""
    xs = list(xs)
    if all(type(x) is int for x in xs):
        return xs, 1
    xs = [_as_q(x) for x in xs]
    lcd = math.lcm(*(x.denominator for x in xs))
    return [x.numerator * (lcd // x.denominator) for x in xs], lcd


def _list_entries(m) -> bool:
    """Whether the rows m hold int lists (Z[s], Z[x] or Z[j]), not ints."""
    return bool(m and m[0]) and type(m[0][0]) is list


def _trimmed(x: Sequence[int]) -> List[int]:
    """The ascending int list x without its trailing zeros."""
    n = len(x)
    while n and not x[n - 1]:
        n -= 1
    return list(x[:n])


def leading_minors(matrix: Sequence[Sequence]) -> tuple:
    """(minors, det) of a square matrix over Z (int entries) or over Z[s]
    or Z[x] (ascending int lists; trailing zeros, as in the stamp's
    triples, are trimmed on the copy), in the ring of the entries, from one
    forward pass of ``_eliminate``.  minors are the leading principal
    minors M_1, M_2, ... up to but not including the first that is zero:
    before any row swap, the k-th Bareiss pivot is M_k (Bareiss 1968, by
    Sylvester's identity), and the loop swaps rows only at a zero pivot.
    det is the determinant, row swaps kept: the last pivot times the swap
    sign, the ring's zero (0 or []) when singular, and 1 for no rows."""
    poly = _list_entries(matrix)
    if poly:
        m = [[_trimmed(x) if any(x) else [] for x in row] for row in matrix]
    else:
        m = [list(row) for row in matrix]
    own = list(m)
    pivots, sign = _eliminate(m, len(m), False,
                              _step_poly if poly else _step_int)
    minors = []
    for k in range(len(pivots)):
        if m[k] is not own[k]:
            break
        minors.append(m[k][k])
    if len(pivots) < len(m):
        return minors, [] if poly else 0
    return minors, _signed(m[-1][-1], sign) if m else 1


def solve(rows, rhs):
    """Solve rows * X = rhs exactly: over Q(j) when the entries are Z[j]
    int lists, over Q when they are int or Fraction.

    rows is m x n and rhs is m x k (k right-hand columns).  Returns
    (d, X, basis), or None when the system is inconsistent.  Every answer
    is a numerator over d, the last pivot of the elimination (1 with no
    pivot), in the ring of the rows: a Z[j] list ([re, im], [re] or [])
    over Z[j], an int over Z.  X is the n x k solution with every free
    unknown zero, and basis spans the nullspace of rows, one vector per
    free column in column order, d at its free column.  Rows over Z[j] are
    taken as they are; each row over Q is cleared of denominators into Z.
    A caller divides by d where it fills its own type."""
    ncols = len(rows[0]) if rows else 0
    aug = [list(a) + list(b) for a, b in zip(rows, rhs)]
    if _list_entries(aug):
        step, zero, one = _step_gauss, [], [1]
    else:
        step, zero, one = _step_int, 0, 1
        aug = [_over_lcd(row)[0] for row in aug]
    pivots, _ = _eliminate(aug, ncols, True, step)
    if any(x for row in aug[len(pivots):] for x in row[ncols:]):
        return None
    d = aug[len(pivots) - 1][pivots[-1]] if pivots else one
    solution = [[zero] * len(rhs[0]) for _ in range(ncols)]
    for i, c in enumerate(pivots):
        solution[c] = aug[i][ncols:]
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        vec = [zero] * ncols
        vec[fc] = d
        for i, c in enumerate(pivots):
            vec[c] = _signed(aug[i][fc], -1)
        basis.append(vec)
    return d, solution, basis


# ---------------------------------------------------------------------------
# Subresultants and interpolation.  Every R_k of a pair is a leading minor
# of its hybrid Bezout matrix over the ring of its coefficient sequences
# (ints, or Z[x] int lists), so one pass of leading minors gives R_0(x)
# and R_1(x) as identities in x.  Interpolation reads integer points and
# answers over Z.
# ---------------------------------------------------------------------------

def _bezout_rows(p: Sequence, q: Sequence, m: int, n: int, zero) -> list:
    """Rows of the hybrid Bezout matrix of the coefficient sequences p and
    q (ascending, ints or Z[x] int lists, zero that ring's zero) at the
    degrees m >= len(p) - 1 and n >= len(q) - 1, m >= n (a_m and b_n may
    vanish), columns from x^(m-1) down to 1: s = m - n rows x^(s-1) q, ...,
    q, whose leading minors are powers of b_n, then n rows P_k = x P_(k-1)
    + a_(m-k+1) x^s q - b_(n-k+1) p, P_0 = 0 (the x^m terms cancel).  Up to
    ``_bezout_sign``, R_k is the leading (m - k) minor (Hou & Wang 2000;
    Diaz-Toca & Gonzalez-Vega 2004).  A pair with m < n is read as (q, p)."""
    if m < n:
        p, q, m, n = q, p, n, m
    s = m - n
    a = list(p) + [zero] * (m + 1 - len(p))
    b = [zero] * s + list(q) + [zero] * (n + 1 - len(q))     # x^s q

    def entry(u, x, y, v, w):                   # u + x y - v w
        return _fma(u, x, y, v, w) if type(u) is list else u + x * y - v * w
    rows = [([zero] * r + b[:s - 1:-1] + [zero] * m)[:m] for r in range(s)]
    row = [zero] * m
    for i in range(m, s, -1):                   # a_(m-k+1), b_(n-k+1)
        row = [entry(row[t - 1] if t else zero, a[i], b[t], b[i], a[t])
               for t in range(m)]
        rows.append(row[::-1])
    return rows


def _bezout_sign(m: int, n: int, k: int) -> int:
    """The sign that takes the leading j = max(m, n) - k minor of
    ``_bezout_rows`` to R_k: (-1)^((j (j - 1) + s (s - 1)) / 2) with s =
    |m - n|, times (-1)^((m - k) (n - k)) when m < n swaps p and q."""
    j, s = max(m, n) - k, abs(m - n)
    e = (j * (j - 1) + s * (s - 1)) // 2 + (m < n) * (m - k) * (n - k)
    return -1 if e % 2 else 1


def _subresultant(p: Sequence, q: Sequence, m: int, n: int, k: int, zero):
    """R_k of the coefficient sequences p and q (ascending, ints or Z[x]
    int lists, zero that ring's zero) read at the degrees m and n: the det
    of one ``leading_minors`` pass over the leading max(m, n) - k block of
    ``_bezout_rows``, times ``_bezout_sign``."""
    rows = _bezout_rows(p, q, m, n, zero)[:max(m, n) - k]
    det = leading_minors([row[:len(rows)] for row in rows])[1]
    return _signed(det, _bezout_sign(m, n, k))


def sylvester_determinant(p: Polynomial, q: Polynomial, k: int) -> Fraction:
    """Determinant R_k of the truncated Sylvester matrix of p and q, over Z:
    Bareiss on the leading max(m, n) - k block of the hybrid Bezout rows of
    the primitive parts (``_subresultant``), then its sign and the
    contents, p's to the power n - k and q's to m - k, its degrees in each
    side (m = deg p, n = deg q).

    R_0 = ... = R_{r-1} = 0 exactly when p and q share at least r roots
    (counted with multiplicity)."""
    if p.is_zero() or q.is_zero():
        raise DegreeTooSmall("polynomials must be nonzero")
    m, n = int(p.degree), int(q.degree)
    if not 0 <= k < min(m, n):
        raise DegreeTooSmall(f"require 0 <= k < min(deg p, deg q) = {min(m, n)}")
    c, e, a, b = p.content, q.content, n - k, m - k
    return Fraction(_subresultant(p.prim, q.prim, m, n, k, 0)
                    * c.numerator ** a * e.numerator ** b,
                    c.denominator ** a * e.denominator ** b)


def _sylvester_r0_r1(p: Sequence, q: Sequence) -> tuple:
    """(R_0, R_1) of the coefficient sequences p and q (ascending, over Z
    or Z[x]: ints, or trimmed int lists in a parameter x), in that ring,
    read at the degrees m = len(p) - 1 and n = len(q) - 1, from one
    ``leading_minors`` pass over ``_bezout_rows``: R_0 is its det and R_1
    its last but one leading minor, each times ``_bezout_sign``.  Over Z[x]
    they are R_0(x) and R_1(x), identities in x.  A run of minors stops
    short at a zero one; an R_1 past that is the ``_subresultant`` of the
    leading block.  A zero value is the ring's zero, 0 or [].  With
    min(m, n) < 2 there is no R_1 (DegreeTooSmall)."""
    m, n = len(p) - 1, len(q) - 1
    if min(m, n) < 2:
        raise DegreeTooSmall(f"require min(deg p, deg q) >= 2, got {m}, {n}")
    zero = [] if type(p[0]) is list else 0
    minors, r0 = leading_minors(_bezout_rows(p, q, m, n, zero))
    minors.append(zero)         # the first zero minor, if the run stops
    size = max(m, n) - 1
    r1 = (_subresultant(p, q, m, n, 1, zero) if size > len(minors)
          else _signed(minors[size - 1], _bezout_sign(m, n, 1)))
    return _signed(r0, _bezout_sign(m, n, 0)), r1


def _interpolate(xs: Sequence[int], ys: Sequence[int]) -> Tuple[List[int], int]:
    """(numerator, w) of the unique polynomial of degree < len(xs) through
    the integer points (x, y): a trimmed ascending int list over the
    positive int w.

    Lagrange form over Z (von zur Gathen & Gerhard, Modern Computer
    Algebra, ch. 5): the polynomial is sum_i y_i M(t)/((t - x_i) D_i), for
    the master polynomial M = prod (t - x_i) and D_i = prod_{k != i}
    (x_i - x_k).  With w the lcm of the D_i, one synthetic division of M by
    t - x_i per point, weighted by y_i w / D_i, sums the numerator.
    O(n^2) int operations.  A repeated x makes a D_i zero and raises
    ZeroDivisionError."""
    n = len(xs)
    master = [1]                        # ascending; times (t - xi) each step
    for xi in xs:
        master = [lo - xi * hi for lo, hi in zip([0] + master, master + [0])]
    dens = [math.prod(xi - xk for k, xk in enumerate(xs) if k != i)
            for i, xi in enumerate(xs)]
    w = math.lcm(*dens)
    acc = [0] * n
    for xi, yi, di in zip(xs, ys, dens):
        c = yi * (w // di)
        quot = 0                        # M / (t - xi), top coefficient first
        for j in range(n, 0, -1):
            quot = master[j] + xi * quot
            acc[j - 1] += c * quot
    return _trimmed(acc), w


# ---------------------------------------------------------------------------
# Text format: "poly / poly", coefficients as integers or p/q fractions
# ---------------------------------------------------------------------------

# The highest power of s a literal may name: "s^N" allocates N + 1 entries.
MAX_POWER = 1000

_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
          (?P<coef>\d+(?:/\d+|\.\d+)?)\s*\*?\s*(?P<var1>s(?:\^(?P<pow1>\d+))?)?
          |
          (?P<var2>s(?:\^(?P<pow2>\d+))?)
        )\s*""",
    re.VERBOSE,
)


def parse_poly(text: str) -> Polynomial:
    s = text.strip()
    if s.startswith("(") and s.endswith(")") and _balanced(s[1:-1]):
        s = s[1:-1].strip()
    if not s:
        raise PolyratError("empty polynomial text")
    pos = 0
    terms = {}
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise PolyratError(f"cannot parse polynomial near {s[pos:]!r}")
        sign = m.group("sign")
        if sign is None and not first:
            raise PolyratError(f"missing sign before {s[pos:]!r}")
        try:
            coef = Fraction(m.group("coef") or 1)
            var = m.group("var1") or m.group("var2")
            power = int(m.group("pow1") or m.group("pow2") or 1) if var else 0
        except ZeroDivisionError:
            raise PolyratError(
                f"zero denominator in {m.group('coef')!r}") from None
        except ValueError:          # more digits than int() converts
            raise PolyratError(
                f"too many digits near {s[pos:pos + 20]!r}") from None
        if power > MAX_POWER:
            raise PolyratError(
                f"power above s^{MAX_POWER} near {s[pos:pos + 20]!r}")
        if sign == "-":
            coef = -coef
        terms[power] = terms.get(power, Q(0)) + coef
        pos = m.end()
        first = False
    deg = max(terms)
    return Polynomial([terms.get(k, Q(0)) for k in range(deg + 1)])


def _balanced(s: str) -> bool:
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def parse_ratfunc(text: str) -> RationalFunction:
    """Parse "poly / poly" (parenthesised or bare) or a single polynomial.

    A coefficient like 1/2 never splits the function: only a top-level '/'
    adjacent to a parenthesis, or the unique '/' of the string, divides
    numerator from denominator.
    """
    s = text.strip()
    depth = 0
    candidates = []
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            candidates.append(i)
    for i in candidates:
        left, right = s[:i], s[i + 1:]
        if not (left.rstrip().endswith(")") or right.lstrip().startswith("(")
                or len(candidates) == 1):
            continue
        try:
            num, den = parse_poly(left), parse_poly(right)
        except PolyratError:
            continue
        return RationalFunction(num, den)        # ZeroDenominator if den == 0
    return RationalFunction(parse_poly(s))


def format_poly(p: Polynomial) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for k in range(int(p.degree), -1, -1):
        c = p.coeff(k)
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "s" if k == 1 else f"s^{k}"
            body = var if mag == 1 else f"{mag} {var}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def format_ratfunc(f: RationalFunction) -> str:
    if f.den == ONE:
        return format_poly(f.num)
    return f"({format_poly(f.num)}) / ({format_poly(f.den)})"
