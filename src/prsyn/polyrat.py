"""Exact polynomial and rational-function algebra over the rationals.

Everything here is exact: coefficients are ``fractions.Fraction``, equality
is true equality, and the positive-real / minimum-function predicates are
decided with Routh's test and Sturm chains, run as remainder sequences
over Z[s], rather than numerical root finding.  Values at s = j*w are ``QComplex`` numbers with rational parts.
Real roots come from one exact isolator, ``real_roots``: a rational root is
a Fraction and an irrational one an open interval with rational ends, so a
minimum frequency whose square is irrational is kept as such a bracket.
No computation here uses floating point.
"""

from __future__ import annotations

import math
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
    """Univariate polynomial with exact rational coefficients.

    Coefficients are stored ascending by degree with no trailing zeros; the
    zero polynomial stores an empty tuple and reports degree -inf.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):  # ascending degree
        cs = [_as_q(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- structure -------------------------------------------------------------
    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Q(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic -------------------------------------------------------------
    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self.coeff(k) + other.coeff(k) for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = _as_q(other)
            return Polynomial([c * q for c in self.coeffs])
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [Q(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = _as_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dd = len(rem) - 1, other.degree
        if dn < dd:
            return Polynomial(), self
        quot = [Q(0)] * (dn - dd + 1)
        lead = other.leading()
        for k in range(dn - dd, -1, -1):
            c = rem[dd + k] / lead
            quot[k] = c
            if c != 0:
                for j, b in enumerate(other.coeffs):
                    rem[j + k] -= c * b
        return Polynomial(quot), Polynomial(rem[:dd])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, n: int):
        out = Polynomial([1])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lead = self.leading()
        return Polynomial([c / lead for c in self.coeffs])

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def gcd(self, other: "Polynomial") -> "Polynomial":
        """The monic gcd (zero for two zeros) by the primitive remainder
        sequence over Z[s] (Collins 1967; Knuth, TAOCP vol. 2, 4.6.1)."""
        a, b = _ZPoly.cleared(self), _ZPoly.cleared(_as_poly(other))
        while b:
            a, b = b, a.prem(b)
        return Polynomial(a.c).monic()

    def square_free_part(self) -> "Polynomial":
        if self.degree < 1:
            return self.monic() if not self.is_zero() else self
        return (self // self.gcd(self.derivative())).monic()

    def __call__(self, x):
        """Horner evaluation; works for Fraction and QComplex."""
        acc = x * 0  # typed zero so constants adopt the argument's type
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_jomega(self, omega2: Fraction) -> Tuple[Fraction, Fraction]:
        """Evaluate at s = j*w0 where w0**2 = omega2 (rational, > 0).

        Returns (a, b) with p(j*w0) = a + j*b*w0, both exact rationals.
        """
        omega2 = _as_q(omega2)
        a = b = Q(0)
        power = Q(1)  # (-omega2)**m
        for m in range(0, len(self.coeffs), 2):
            a += self.coeffs[m] * power
            if m + 1 < len(self.coeffs):
                b += self.coeffs[m + 1] * power
            power *= -omega2
        return a, b

    def flip_sign(self) -> "Polynomial":
        """p(-s)."""
        return Polynomial([c if k % 2 == 0 else -c
                           for k, c in enumerate(self.coeffs)])

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        return format_poly(self)


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
    """Coprime quotient of two Polynomials with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=ONE):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        if num.is_zero():
            object.__setattr__(self, "num", ZERO)
            object.__setattr__(self, "den", ONE)
            return
        g = num.gcd(den)
        if g.degree >= 1:
            num, den = num // g, den // g
        lead = den.leading()
        object.__setattr__(self, "num", num * (1 / lead))
        object.__setattr__(self, "den", den * (1 / lead))

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
            out = [Q(0)] * (dmax + 1)
            power = Q(1)
            for k, c in enumerate(p.coeffs):
                out[dmax - k] = c * power
                power *= omega2
            return Polynomial(out)

        return RationalFunction(rev(self.num), rev(self.den))

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self):
        return format_ratfunc(self)


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
# Sturm chains and root machinery
# ---------------------------------------------------------------------------

def sturm_chain(p: Polynomial) -> List[Polynomial]:
    """Sturm chain of p as a primitive PRS over Z[s] (Brown & Traub 1971):
    prem(a, b) is lc(b)^(d+1) times the remainder, d = deg a - deg b, so
    negating it when that power is positive makes each member a positive
    multiple of the chain p, p', -rem(p, p'), ... with the same signs."""
    chain = [_ZPoly.cleared(p), _ZPoly.cleared(p.derivative())]
    while chain[-1]:
        a, b = chain[-2], chain[-1]
        flip = b.c[-1] > 0 or (len(a.c) - len(b.c)) % 2
        chain.append(a.prem(b) * (-1 if flip else 1))
    chain.pop()
    return [Polynomial(z.c) for z in chain]


def _sign_at(p: Polynomial, x) -> int:
    if x == "+inf":
        return 0 if p.is_zero() else (1 if p.leading() > 0 else -1)
    if x == "-inf":
        if p.is_zero():
            return 0
        lead = p.leading()
        s = 1 if lead > 0 else -1
        return s if int(p.degree) % 2 == 0 else -s
    v = p(_as_q(x))
    return 0 if v == 0 else (1 if v > 0 else -1)


def _variations(chain: Sequence[Polynomial], x) -> int:
    signs = [s for s in (_sign_at(p, x) for p in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p: Polynomial, a="-inf", b="+inf") -> int:
    """Distinct real roots of p in the half-open interval (a, b]."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    p = p.square_free_part()
    if p.degree < 1:
        return 0
    chain = sturm_chain(p)
    return _variations(chain, a) - _variations(chain, b)


def real_roots(p: Polynomial, lo=None,
               width=None) -> List[Union[Fraction, Tuple[Fraction, Fraction]]]:
    """The distinct real roots of p above lo (all of them when lo is None),
    ascending: a Fraction for a rational root, an open interval (a, b) with
    rational ends for an irrational one, narrower than width when given.

    Degrees one and two with rational roots take closed forms.  Otherwise
    Sturm bisection isolates each root of the square-free part in an
    interval (a, b] and refines it below min(width, 1/L^2), L the leading
    coefficient with denominators cleared.  A rational root's denominator
    divides L and two distinct fractions with denominators <= L lie at
    least 1/L^2 apart, so the only candidate is the fraction nearest the
    midpoint with denominator <= L, and it is tested exactly."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    if p.degree > 2:
        p = p.square_free_part()
    cs = p.coeffs
    roots = None
    if len(cs) <= 2:
        roots = [-cs[0] / cs[1]] if len(cs) == 2 else []
    elif len(cs) == 3:
        c0, c1, c2 = cs
        disc = c1 * c1 - 4 * c2 * c0
        root = sqrt_fraction(disc)
        if root is not None:
            roots = sorted({(-c1 + root) / (2 * c2), (-c1 - root) / (2 * c2)})
        elif disc < 0:
            roots = []
    if roots is not None:
        return [r for r in roots if lo is None or r > lo]
    chain = sturm_chain(p)
    lead = abs(cs[-1]) * math.lcm(*(c.denominator for c in cs))
    fine = Fraction(1, lead * lead)
    if width is not None:
        fine = min(fine, _as_q(width))
    bound = 1 + max(abs(c) for c in cs) / abs(cs[-1])
    a = -bound if lo is None else _as_q(lo)
    if a >= bound:
        return []
    # (a, V(a), b, V(b)) with V(a) - V(b) roots in (a, b]; left half on top
    todo = [(a, _variations(chain, a), bound, _variations(chain, bound))]
    out: List[Union[Fraction, Tuple[Fraction, Fraction]]] = []
    while todo:
        a, va, b, vb = todo.pop()
        if va - vb > 1 or va - vb == 1 and b - a >= fine:
            m = (a + b) / 2
            vm = _variations(chain, m)
            if vm > vb:
                todo.append((m, vm, b, vb))
            if va > vm:
                todo.append((a, va, m, vm))
        elif va - vb == 1:
            c = ((a + b) / 2).limit_denominator(lead)
            out.append(c if a < c <= b and p(c) == 0 else (a, b))
    return out


def strict_hurwitz(p: Polynomial) -> bool:
    """True iff all roots of p lie in the open left half-plane.

    Routh's test: with lc p > 0, the rows of the Routh array are the
    remainders of Euclid on f, the terms of p of the parity of its degree,
    and g, the others; p is strict Hurwitz iff they drop one degree at a
    time, all with positive leading coefficients.  The primitive PRS over
    Z[s] gives positive multiples of the rows while those stay positive."""
    if p.is_zero():
        return False
    c = _ZPoly.cleared(p if p.leading() > 0 else -p).c
    n = len(c) - 1
    f, g = (_ZPoly([x if k % 2 == r else 0 for k, x in enumerate(c)])
            for r in (n % 2, 1 - n % 2))
    while len(f.c) > 1:
        if len(g.c) != len(f.c) - 1 or g.c[-1] <= 0:
            return False
        f, g = g, f.prem(g)
    return True


def even_part_numerator(g: RationalFunction) -> Polynomial:
    """r(s) = p(s)q(-s) + p(-s)q(s); 2*Re(g(jw)) = r(jw)/|q(jw)|^2."""
    p, q = g.num, g.den
    return p * q.flip_sign() + p.flip_sign() * q


def even_part_profile(g: RationalFunction) -> Polynomial:
    """E(v) with E(w**2) = r(jw), the even-part numerator on the j-axis."""
    r = even_part_numerator(g)
    out = []
    for k in range(0, len(r.coeffs), 2):
        if k + 1 < len(r.coeffs) and r.coeffs[k + 1] != 0:
            raise AssertionError("even-part numerator must be even")
        out.append(r.coeffs[k] * (-1) ** (k // 2))
    return Polynomial(out)


def _nonnegative_on_nonneg_axis(e: Polynomial) -> bool:
    if e.is_zero():
        return True
    if e(Q(0)) < 0 or e.leading() < 0:
        return False
    # no sign change on (0, oo): odd-multiplicity roots must be absent
    # there; the odd part is square-free, so its Sturm chain counts them
    chain = sturm_chain(_odd_multiplicity_part(e))
    return _variations(chain, Q(0)) == _variations(chain, "+inf")


def _odd_multiplicity_part(p: Polynomial) -> Polynomial:
    """Product of the irreducible factors of p of odd multiplicity.

    With g = gcd(p, p') and s = p/g: a factor has odd multiplicity in p
    exactly when it divides s but has even multiplicity in g (possibly 0).
    """
    p = p.monic()
    if p.degree < 1:
        return ONE
    g = p.gcd(p.derivative())
    if g.degree < 1:
        return p
    s = (p // g).monic()
    odd_g = _odd_multiplicity_part(g)
    return (s // s.gcd(odd_g)).monic()


def is_positive_real(g: RationalFunction) -> bool:
    """Positive-real test, exact.

    Uses the classical bilinear equivalence: g is PR iff g is identically
    zero, or num+den is strict Hurwitz and the even-part numerator is
    nonnegative along the imaginary axis.  Simplicity and positivity of the
    residues of imaginary-axis poles are implied.
    """
    if g.is_zero():
        return True
    return (strict_hurwitz(g.num + g.den)
            and _nonnegative_on_nonneg_axis(even_part_profile(g)))


def is_lossless(g: RationalFunction) -> bool:
    return is_positive_real(g) and _lossless_if_pr(g)


def _lossless_if_pr(g: RationalFunction) -> bool:
    return not g.is_zero() and even_part_numerator(g).is_zero()


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
    return _minimum_frequencies_if_pr(g)


def _minimum_frequencies_if_pr(g: RationalFunction) -> List[Omega]:
    e = even_part_profile(g)
    if e.is_zero():
        raise NotPR("function is lossless; real part vanishes identically")
    return [Omega(r, None) if isinstance(r, Fraction) else Omega(None, r)
            for r in real_roots(e, Q(0), Fraction(1, 2**60))]


def is_minimum_function(g: RationalFunction) -> bool:
    """PR, not identically zero, no poles/zeros on jR or at infinity, not
    lossless, and the real part vanishes at some w0 > 0."""
    return is_positive_real(g) and _minimum_if_pr(g)


def _minimum_if_pr(g: RationalFunction) -> bool:
    if g.is_zero() or g.num.degree != g.den.degree:
        return False          # zero, or a pole or zero at infinity
    if _has_imaginary_axis_root(g.num) or _has_imaginary_axis_root(g.den):
        return False
    e = even_part_profile(g)
    return not e.is_zero() and count_real_roots(e, Q(0), "+inf") > 0


def _has_imaginary_axis_root(p: Polynomial) -> bool:
    if p.is_zero() or p(Q(0)) == 0:
        return True
    even = Polynomial(p.coeffs[0::2])
    odd = Polynomial(p.coeffs[1::2])
    g = even.gcd(odd)
    if g.degree < 1:
        return False
    # p(jw) = even(-w^2) + jw*odd(-w^2); common root u = -w^2 < 0 needed
    return count_real_roots(g, "-inf", Q(0)) > 0


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
    freqs = _minimum_frequencies_if_pr(h)
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
# Exact elimination: the one home of determinants, solves and Sylvester rows
# ---------------------------------------------------------------------------

class _ZPoly:
    """Element of Z[s] for Bareiss and the PRS: ascending int coefficients
    with no trailing zeros.  Multiplies by an int or a _ZPoly; its divmod
    is exact division, with a nonzero remainder when that fails."""

    __slots__ = ("c",)

    def __init__(self, c: List[int]):
        while c and not c[-1]:
            c.pop()
        self.c = c

    @classmethod
    def primitive(cls, c: List[int]) -> "_ZPoly":
        """The ints c divided by their content, their gcd."""
        g = math.gcd(*c)
        return cls([x // g for x in c] if g > 1 else c)

    @classmethod
    def cleared(cls, p: Polynomial) -> "_ZPoly":
        """The primitive positive integer multiple of p."""
        m = math.lcm(*(c.denominator for c in p.coeffs))
        return cls.primitive([c.numerator * (m // c.denominator)
                              for c in p.coeffs])

    def prem(self, other: "_ZPoly") -> "_ZPoly":
        """Primitive part of the pseudo-remainder lc(other)^(d+1) * self
        mod other, d = deg self - deg other >= 0 (of self when d < 0)."""
        r, d = list(self.c), other.c
        lead, n = d[-1], len(d) - 1
        for k in reversed(range(len(r) - n)):
            q = r.pop()                     # coefficient of s^(k+n)
            r = [x * lead for x in r]
            for j, y in enumerate(d[:-1], k):
                r[j] -= q * y
        return _ZPoly.primitive(r)

    def __bool__(self):
        return bool(self.c)

    def __mul__(self, other):
        if isinstance(other, int):
            return _ZPoly([x * other for x in self.c])
        out = [0] * (len(self.c) + len(other.c))
        for i, x in enumerate(self.c):
            for j, y in enumerate(other.c, i):
                out[j] += x * y
        return _ZPoly(out)

    def __sub__(self, other):
        return _ZPoly([x - y for x, y in zip_longest(self.c, other.c,
                                                     fillvalue=0)])

    def __divmod__(self, other):
        rem, d = list(self.c), other.c
        quot = [0] * max(len(rem) - len(d) + 1, 0)
        for k in reversed(range(len(quot))):
            q = quot[k] = rem[k + len(d) - 1] // d[-1]
            for j, y in enumerate(d, k):
                rem[j] -= q * y
        return _ZPoly(quot), _ZPoly(rem)


def _bareiss(m):
    """Determinant of the square matrix m by fraction-free elimination
    (Bareiss 1968, Sylvester's identity), overwriting m.

    Works over any exact ring whose entries are falsy at zero and whose
    divmod is exact division with remainder: here int (``det_bareiss``)
    and Z[s] as ``_ZPoly`` (``det_poly``).  The pivot of each column is
    the first nonzero entry at or below the diagonal.  The empty matrix
    has determinant 1."""
    n = len(m)
    sign = 1
    prev = None                 # the previous pivot; no division at step 0
    for col in range(n - 1):
        if not m[col][col]:
            swap = next((r for r in range(col + 1, n) if m[r][col]), None)
            if swap is None:
                return m[col][col]          # the ring's zero
            m[col], m[swap] = m[swap], m[col]
            sign = -sign
        top = m[col]
        pivot = top[col]
        for r in range(col + 1, n):
            row = m[r]
            lead = row[col]
            for c in range(col + 1, n):
                x = row[c] * pivot - lead * top[c]
                if prev is not None:
                    x, rem = divmod(x, prev)
                    assert not rem, "Bareiss division must be exact"
                row[c] = x
        prev = pivot
    return m[n - 1][n - 1] * sign if n else 1


def _integer_rows(matrix, coeffs):
    """matrix with each row times the lcm of its coefficient denominators,
    and the product of those multipliers.  coeffs(x) gives the Fractions of
    entry x, which becomes the list of their scaled integers."""
    rows = [[coeffs(x) for x in row] for row in matrix]
    mults = [math.lcm(*(c.denominator for x in row for c in x)) for row in rows]
    return ([[[c.numerator * (m // c.denominator) for c in x] for x in row]
             for row, m in zip(rows, mults)], math.prod(mults))


def det_bareiss(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant via integer Bareiss after clearing row denominators."""
    rows, scale = _integer_rows(matrix, lambda x: (_as_q(x),))
    return Fraction(_bareiss([[x[0] for x in row] for row in rows]), scale)


def det_poly(matrix: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Exact determinant over Q[s]: Bareiss over Z[s] after clearing row
    denominators (Gauss's lemma), divided by the product of the multipliers."""
    rows, scale = _integer_rows(matrix, lambda p: p.coeffs)
    d = _bareiss([[_ZPoly(x) for x in row] for row in rows])
    return Polynomial(Fraction(c, scale) for c in d.c) if rows else ONE


def _gauss_jordan(rows, rhs, zero, is_zero):
    """Solve rows * X = rhs by Gauss-Jordan elimination over a field.

    rows is m x n and rhs is m x k (k right-hand columns).  Returns
    (X, basis): X is the n x k solution with every free unknown zero and
    basis spans the nullspace of rows, one vector per free column in column
    order; or None when the system is inconsistent.  The pivot of each
    column is the first row at or below the current one whose entry is not
    is_zero.  Works for Fraction and QComplex.

    The update is sparse: each step touches only the pivot row's nonzero
    columns (entries left of the pivot column are already zero), so an
    entry that would change by f * 0 is never rewritten."""
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    aug = [list(rows[r]) + list(rhs[r]) for r in range(m)]
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        piv = None
        for rr in range(r, m):
            if not is_zero(aug[rr][c]):
                piv = rr
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        top = aug[r]
        pv = top[c]
        nz = [j for j in range(c, len(top)) if not is_zero(top[j])]
        for j in nz:
            top[j] = top[j] / pv
        for rr in range(m):
            row = aug[rr]
            if rr != r and not is_zero(row[c]):
                f = row[c]
                for j in nz:
                    row[j] = row[j] - f * top[j]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for rr in range(r, m):
        if not all(is_zero(x) for x in aug[rr][ncols:]):
            return None
    solution = [[zero] * len(rhs[0]) for _ in range(ncols)]
    for i, c in enumerate(pivots):
        solution[c] = aug[i][ncols:]
    basis = []
    pivot_set = set(pivots)
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [zero] * ncols
        vec[fc] = zero + 1
        for i, c in enumerate(pivots):
            vec[c] = -aug[i][fc]
        basis.append(vec)
    return solution, basis


def _sylvester_rows(p: Polynomial, q: Polynomial, m: int, n: int,
                    k: int) -> List[List[Fraction]]:
    """Rows of the k-th truncated Sylvester matrix of p and q, read at the
    degrees m >= deg p and n >= deg q (leading coefficients may vanish)."""
    pdesc = [p.coeff(m - i) for i in range(m + 1)]
    qdesc = [q.coeff(n - i) for i in range(n + 1)]
    size = m + n - 2 * k
    return ([[pdesc[j - i] if 0 <= j - i <= m else Q(0) for j in range(size)]
             for i in range(n - k)]
            + [[qdesc[j - i] if 0 <= j - i <= n else Q(0) for j in range(size)]
               for i in range(m - k)])


def sylvester_matrix(p: Polynomial, q: Polynomial, k: int) -> List[List[Fraction]]:
    if p.is_zero() or q.is_zero():
        raise DegreeTooSmall("polynomials must be nonzero")
    m, n = int(p.degree), int(q.degree)
    if not 0 <= k < min(m, n):
        raise DegreeTooSmall(f"require 0 <= k < min(deg p, deg q) = {min(m, n)}")
    return _sylvester_rows(p, q, m, n, k)


def sylvester_determinant(p: Polynomial, q: Polynomial, k: int) -> Fraction:
    """Determinant R_k of the truncated Sylvester matrix of p and q.

    R_0 = ... = R_{r-1} = 0 exactly when p and q share at least r roots
    (counted with multiplicity)."""
    return det_bareiss(sylvester_matrix(p, q, k))


def _interpolate(xs: Sequence[Fraction], ys: Sequence[Fraction]) -> Polynomial:
    """The unique polynomial of degree < len(xs) through the points (x, y).

    Newton form (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 5):
    divided differences c, then Horner expansion of c0 + (s - x0)(c1 +
    (s - x1)(c2 + ...)) into ascending coefficients; O(n^2) Fraction
    operations.  A repeated x raises ZeroDivisionError."""
    c = [_as_q(y) for y in ys]
    for j in range(1, len(c)):
        for i in range(len(c) - 1, j - 1, -1):
            c[i] = (c[i] - c[i - 1]) / (xs[i] - xs[i - j])
    out: List[Fraction] = []
    for ci, xi in zip(reversed(c), reversed(xs)):
        # out <- out * (s - xi) + ci; the first step multiplies zero
        out = [a - xi * b for a, b in zip([Q(0)] + out, out + [Q(0)])]
        out[0] += ci
    return Polynomial(out)


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
