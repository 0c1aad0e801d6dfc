"""Exact algebra layer: reduction, predicates, parameters, resultants."""

import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prsyn.polyrat import (BiquadParams, DegreeTooSmall, InvariantViolation,
                           NotBiquadratic, NotMinimum, Polynomial, Q, QComplex,
                           RationalFunction, ZeroDenominator,
                           _gauss, _interpolate, _subresultant,
                           _sylvester_r0_r1,
                           biquad_params, biquad_template, count_real_roots,
                           even_part_profile, eval_ratfunc, format_poly,
                           format_ratfunc,
                           is_lossless, is_minimum_function, is_positive_real,
                           leading_minors, minimum_frequencies, parse_poly, parse_ratfunc,
                           real_roots, reduce, solve, strict_hurwitz,
                           sturm_chain,
                           sylvester_determinant,
                           PoleAtPoint, _poly)

from conftest import (count_real_roots_reference, dense_gauss_jordan,
                      gcd_prs_reference, is_positive_real_reference,
                      leading_minors_over_q, odd_multiplicity_reference,
                      real_roots_reference, reduce_reference,
                      variations_reference)

S = Polynomial([0, 1])


def long_division_oracle(num, den):
    """Brute-force check that q*den + r == num with deg r < deg den."""
    q, r = divmod(num, den)
    assert q * den + r == num
    return q, r


def permutation_determinant(m):
    n = len(m)
    total = Q(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        p = list(perm)
        for i in range(n):
            while p[i] != i:
                j = p[i]
                p[i], p[j] = p[j], p[i]
                sign = -sign
        prod = Q(1)
        for i, j in enumerate(perm):
            prod *= m[i][j]
        total += sign * prod
    return total


def q_bareiss_reference(m):
    """Reference: the Bareiss loop run directly over Q[s] on the
    Fraction-tuple FractionPolynomial, each exact division a Fraction long
    division checked to leave no remainder; returns the coefficient tuple."""
    m = [[FractionPolynomial(x.coeffs) for x in row] for row in m]
    n = len(m)
    sign = 1
    prev = None
    for col in range(n - 1):
        if m[col][col].is_zero():
            swap = next((r for r in range(col + 1, n)
                         if not m[r][col].is_zero()), None)
            if swap is None:
                return ()
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
                    assert rem.is_zero()
                row[c] = x
        prev = pivot
    return (m[n - 1][n - 1] * sign).coeffs if n else (Q(1),)


def leading_minors_reference(m):
    # each M_k from its own k x k block, up to the first zero
    out = []
    for k in range(1, len(m) + 1):
        minor = q_bareiss_reference([row[:k] for row in m[:k]])
        if minor == ():
            break
        out.append(minor)
    return out


class Counted:
    """An int ring that counts its divisions with remainder."""
    divmods = 0

    def __init__(self, v):
        self.v = v

    def __mul__(self, other):
        return Counted(self.v * getattr(other, "v", other))

    def __sub__(self, other):
        return Counted(self.v - other.v)

    def __bool__(self):
        return self.v != 0

    def __divmod__(self, other):
        Counted.divmods += 1
        q, r = divmod(self.v, other.v)
        return Counted(q), Counted(r)


def counted(rows):
    return [[Counted(v) for v in row] for row in rows]


class TestReduce:
    def test_common_linear_factor(self):
        assert reduce(parse_poly("s^2 - 1"), parse_poly("s - 1")) == \
            RationalFunction(parse_poly("s + 1"))

    def test_constant_scaling(self):
        assert reduce(Polynomial([0, 2]), Polynomial([2])) == RationalFunction(S)

    def test_exact_division_case(self):
        # oracle first: s^2 + 1 divides s^3 + s with quotient s
        q, r = long_division_oracle(parse_poly("s^3 + s"), parse_poly("s^2 + 1"))
        assert r.is_zero() and q == S
        assert reduce(parse_poly("s^3 + s"), parse_poly("s^2 + 1")) == \
            RationalFunction(S)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            reduce(Polynomial([1]), Polynomial())

    def test_canonicalization_is_congruence(self, rng):
        for _ in range(50):
            f = RationalFunction(
                Polynomial([rng.randint(-5, 5) for _ in range(3)] + [1]),
                Polynomial([rng.randint(-5, 5) for _ in range(2)] + [1]))
            g = Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
                           + [rng.randint(1, 4)])
            assert reduce(f.num * g, f.den * g) == f


class TestEval:
    def test_identity_at_j(self):
        assert eval_ratfunc(RationalFunction(S), QComplex(0, 1)) == QComplex(0, 1)

    def test_reciprocal_at_j(self):
        f = RationalFunction(Polynomial([1]), S)
        assert eval_ratfunc(f, QComplex(0, 1)) == QComplex(0, -1)

    def test_template_value_at_minimum_frequency(self):
        h = biquad_template(BiquadParams(1, 1, Q(2, 3), 1))
        assert eval_ratfunc(h, QComplex(0, 1)) == QComplex(0, 1)

    def test_pole_detection(self):
        f = RationalFunction(Polynomial([1]), S)
        with pytest.raises(PoleAtPoint):
            eval_ratfunc(f, QComplex(0, 0))

    def test_compose_winv_of_zero_and_constants(self):
        zero = RationalFunction(0)
        assert zero.compose_winv(1) == zero
        assert zero.compose_winv(Q(9, 4)) == zero
        assert RationalFunction(3).compose_winv(Q(1, 2)) == 3


class TestPositiveReal:
    def test_inductor(self):
        assert is_positive_real(RationalFunction(S))

    def test_shifted_line_fails(self):
        assert not is_positive_real(parse_ratfunc("s - 1"))

    def test_worked_biquadratic(self):
        assert is_positive_real(parse_ratfunc("(s^2+1/2 s+2/3)/(s^2+1/3 s+3/2)"))

    def test_zero_function_degenerate_pr(self):
        assert is_positive_real(RationalFunction(Polynomial()))
        assert not is_minimum_function(RationalFunction(Polynomial()))

    def test_negative_residue_rejected(self):
        assert not is_positive_real(parse_ratfunc("(s^2+2)/(s^3+s)"))

    def test_odd_even_part_raises_the_even_part_law(self, monkeypatch):
        # p(s) q(-s) + p(-s) q(s) is even; were it not, the profile in w^2
        # would be wrong, so the PR test raises instead of answering
        import prsyn.polyrat as polyrat
        monkeypatch.setattr(polyrat, "even_part_numerator",
                            lambda g: parse_poly("s^3 + 1"))
        with pytest.raises(InvariantViolation) as exc:
            is_positive_real(parse_ratfunc("1/(s+1)"))
        assert exc.value.law == "even-part"
        assert exc.value.context["numerator"] == parse_poly("s^3 + 1")

    def test_hurwitz_infrastructure(self):
        assert strict_hurwitz(parse_poly("s^2 + s + 1").prim)
        assert not strict_hurwitz(parse_poly("s^3 + s^2 + s + 1").prim)
        assert not strict_hurwitz(parse_poly("s^3 + s^2 + 2 s + 2").prim)
        assert not strict_hurwitz([])


class TestLossless:
    def test_inductor(self):
        assert is_lossless(RationalFunction(S))

    def test_resistor_is_not(self):
        assert not is_lossless(parse_ratfunc("1"))

    def test_lc_tank_even_part_cancels(self):
        # oracle: p(s)q(-s) + p(-s)q(s) expands to zero
        p, q = parse_poly("s^2 + 1"), S
        r = p * q.flip_sign() + p.flip_sign() * q
        assert r.is_zero()
        assert is_lossless(RationalFunction(p, q))


class TestMinimumFrequencies:
    def test_template_single_frequency(self):
        h = biquad_template(BiquadParams(1, 1, Q(2, 3), 1))
        freqs = minimum_frequencies(h)
        assert len(freqs) == 1 and freqs[0].omega2 == 1 and freqs[0].exact == 1

    def test_strictly_dissipative_has_none(self):
        assert minimum_frequencies(parse_ratfunc("s + 1")) == []

    def test_scale_substitution(self):
        # derived by s -> s/2 from the omega0 = 1 case
        h = biquad_template(BiquadParams(1, 2, Q(2, 3), 1))
        freqs = minimum_frequencies(h)
        assert len(freqs) == 1 and freqs[0].omega2 == 4 and freqs[0].exact == 2

    def test_every_valid_params_has_one_frequency(self, rng):
        for _ in range(60):
            W = Fraction(rng.randint(1, 9), 10)
            p = BiquadParams(Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                             Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                             W if W != 1 else Q(1, 2),
                             Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            freqs = minimum_frequencies(biquad_template(p))
            assert [w.omega2 for w in freqs] == [p.omega0 ** 2]


class TestMinimumFunction:
    def test_worked_example(self):
        assert is_minimum_function(parse_ratfunc("(s^2+1/2 s+2/3)/(s^2+1/3 s+3/2)"))

    def test_constant_is_not(self):
        assert not is_minimum_function(parse_ratfunc("1"))

    def test_pole_at_infinity_rejected(self):
        assert not is_minimum_function(parse_ratfunc("(s^2+s+1)/(s+1)"))

    def test_zero_or_pole_at_origin_rejected(self):
        # 1/(1/(2s) + Y) with Y a minimum function: PR, of equal degrees,
        # no other root on the imaginary axis, and its real part still
        # vanishes at omega0 = 1, but it has a zero at s = 0, and its
        # reciprocal a pole there
        y = biquad_template(BiquadParams(1, 1, Q(1, 2), 1))
        z = (RationalFunction(Polynomial([1]), 2 * S) + y).reciprocal()
        for h in (z, z.reciprocal()):
            assert is_positive_real(h) and h.num.degree == h.den.degree
            assert count_real_roots(even_part_profile(h), Q(0), "+inf") > 0
            assert not is_minimum_function(h)


    def test_zero_or_pole_on_the_imaginary_axis_rejected(self):
        # Y + 2s/(s^2 + 4) with Y a minimum function: PR, of equal degrees,
        # and its real part still vanishes at omega0 = 1, but it has a pole
        # at s = 2j, and its reciprocal a zero there; a gcd of the even and
        # odd parts with a root u = -w^2 < 0 finds them.  (s^2 + 1)/(s^2 +
        # s + 1) has a zero at s = j and an odd part of zero
        y = biquad_template(BiquadParams(1, 1, Q(1, 2), 1))
        z = y + RationalFunction(2 * S, Polynomial([4, 0, 1]))
        w = parse_ratfunc("(s^2+1)/(s^2+s+1)")
        for h in (z, z.reciprocal(), w, w.reciprocal()):
            assert is_positive_real(h) and h.num.degree == h.den.degree
            assert count_real_roots(even_part_profile(h), Q(0), "+inf") > 0
            assert not is_minimum_function(h)

class TestBiquadParams:
    def test_worked_example(self):
        p = biquad_params(parse_ratfunc("(s^2+1/2 s+2/3)/(s^2+1/3 s+3/2)"))
        assert p == BiquadParams(1, 1, Q(2, 3), 1)

    def test_half_case(self):
        # derived by expanding the canonical form at (1, 1, 1/2, 1)
        expanded = biquad_template(BiquadParams(1, 1, Q(1, 2), 1))
        assert expanded == parse_ratfunc("(s^2+s+1/2)/(s^2+1/2 s+2)")
        assert biquad_params(expanded) == BiquadParams(1, 1, Q(1, 2), 1)

    def test_constant_rejected(self):
        with pytest.raises(NotMinimum):
            biquad_params(parse_ratfunc("3"))

    def test_degree_three_rejected(self):
        h = biquad_template(BiquadParams(1, 1, Q(2, 3), 1)) + RationalFunction(S)
        with pytest.raises((NotMinimum, NotBiquadratic)):
            biquad_params(h)

    def test_roundtrip_thousand_random_tuples(self):
        rng = random.Random(7)
        for _ in range(1000):
            if rng.random() < 0.5:
                W = Fraction(rng.randint(1, 99), 100)
                F = Fraction(rng.randint(1, 30), rng.randint(1, 30))
            else:
                W = 1 + Fraction(rng.randint(1, 300), 100)
                F = -Fraction(rng.randint(1, 30), rng.randint(1, 30))
            if W == 1:
                continue
            p = BiquadParams(Fraction(rng.randint(1, 20), rng.randint(1, 20)),
                             Fraction(rng.randint(1, 20), rng.randint(1, 20)),
                             W, F)
            assert biquad_params(biquad_template(p)) == p

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            BiquadParams(1, 1, Q(1, 2), -1)
        with pytest.raises(ValueError):
            BiquadParams(1, 1, 2, 1)
        with pytest.raises(ValueError):
            BiquadParams(-1, 1, Q(1, 2), 1)


@st.composite
def biquad_params_strategy(draw):
    num = st.integers(min_value=1, max_value=30)
    K = Fraction(draw(num), draw(num))
    w0 = Fraction(draw(num), draw(num))
    W = Fraction(draw(st.integers(min_value=1, max_value=99)), 100)
    if draw(st.booleans()):
        return BiquadParams(K, w0, W, Fraction(draw(num), draw(num)))
    return BiquadParams(K, w0, 1 / W, -Fraction(draw(num), draw(num)))


class TestPRClosure:
    @settings(max_examples=100, deadline=None)
    @given(biquad_params_strategy())
    def test_reciprocal_and_inversion_stay_pr(self, p):
        h = biquad_template(p)
        assert is_positive_real(h)
        assert is_positive_real(h.reciprocal())
        assert is_positive_real(h.compose_winv(p.omega0 ** 2))


class TestSylvester:
    def test_shared_root(self):
        assert sylvester_determinant(parse_poly("s^2-1"), parse_poly("s-1"), 0) == 0

    def test_two_by_two_hand_value(self):
        # oracle: the Sylvester matrix [[1, 1], [1, 2]] of s + 1 and s + 2,
        # its determinant by permutation expansion
        assert permutation_determinant([[1, 1], [1, 2]]) == 1
        assert sylvester_determinant(parse_poly("s+1"), parse_poly("s+2"), 0) == 1

    def test_degree_guard(self):
        with pytest.raises(DegreeTooSmall):
            sylvester_determinant(parse_poly("s+1"), parse_poly("s+2"), 1)

    def test_bareiss_matches_permutation_oracle(self, rng):
        for _ in range(25):
            n = rng.randint(1, 5)
            m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
            assert leading_minors(m)[1] == permutation_determinant(m)
        assert leading_minors([]) == ([], 1)
        # the same elimination loop on the Polynomial entries of
        # leading_minors, with zero entries ending the run of minors
        for _ in range(25):
            n = rng.randint(1, 4)
            m = [[Polynomial([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                              for _ in range(rng.randint(0, 3))])
                  for _ in range(n)] for _ in range(n)]
            blocks = [permutation_determinant([row[:k] for row in m[:k]])
                      for k in range(1, n + 1)]
            assert leading_minors_over_q(m) == list(
                itertools.takewhile(bool, blocks))

    def test_last_leading_minor_matches_q_bareiss_reference(self):
        rng = random.Random(1968)

        def entry():
            if rng.random() < 0.3:
                return Polynomial()
            # denominators up to 10**9, either sign on every coefficient
            return Polynomial([Fraction(rng.randint(-10**6, 10**6),
                                        rng.randint(1, 10**9))
                               for _ in range(rng.randint(1, 3))])

        kinds = ("plain", "swap", "singular", "negative")
        full = 0
        for trial in range(24):
            kind = kinds[trial % 4]
            n = rng.randint(1, 8)
            m = [[entry() for _ in range(n)] for _ in range(n)]
            if kind == "swap":
                # zero diagonal entries: column 0 needs a row swap
                for i in range(min(n - 1, 3)):
                    m[i][i] = Polynomial()
            if kind == "singular":
                # one row a Q[s] combination of two others, or zero
                i, j, k = (rng.randrange(n) for _ in range(3))
                a, b = entry(), entry()
                m[k] = ([a * x + b * y for x, y in zip(m[i], m[j])]
                        if k not in (i, j) else [Polynomial()] * n)
            if kind == "negative":
                # every entry with a negative leading coefficient
                m = [[-x if x and x.leading() > 0 else x for x in row]
                     for row in m]
            # a full run of leading minors ends at the determinant; a zero
            # one, and a singular matrix, cut the run short
            expected = q_bareiss_reference(m)
            minors = [x.coeffs for x in leading_minors_over_q(m)]
            assert minors == leading_minors_reference(m)
            if len(minors) == n:
                full += 1
                assert minors[-1] == expected
            if kind == "swap":
                assert minors == [] or n == 1
            if kind == "singular":
                assert expected == () and len(minors) < n
        assert full >= 6

    def test_leading_minors_match_q_bareiss_reference(self):
        rng = random.Random(1968 * 17)

        def entry():
            if rng.random() < 0.3:
                return Polynomial()
            return Polynomial([Fraction(rng.randint(-10**6, 10**6),
                                        rng.randint(1, 10**9))
                               for _ in range(rng.randint(1, 3))])

        for trial in range(30):
            n = rng.randint(1, 7)
            m = [[entry() for _ in range(n)] for _ in range(n)]
            if trial % 2:
                for i in range(n):      # a nonzero diagonal: longer runs
                    m[i][i] = m[i][i] or Polynomial([rng.randint(1, 9)])
            if trial % 3 == 0 and n >= 3:
                # rows 0 and k agree up to a factor in the first k + 1
                # columns, so M_{k+1} = 0 and the run stops before it
                k, x = rng.randrange(1, n - 1), entry() or Polynomial([2])
                m[k][:k + 1] = [x * y for y in m[0][:k + 1]]
            assert [x.coeffs for x in leading_minors_over_q(m)] \
                == leading_minors_reference(m)

        # M_2 = 0 but det != 0: the loop swaps rows at step 2, and every
        # later pivot is a minor of the swapped matrix, not a leading one
        a, b, x = (Polynomial([Fraction(3, 10**9), 1]), Polynomial([2, 0, 5]),
                   Polynomial([Fraction(-7, 4), 1]))
        m = [[a, b, Polynomial([1])],
             [x * a, x * b, Polynomial([0, 1])],
             [Polynomial([1]), Polynomial([4]), Polynomial([6, 1])]]
        assert permutation_determinant(m)
        assert [p.coeffs for p in leading_minors_over_q(m)] \
            == leading_minors_reference(m) == [a.coeffs]
        assert leading_minors([]) == ([], 1)

    def test_det_of_a_run_that_stops_at_a_zero_minor(self):
        # nonsingular with M_2 = 0, over Z and over Z[x]: the run of minors
        # stops at M_2, and the det of the same pass, row swaps kept, is
        # the permutation oracle's
        ints = [[1, 2, 3], [2, 4, 1], [0, 5, 7]]
        assert permutation_determinant(ints) == 25
        assert leading_minors(ints) == ([1], 25)
        a, b = [1, 1], [2, 0, 1]            # 1 + x and 2 + x^2
        rows = [[a, b, [3]], [[0, 1, 1], [0, 2, 0, 1], [0, 1]],
                [[1], [4], [6, 1]]]         # row 1 starts x times row 0
        minors, det = leading_minors(rows)
        assert minors == [a]
        oracle = permutation_determinant(
            [[Polynomial(x) for x in row] for row in rows])
        assert oracle and Polynomial(det) == oracle

    def test_forward_run_stops_at_a_column_without_pivot(self):
        # the determinant of a matrix whose first column is zero is known
        # there: no step of the elimination runs, so nothing is divided
        rows = ((2, 1, 1, 0), (1, 3, 1, 2), (1, 1, 4, 1), (0, 2, 1, 5))
        assert (leading_minors(counted(rows))[1].v
                == permutation_determinant(rows))
        assert Counted.divmods > 0
        Counted.divmods = 0
        zero_first = [(0,) + row[1:] for row in rows]
        assert leading_minors(counted(zero_first)) == ([], 0)
        assert Counted.divmods == 0

    def test_inexact_division_raises_under_optimize(self):
        # the exact-division check of each ring step is no assert: under -O
        # a Z ring whose divisions leave a remainder still raises through
        # the elimination loop, and so do a Z[s] step by 2 on 1 + s and a
        # Z[j] step by 1 + j on 1
        code = textwrap.dedent("""
            import sys
            from prsyn.polyrat import (_eliminate, _step_gauss, _step_int,
                                       _step_poly)

            class Lossy:
                def __init__(self, v):
                    self.v = v

                def __mul__(self, other):
                    return Lossy(self.v * other.v)

                def __sub__(self, other):
                    return Lossy(self.v - other.v)

                def __bool__(self):
                    return self.v != 0

                def __divmod__(self, other):
                    return Lossy(self.v // other.v), Lossy(1)

            m = [[Lossy(v) for v in row] for row in ((2, 1, 1), (1, 3, 1), (1, 1, 4))]
            raised = 0
            for run in (lambda: _eliminate(m, 3, False, _step_int),
                        lambda: _step_poly([[1, 1]], None, [0], [1], None, [2]),
                        lambda: _step_gauss([[1]], None, [0], [1], None, [1, 1])):
                try:
                    run()
                except ArithmeticError:
                    raised += 1
            sys.exit(0 if sys.flags.optimize and raised == 3 else 1)
            """)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_gcd_oracle_equivalence(self, rng):
        for _ in range(60):
            p = Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
                           + [rng.randint(1, 4)])
            q = Polynomial([rng.randint(-4, 4) for _ in range(rng.randint(1, 5))]
                           + [rng.randint(1, 4)])
            assert (sylvester_determinant(p, q, 0) == 0) == (p.gcd(q).degree >= 1)

    def test_determinant_matches_fraction_references(self):
        # rows of primitive parts times the contents' powers, against the
        # Fraction matrix built from the coefficients
        rng = random.Random(1853)
        for trial in range(40):
            p = _wide_poly(rng, rng.randint(1, 5), negative=trial % 2 == 0)
            q = _wide_poly(rng, rng.randint(1, 5), negative=trial % 3 == 0)
            if trial % 4 == 0:          # a shared root: R_0 = 0
                root = Polynomial([Fraction(rng.randint(-10**6, 10**6),
                                            rng.randint(1, 10**9)), -1])
                p, q = p * root, q * root
            m, n = int(p.degree), int(q.degree)
            for k in range(min(m, n)):
                ref = sylvester_reference(p, q, m, n, k)
                assert sylvester_determinant(p, q, k) == fraction_determinant(ref)
            if trial % 4 == 0:
                assert sylvester_determinant(p, q, 0) == 0
        # every R_k of the coefficient sequences themselves, read at their
        # nominal degrees off the hybrid Bezout rows: over Z, and over Z[x]
        # with entries linear in x, compared at more points than R_k's
        # degree in x; m < n, m = n and m > n, with the nominal leading
        # coefficient of p or of q zero in two trials of three
        for trial in range(72):
            shape, lead, zx = trial % 3, trial // 3 % 3, trial // 9 % 2
            n = rng.randint(1, 4)
            m = max(1, n + (shape - 1) * rng.randint(1, 3))
            zero = [] if zx else 0

            def entry():
                if not zx:
                    return rng.randint(-99, 99)
                c = [rng.randint(-9, 9), rng.randint(-9, 9)]
                return c if c[1] else c[:1] if c[0] else []

            p, q = ([entry() for _ in range(d + 1)] for d in (m, n))
            if lead:
                (p if lead == 1 else q)[-1] = zero
            for k in range(min(m, n)):
                got = _subresultant(p, q, m, n, k, zero)
                for x in range(m + n - 2 * k + 1) if zx else (0,):
                    ref = sylvester_reference(
                        *(Polynomial([_at(c, x) for c in side])
                          for side in (p, q)), m, n, k)
                    assert _at(got, x) == fraction_determinant(ref)

    def test_nominal_degrees_above_the_real_ones(self):
        from prsyn.synth import _sylvester_nominal
        rng = random.Random(1840)
        for trial in range(30):
            p = (Polynomial() if trial % 5 == 0 else
                 _wide_poly(rng, rng.randint(0, 3), negative=trial % 2 == 0))
            q = _wide_poly(rng, rng.randint(0, 4), negative=trial % 3 == 0)
            m = int(p.degree) + rng.randint(0, 2) if p else rng.randint(1, 3)
            n = int(q.degree) + rng.randint(0 if m else 1, 2)
            want = fraction_determinant(sylvester_reference(p, q, m, n, 0))
            assert _sylvester_nominal(p, q, m, n) == want
            if not p:
                assert want == 0
        # the Q8 identity's degrees (2, 6) with a zero f1
        f2 = _wide_poly(rng, 5, negative=True)
        assert _sylvester_nominal(Polynomial(), f2, 2, 6) == 0

    def test_r0_r1_pass_matches_fraction_references(self, monkeypatch):
        # R_0 and R_1 of a (m, n) pair from one leading_minors pass over the
        # max(m, n) hybrid Bezout rows, against the Fraction Sylvester
        # matrices: random pairs, pairs with one shared root (R_0 = 0) and
        # with two (R_0 = R_1 = 0), and (n, n) pairs q = c p + t with deg t
        # <= n - 2, whose first Bezout row a_n t makes M_1 = 0: R_0 is the
        # det of the pass, row swaps kept, and an R_1 past the run of minors
        # takes a second pass
        passes = count_passes(monkeypatch)
        rng = random.Random(1967)

        def root():
            return Polynomial([Fraction(rng.randint(-10**6, 10**6),
                                        rng.randint(1, 10**9)), -1])

        kinds = ("random", "one_root", "two_roots", "early_zero")
        for trial in range(80):
            n, kind = 2 + trial % 5, kinds[trial // 5 % 4]
            m = n if kind == "early_zero" else max(2, n + trial // 20 - 1)
            neg = trial % 2 == 0, trial % 3 == 0
            if kind == "random":
                p, q = (_wide_poly(rng, d, negative=x)
                        for d, x in zip((m, n), neg))
            elif kind == "one_root":
                r = root()
                p, q = (_wide_poly(rng, d - 1, negative=x) * r
                        for d, x in zip((m, n), neg))
            elif kind == "two_roots":
                r = root() * root()
                p, q = (_wide_poly(rng, d - 2, negative=x) * r
                        for d, x in zip((m, n), neg))
            else:
                p = _wide_poly(rng, n, negative=neg[0])
                c = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**9))
                q = p * (-c if neg[1] else c) + _wide_poly(rng, n - 2, False)
            assert (p.degree, q.degree) == (m, n)
            want = tuple(fraction_determinant(sylvester_reference(p, q, m, n, k))
                         for k in (0, 1))
            assert want == (sylvester_determinant(p, q, 0),
                            sylvester_determinant(p, q, 1))
            passes.clear()
            assert _r0_r1_of(p, q) == want
            size = max(m, n)
            if kind in ("random", "one_root"):
                # one shared root: M_(size-1) = +-R_1 != 0 and M_size =
                # +-R_0 = 0 ends the run; the one pass gives both
                one_root = kind == "one_root"
                assert passes == [(size, size - one_root)]
                assert (want[0] == 0) == one_root and want[1]
            elif kind == "two_roots":
                # M_(size-1) = +-R_1 = 0 ends the run: R_0 is the det of the
                # same pass
                assert want == (0, 0) and passes == [(size, size - 2)]
            else:
                # R_0 is the det of the pass, and R_1 takes a pass over the
                # leading (n - 1) block once it reaches past the zero M_1;
                # R_1 = M_1 = 0 for n = 2
                assert passes == ([(2, 0)] if n == 2
                                  else [(n, 0), (n - 1, 0)])
                assert (want[1] == 0) == (n == 2)

    def test_r0_r1_pass_on_small_pairs(self, monkeypatch):
        # small integer pairs, many of them degenerate, so that the run of
        # leading minors stops anywhere: at the last one (R_0 = 0, the
        # zero minor), before it (R_0 the det of the pass, row swaps kept)
        # or before M_(m+n-2) too (R_1 by a second pass), at equal and
        # unequal degrees
        passes = count_passes(monkeypatch)
        rng = random.Random(1971)
        shapes = ((2, 2), (3, 3), (3, 2), (2, 3), (4, 3))
        seen = set()
        for trial in range(600):
            m, n = shapes[trial % len(shapes)]
            p, q = (Polynomial([rng.randint(-2, 2) for _ in range(d)]
                               + [rng.choice((-2, -1, 1, 2))])
                    for d in (m, n))
            want = tuple(fraction_determinant(sylvester_reference(p, q, m, n, k))
                         for k in (0, 1))
            passes.clear()
            assert _r0_r1_of(p, q) == want
            # how far the Bezout run stops short of M_max(m, n): 0, 1, or
            # more
            short = min(max(m, n) - passes[0][1], 2)
            seen.add((m, n, len(passes), short, want[0] == 0))
        for m, n in shapes:
            # a full run, R_0 = 0 read off the run, R_0 the det of a pass
            # that swapped rows
            assert {(m, n, 1, 0, False), (m, n, 1, 1, True),
                    (m, n, 1, 2, False)} <= seen, (m, n)
        # R_1 by a second pass: it reaches past a zero minor
        assert {(3, 3, 2, 2, False), (4, 3, 2, 2, False)} <= seen
        for p, q in ((parse_poly("s + 1"), parse_poly("s^2 + 2")),
                     (Polynomial(), parse_poly("s^2 + 1"))):
            with pytest.raises(DegreeTooSmall):
                _r0_r1_of(p, q)

    def test_r0_r1_pass_over_zx_takes_the_pivoting_route(self, monkeypatch):
        # the Z[x] analogue of the early_zero pairs: (n, n) pairs of
        # coefficient lists in x, q = c(x) p + t with deg t <= n - 2, whose
        # first Bezout row a_n t makes M_1 zero in x.  Cleared into Z[x] int
        # lists by one lcm L of both pairs' denominators, R_0(x) and R_1(x)
        # come from passes that swap rows over Z[x], equal L^(2n - 2k) times
        # the Q[x] Bareiss reference on the block-ordered Sylvester matrix,
        # and at integer and rational x equal the integer route on the pair
        # read off at x
        passes = count_passes(monkeypatch)
        rng = random.Random(1968)

        def poly_in_x(deg):
            return Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                               for _ in range(deg)] + [rng.randint(1, 9)])

        for trial in range(12):
            n = 2 + trial % 3
            p = [poly_in_x(rng.randint(0, 2)) for _ in range(n + 1)]
            c = poly_in_x(trial % 2)
            tail = [poly_in_x(rng.randint(0, 2)) for _ in range(n - 1)]
            q = [c * x + (tail[j] if j < n - 1 else 0)
                 for j, x in enumerate(p)]
            lcd = math.lcm(*(x.content.denominator for x in p + q))
            cleared = ([[c * (x.content * lcd).numerator for c in x.prim]
                        for x in side] for side in (p, q))
            passes.clear()
            got = tuple(Polynomial([Fraction(c, lcd ** (2 * n - 2 * k))
                                    for c in r]) for k, r in
                        enumerate(_sylvester_r0_r1(*cleared)))
            # R_0 is the det of the pass, and R_1 takes a pass over the
            # leading (n - 1) block once it reaches past the zero M_1; R_1 =
            # M_1 = 0 for n = 2
            assert passes == ([(2, 0)] if n == 2 else [(n, 0), (n - 1, 0)])
            zero = Polynomial()
            for k, r in enumerate(got):
                size = 2 * n - 2 * k
                block = [[side[n - j + i] if 0 <= n - j + i <= n else zero
                          for j in range(size)]
                         for side in (p, q) for i in range(n - k)]
                assert r == Polynomial(q_bareiss_reference(block))
            assert got[1].is_zero() == (n == 2)
            for x in (Q(0), Q(3), Q(-2), Q(5, 7)):
                px, qx = (Polynomial([a(x) for a in side]) for side in (p, q))
                if px.degree < n or qx.degree < n:
                    continue
                assert got[0](x) == sylvester_determinant(px, qx, 0)
                assert got[1](x) == sylvester_determinant(px, qx, 1)


def _at(c, x):
    """The int c, or the Z[x] int list c read at x."""
    return sum(v * x ** i for i, v in enumerate(c)) if type(c) is list else c


def _r0_r1_of(p, q):
    """``_sylvester_r0_r1`` on the primitive parts of p and q, times each
    content to the number of its rows, as ``sylvester_determinant`` reads
    them: (R_0, R_1) of p and q at their degrees."""
    r0, r1 = _sylvester_r0_r1(p.prim, q.prim)
    m, n = len(p.prim) - 1, len(q.prim) - 1
    c, e = p.content, q.content
    return r0 * c ** n * e ** m, r1 * c ** (n - 1) * e ** (m - 1)


def count_passes(monkeypatch):
    """Record each ``leading_minors`` pass polyrat makes, as (size, number
    of leading minors in its run): in ``_sylvester_r0_r1``, the pass over
    the hybrid Bezout rows and any ``_subresultant`` pass over their leading
    block."""
    import prsyn.polyrat as polyrat
    passes = []

    def counted(m):
        minors, det = leading_minors(m)
        passes.append((len(m), len(minors)))
        return minors, det

    monkeypatch.setattr(polyrat, "leading_minors", counted)
    return passes


def _wide_poly(rng, deg, negative):
    """A polynomial of degree deg with 10^9 denominators, its leading
    coefficient negative when asked."""
    cs = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**9))
          for _ in range(deg + 1)]
    lead = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**9))
    cs[-1] = -lead if negative else lead
    return Polynomial(cs)


def sylvester_reference(p, q, m, n, k):
    """The k-th truncated Sylvester matrix of p and q read at the degrees
    m >= deg p and n >= deg q, from the Fraction coefficients: n - k
    shifted rows of p's, then m - k of q's."""
    pdesc = [p.coeff(m - i) for i in range(m + 1)]
    qdesc = [q.coeff(n - i) for i in range(n + 1)]
    size = m + n - 2 * k
    return ([[pdesc[j - i] if 0 <= j - i <= m else Q(0) for j in range(size)]
             for i in range(n - k)]
            + [[qdesc[j - i] if 0 <= j - i <= n else Q(0) for j in range(size)]
               for i in range(m - k)])


def fraction_determinant(m):
    """det over Q: permutation expansion up to 5 x 5, the Q[s] Bareiss
    reference on constant entries above."""
    if len(m) <= 5:
        return permutation_determinant(m)
    coeffs = q_bareiss_reference([[Polynomial([x]) for x in row] for row in m])
    return coeffs[0] if coeffs else Q(0)


def _nonzero_fraction(rng):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))


def _nonzero_qcomplex(rng):
    im = rng.choice([0, 1]) * Fraction(rng.randint(-7, 7), rng.randint(1, 4))
    return QComplex(_nonzero_fraction(rng), im)


def sparse_system(rng, kind, entry, zero):
    """A random sparse system rows * X = rhs over entry's field.

    "full": n x n and nonsingular (row-mixed, row-permuted triangular);
    "deficient": one column a combination of two others, rhs in the range;
    "inconsistent": one row a multiple of another, rhs off by one there."""
    n = rng.randint(3, 7)
    k = rng.randint(1, 3)

    def sparse(cols, density=0.3):
        return [entry(rng) if rng.random() < density else zero
                for _ in range(cols)]

    if kind == "full":
        rows = [[zero] * i + [entry(rng)] + sparse(n - i - 1)
                for i in range(n)]
        for _ in range(rng.randint(0, n)):
            i, j = rng.sample(range(n), 2)
            f = entry(rng)
            rows[i] = [x + f * y for x, y in zip(rows[i], rows[j])]
        rng.shuffle(rows)
        return rows, [sparse(k, 0.5) for _ in range(n)]
    rows = [sparse(n) for _ in range(n)]
    if kind == "deficient":
        t, u, v = rng.sample(range(n), 3)
        a, b = entry(rng), entry(rng)
        for row in rows:
            row[t] = a * row[u] + b * row[v]
        x0 = [sparse(k, 0.6) for _ in range(n)]
        rhs = [[sum((row[j] * x0[j][c] for j in range(n)), zero)
                for c in range(k)] for row in rows]
        return rows, rhs
    t, u = rng.sample(range(n), 2)
    a = entry(rng)
    rows[t] = [a * x for x in rows[u]]
    rhs = [sparse(k, 0.5) for _ in range(n)]
    rhs[t] = [a * x for x in rhs[u]]
    c = rng.randrange(k)
    rhs[t][c] = rhs[t][c] + 1
    return rows, rhs


def _wide(entry):
    """entry scaled by a random rational with a denominator up to 10**9."""
    return lambda rng: entry(rng) * Fraction(rng.randint(1, 10**6),
                                             rng.randint(1, 10**9))


def _gauss_rows(rows, rhs):
    """The Q(j) system rows * X = rhs over Z[j], as the phasor systems
    reach ``solve``: each row of [rows | rhs] times the lcm of its
    denominators, as Z[j] lists.  The solutions are the same."""
    out_rows, out_rhs = [], []
    for row, b in zip(rows, rhs):
        m = math.lcm(*(q.denominator for x in row + b for q in (x.re, x.im)))
        g = [_gauss(int(x.re * m), int(x.im * m)) for x in row + b]
        out_rows.append(g[:len(row)])
        out_rhs.append(g[len(row):])
    return out_rows, out_rhs


def _solve_cleared(field, rows, rhs):
    """solve on copies of the rows, Q(j) systems cleared into Z[j]: None,
    or (d, X, basis) with every numerator, and d != 0, in the ring of the
    rows, int over Z and a trimmed list [re, im], [re] or [] over Z[j] (no
    row, no ring: d = 1)."""
    if field == "qcomplex":
        solved = solve(*_gauss_rows(rows, rhs))
    else:
        solved = solve([r[:] for r in rows], [r[:] for r in rhs])
    if solved is not None:
        d, X, basis = solved
        entries = [x for vec in X + basis for x in vec] + [d] * bool(rows)
        assert d
        if field == "qcomplex":
            assert all(type(x) is list and len(x) <= 2 and x[-1:] != [0]
                       for x in entries)
        else:
            assert all(type(x) is int for x in entries)
    return solved


def _qcomplex_of(z):
    """The QComplex of a Z[j] list [re, im], [re] or []."""
    return QComplex(*(list(z) + [0, 0])[:2])


def _over_d(field, solved):
    """(X, basis) of a ``solve`` result in the field: each numerator over
    d, as the dense reference gives them; None stays None."""
    if solved is None:
        return None
    d, X, basis = solved
    if field == "qcomplex":
        def over(x):
            return _qcomplex_of(x) / _qcomplex_of(d)
    else:
        def over(x):
            return Fraction(x, d)
    return ([[over(x) for x in row] for row in X],
            [[over(x) for x in vec] for vec in basis])


class TestGaussJordan:
    @pytest.mark.parametrize("field", ["fraction", "qcomplex"])
    def test_sparse_update_matches_dense_reference(self, field):
        # solve against the dense field reference: random sparse systems,
        # also with 10**9 denominators and with no right-hand column (as
        # _annihilator passes), no rows, 1 x 1 systems and a zero matrix;
        # a Q(j) system goes in over Z[j] and comes out as Z[j] numerators
        # over d, compared over Q(j)
        if field == "fraction":
            entry, zero, is_zero = _nonzero_fraction, Q(0), (lambda x: x == 0)
        else:
            entry, zero, is_zero = _nonzero_qcomplex, QComplex(0, 0), QComplex.is_zero
        rng = random.Random(7919)
        kinds = ("full", "deficient", "inconsistent")
        cases = [(kind, *sparse_system(rng, kind, entry, zero))
                 for _ in range(60) for kind in kinds]
        cases += [(kind, *sparse_system(rng, kind, _wide(entry), zero))
                  for _ in range(10) for kind in kinds]
        for _ in range(10):
            rows, _ = sparse_system(rng, "deficient", entry, zero)
            cases.append(("deficient", rows, [[] for _ in rows]))
        a, b = entry(rng), entry(rng)
        cases += [("full", [], []),
                  ("full", [[a]], [[b]]),
                  ("deficient", [[zero]], [[zero]]),
                  ("inconsistent", [[zero]], [[b]]),
                  ("deficient", [[zero] * 4 for _ in range(3)],
                   [[zero] * 2 for _ in range(3)])]
        for kind, rows, rhs in cases:
            expect = dense_gauss_jordan(rows, rhs, zero, is_zero)
            got = _over_d(field, _solve_cleared(field, rows, rhs))
            assert got == expect
            if kind == "inconsistent":
                assert got is None
                continue
            X, basis = got
            # the field's own type, also where no pivot exists
            assert all(type(x) is type(zero)
                       for vec in X + basis for x in vec)
            if kind == "deficient":
                assert basis
            else:
                assert not basis
                assert all(sum((row[j] * X[j][c] for j in range(len(X))),
                               zero) == rhs[i][c]
                           for i, row in enumerate(rows)
                           for c in range(len(rhs[0])))


def _q_entry(rng):
    """A nonzero Polynomial of degree up to 2 whose coefficients have
    denominators up to 10**9."""
    return Polynomial([Fraction(rng.randint(-10**6, 10**6),
                                rng.randint(1, 10**9))
                       for _ in range(rng.randint(1, 3))]) or Polynomial([1])


class TestSparseElimination:
    """Rows whose entry in the pivot column is zero skip that step and are
    caught up later; every entry point must still match its reference."""

    def test_banded_and_permuted_q_matrices(self):
        rng = random.Random(1967)
        zero = Polynomial()
        kinds = ("banded", "permuted", "swap", "zero_minor")
        full = 0
        for trial in range(24):
            kind = kinds[trial % 4]
            n = rng.randint(3, 8)
            band = 1 if kind != "banded" else rng.randint(1, 2)
            m = [[_q_entry(rng) if abs(i - j) <= band else zero
                  for j in range(n)] for i in range(n)]
            if kind == "permuted":
                rows, cols = list(range(n)), list(range(n))
                rng.shuffle(rows)
                rng.shuffle(cols)
                m = [[m[i][j] for j in cols] for i in rows]
            if kind == "swap":
                m[0][0] = zero          # column 0 takes row 1 as its pivot
            if kind == "zero_minor":
                # rows 0 and 1 agree up to a factor in the first two
                # columns, so M_2 = 0 and the run swaps rows 1 and 2
                x = _q_entry(rng)
                m[1][:2] = [x * y for y in m[0][:2]]
            minors = [x.coeffs for x in leading_minors_over_q(m)]
            assert minors == leading_minors_reference(m)
            if len(minors) == n:
                full += 1
                assert minors[-1] == q_bareiss_reference(m)
            if kind == "zero_minor":
                assert len(minors) == 1 and q_bareiss_reference(m)
        assert full >= 6

    def test_sparse_int_determinants_match_permutation_oracle(self):
        rng = random.Random(1853)
        swaps = 0
        for _ in range(150):
            n = rng.randint(2, 6)
            m = [[rng.randint(-99, 99) if rng.random() < 0.25 else 0
                  for _ in range(n)] for _ in range(n)]
            swaps += not m[0][0] and any(row[0] for row in m)
            assert leading_minors(m)[1] == permutation_determinant(m)
        assert swaps > 10

    @pytest.mark.parametrize("field", ["fraction", "qcomplex"])
    def test_sparse_solves_match_dense_reference(self, field):
        # wide systems with empty columns (skipped, no pivot) and more
        # unknowns than rows (free columns), consistent or not; a Q(j)
        # system goes in over Z[j]
        if field == "fraction":
            entry, zero, is_zero = _nonzero_fraction, Q(0), (lambda x: x == 0)
        else:
            entry, zero, is_zero = _nonzero_qcomplex, QComplex(0, 0), QComplex.is_zero
        rng = random.Random(1997)
        free = 0
        for trial in range(80):
            n, ncols, k = rng.randint(2, 7), rng.randint(2, 9), rng.randint(1, 2)
            rows = [[entry(rng) if rng.random() < 0.2 else zero
                     for _ in range(ncols)] for _ in range(n)]
            for j in rng.sample(range(ncols), rng.randint(0, ncols // 3)):
                for row in rows:
                    row[j] = zero
            if trial % 2:
                x0 = [[entry(rng) for _ in range(k)] for _ in range(ncols)]
                rhs = [[sum((row[j] * x0[j][c] for j in range(ncols)), zero)
                        for c in range(k)] for row in rows]
            else:
                rhs = [[entry(rng) if rng.random() < 0.3 else zero
                        for _ in range(k)] for _ in range(n)]
            expect = dense_gauss_jordan(rows, rhs, zero, is_zero)
            assert _over_d(field, _solve_cleared(field, rows, rhs)) == expect
            free += expect is not None and bool(expect[1])
        assert free > 20

    def test_tridiagonal_divisions_are_linear(self):
        # det of a tridiagonal matrix by the continuant recurrence
        # f_k = a_k f_(k-1) - b_(k-1) c_(k-1) f_(k-2)
        n = 12
        rng = random.Random(67)
        a = [rng.randint(1, 9) for _ in range(n)]
        b = [rng.randint(1, 9) for _ in range(n - 1)]
        c = [rng.randint(-9, -1) for _ in range(n - 1)]
        rows = [[a[i] if i == j else b[i] if j == i + 1 else c[j]
                 if i == j + 1 else 0 for j in range(n)] for i in range(n)]
        f = [1, a[0]]
        for k in range(1, n):
            f.append(a[k] * f[-1] - b[k - 1] * c[k - 1] * f[-2])
        Counted.divmods = 0
        assert leading_minors(counted(rows))[1].v == f[-1]
        assert Counted.divmods <= 6 * n
        # dense: from step 1 on every entry right of and below the pivot
        # is divided once, (n - 2)^2 + ... + 1^2 = 5 divisions at n = 4
        dense = ((2, 1, 1, 3), (1, 3, 1, 2), (1, 1, 4, 1), (3, 2, 1, 5))
        Counted.divmods = 0
        assert (leading_minors(counted(dense))[1].v
                == permutation_determinant(dense))
        assert Counted.divmods == 5


def _random_int_poly(rng, negative_lead=False):
    """A trimmed ascending int list of degree up to 3, [] now and then, its
    leading coefficient negative when asked."""
    if rng.random() < 0.15:
        return []
    out = [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))]
    return out + [-rng.randint(1, 9) if negative_lead else rng.randint(1, 9)]


def _random_gauss(rng, negative_lead=False):
    """A trimmed Z[j] list, [] now and then, with a negative part when
    asked."""
    if rng.random() < 0.15:
        return []
    re, im = rng.randint(-9, 9), rng.choice((0, rng.randint(-9, 9)))
    if negative_lead:
        re, im = -abs(re) - 1, -abs(im)
    return _gauss(re, im)


def _ring_step_cases(rng, entry, times):
    """Random inputs of one ring step, as ``_eliminate`` passes them: a row
    and a pivot row of width w, the columns cols (some skipped), a pivot p,
    a lead (None for a catch-up, zero, or with a negative or a positive
    leading part) and d (None for 1).  p and the lead are multiples of d,
    so d divides every new entry, as in the elimination."""
    for trial in range(300):
        w = rng.randint(1, 6)
        row = [entry(rng) for _ in range(w)]
        top = [entry(rng) for _ in range(w)]
        cols = sorted(rng.sample(range(w), rng.randint(0, w)))
        d = None if trial % 3 == 0 else (entry(rng, trial % 2 == 0) or [2])
        unit = d or [1]
        p = times(unit, entry(rng) or [1])
        lead = (None if trial % 4 == 0 else [] if trial % 4 == 2
                else times(unit, entry(rng, trial % 4 == 1) or [-1]))
        yield row, top, cols, p, lead, d


class TestRingSteps:
    """The Z[s] and Z[j] row steps of ``_eliminate`` against Polynomial and
    QComplex references, on random trimmed inputs with zero entries,
    negative leads, catch-ups and skipped columns."""

    def test_poly_step_matches_polynomial_reference(self):
        from prsyn.polyrat import _mul, _step_poly
        rng = random.Random(1968)
        for row, top, cols, p, lead, d in _ring_step_cases(
                rng, _random_int_poly, _mul):
            want = list(row)
            for j in cols:
                x = Polynomial(row[j]) * Polynomial(p)
                if lead is not None:
                    x = x - Polynomial(lead) * Polynomial(top[j])
                if d is not None:
                    x, rem = divmod(x, Polynomial(d))
                    assert rem.is_zero()
                want[j] = [int(c) for c in x.coeffs]
            got = list(row)
            _step_poly(got, top, cols, p, lead, d)
            assert got == want

    def test_gauss_step_matches_qcomplex_reference(self):
        from prsyn.polyrat import _step_gauss

        def times(a, b):
            z = _qcomplex_of(a) * _qcomplex_of(b)
            return _gauss(int(z.re), int(z.im))

        rng = random.Random(1853)
        cases = list(_ring_step_cases(rng, _random_gauss, times))
        # the step reads its Z[j] parts inline: [] is zero for p as for the
        # lead (a zero lead scales the row as a catch-up does)
        cases += [(row, top, cols, [], lead, d)
                  for row, top, cols, _, lead, d in cases[:60]]
        assert sum(lead == [] for *_, lead, _ in cases) >= 50
        for row, top, cols, p, lead, d in cases:
            want = list(row)
            for j in cols:
                x = _qcomplex_of(row[j]) * _qcomplex_of(p)
                if lead is not None:
                    x = x - _qcomplex_of(lead) * _qcomplex_of(top[j])
                if d is not None:
                    x = x / _qcomplex_of(d)
                assert x.re.denominator == x.im.denominator == 1
                want[j] = _gauss(int(x.re), int(x.im))
            got = list(row)
            _step_gauss(got, top, cols, p, lead, d)
            assert got == want

    def test_add_matches_polynomial_reference(self):
        # the int-list sum of the bridge builds: trimmed where the top
        # terms cancel, and its inputs left as they were
        from prsyn.polyrat import _add
        rng = random.Random(1977)
        for trial in range(300):
            a = _random_int_poly(rng)
            b = ([rng.randint(-9, 9) for _ in a[:-2]] + [-x for x in a[-2:]]
                 if trial % 3 == 0 else _random_int_poly(rng))
            want = [int(c) for c in (Polynomial(a) + Polynomial(b)).coeffs]
            inputs = (list(a), list(b))
            assert _add(a, b) == want
            assert (a, b) == inputs


def lagrange_reference(points):
    """Lagrange-basis interpolation over Q, one Polynomial product per
    node and basis polynomial."""
    total = Polynomial()
    for i, (xi, yi) in enumerate(points):
        li = Polynomial([1])
        denom = Q(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            li = li * Polynomial([-xj, 1])
            denom *= (xi - xj)
        total = total + li * (yi / denom)
    return total


def _interpolated(xs, ys):
    """``_interpolate`` of the int points, as the Polynomial it stands for:
    its trimmed numerator over its positive w."""
    num, w = _interpolate(xs, ys)
    assert w > 0 and (not num or num[-1])
    return Polynomial([Fraction(c, w) for c in num])


class TestInterpolate:
    def test_matches_lagrange_reference(self):
        rng = random.Random(4099)
        abscissae = [list(range(1, 25)), list(range(1, 17))]
        for n in range(1, 25):
            abscissae.append(rng.sample(range(-40, 41), n))
        for i, xs in enumerate(abscissae):
            zeros = (0.0, 0.4, 1.0)[i % 3]     # share of zero ordinates
            ys = [0 if rng.random() < zeros else rng.randint(-99, 99)
                  for _ in xs]
            got = _interpolated(xs, ys)
            assert got == lagrange_reference(list(zip(xs, ys)))
            assert got.degree < len(xs)
            assert all(got(x) == y for x, y in zip(xs, ys))

    def test_wide_ordinates_and_negative_nodes(self):
        # 200-bit ordinates, at nodes of either sign, in no order
        rng = random.Random(5303)
        for n in range(1, 21):
            xs = set()
            while len(xs) < n:
                xs.add(rng.randint(-10**4, 10**4))
            xs = sorted(xs)
            rng.shuffle(xs)
            ys = [rng.choice((-1, 1)) * rng.getrandbits(200) for _ in xs]
            got = _interpolated(xs, ys)
            assert got == lagrange_reference(list(zip(xs, ys)))
            assert all(got(x) == y for x, y in zip(xs, ys))

    def test_int_points_read_as_they_are(self):
        # int nodes and int values, as the state space's characteristic
        # polynomial and the fixture coefficients pass them, a range of
        # nodes included
        rng = random.Random(6007)
        for n in range(1, 16):
            xs = rng.sample(range(-50, 51), n)
            ys = [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 120))
                  for _ in xs]
            assert _interpolated(xs, ys) == lagrange_reference(
                [(Fraction(x), Fraction(y)) for x, y in zip(xs, ys)])
            nodes = range(n)
            assert _interpolated(nodes, ys) == lagrange_reference(
                [(Fraction(x), Fraction(y)) for x, y in zip(nodes, ys)])

    def test_repeated_abscissa_raises(self):
        points = [(1, 2), (3, 1), (1, 5)]
        for interp in (lambda: _interpolate(*zip(*points)),
                       lambda: lagrange_reference(points)):
            with pytest.raises(ZeroDivisionError):
                interp()


class TestTextFormat:
    def test_cli_style_literal(self):
        h = parse_ratfunc("(s^2+1/2 s+2/3)/(s^2+1/3 s+3/2)")
        assert h == biquad_template(BiquadParams(1, 1, Q(2, 3), 1))

    def test_bare_division(self):
        assert parse_ratfunc("s^2-1 / s-1") == RationalFunction(parse_poly("s+1"))

    def test_roundtrip(self, rng):
        for _ in range(30):
            f = RationalFunction(
                Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                            for _ in range(rng.randint(1, 4))] + [1]),
                Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                            for _ in range(rng.randint(1, 4))] + [1]))
            assert parse_ratfunc(format_ratfunc(f)) == f

    def test_plain_polynomial(self):
        assert parse_ratfunc("2 s^2 + 3") == RationalFunction(parse_poly("2 s^2 + 3"))


class TestIrrationalOmega:
    def test_sqrt_two_minimum_frequency(self):
        # a0*b0 = 4 with W = 1/2: omega0^2 = 2, omega0 irrational
        h = parse_ratfunc("(s^2+s+1)/(s^2+s+4)")
        from prsyn.polyrat import NotRationalParams
        freqs = minimum_frequencies(h)
        assert len(freqs) == 1
        assert freqs[0].omega2 == 2 and freqs[0].exact is None
        assert is_minimum_function(h)
        with pytest.raises(NotRationalParams):
            biquad_params(h)

    def test_irrational_square_is_bracketed(self):
        # E(v) is proportional to (v^2 - 2)^2: the one minimum frequency has
        # omega^2 = sqrt(2), kept as an exact bracket narrower than 2**-60
        h = parse_ratfunc("(s^4 + 45/16 s^3 + 21/4 s^2 + 117/16 s + 4)"
                          "/(s^4 + 4 s^3 + 6 s^2 + 4 s + 1)")
        (w,) = minimum_frequencies(h)
        lo, hi = w.bracket
        assert w.omega2 is None and w.exact is None
        assert lo * lo < 2 < hi * hi and hi - lo < Fraction(1, 2 ** 60)


def rational_roots_reference(p):
    """Distinct rational roots of p, ascending, by the rational root test:
    a root u/v in lowest terms of the integer multiple of p has u dividing
    its lowest nonzero coefficient and v its leading one.  Divisors are
    found by trial division, so only for small coefficients."""
    mult = math.lcm(*(c.denominator for c in p.coeffs))
    ics = [int(c * mult) for c in p.coeffs]
    low = next(k for k, c in enumerate(ics) if c)
    ics = ics[low:]
    roots = {Fraction(0)} if low else set()

    def divisors(n):
        n = abs(n)
        small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
        return set(small) | {n // d for d in small}

    n = len(ics) - 1
    for u in divisors(ics[0]):
        for v in divisors(ics[-1]):
            for uu in (u, -u):
                # v^n p(uu/v), in integers
                if sum(c * uu ** k * v ** (n - k) for k, c in enumerate(ics)) == 0:
                    roots.add(Fraction(uu, v))
    return sorted(roots)


def random_integer_poly(rng, degree):
    """A product of factors with small integer coefficients and exactly the
    given degree: linear factors v s - u (roots u/v, sometimes 0, sometimes
    repeated) and dense factors whose roots are mostly irrational or
    complex."""
    p = Polynomial([rng.choice([-3, -1, 1, 2])])
    while p.degree < degree:
        room = degree - int(p.degree)
        if rng.random() < 0.5:
            factor = Polynomial([rng.randint(-6, 6), rng.randint(1, 4)])
            p = p * factor ** rng.randint(1, min(room, 2))
        else:
            k = rng.randint(1, room)
            p = p * Polynomial([rng.randint(-5, 5) for _ in range(k)]
                               + [rng.choice([-2, -1, 1, 3])])
    return p


class TestRealRoots:
    @staticmethod
    def check(p, lo=None, width=None):
        roots = real_roots(p, lo, width)
        rationals = [r for r in roots if isinstance(r, Fraction)]
        assert rationals == [r for r in rational_roots_reference(p)
                             if lo is None or r > lo]
        assert len(roots) == count_real_roots(p, "-inf" if lo is None else lo)
        ends = []
        for r in roots:
            if isinstance(r, Fraction):
                ends += [r, r]
                continue
            a, b = r
            # one root in (a, b] and none at b: exactly one in (a, b)
            assert a < b and p(b) != 0 and count_real_roots(p, a, b) == 1
            assert width is None or b - a < width
            ends += [a, b]
        assert ends == sorted(ends)
        assert lo is None or all(x >= lo for x in ends)
        return roots

    def test_against_rational_root_test(self, rng):
        for degree in range(1, 8):
            for _ in range(40):
                p = random_integer_poly(rng, degree)
                self.check(p)
                self.check(p, Fraction(rng.randint(-8, 8), rng.randint(1, 3)))

    def test_rational_coefficients_and_width(self, rng):
        for _ in range(60):
            p = random_integer_poly(rng, rng.randint(1, 6))
            p = p * Fraction(rng.randint(1, 9), rng.randint(1, 9))
            self.check(p, None, Fraction(1, 2 ** rng.randint(0, 80)))

    def test_repeated_roots_and_zero(self):
        # s^3 (s - 2/3)^2 (s^2 - 2)^3 (s^2 + 1)
        p = (S ** 3 * Polynomial([Q(-2, 3), 1]) ** 2
             * Polynomial([-2, 0, 1]) ** 3 * Polynomial([1, 0, 1]))
        roots = self.check(p)
        assert roots[1:4] == [0, Q(2, 3), roots[3]]
        assert not isinstance(roots[0], Fraction) and roots[0][1] < 0
        assert self.check(p, Q(0))[0] == Q(2, 3)
        (above,) = self.check(p, Q(2, 3))       # sqrt(2), bracketed afresh
        assert not isinstance(above, Fraction)

    def test_refinement_reads_no_chain(self, monkeypatch):
        # once an interval holds one root, each halving reads the sign of
        # the square-free part alone: the chain is read at the ends and at
        # the isolating midpoints only.  16s^3 - 6s^2 - 8s + 3 has bound 2,
        # roots 3/8 and 1/sqrt(2) above 0, isolated at 1 and 1/2, and 3/8
        # is the second midpoint of (0, 1/2], where c(b) turns 0
        from prsyn import polyrat
        points = []
        variations = polyrat._variations

        def counted(chain, x):
            points.append(x)
            return variations(chain, x)

        p = Polynomial([3, -8, -6, 16])
        monkeypatch.setattr(polyrat, "_variations", counted)
        roots = real_roots(p, Q(0))
        assert points == [0, 2, 1, Q(1, 2)]
        assert roots[0] == Q(3, 8) and not isinstance(roots[1], Fraction)
        for e in scaled_check_profiles():
            points.clear()
            (root,) = real_roots(e, Q(0), Fraction(1, 2 ** 60))
            assert len(points) == 2
        monkeypatch.undo()
        self.check(p, Q(0))

    def test_closed_forms(self):
        assert real_roots(Polynomial([3])) == []
        assert real_roots(Polynomial([1, 2])) == [Q(-1, 2)]
        assert real_roots(Polynomial([6, -5, 1])) == [2, 3]
        assert real_roots(Polynomial([6, -5, 1]), Q(2)) == [3]
        assert real_roots(Polynomial([1, 2, 1])) == [-1]
        assert real_roots(Polynomial([1, 0, 1])) == []
        (a, b), (c, d) = self.check(Polynomial([-2, 0, 1]))
        assert b <= c and a * a > 2 > b * b and c * c < 2 < d * d

    def test_zero_polynomial(self):
        with pytest.raises(ValueError):
            real_roots(Polynomial())

    def test_many_prime_factors_and_semiprime_are_fast(self):
        # the rational root test meets 2**10 divisors of the primorial
        # 6469693230 on each side, and a 96-bit semiprime constant term;
        # the isolator never factors
        start = time.perf_counter()
        p = Polynomial([6469693230, 1, 0, 6469693230])
        ((a, b),) = real_roots(p)
        assert count_real_roots(p) == count_real_roots(p, a, b) == 1
        p1, p2 = 281474976710597, 281474976710677   # primes near 2**48
        p = Polynomial([-p1, 1]) * Polynomial([-p2, 1, 1])
        assert (p1 * p2).bit_length() == 96 and p(0) == p1 * p2
        roots = real_roots(p)
        assert len(roots) == 3 and roots[2] == p1
        assert all(count_real_roots(p, a, b) == 1 for a, b in roots[:2])
        assert time.perf_counter() - start < 2


def q_gcd_reference(p, q):
    """Polynomial.gcd as Euclid over Q[s]: the reference for the PRS."""
    a, b = p, q
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def q_sturm_reference(p):
    """sturm_chain as remainders over Q[s]: p, p', -rem(p, p'), ..."""
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def q_count_reference(p, a, b):
    """count_real_roots through the two references."""
    p = (p // q_gcd_reference(p, p.derivative())).monic()
    chain = q_sturm_reference(p)
    return variations_reference(chain, a) - variations_reference(chain, b)


def routh_reference(p):
    """strict_hurwitz as the Routh array over Q: every entry of the first
    column positive."""
    if p.is_zero():
        return False
    if p.leading() < 0:
        p = -p
    deg = int(p.degree)
    if deg == 0:
        return True
    if any(c <= 0 for c in p.coeffs):
        return False
    desc = list(reversed(p.coeffs))
    row0 = desc[0::2]
    row1 = desc[1::2]
    width = len(row0)
    row1 = row1 + [Q(0)] * (width - len(row1))
    for _ in range(deg - 1):
        if row1[0] == 0:
            return False
        new = []
        for k in range(width - 1):
            a = row0[k + 1] if k + 1 < width else Q(0)
            b = row1[k + 1] if k + 1 < width else Q(0)
            new.append((row1[0] * a - row0[0] * b) / row1[0])
        new.append(Q(0))
        row0, row1 = row1, new
        if row1[0] <= 0:
            return False
    return True


def random_rational_poly(rng):
    """Zero, a nonzero constant, a sparse polynomial (whose Sturm chain
    skips degrees), or a product of up to three linear and quadratic
    factors, some squared or cubed; coefficients have denominators up to
    10**9 and the leading one either sign."""
    def q(nonzero=False):
        den = rng.choice([1, rng.randint(1, 12), rng.randint(1, 10 ** 9)])
        num = rng.randint(-12, 12)
        while nonzero and not num:
            num = rng.randint(-12, 12)
        return Fraction(num, den)

    kind = rng.randrange(8)
    if kind == 0:
        return Polynomial()
    if kind == 2:
        return Polynomial([q() if rng.random() < 0.3 else 0
                           for _ in range(rng.randint(2, 8))]
                          + [q(nonzero=True)])
    p = Polynomial([q(nonzero=True)])
    for _ in range(0 if kind == 1 else rng.randint(1, 3)):
        factor = Polynomial([q() for _ in range(rng.randint(1, 2))]
                            + [q(nonzero=True)])
        p = p * factor ** rng.choice([1, 1, 2, 3])
    return p


class TestIntegerPRS:
    """gcd and Sturm chains run as primitive PRS over Z[s]; they must give
    what Euclid over Q[s] gives."""

    def test_gcd_matches_rational_euclid(self):
        rng = random.Random(1967)
        zero, polys = Polynomial(), [Polynomial(), Polynomial([Q(-3, 7)])]
        polys += [random_rational_poly(rng) for _ in range(150)]
        for p in polys:
            common = random_rational_poly(rng)
            q = random_rational_poly(rng)
            pairs = [(p, zero), (zero, p), (p, p.derivative()),
                     (p * common, q * common), (-p, q)]
            for a, b in pairs:
                assert a.gcd(b) == q_gcd_reference(a, b), (a, b)
        assert zero.gcd(zero) == zero

    def test_root_counts_and_chains_match(self):
        rng = random.Random(1971)
        for _ in range(150):
            p = random_rational_poly(rng)
            if p.is_zero():
                with pytest.raises(ValueError):
                    count_real_roots(p)
                continue
            lo = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            for a, b in [("-inf", "+inf"), (lo, "+inf"), ("-inf", lo),
                         (Q(0), "+inf")]:
                assert count_real_roots(p, a, b) == q_count_reference(p, a, b)
            # each member, an int list, a positive rational multiple of the
            # reference one
            for new, ref in itertools.zip_longest(sturm_chain(p.prim),
                                                  q_sturm_reference(p)):
                new = _poly(list(new))
                ratio = new.leading() / ref.leading()
                assert ratio > 0 and new == ref * ratio
            if p.degree < 1:
                continue
            roots = real_roots(p, lo)
            assert len(roots) == q_count_reference(p, lo, "+inf")
            for r in roots:
                if isinstance(r, Fraction):
                    assert r > lo and p(r) == 0
                else:
                    a, b = r
                    assert a >= lo and p(b) != 0
                    assert q_count_reference(p, a, b) == 1

    def test_signs_match_fraction_evaluation(self):
        # the integer homogeneous-Horner sign against p(x) over Q: at zero,
        # at points of either sign with 10^9 denominators, at a root and
        # at both infinities
        from prsyn.polyrat import _sign_at

        def sign(v):
            return (v > 0) - (v < 0)

        rng = random.Random(1879)
        for _ in range(300):
            root = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**9))
            p = random_rational_poly(rng) * Polynomial([-root, 1])
            points = [Q(0), rng.randint(-5, 5), root,
                      Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**9)),
                      Fraction(rng.randint(-40, 40), rng.randint(1, 7))]
            for x in points:
                assert _sign_at(p.prim, x) == sign(p(Fraction(x))), (p, x)
            lead = sign(p.leading()) if p else 0
            assert _sign_at(p.prim, "+inf") == lead
            assert _sign_at(p.prim, "-inf") == (lead * (-1) ** int(p.degree)
                                                if p else 0)

    def test_no_fraction_at_an_int_point(self, monkeypatch):
        # the PR check reads its chains at 0 and +inf: an int point is read
        # as a/1, and no Fraction is built while _variations runs; the
        # counts equal those at the same points as Fractions.  A string
        # point builds one, so the pin sees what it looks for
        from prsyn.polyrat import _sign_at, _square_free_chain, _variations
        rng = random.Random(1829)
        chains = [_square_free_chain(p.prim)[0]
                  for p in (random_rational_poly(rng) for _ in range(80))
                  if p and p.degree >= 1]
        points = (0, 3, -2)
        want = [[_variations(c, Q(x)) for x in points] for c in chains]
        made = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        got = [[_variations(c, x) for x in points] for c in chains]
        infinite = [_variations(c, "+inf") for c in chains]
        quiet = list(made)
        _sign_at(chains[0][0], "1/3")
        monkeypatch.undo()
        assert quiet == [] and made
        assert got == want and len(chains) >= 40
        assert infinite == [variations_reference(
            [_poly(list(p)) for p in c], "+inf") for c in chains]

    def test_routh_matches_rational_array(self):
        # products of s + a and s^2 + b s + c: strict Hurwitz exactly when
        # every a, b, c > 0, so both verdicts are common; a tenth of the
        # cases also get one coefficient nudged
        rng = random.Random(1877)
        verdicts = []
        polys = [random_rational_poly(rng) for _ in range(100)]
        for _ in range(400):
            p = Polynomial([rng.choice([-1, 1]) * rng.randint(1, 10 ** 9)])
            for _ in range(rng.randint(1, 5)):
                q = [Fraction(rng.randint(-1, 12), rng.randint(1, 10 ** 9))
                     for _ in range(rng.randint(1, 2))]
                p = p * Polynomial(q + [1])
            if rng.random() < 0.1:
                k = rng.randrange(len(p.coeffs))
                p = p + Polynomial([0] * k + [rng.randint(-2, 2)])
            polys.append(p)
        for p in polys:
            verdicts.append(strict_hurwitz(p.prim))
            assert verdicts[-1] == routh_reference(p), p
        assert 50 < sum(verdicts) < len(verdicts) - 50

    def test_no_rational_euclid_in_the_pr_check(self, monkeypatch):
        # the impedance, its reduction and its PR check divide int lists
        # only: a Q[s] division anywhere in them means a Fraction Euclid
        # loop, or a Polynomial reduction, is back.  The int remainder
        # sequence runs instead for the Routh rows (sign 1) alone: the
        # even-part test builds no Sturm chain (sign -1).  ``_gcd`` runs
        # twice: the reduction's gcd, then gcd(E, E') of the even-part
        # profile E (degree 14 here, E(0) > 0), the start of its odd part
        from conftest import ladder_network
        from prsyn import polyrat
        from prsyn.analysis import impedance
        rational, remainders, gcds = [], [], []
        divmod_, sequence, gcd = (Polynomial.__divmod__, polyrat._remainders,
                                  polyrat._gcd)

        def counted_divmod(self, other):
            rational.append((self, other))
            return divmod_(self, other)

        def counted_sequence(a, b, sign):
            remainders.append(sign)
            return sequence(a, b, sign)

        def counted_gcd(a, b):
            gcds.append((a, b))
            return gcd(a, b)

        monkeypatch.setattr(Polynomial, "__divmod__", counted_divmod)
        monkeypatch.setattr(polyrat, "_remainders", counted_sequence)
        monkeypatch.setattr(polyrat, "_gcd", counted_gcd)
        h = impedance(ladder_network(32, random.Random(32)))
        assert is_positive_real(h)
        assert rational == [] and set(remainders) == {1}
        e = even_part_profile(h).prim
        assert len(e) == 15 and e[0] > 0
        assert len(gcds) == 2 and gcds[1] == (e, polyrat._derivative(e))


def square_free_route(ints):
    """The route the square-free chain replaced, on the int list ints: the
    square-free part as (p // gcd(p, p')).monic(), then a fresh Sturm chain
    of its int list; with that gcd as an int list, as the square-free chain
    gives its divisor too."""
    p, g = _poly(list(ints)), Polynomial([1])
    if p.degree >= 1:
        g = p.gcd(p.derivative())
        p = p // g
    return sturm_chain(p.monic().prim), g.prim


def odd_part_reference(p):
    """The odd-multiplicity part the odd-part chain replaced, monic: with
    g = gcd(p, p') and s = p/g, s without the factors odd in g."""
    p = p.monic()
    if p.degree < 1:
        return Polynomial([1])
    g = p.gcd(p.derivative())
    if g.degree < 1:
        return p
    s = (p // g).monic()
    return (s // s.gcd(odd_part_reference(g))).monic()


def wide_random_poly(rng, degree):
    """Exactly the given degree, from linear to cubic factors, half of them
    squared or cubed within the room left; a third of the coefficients
    have denominators up to 10**9."""
    def q(nonzero=False):
        num = rng.randint(-12, 12) or (1 if nonzero else 0)
        return Fraction(num, rng.choice([1, rng.randint(1, 12),
                                         rng.randint(1, 10 ** 9)]))

    p = Polynomial([q(nonzero=True)])
    while p.degree < degree:
        room = degree - int(p.degree)
        k = rng.randint(1, min(3, room))
        factor = Polynomial([q() for _ in range(k)] + [q(nonzero=True)])
        power = rng.choice([1, 1, 2, 3])
        while k * power > room:
            power -= 1
        p = p * factor ** power
    return p


def scaled_check_profiles():
    """The even-part profiles behind the three scaled functions of the CLI
    check test: s -> s * scale in a function with omega^2 = sqrt(2)."""
    from prsyn.polyrat import even_part_profile
    num = [2, Fraction(117, 32), Fraction(21, 8), Fraction(45, 32),
           Fraction(1, 2)]
    den = [1, 4, 6, 4, 1]
    out = []
    for scale in (Fraction(1, 10 ** 200), 10 ** 200, 10 ** 158):
        h = RationalFunction(
            *(Polynomial([c * Fraction(scale) ** k for k, c in enumerate(cs)])
              for cs in (num, den)))
        out.append(even_part_profile(h))
    return out


class TestSquareFreeChain:
    """One Sturm chain per polynomial: divided by its last member, gcd(p, p')
    up to a constant, it is a chain of the square-free part."""

    @staticmethod
    def lo_width(rng):
        lo = (Q(0) if rng.random() < 0.5
              else Fraction(rng.randint(-30, 30), rng.randint(1, 7)))
        return lo, Fraction(1, 2 ** rng.randint(0, 80))

    def test_same_roots_and_counts_as_the_gcd_route(self, monkeypatch):
        from prsyn import polyrat
        # (p, lo, width): the whole line, then the roots above lo; the wide
        # polynomials above lo only, and the scaled profiles as the CLI
        # check reads them
        rng = random.Random(2006)
        cases = []
        for p in (random_rational_poly(rng) for _ in range(100)):
            if p:
                cases += [(p, None, None), (p, *self.lo_width(rng))]
        cases += [(wide_random_poly(rng, d), *self.lo_width(rng))
                  for d in range(3, 17)]
        cases += [(e, Q(0), Fraction(1, 2 ** 60))
                  for e in scaled_check_profiles()]

        def answers():
            out = []
            for p, lo, width in cases:
                a = "-inf" if lo is None else lo
                out.append((real_roots(p, lo, width), count_real_roots(p),
                            count_real_roots(p, a, "+inf"),
                            count_real_roots(p, "-inf", a)))
            return out

        chained = answers()
        monkeypatch.setattr(polyrat, "_square_free_chain", square_free_route)
        assert chained == answers()
        assert any(not isinstance(r, Fraction) for rs, *_ in chained
                   for r in rs)

    def test_odd_multiplicity_count_matches_the_gcd_route(self):
        # Yun's odd part is the one that the gcd route builds, and the
        # Descartes decision says yes exactly when that part has a root on
        # (0, oo); the lists are read as the PR test hands them over, with
        # a positive leading coefficient
        from prsyn.polyrat import _odd_part, _odd_positive_root
        rng = random.Random(1971)
        polys = [p for p in (random_rational_poly(rng) for _ in range(150))
                 if p]
        polys += [wide_random_poly(rng, d) for d in range(3, 17)]
        # odd and even multiplicities on both sides of 0, and at 0
        polys += [(S - 1) ** 3 * (S - 2) ** 2 * (S + 5) * S ** 3,
                  (S - Q(1, 3)) ** 4 * (S * S - 2) ** 3 * (S + 1) ** 2,
                  (S * S - 3 * S + 1) ** 2 * (S - 4) ** 5 * S ** 2]
        counts = set()
        for p in polys:
            odd = odd_part_reference(p)
            c = p.prim if p.leading() > 0 else tuple(-x for x in p.prim)
            assert _poly(_odd_part(c)).monic() == odd, p
            count = count_real_roots(odd, Q(0), "+inf")
            if p.degree >= 1:
                assert _odd_positive_root(c) == (count > 0), p
            counts.add(count)
        assert {0, 1, 2} <= counts

    def test_multiple_roots_at_evaluation_points(self):
        # the undivided chain reads V = 0 at a multiple root and miscounts
        # (0, 2 and 3 here); in the isolator, 0 is a double root and the
        # first bisection midpoint
        p = (S - 1) ** 3 * (S - 2) ** 2 * (S + 5)
        assert [count_real_roots(p, 1, 2), count_real_roots(p, 0, 1),
                count_real_roots(p, "-inf", 1)] == [1, 1, 2]
        p = S ** 2 * (S ** 2 - 2) * (S - 3)
        (a, b), zero, (c, d), three = real_roots(p)
        assert a * a > 2 > b * b and b < 0 and (zero, three) == (0, 3)
        assert 0 < c and c * c < 2 < d * d

    def test_one_remainder_sequence_per_polynomial(self, monkeypatch):
        # a PR check builds no Sturm chain: a square-free E above degree
        # two takes one gcd, gcd(E, E') = 1 (``_gcd``, which Polynomial.gcd
        # and every reduction read), the first step of its odd part, and a
        # quadratic E, such as the double root of a biquad minimum
        # function's E, which the closed form decides, takes no gcd; the
        # impedance, blocked report and open/short check run no gcd(p, p')
        from conftest import ladder_network, sample_region
        from prsyn import analysis, polyrat, synth
        from prsyn.polyrat import even_part_profile
        rng = random.Random(24)
        ladders = []
        while len(ladders) < 4:
            h = analysis.impedance(ladder_network(rng.choice([8, 12, 16]), rng))
            e = even_part_profile(h)
            if e.gcd(e.derivative()).degree < 1 and len(e.prim) > 3:
                ladders.append((RationalFunction(h.num, h.den), e))
        networks = []
        for region in "abcdef":
            p = sample_region(region, rng)
            networks.append((synth.classify_biquad(p).witness_network,
                             p.omega0))
        p = BiquadParams(Q(3, 2), Q(2), Q(1, 3), Q(5, 4))
        step = synth.theorem2_step(biquad_template(p), p.omega0)
        networks += [(synth.build_seven_element(step, which), p.omega0)
                     for which in synth.SEVEN_ELEMENT_VARIANTS]
        chains, gcds = [], []
        sturm, gcd = polyrat.sturm_chain, polyrat._gcd

        def counted_chain(p):
            chains.append(p)
            return sturm(p)

        def counted_gcd(a, b):
            gcds.append((_poly(list(a)), _poly(list(b))))
            return gcd(a, b)

        monkeypatch.setattr(polyrat, "sturm_chain", counted_chain)
        monkeypatch.setattr(polyrat, "_gcd", counted_gcd)
        for h, e in ladders:
            chains.clear()
            gcds.clear()
            assert is_positive_real(h)
            f = e.prim[next(i for i, x in enumerate(e.prim) if x):]
            assert chains == [] and [(a.prim, b.prim) for a, b in gcds] == [
                (f, _poly(polyrat._derivative(f)).prim)]
        analysis_gcds = []
        for n, omega0 in networks:
            gcds.clear()
            h = analysis.impedance(n)
            analysis.blocked_open_short_check(
                n, analysis.blocked_report(n, omega0))
            fresh = RationalFunction(h.num, h.den)
            analysis_gcds += gcds
            chains.clear()
            gcds.clear()
            assert is_positive_real(fresh)
            e = even_part_profile(h)
            assert len(e.prim) == 3 and chains == [] and gcds == []
        # up to a constant: _gcd reads integer parts
        assert analysis_gcds and not any(
            b.monic() == a.derivative().monic()
            for a, b in analysis_gcds if a.degree >= 1)


class TestQuadraticProfiles:
    """``_nonnegative_on_nonneg_axis`` decides a profile of degree two or
    less by its closed form, c1 >= 0 or c1^2 <= 4 c0 c2 once c0, c2 >= 0,
    with no chain; every verdict equals the Sturm reference's
    (``conftest.nonnegative_on_nonneg_axis_reference``)."""

    def test_closed_form_matches_the_sturm_reference(self, monkeypatch):
        from conftest import nonnegative_on_nonneg_axis_reference, sample_region
        from prsyn import polyrat
        rng = random.Random(1968)

        def q(lo=-9, hi=9):
            return Fraction(rng.randint(lo, hi), rng.choice([1, 2, 3, 7, 10**9]))

        profiles = []
        for _ in range(300):
            # c2 (v - r1)(v - r2), the roots double, at 0, or of either sign
            c2 = q(1, 9) * rng.choice([1, -1, 1])
            r1 = rng.choice([q(), q(0, 9), Q(0)])
            r2 = rng.choice([r1, -r1, q(), Q(0)])
            profiles.append(Polynomial([c2 * r1 * r2, -c2 * (r1 + r2), c2]))
        for _ in range(100):
            # c2 ((v - r)^2 + t), t > 0: no real root
            c2, r, t = q(1, 9) * rng.choice([1, -1, 1]), q(), q(1, 9)
            profiles.append(Polynomial([c2 * (r * r + t), -2 * c2 * r, c2]))
        for _ in range(300):
            # random coefficients, some zero: c0 = 0, c1 = 0, c2 = 0
            profiles.append(Polynomial([rng.choice([q(), Q(0)])
                                        for _ in range(rng.randint(1, 3))]))
        # minimum functions: E has a double root at omega0^2
        for region in "abcdef" * 10:
            profiles.append(even_part_profile(biquad_template(
                sample_region(region, rng))))
        seen = dict.fromkeys(("double", "c0_zero", "c1_zero", "c1_pos",
                              "c1_neg", "disc_neg", "disc_zero", "disc_pos",
                              "true", "false"), 0)
        chains = []
        monkeypatch.setattr(polyrat, "sturm_chain", chains.append)
        for e in profiles:
            want = nonnegative_on_nonneg_axis_reference(e)
            assert polyrat._nonnegative_on_nonneg_axis(e) == want, e
            seen["true" if want else "false"] += 1
            if len(e.coeffs) == 3:
                c0, c1, c2 = e.coeffs
                disc = c1 * c1 - 4 * c0 * c2
                seen["c0_zero"] += c0 == 0
                seen["c1_zero"] += c1 == 0
                seen["c1_pos"] += c1 > 0
                seen["c1_neg"] += c1 < 0
                seen["disc_neg"] += disc < 0
                seen["disc_zero"] += disc == 0
                seen["disc_pos"] += disc > 0
                seen["double"] += disc == 0 and c0 > 0 and c1 < 0 < c2
        assert chains == []
        assert min(seen.values()) >= 20, seen


class TestRootSectionAgainstReference:
    """The root section on int lists against the Polynomial code it replaced
    (the reference copies in conftest): equal roots with their brackets,
    counts, Routh verdicts, gcds, and even-part verdicts, which the chain
    tower's odd-multiplicity count gave."""

    def test_same_answers_as_the_polynomial_route(self):
        from conftest import ladder_network, nonnegative_on_nonneg_axis_reference
        from prsyn.analysis import impedance
        from prsyn.polyrat import _nonnegative_on_nonneg_axis, _odd_positive_root
        rng = random.Random(1)
        polys = [random_rational_poly(rng) for _ in range(150)]
        polys += [wide_random_poly(rng, d) for d in range(3, 17)]
        # the whole line and a random (lo, width); the even-part profiles
        # are read as minimum_frequencies reads them
        cases = [(p, [(), TestSquareFreeChain.lo_width(rng)]) for p in polys]
        profiles = scaled_check_profiles()
        # ladders of the bench's sizes, from one Random(1) stream: their
        # even-part profiles, and num + den for the Routh test
        stream, hurwitz = random.Random(1), []
        for size in (6, 8, 10, 12, 14, 16, 18, 20, 24, 28, 32):
            h = impedance(ladder_network(size, stream))
            profiles.append(even_part_profile(h))
            hurwitz.append((h.num + h.den, []))
        cases += [(e, [(Q(0), Fraction(1, 2 ** 60))]) for e in profiles]
        brackets, verdicts = 0, []
        for p, queries in cases + hurwitz:
            q, common = random_rational_poly(rng), random_rational_poly(rng)
            for a, b in [(p, q), (p, p.derivative()),
                         (p * common, q * common)]:
                assert a.gcd(b) == q_gcd_reference(a, b), (a, b)
            verdicts.append(strict_hurwitz(p.prim))
            assert verdicts[-1] == routh_reference(p), p
            if p.is_zero():
                continue
            for args in queries:
                roots = real_roots(p, *args)
                assert roots == real_roots_reference(p, *args), (p, args)
                brackets += sum(not isinstance(r, Fraction) for r in roots)
            lo = Fraction(rng.randint(-30, 30), rng.randint(1, 7))
            for a, b in [("-inf", "+inf"), (lo, "+inf"), ("-inf", lo),
                         (Q(0), "+inf")]:
                assert (count_real_roots(p, a, b)
                        == count_real_roots_reference(p, a, b)), (p, a, b)
            assert (_nonnegative_on_nonneg_axis(p)
                    == nonnegative_on_nonneg_axis_reference(p)), p
            if p.degree >= 1:
                c = p.prim if p.leading() > 0 else tuple(-x for x in p.prim)
                assert (_odd_positive_root(c)
                        == (odd_multiplicity_reference(p) > 0)), p
        assert brackets and 20 < sum(verdicts) < len(verdicts) - 20


class TestDescartesDecision:
    """Above degree two the PR test decides the even-part sign by
    ``_odd_positive_root``: Yun's odd part, a power-of-two Cauchy bound and
    Collins-Akritas bisection.  Every verdict equals the Sturm tower's
    (``conftest.nonnegative_on_nonneg_axis_reference`` and
    ``odd_multiplicity_reference``), and no Sturm chain is built."""

    @staticmethod
    def products(rng):
        """A sign times a definite quadratic (v - a)^2 + b, b > 0, times
        prod (v - r)^m with r in -6..6 (halves, thirds and 0 included) and
        m in 1..3; a positive root takes an even m half the time, so that
        both verdicts are common."""
        a = Fraction(rng.randint(-12, 12), rng.choice([1, 2, 5]))
        b = Fraction(rng.randint(1, 9), rng.choice([1, 4, 10 ** 6]))
        p = Polynomial([rng.choice([1, -1, 1, 1]) * (a * a + b), -2 * a, 1])
        for _ in range(rng.randint(1, 4)):
            r = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
            m = rng.choice([2, 2] if r > 0 and rng.random() < 0.5
                           else [1, 2, 3])
            p = p * Polynomial([-r, 1]) ** m
        return p

    @staticmethod
    def grid_cases():
        """Roots where the bisection looks: at powers of two and dyadic
        midpoints, single, repeated, or a pair 4^-j apart; complex pairs
        that close on such a point; and v^n - a, whose Cauchy bound is 2^k
        for a = 2^(kn) - 1 (a root just below it) and 2^(k+1) for a =
        2^(kn) and 2^(kn) + 1 (a root at the first midpoint, or just right
        of it)."""
        v = Polynomial([0, 1])
        points = [Fraction(2) ** j for j in range(-3, 5)]
        points += [Fraction(2 * i + 1, 2 ** j) for j in (1, 2, 3)
                   for i in range(4)]
        quad = Polynomial([2, -2, 1])               # (v - 1)^2 + 1
        out = []
        for r in points:
            line = v - r
            for j in (6, 12, 30):
                eps = Fraction(1, 4 ** j)
                out += [(line * line + eps) * (v + 1),
                        (line * line - eps) * quad,
                        (line * line + eps) * line ** 2 * quad]
            out += [line ** m * quad for m in (1, 2, 3)]
            out += [line * (v - 2 * r) * (v - r / 2), line ** 2 * (v + r),
                    line ** 2 * (v - 3 * r) ** 2 * (v + 7)]
        for n in (3, 4, 5, 6):
            for k in (0, 1, 2, 4):
                for d in (-1, 0, 1):
                    q = v ** n - (2 ** (k * n) + d)
                    if q.coeff(0):
                        out += [q * quad, q ** 2 * (v + 1), q * q * q]
        return out

    def test_same_verdicts_as_the_sturm_reference(self, monkeypatch):
        from conftest import ladder_network, nonnegative_on_nonneg_axis_reference
        from prsyn import polyrat
        from prsyn.analysis import impedance
        rng = random.Random(1976)
        polys = [self.products(rng) for _ in range(420)]
        polys += self.grid_cases()
        polys += [random_rational_poly(rng) for _ in range(200)]
        polys += [wide_random_poly(rng, d) for d in range(3, 17)
                  for _ in range(3)]
        polys += scaled_check_profiles()
        stream = random.Random(1)
        for size in (6, 8, 10, 12, 14, 16, 18, 20, 24, 28, 32):
            polys.append(even_part_profile(impedance(ladder_network(size,
                                                                    stream))))
        polys = [p for p in polys if p.degree >= 3]
        # (c with lc > 0, nonnegative, odd-multiplicity root on (0, oo))
        cases = [(p.prim if p.leading() > 0 else tuple(-x for x in p.prim),
                  nonnegative_on_nonneg_axis_reference(p),
                  odd_multiplicity_reference(p) > 0) for p in polys]
        chains = []
        monkeypatch.setattr(polyrat, "sturm_chain", chains.append)
        for p, (c, nonnegative, root) in zip(polys, cases):
            assert polyrat._nonnegative_on_nonneg_axis(p) == nonnegative, p
            assert polyrat._odd_positive_root(c) == root, p
        assert chains == []
        roots = sum(root for *_, root in cases)
        assert min(roots, len(cases) - roots) >= 100, (roots, len(cases))
        nonnegative = sum(n for _, n, _ in cases)
        assert min(nonnegative, len(cases) - nonnegative) >= 100

    def test_long_ladders_build_no_sturm_chain(self, monkeypatch):
        # the 64- and 96-element ladders (profiles of degree 30 and 46) are
        # PR with no chain built; the 64-element verdict equals the Sturm
        # reference's (the 96-element one takes seconds there)
        from conftest import ladder_network, is_positive_real_reference
        from prsyn import polyrat
        from prsyn.analysis import impedance
        chains, hs = [], []
        monkeypatch.setattr(polyrat, "sturm_chain", chains.append)
        for size in (64, 96):
            hs.append(impedance(ladder_network(size, random.Random(size))))
            assert is_positive_real(hs[-1])
        monkeypatch.undo()
        assert chains == []
        assert [len(even_part_profile(h).prim) - 1 for h in hs] == [30, 46]
        assert is_positive_real_reference(hs[0].num, hs[0].den)


def distinct_linear_factors(rng, count):
    """The product of count factors s - r, r = a/b with a in -40..40 and b
    in 1..9, no r repeated."""
    roots = set()
    while len(roots) < count:
        roots.add(Fraction(rng.randint(-40, 40), rng.randint(1, 9)))
    p = Polynomial([1])
    for r in roots:
        p = p * Polynomial([-r, 1])
    return p, roots


class TestHeuristicGcd:
    """``_gcd`` on int lists, heuristic with the primitive remainder
    sequence as fallback, against that sequence alone
    (``gcd_prs_reference``, the former ``Polynomial.gcd``)."""

    @staticmethod
    def check(a, b):
        from prsyn.polyrat import _gcd
        want = gcd_prs_reference(a, b)
        got = _gcd(a.prim, b.prim)
        assert _poly(list(got)).monic() == want == a.gcd(b), (a, b)
        assert got == [] if want.is_zero() else (
            got[-1] > 0 and math.gcd(*got) == 1)
        return want

    def test_products_with_a_common_factor(self):
        rng = random.Random(1989)
        degrees = set()
        for _ in range(300):
            common = random_rational_poly(rng) or Polynomial([1, 1])
            p, q = random_rational_poly(rng), random_rational_poly(rng)
            g = self.check(p * common, q * common)
            if p and q:
                assert (common.monic() * p.gcd(q)).monic() == g
                degrees.add(int(g.degree))
        assert {0, 1, 2, 3} <= degrees

    def test_coprime_pairs(self):
        # no root shared and no common factor: the gcd is 1
        rng = random.Random(1992)
        for _ in range(200):
            p, roots = distinct_linear_factors(rng, rng.randint(1, 8))
            q, more = distinct_linear_factors(rng, rng.randint(1, 8))
            if roots & more:
                continue
            scale = Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 10 ** 9))
            q = q * scale + Polynomial([0] * rng.randint(0, 3))
            assert self.check(p, q) == 1

    def test_common_power_of_s(self):
        # s^k with k up to 9, as in the impedance minors, times a common
        # factor or none; the other powers of s are not shared
        rng = random.Random(1998)
        for _ in range(200):
            i, j = rng.randint(0, 9), rng.randint(0, 9)
            p, q = random_rational_poly(rng), random_rational_poly(rng)
            common = rng.choice([Polynomial([1]), Polynomial([1, 1]),
                                 Polynomial([Q(-2, 3), 0, 1])])
            a, b = S ** i * p * common, S ** j * q * common
            g = self.check(a, b)
            if p and q and p.coeff(0) and q.coeff(0):
                assert g == (S ** min(i, j) * common * p.gcd(q)).monic()

    def test_constants_and_negative_leading_coefficients(self):
        zero, three = Polynomial(), Polynomial([Q(-3, 7)])
        p = Polynomial([2, -3, -5])     # -(5 s - 2)(s + 1), a negative lc
        assert self.check(zero, zero) == zero
        assert self.check(three, zero) == self.check(zero, three) == 1
        assert self.check(three, p) == self.check(p, three) == 1
        assert self.check(p, zero) == self.check(zero, -p) == p.monic()
        assert self.check(S ** 4, three) == 1
        assert self.check(S ** 4, -S ** 2 * p) == S ** 2
        assert self.check(-p * S, p * Polynomial([-1, -1])) == p.monic()
        rng = random.Random(1877)
        for _ in range(100):
            a, b = random_rational_poly(rng), random_rational_poly(rng)
            common = -Polynomial([rng.randint(-5, 5), rng.randint(1, 5)])
            self.check(-a * common, b * common * -1)

    def test_large_coefficients_take_the_fallback(self, monkeypatch):
        # xi above 2 * 2^40000 times three coefficients is past the bits
        # the heuristic takes, so the remainder sequence answers; pairs of
        # small coefficients never get there
        from prsyn import polyrat
        calls, sequence = [], polyrat._remainders

        def counted(a, b, sign):
            if sys._getframe(1).f_code.co_name == "_gcd":
                calls.append(sign)
            return sequence(a, b, sign)

        monkeypatch.setattr(polyrat, "_remainders", counted)
        big = 2 ** 40000 + 1
        a = Polynomial([1, 1]) * Polynomial([big, 1])
        b = Polynomial([1, 1]) * Polynomial([big + 2, 1])
        assert polyrat._gcd(a.prim, b.prim) == [1, 1] and calls == [1]
        calls.clear()
        a = Polynomial([1, 1]) * Polynomial([5, 1])
        assert polyrat._gcd(a.prim, (a * Polynomial([2, 1])).prim) == [5, 6, 1]
        assert calls == []

    def test_ladder_pairs_are_powers_of_s(self, monkeypatch):
        # each ladder's nodal pair s L M_(n-1), M_n has the gcd s^k, found
        # by the heuristic at its first xi: no remainder sequence runs.  The
        # PR test's gcd(E, E') of the even-part profile, the first step of
        # its odd part, is counted apart: one for each of the nine profiles
        # above degree two (the 6- and 8-element ladders have quadratic
        # ones), each 1, as these profiles are square-free
        from conftest import ladder_network
        from prsyn import polyrat
        from prsyn.analysis import impedance
        gcds, profile_gcds, calls = [], [], []
        gcd, sequence = polyrat._gcd, polyrat._remainders

        def counted_gcd(a, b):
            caller = sys._getframe(1).f_code.co_name
            out = gcd(a, b)
            (profile_gcds if caller == "_odd_part" else gcds).append(out)
            return out

        def counted_sequence(a, b, sign):
            if sys._getframe(1).f_code.co_name == "_gcd":
                calls.append(sign)
            return sequence(a, b, sign)

        monkeypatch.setattr(polyrat, "_gcd", counted_gcd)
        monkeypatch.setattr(polyrat, "_remainders", counted_sequence)
        rng = random.Random(41)
        for size in (6, 8, 10, 12, 14, 16, 18, 20, 24, 28, 32):
            impedance(ladder_network(size, rng))
        powers = {len(g) - 1 for g in gcds}
        assert all(g == [0] * (len(g) - 1) + [1] for g in gcds)
        assert len(gcds) == 11 and max(powers) >= 2 and calls == []
        assert profile_gcds == [[1]] * 9


def random_ratfunc_pair(rng):
    """(num, den) of a random rational function: products of linear and
    quadratic factors with positive coefficients, so that many are PR,
    some with a coefficient of either sign; contents fractional and of
    either sign; a common factor (a power of s, a factor with a root in
    the right half-plane, or a random one) in a third of them; and now and
    then a zero numerator or a constant."""
    def factor():
        k = rng.choice([1, 2])
        cs = [Fraction(rng.randint(1, 30), rng.randint(1, 12))
              for _ in range(k)] + [1]
        if rng.random() < 0.15:
            cs[rng.randrange(k)] *= -1
        return Polynomial(cs)

    def side():
        p = Polynomial([Fraction(rng.choice([1, 1, 1, -1]) * rng.randint(1, 9),
                                 rng.choice([1, rng.randint(1, 10 ** 9)]))])
        for _ in range(rng.randint(0, 3)):
            p = p * factor()
        return p

    num, den = side(), side()
    kind = rng.randrange(12)
    if kind < 4:
        common = [S ** rng.randint(1, 4), Polynomial([-2, 1]), factor(),
                  random_rational_poly(rng) or S][kind]
        num, den = num * common, den * common
    elif kind == 4:
        num = Polynomial()
    elif kind == 5:
        num = Polynomial([Fraction(rng.randint(-5, 5), rng.randint(1, 5))])
    return num, den


class TestIntegerRoute:
    """The reduction of a ``RationalFunction`` and its PR test on int lists
    against the Polynomial route they replaced (``reduce_reference`` and
    ``is_positive_real_reference`` in conftest)."""

    def test_same_coefficients_and_verdicts(self, monkeypatch):
        # the Routh test reads num + den up to a positive constant; a
        # positive weight on either part alone would not change a verdict
        # (where the real part is nonnegative on the axis, no root of
        # p + k q crosses it as k > 0 varies), so it is checked by itself
        from conftest import count_pr_tests
        sums = count_pr_tests(monkeypatch)
        rng = random.Random(1989)
        verdicts, reduced = [], 0
        for _ in range(2400):
            num, den = random_ratfunc_pair(rng)
            h = RationalFunction(num, den)
            want_num, want_den = reduce_reference(num, den)
            assert h.num.coeffs == want_num.coeffs, (num, den)
            assert h.den.coeffs == want_den.coeffs, (num, den)
            reduced += h.den.degree < den.degree
            sums.clear()
            verdicts.append(is_positive_real(h))
            assert verdicts[-1] == is_positive_real_reference(num, den), h
            if sums:
                got, total = _poly(list(sums[0])), h.num + h.den
                assert got.monic() == total.monic()
                assert not total or (got.leading() > 0) == (total.leading() > 0)
        assert 400 < sum(verdicts) < len(verdicts) - 400 and reduced > 400

    def test_nodal_impedances_and_their_sums(self):
        # the int route from the minors against the Polynomial route on the
        # same pair, for ladders and for sums of their impedances (gcds of
        # higher degree)
        from conftest import ladder_network
        from prsyn.analysis import impedance
        rng = random.Random(7)
        hs = [impedance(ladder_network(size, rng))
              for size in (6, 8, 10, 12, 16, 20)]
        for f in hs + [a + b for a in hs for b in hs] + [a * b for a in hs
                                                           for b in hs[:2]]:
            want = reduce_reference(f.num * f.den, f.den * f.den)
            assert (f.num, f.den) == want
            assert is_positive_real(f) == is_positive_real_reference(f.num,
                                                                     f.den)


class FractionPolynomial:
    """Reference: Polynomial as it was before it stored content times a
    primitive integer part, a tuple of Fraction coefficients, ascending,
    with no trailing zeros; gcd is Euclid over Q[s]."""

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else -math.inf

    def is_zero(self):
        return not self.coeffs

    def leading(self):
        return self.coeffs[-1]

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Q(0)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return FractionPolynomial([self.coeff(k) + other.coeff(k)
                                   for k in range(n)])

    def __neg__(self):
        return FractionPolynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionPolynomial([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return FractionPolynomial()
        out = [Q(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionPolynomial(out)

    def __divmod__(self, other):
        rem = list(self.coeffs)
        dn, dd = len(rem) - 1, len(other.coeffs) - 1
        if dn < dd:
            return FractionPolynomial(), self
        quot = [Q(0)] * (dn - dd + 1)
        for k in range(dn - dd, -1, -1):
            c = quot[k] = rem[dd + k] / other.leading()
            for j, b in enumerate(other.coeffs):
                rem[j + k] -= c * b
        return FractionPolynomial(quot), FractionPolynomial(rem[:dd])

    def monic(self):
        if self.is_zero():
            return self
        return FractionPolynomial([c / self.leading() for c in self.coeffs])

    def derivative(self):
        return FractionPolynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, divmod(a, b)[1]
        return a.monic()

    def __call__(self, x):
        acc = x * 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_jomega(self, omega2):
        a = b = Q(0)
        power = Q(1)
        for m in range(0, len(self.coeffs), 2):
            a += self.coeffs[m] * power
            if m + 1 < len(self.coeffs):
                b += self.coeffs[m + 1] * power
            power *= -omega2
        return a, b

    def flip_sign(self):
        return FractionPolynomial([-c if k % 2 else c
                                   for k, c in enumerate(self.coeffs)])

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def random_coefficients(rng):
    """Coefficient lists for both representations: empty, all zero, a
    constant, or up to seven terms of ints and Fractions with denominators
    up to 10**9, either sign, sometimes with trailing zeros."""
    def q():
        den = rng.choice([1, rng.randint(1, 12), rng.randint(1, 10 ** 9)])
        num = rng.choice([0, rng.randint(-12, 12), rng.randint(-10 ** 9, 10 ** 9)])
        return num if den == 1 and rng.random() < 0.5 else Fraction(num, den)

    kind = rng.randrange(6)
    if kind == 0:
        return [0] * rng.randint(0, 2)
    cs = [q() for _ in range(1 if kind == 1 else rng.randint(2, 7))]
    return cs + [0] * (rng.random() < 0.2)


def assert_same(new, ref):
    """new is the reference polynomial, in canonical content x primitive
    form: content positive and the integer part primitive, its leading
    entry nonzero (content 0 and no entries for zero)."""
    assert new.coeffs == ref.coeffs
    assert type(new.coeffs) is tuple
    assert all(type(c) is Fraction for c in new.coeffs)
    if ref.is_zero():
        assert (new.content, new.prim) == (0, ())
    else:
        assert new.content > 0 and math.gcd(*new.prim) == 1 and new.prim[-1]
        assert all(type(x) is int for x in new.prim)


class TestContentPrimitiveForm:
    """Polynomial stores content x primitive ints; every operation must give
    what the Fraction-tuple reference gives."""

    def test_operations_match_fraction_reference(self):
        rng = random.Random(1801)
        for _ in range(400):
            a, b = random_coefficients(rng), random_coefficients(rng)
            p, q = Polynomial(a), Polynomial(b)
            pr, qr = FractionPolynomial(a), FractionPolynomial(b)
            assert_same(p, pr)
            assert_same(p + q, pr + qr)
            assert_same(p - q, pr - qr)
            assert_same(q - p, qr - pr)
            assert_same(p * q, pr * qr)
            c = rng.choice([0, 1, -1, 3, Fraction(-7, 10 ** 9), Fraction(5, 6)])
            assert_same(p * c, pr * c)
            assert_same(c * p, pr * c)
            # a scalar scales the content: the same as the general product
            for c in (0, 1, -3, 10 ** 30, Fraction(5, 6), Fraction(-7, 10 ** 9),
                      Fraction(0)):
                for poly in (p, Polynomial()):
                    want = Polynomial([c]) * poly
                    assert poly * c == want == c * poly
                    assert hash(poly * c) == hash(want)
            assert_same(-p, -pr)
            if not qr.is_zero():
                for new, ref in zip(divmod(p, q), divmod(pr, qr)):
                    assert_same(new, ref)
                # an exact division, as Bareiss and the gcd reduction do
                for new, ref in zip(divmod(p * q, q), divmod(pr * qr, qr)):
                    assert_same(new, ref)
            assert_same(p.monic(), pr.monic())
            assert_same(p.derivative(), pr.derivative())
            assert_same(p.flip_sign(), pr.flip_sign())
            assert_same(p.gcd(q), pr.gcd(qr))
            assert p.degree == pr.degree
            assert all(p.coeff(k) == pr.coeff(k) for k in range(-1, 9))
            x = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 9))
            z = QComplex(x, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
            omega2 = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 9))
            assert p(x) == pr(x) and type(p(x)) is Fraction
            assert p(z) == pr(z)
            assert p.eval_jomega(omega2) == pr.eval_jomega(omega2)

    def test_equal_by_any_route_have_equal_hash(self):
        rng = random.Random(1839)
        for _ in range(200):
            a, b = random_coefficients(rng), random_coefficients(rng)
            p, q = Polynomial(a), Polynomial(b)
            routes = [Polynomial([str(c) for c in a]), Polynomial(p.coeffs),
                      -(-p), (p * 3) * Fraction(1, 3), p + q - q,
                      p * Polynomial([Fraction(1, 10 ** 9)]) * 10 ** 9]
            if q:
                routes.append((p * q) // q)
            if p:
                routes.append(p.monic() * p.leading())
            for r in routes:
                assert r == p and hash(r) == hash(p)
            assert len(set(routes + [p])) == 1
        assert Polynomial([Q(3, 2)]) == Q(3, 2) and Polynomial() == 0

    def test_coefficients_and_text(self):
        p = Polynomial([Q(1, 2), 0, -3])
        assert p.coeffs == (Q(1, 2), Q(0), Q(-3))
        assert repr(p) == "Polynomial([Fraction(1, 2), Fraction(0, 1), " \
                          "Fraction(-3, 1)])"
        assert str(p) == "-3 s^2 + 1/2"
        assert (repr(Polynomial()), str(Polynomial())) == ("Polynomial([])", "0")
        assert str(Polynomial([-1, Q(-2, 7), 1])) == "s^2 - 2/7 s - 1"
        rng = random.Random(1842)
        for _ in range(100):
            a = random_coefficients(rng)
            ref = FractionPolynomial(a)
            assert repr(Polynomial(a)) == repr(ref)
            assert str(Polynomial(a)) == format_poly(ref)

    def test_negative_power_raises(self):
        # the square-and-multiply loop never ends on n = -1 (-1 >> 1 == -1)
        with pytest.raises(ValueError):
            Polynomial([1]) ** -1
        p = Polynomial([1, Q(-1, 2)])
        assert p ** 0 == 1 and p ** 3 == p * p * p
