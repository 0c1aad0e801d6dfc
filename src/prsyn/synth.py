"""Realization procedures for minimum functions.

One-step synthesis (the classical seven-element networks and the newer
wheel-shaped alternatives), the minimal-storage classifier for biquadratic
minimum functions with witness constructors, the quartet family
constructors, the bridge structural matcher, and the Sylvester-resultant
fixture checks used to certify the classifier's boundary algebra.  One
arm table, ``_quartet_arms``, gives each quartet member's arms with every
leaf value a reduced int pair: ``build_quartet`` turns the pairs into
validated elements, and the fixtures fold them on ints, with no
``Fraction``, ``Element`` or ``Leaf`` per arm.  Every fixture pair is a
quartet member's bridge pair (``_quartet_polys``), a Kirchhoff sum over
int lists, its terms grouped once at import, times a scale; times a
power of its free variable x it has coefficients that are polynomials in
x, so a check builds the bridge at a few integer nodes only, puts the
builds over one scale and interpolates each coefficient over Z
(``_coefficients_in_x``).
One Bareiss pass over Z[x] on the pair's 4 x 4 hybrid Bezout rows then
gives the subresultants R_0(x) and R_1(x), up to one positive constant that
every reader cancels, and only then are Polynomials built: the printed
factorizations are checked as identities in x, by exact division.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Tuple

from .polyrat import (BiquadParams, InvariantViolation, NotMinimum,
                      NotRationalParams, Polynomial, Q, QComplex,
                      RationalFunction, _add, _as_q, _interpolate,
                      _jomega_quotient, _mul, _poly,
                      _subresultant, _sylvester_det, _sylvester_r0_r1,
                      biquad_template, count_real_roots, is_minimum_function,
                      is_positive_real, minimum_frequencies, real_roots,
                      sqrt_fraction)
from . import network as net
from .network import (CAPACITOR, INDUCTOR, RESISTOR, Element, Leaf, Network,
                      par, ser)


class SynthError(Exception):
    pass


class WrongBranch(SynthError):
    pass


class NonConstantReduced(SynthError):
    pass


class ConditionViolated(SynthError):
    pass


class ConstraintViolated(SynthError):
    pass


class NoMatch(SynthError):
    pass


# ---------------------------------------------------------------------------
# one-step synthesis at a minimum frequency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SynthesisStep:
    """Data of one realization step at a minimum frequency omega0.

    For X > 0: mu_or_nu = mu with X = H(mu)/mu.
    For X < 0: mu_or_nu = nu with -w0^2 X = H(nu)*nu.

    ``mirrored()`` is the step of H(w0^2/s), on the other branch; twice it
    gives the step back.  The X < 0 identity and networks are the X > 0
    ones of the mirrored step, seen through s -> w0^2/s.
    """

    variant: str                    # "X_positive" | "X_negative"
    omega0: Fraction
    X: Fraction
    mu_or_nu: Fraction
    alpha_or_beta: Fraction
    h: Fraction                     # H at mu (or nu)
    reduced: RationalFunction       # H_r (or H~_r)

    def __post_init__(self):
        # the signs of Theorem 2's branch, then its defining identity
        w0, m, ab = self.omega0, self.mu_or_nu, self.alpha_or_beta
        positive = self.variant == "X_positive"
        if not ((self.X > 0 if positive else self.X < 0) and m > 0 and ab > 0):
            raise InvariantViolation("theorem2.sign", variant=self.variant,
                                     X=self.X, mu_or_nu=m, alpha_or_beta=ab)
        if (self.X != self.h / m if positive
                else -w0 * w0 * self.X != self.h * m):
            raise InvariantViolation("theorem2.identity",
                                     variant=self.variant, X=self.X,
                                     mu_or_nu=m, h=self.h)

    def mirrored(self) -> "SynthesisStep":
        """The step of H(w0^2/s), from this step's data alone: X' = -X,
        mu_or_nu' = w0^2/mu_or_nu, reduced' = reduced(w0^2/s)."""
        w2 = self.omega0 * self.omega0
        variant = "X_negative" if self.variant == "X_positive" else "X_positive"
        return SynthesisStep(variant, self.omega0, -self.X, w2 / self.mu_or_nu,
                             self.alpha_or_beta, self.h,
                             self.reduced.compose_winv(w2))


def theorem2_step(h: RationalFunction, omega0=None,
                  variant: Optional[str] = None) -> SynthesisStep:
    """One synthesis step for a minimum function with minimum frequency
    omega0 (default: the smallest one).

    On the X > 0 branch returns the smallest positive mu with H(mu) = mu*X
    and the residue alpha of (mu H(mu) - s H(s))/(mu H(s) - s H(mu)) at
    j*omega0; the reduced function drops the McMillan degree by at least
    two.  Mirror data on the X < 0 branch.  mu (nu) is a root of the branch
    polynomial p - X s q (s p + w0^2 X q) divided by its factor s^2 + w0^2;
    a biquad's quotient is linear, so a biquadratic step reads its root in
    closed form, with no Sturm chain.  Requires the minimum frequency, the
    root and the residue to be exact rationals (always true for biquadratic
    inputs with rational parameters); raises NotRationalParams otherwise.  A
    given omega0 that is not positive, or not a minimum frequency, raises
    NotMinimum.  The step is returned only once ``verify_theorem2_identity``
    holds."""
    if not is_minimum_function(h):
        raise NotMinimum("theorem2_step requires a minimum function")
    if omega0 is None:
        omega0 = minimum_frequencies(h)[0].exact
        if omega0 is None:
            raise NotRationalParams("smallest minimum frequency is irrational")
    omega0 = _as_q(omega0)
    w2 = omega0 * omega0
    re, im = h.eval_jomega_pair(w2)
    if omega0 <= 0 or re != 0 or im == 0:
        raise NotMinimum(f"omega0={omega0} is not a minimum frequency")
    x = im
    branch = "X_positive" if x > 0 else "X_negative"
    if variant is not None and variant != branch:
        raise WrongBranch(f"requested {variant} but H(j*omega0) gives {branch}")

    p, q = h.num, h.den
    if x > 0:
        # H(mu) - mu*X = 0  ->  p(mu) - X*mu*q(mu) = 0
        branch_poly = p - Polynomial([0, x]) * q
    else:
        # H(nu)*nu + w0^2*X = 0  ->  nu*p(nu) + w0^2*X*q(nu) = 0
        branch_poly = Polynomial([0, 1]) * p + (w2 * x) * q
    # H(j*omega0) = j*omega0*X, so branch_poly vanishes at +-j*omega0: the
    # division is exact and keeps the positive roots; mu is the smallest
    tank = Polynomial([w2, 0, 1])
    roots = real_roots(branch_poly // tank, Q(0))
    if not roots or not isinstance(roots[0], Fraction):
        raise NotRationalParams("no exact rational root for mu/nu")
    mu = roots[0]
    hval = h(mu)

    s_poly = Polynomial([0, 1])
    num, den = mu * hval * q - s_poly * p, mu * p - hval * s_poly * q
    y = RationalFunction(num, den) if x > 0 else RationalFunction(den, num)
    # residue y.num/y.den' of y at s = j*omega0 (a real rational for a
    # genuine step)
    try:
        alpha, res_im = _jomega_quotient(y.num, y.den.derivative(), w2)
    except ZeroDivisionError:
        raise SynthError(
            "resonant pole missing from the quotient function") from None
    if res_im != 0:
        raise SynthError("residue at j*omega0 is not real")
    if alpha <= 0:
        raise SynthError("residue at j*omega0 is not positive")
    # 1/(y - 2 alpha s/(s^2 + w0^2)) with y = a/b, as one quotient
    reduced = RationalFunction(tank * y.den,
                               tank * y.num - Polynomial([0, 2 * alpha]) * y.den)
    if not is_positive_real(reduced):
        raise SynthError("reduced function is not positive-real")
    if reduced.mcmillan_degree > h.mcmillan_degree - 2:
        raise SynthError("McMillan degree did not drop by two")
    step = SynthesisStep(branch, omega0, x, mu, alpha, hval, reduced)
    if not verify_theorem2_identity(h, step):
        raise SynthError("cubic composite identity failed")
    return step


def verify_theorem2_identity(h: RationalFunction, step: SynthesisStep) -> bool:
    """Exact check of the cubic composite identity relating H, the reduced
    function, mu (nu), alpha (beta) and omega0: H = H(mu) N/D on the X > 0
    branch and H(nu) D/N on the X < 0 one, where, with reduced = a/b,
    N = (s^3 + w0^2 s) b + (mu w0^2 + (2 alpha + mu) s^2) a and
    D = (s^3 + (2 alpha mu + w0^2) s) a + mu (s^2 + w0^2) b.  Checked
    cross-multiplied, as the one polynomial identity h.num D = h.den N H(mu)
    (N and D swapped on the X < 0 branch), so no quotient is built and no
    gcd taken."""
    w2 = step.omega0 * step.omega0
    m, ab = step.mu_or_nu, step.alpha_or_beta
    a, b = step.reduced.num, step.reduced.den
    n = (Polynomial([0, w2, 0, 1]) * b
         + Polynomial([m * w2, 0, 2 * ab + m]) * a)
    d = (Polynomial([0, 2 * ab * m + w2, 0, 1]) * a
         + Polynomial([m * w2, 0, m]) * b)
    if step.variant == "X_negative":
        n, d = d, n
    return h.num * d == h.den * n * step.h


# ---------------------------------------------------------------------------
# seven-element constructors (two resistors, five storage elements)
# ---------------------------------------------------------------------------

def _leaf(eid, kind, v):
    # endpoints are placeholders; net.assemble rewrites them
    return Leaf(Element(eid, kind, "_", "__", v))


SEVEN_ELEMENT_VARIANTS = ("rpfg_first", "rpfg_second", "alt_first", "alt_second")

# X < 0 variant: (its X > 0 twin, twin ids not renamed by the new kind alone)
_X_NEGATIVE_TWINS = {"rpfg_first": ("rpfg_second", {}),
                     "rpfg_second": ("rpfg_first", {"l2": "c1", "c2": "l1"}),
                     "alt_first": ("alt_second", {}),
                     "alt_second": ("alt_first", {})}


def _frequency_inverted(n: Network, omega0, ids: Dict[str, str]) -> Network:
    """``net.frequency_invert`` with each id's leading letter set to the
    element's new kind, unless ids renames it, as one ``Network``."""
    w2 = omega0 * omega0
    inv = [net._invert_element(e, w2) for e in n.elements]
    return Network(n.vertices, [
        Element(ids.get(e.id, e.kind.lower() + e.id[1:]), e.kind, e.head,
                e.tail, e.value) for e in inv], n.port)


def build_seven_element(step: SynthesisStep, which: str) -> Network:
    """Materialize one of the four seven-element realizations for a step
    whose reduced function is a positive constant (the two impedance blocks
    then collapse to resistors).  Every output has exactly two resistors
    and five energy storage elements.  An X < 0 network is the frequency
    inversion of the twin X > 0 variant built on ``step.mirrored()``."""
    if which not in SEVEN_ELEMENT_VARIANTS:
        raise ValueError(f"unknown variant {which!r}")
    if not step.reduced.is_constant():
        raise NonConstantReduced(
            "impedance blocks are not resistors; the reduced function has "
            f"McMillan degree {step.reduced.mcmillan_degree}")
    if step.variant == "X_negative":
        twin, ids = _X_NEGATIVE_TWINS[which]
        return _frequency_inverted(build_seven_element(step.mirrored(), twin),
                                   step.omega0, ids)
    w = step.reduced.constant_value()
    w0 = step.omega0
    w2 = w0 * w0
    h, ab, m = step.h, step.alpha_or_beta, step.mu_or_nu
    chi = w2 + 2 * ab * m
    gam = m + 2 * ab
    phi = chi + m * m
    if which == "rpfg_first":
        return net.assemble_shape(
            "bridge",
            N1=ser(_leaf("r1", RESISTOR, h / w),
                   par(_leaf("l2", INDUCTOR, 2 * ab * h * phi / (w2 * chi)),
                       _leaf("c2", CAPACITOR, chi / (2 * ab * h * phi)))),
            N2=_leaf("r2", RESISTOR, h * w),
            N3=_leaf("l3", INDUCTOR, h * m / chi),
            N4=_leaf("l4", INDUCTOR, h / m),
            N5=_leaf("c5", CAPACITOR, chi / (h * m * w2)))
    if which == "rpfg_second":
        return net.assemble_shape(
            "bridge",
            N1=_leaf("r1", RESISTOR, h / w),
            N2=par(_leaf("r2", RESISTOR, h * w),
                   ser(_leaf("l2", INDUCTOR, h * gam * m / (2 * ab * phi)),
                       _leaf("c2", CAPACITOR, 2 * ab * phi / (h * gam * m * w2)))),
            N3=_leaf("l3", INDUCTOR, h * gam / w2),
            N4=_leaf("l4", INDUCTOR, h / m),
            N5=_leaf("c5", CAPACITOR, 1 / (h * gam)))
    if which == "alt_first":
        return net.assemble_shape(
            "wheel_rim",
            sa=_leaf("r1", RESISTOR, h * w),
            sb=_leaf("l1", INDUCTOR, h / m),
            sp=_leaf("l2", INDUCTOR, 2 * ab * h * m * m / (chi * chi)),
            sq=_leaf("l3", INDUCTOR, 2 * ab * h / w2),
            rap=_leaf("c1", CAPACITOR, chi / (h * m * w2)),
            rbq=_leaf("r2", RESISTOR, h / w),
            rpq=_leaf("c2", CAPACITOR, chi / (2 * ab * h * phi)))
    # alt_second
    return net.assemble_shape(
        "wheel_spoke",
        ar1=_leaf("r1", RESISTOR, h * w),
        ar2=_leaf("c1", CAPACITOR, 2 * ab * phi / (h * gam * m * w2)),
        ar3=_leaf("c2", CAPACITOR, 1 / (h * gam)),
        br1=_leaf("l1", INDUCTOR, h / m),
        br3=_leaf("r2", RESISTOR, h / w),
        r12=_leaf("l2", INDUCTOR, h / (2 * ab)),
        r23=_leaf("l3", INDUCTOR, h * gam * gam / (2 * ab * w2)))


# ---------------------------------------------------------------------------
# the minimal-storage classifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Classification:
    storage_min: int                # 3, 4 or 5
    condition: str                  # "a".."f" or "none"
    witness_network: Network


# Conditions (a)-(f) and the named bridges that realize them, one row each:
# (letter, network, storage count, condition on (W, F), arms from (K, w0, W,
# F)).  The squared comparisons are exact.  Rows (b) and (e) name instead
# the network whose frequency inversion realizes theirs: (a) resp. (c)
# holds at the parameters of H(w0^2/s).
CONDITIONS = (
    ("a", "N1", 3, lambda W, F: W == Q(1, 2) and F > 0,
     lambda K, w0, W, F: dict(
         N1=_leaf("r1", RESISTOR, K / 2),
         N2=_leaf("r2", RESISTOR, K / 2),
         N3=_leaf("c3", CAPACITOR, 1 / (K * F * w0)),
         N4=_leaf("l4", INDUCTOR, K * F / w0),
         N5=_leaf("l5", INDUCTOR, K * F / w0))),
    ("b", "N2", 3, lambda W, F: W == 2 and F < 0, "N1"),
    ("c", "N3", 4,
     lambda W, F: (Q(1, 2) < W < 1
                   and F * F * (1 - W) ** 2 == W * W * (2 * W - 1)),
     lambda K, w0, W, F: dict(
         N1=_leaf("r1", RESISTOR, K * W * W / ((1 - W) * (1 + W))),
         N2=_leaf("r2", RESISTOR, K),
         N3=_leaf("c3", CAPACITOR, 1 / (K * F * w0)),
         N4=par(_leaf("l4", INDUCTOR, K * F * (1 - W) / (W * w0)),
                _leaf("c4", CAPACITOR, (2 * W - 1) / (K * F * (1 - W) * w0))),
         N5=_leaf("l5", INDUCTOR, K * F / w0))),
    ("d", "N4", 4,
     lambda W, F: 1 < W < 2 and F * F * (2 - W) == W * (1 - W) ** 2,
     lambda K, w0, W, F: dict(
         N1=_leaf("r1", RESISTOR, K),
         N2=_leaf("r2", RESISTOR, -K * (1 - W) * (1 + W)),
         N3=_leaf("l3", INDUCTOR, -K * F / w0),
         N4=ser(_leaf("c4", CAPACITOR, (1 - W) / (K * F * w0)),
                _leaf("l4", INDUCTOR, K * F * (2 - W) / ((1 - W) * w0))),
         N5=_leaf("c5", CAPACITOR, -1 / (K * F * w0)))),
    ("e", "N5", 4,
     lambda W, F: 1 < W < 2 and F * F * (1 - W) ** 2 == W ** 3 * (2 - W), "N3"),
    ("f", "N6", 4,
     lambda W, F: (Q(1, 2) < W < 1
                   and F * F * (2 * W - 1) == W * W * (1 - W) ** 2),
     lambda K, w0, W, F: dict(
         N1=_leaf("r1", RESISTOR, K * (1 - W) * (1 + W)),
         N2=_leaf("r2", RESISTOR, K * W * W),
         N3=_leaf("c3", CAPACITOR, 1 / (K * F * w0)),
         N4=_leaf("l4", INDUCTOR, K * F / w0),
         N5=ser(_leaf("c5", CAPACITOR, (1 - W) / (K * F * (2 * W - 1) * w0)),
                _leaf("l5", INDUCTOR, K * F * W / ((1 - W) * w0))))),
)


def classify_biquad(p: BiquadParams) -> Classification:
    """Minimum number of energy storage elements over all RLC realizations
    of the biquadratic minimum function with parameters p, with a witness:
    the named bridge of the first row of ``CONDITIONS`` that holds, three
    storage elements for (a) W = 1/2 or (b) W = 2, four on the boundaries
    (c)-(f).  Anything else needs five storage elements (witness:
    seven-element realization)."""
    for letter, name, storage, holds, _ in CONDITIONS:
        if holds(p.W, p.F):
            return Classification(storage, letter, build_named(name, p))
    step = theorem2_step(biquad_template(p), p.omega0)
    return Classification(5, "none", build_seven_element(step, "rpfg_first"))


def _inverted_params(p: BiquadParams) -> BiquadParams:
    """The parameters (K W^2, w0, 1/W, -F/W^2) of H(w0^2/s)."""
    return BiquadParams(p.K * p.W * p.W, p.omega0, 1 / p.W, -p.F / (p.W * p.W))


def build_named(name: str, p: BiquadParams) -> Network:
    """Wire one of the named fixed-topology realizations for parameters p.

    For N1-N6 the condition of its ``CONDITIONS`` row is validated exactly
    (ConditionViolated)."""
    if name in ("Fig2a", "Fig2b"):
        return _build_fig2(name, p)
    for letter, named, _, holds, arms in CONDITIONS:
        if named == name:
            if not holds(p.W, p.F):
                raise ConditionViolated(
                    f"{name} requires condition ({letter})")
            if isinstance(arms, str):
                return _frequency_inverted(
                    build_named(arms, _inverted_params(p)), p.omega0, {})
            return net.assemble_shape("bridge",
                                      **arms(p.K, p.omega0, p.W, p.F))
    raise ValueError(f"unknown named network {name!r}")


@dataclass(frozen=True)
class Fig2Params:
    """Parameters of the non-stabilizable pair of realizations, with the
    derived symbols phi = 1-W, psi = 1+W, eta = 2W-1 and
    zeta = W^2 phi^2 - F^2 eta.  Valid when 1/2 < W < 1 and
    0 < F < W(1-W)/sqrt(2W-1), i.e. zeta > 0."""

    K: Fraction
    omega0: Fraction
    W: Fraction
    F: Fraction

    def __post_init__(self):
        for name in ("K", "omega0", "W", "F"):
            object.__setattr__(self, name, _as_q(getattr(self, name)))
        if self.K <= 0 or self.omega0 <= 0:
            raise ConditionViolated("K and omega0 must be positive")
        if not (Q(1, 2) < self.W < 1 and self.F > 0 and self.zeta > 0):
            raise ConditionViolated(
                "require 1/2 < W < 1 and 0 < F < W(1-W)/sqrt(2W-1)")

    @property
    def phi(self) -> Fraction:
        return 1 - self.W

    @property
    def psi(self) -> Fraction:
        return 1 + self.W

    @property
    def eta(self) -> Fraction:
        return 2 * self.W - 1

    @property
    def zeta(self) -> Fraction:
        return (self.W * self.phi) ** 2 - self.F * self.F * self.eta


def _build_fig2(name: str, p: BiquadParams) -> Network:
    fp = Fig2Params(p.K, p.omega0, p.W, p.F)
    K, w0, W, F = fp.K, fp.omega0, fp.W, fp.F
    phi, psi, eta, zeta = fp.phi, fp.psi, fp.eta, fp.zeta
    if name == "Fig2b":
        elems = [
            Element("l1", INDUCTOR, "n4", "P", K * F / w0),
            Element("l2", INDUCTOR, "N", "n3", K * F * W / (phi * w0)),
            Element("c3", CAPACITOR, "n4", "n2", 1 / (K * F * w0)),
            Element("c4", CAPACITOR, "n1", "n2", F * W / (K * zeta * w0)),
            Element("c5", CAPACITOR, "n2", "n3", phi / (K * eta * F * w0)),
            Element("r1", RESISTOR, "P", "n1", K * phi * psi),
            Element("r2", RESISTOR, "n4", "N", K * W * W),
        ]
    else:
        elems = [
            Element("l1", INDUCTOR, "n4", "P", K * F / w0),
            Element("l2", INDUCTOR, "N", "n3", K * F * W / (phi * w0)),
            Element("ca", CAPACITOR, "n1", "n4", F * eta / (K * phi * phi * W * W * w0)),
            Element("cb", CAPACITOR, "n4", "n3", zeta / (K * phi * F * W ** 3 * w0)),
            Element("cc", CAPACITOR, "n3", "n1", F / (K * phi * W * W * w0)),
            Element("r1", RESISTOR, "P", "n1", K * phi * psi),
            Element("r2", RESISTOR, "n4", "N", K * W * W),
        ]
    verts = {v for e in elems for v in (e.head, e.tail)}
    return Network(verts, elems, ("P", "N"))


# ---------------------------------------------------------------------------
# quartet constructors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuartetParams:
    """Element parameters of the fixed-topology quartet families.  E is
    derived for N8/N9/N10 (CD/(C+D), (A+B)/(B+D), and
    (B-D)/(C-D) respectively) and a free fifth parameter for N11/N12."""

    family: str
    A: Optional[Fraction] = None
    B: Optional[Fraction] = None
    C: Optional[Fraction] = None
    D: Optional[Fraction] = None
    E: Optional[Fraction] = None

    def __post_init__(self):
        for f in ("A", "B", "C", "D", "E"):
            v = getattr(self, f)
            if v is not None:
                object.__setattr__(self, f, _as_q(v))

    def derived_E(self) -> Fraction:
        """E as a Fraction, from ``E_pair``."""
        return Fraction(*self.E_pair())

    def E_pair(self) -> Tuple[int, int]:
        """E as an int pair (a, b) of value a/b, b != 0, unreduced: the
        derived E of N8/N9/N10, cross-multiplied from the parameters'
        numerators and denominators, or the free E of N11/N12.  A derived E
        whose denominator is 0 (C + D, B + D resp. C - D is 0), and a
        missing free E, raise ConstraintViolated naming the family."""
        base = self.family.rstrip("abdi")
        if base not in _DERIVED_E:
            if self.E is None:
                raise ConstraintViolated(
                    f"{self.family} needs the E parameter")
            return self.E.numerator, self.E.denominator
        A, B, C, D = (None if x is None else (x.numerator, x.denominator)
                      for x in (self.A, self.B, self.C, self.D))
        if base == "N8":
            # 1/E = 1/C + 1/D
            a, b = C[0] * D[0], C[0] * D[1] + D[0] * C[1]
        elif base == "N9":
            a = (A[0] * B[1] + B[0] * A[1]) * D[1]
            b = A[1] * (B[0] * D[1] + D[0] * B[1])
        else:
            a = (B[0] * D[1] - D[0] * B[1]) * C[1]
            b = B[1] * (C[0] * D[1] - D[0] * C[1])
        if b == 0:
            raise ConstraintViolated(f"{self.family}: E = {_DERIVED_E[base]}"
                                     " has a zero denominator")
        return a, b


# The derived E of each family that has one.
_DERIVED_E = {"N8": "CD/(C+D)", "N9": "(A+B)/(B+D)", "N10": "(B-D)/(C-D)"}


# Each family's requirements, by name (a degenerate N11/N12 member, suffix
# a resp. b, has A resp. C = 0): the parameters that are 0, those that are
# > 0, and a further condition with its text, or None.  E is read (so
# checked) only in N11/N12, where it is a free parameter.  A row reads the
# parameters it names, in any of the three, so each of those must be given.
_QUARTET_REQUIREMENTS = {
    "N7": ("", "ABC", None),
    "N8": ("", "ABCD", None),
    "N9": ("", "ABCD", None),
    "N10": ("", "ABC", ("(B-D)(C-D) > 0 and B != C",
                        lambda qp: (qp.B - qp.D) * (qp.C - qp.D) > 0
                        and qp.B != qp.C)),
    "N11": ("", "ABCDE", None), "N11a": ("A", "BCDE", None),
    "N11b": ("C", "ABDE", None),
    "N12": ("", "ABCDE", None), "N12a": ("A", "BCDE", None),
    "N12b": ("C", "ABDE", None),
}


def _check_names(family: str, missing, unknown=()) -> None:
    """ConstraintViolated naming each missing and each unknown parameter of
    family, if there is any."""
    def listed(names):
        return (", ".join(names) + " parameter"
                + ("s" if len(names) > 1 else ""))

    faults = ([f"needs the {listed(missing)}"] if missing else []) + (
        [f"has no {listed(unknown)}"] if unknown else [])
    if faults:
        raise ConstraintViolated(f"{family} {' and '.join(faults)}")


def _arm_leaf(eid: str, kind: str, up, down=()) -> Tuple[str, str, int, int]:
    """The leaf (eid, kind, a, b) of a quartet arm, of value a/b: the
    product of the int pairs (numerator, denominator) in up over that of
    those in down, reduced, with b > 0.  A value that is not positive, or
    has a zero denominator, raises NonpositiveValue as ``Element`` does."""
    a = b = 1
    for n, d in up:
        a, b = a * n, b * d
    for n, d in down:
        a, b = a * d, b * n
    if b < 0:
        a, b = -a, -b
    if a <= 0 or b == 0:
        raise net.NonpositiveValue(f"element {eid}: value must be positive")
    g = math.gcd(a, b)
    return eid, kind, a // g, b // g


def _quartet_arms(fam: str, qp: QuartetParams,
                  w0: Fraction) -> Dict[str, list]:
    """The bridge arms {slot: arm} of a quartet family member, its row's
    requirements unchecked, with every leaf value an int pair: the one arm
    table of both routes.  An arm lists its parts in series, each part its
    leaves in parallel, and a leaf is ``_arm_leaf``'s (id, kind, a, b), so
    a nonpositive leaf raises NonpositiveValue here, before either route
    reads it.  ``build_quartet`` turns each arm into a validated tree
    (``_arm_tree``), and the fixture checks fold it on ints (``_arm_ints``)
    with no ``Fraction``, ``Element`` or ``Leaf``.  In N11/N12 the N1 arm
    is series(R_A, parallel(storage, R_{1/C})): A = 0 omits the series
    resistor and C = 0 the parallel one."""
    A, B, C, D = (None if x is None else (x.numerator, x.denominator)
                  for x in (qp.A, qp.B, qp.C, qp.D))
    w = (w0.numerator, w0.denominator)
    leaf = _arm_leaf
    if fam == "N7":
        return dict(N1=[[leaf("r1", RESISTOR, [A])]],
                    N2=[[leaf("r2", RESISTOR, [B])]],
                    N3=[[leaf("c3", CAPACITOR, [], [C, w])]],
                    N4=[[leaf("l4", INDUCTOR, [C], [w])]],
                    N5=[[leaf("l5", INDUCTOR, [C], [w])]])
    E = qp.E_pair()
    if fam == "N8":
        return dict(N1=[[leaf("r1", RESISTOR, [A])]],
                    N2=[[leaf("r2", RESISTOR, [B])]],
                    N3=[[leaf("c3", CAPACITOR, [], [D, w])]],
                    N4=[[leaf("l4", INDUCTOR, [E], [w]),
                         leaf("c4", CAPACITOR, [], [C, w])]],
                    N5=[[leaf("l5", INDUCTOR, [D], [w])]])
    if fam == "N9":
        return dict(N1=[[leaf("r1", RESISTOR, [C])]],
                    N2=[[leaf("c2", CAPACITOR, [], [B, w])]],
                    N3=[[leaf("c3", CAPACITOR, [], [A, w])]],
                    N4=[[leaf("l4", INDUCTOR, [A], [E, w])]],
                    N5=[[leaf("l5", INDUCTOR, [D, E], [w])]])
    if fam == "N10":
        return dict(N1=[[leaf("c1", CAPACITOR, [], [C, E, w])]],
                    N2=[[leaf("c2", CAPACITOR, [E], [B, w])]],
                    N3=[[leaf("r3", RESISTOR, [A])]],
                    N4=[[leaf("l4", INDUCTOR, [B], [w])]],
                    N5=[[leaf("l5", INDUCTOR, [C], [w])]])
    inner = [leaf("c1", CAPACITOR, [], [D, w]) if fam.startswith("N11")
             else leaf("l1", INDUCTOR, [D], [w])]
    if C[0] != 0:
        inner.append(leaf("r3", RESISTOR, [], [C]))
    series = [] if A[0] == 0 else [[leaf("r1", RESISTOR, [A])]]
    return dict(N1=series + [inner],
                N2=[[leaf("r2", RESISTOR, [B])]],
                N3=[[leaf("c3", CAPACITOR, [], [E, w])]],
                N4=[[leaf("l4", INDUCTOR, [E], [w])]],
                N5=[[leaf("l5", INDUCTOR, [E], [w])]])


def _arm_tree(arm):
    """The validated tree of a ``_quartet_arms`` arm: a leaf of an
    ``Element`` of value a/b per int pair, the leaves of a part in parallel
    and the parts in series, where a lone leaf or part stands alone."""
    parts = []
    for leaves in arm:
        trees = [_leaf(eid, kind, Fraction(a, b))
                 for (eid, kind, a, b) in leaves]
        parts.append(trees[0] if len(trees) == 1 else par(*trees))
    return parts[0] if len(parts) == 1 else ser(*parts)


def _arm_ints(arm) -> Tuple[List[int], List[int], int]:
    """``_tree_ints`` of a ``_quartet_arms`` arm, read off its int pairs:
    each leaf by the leaf law ``_leaf_ints`` of its kind, the leaves of a
    part in parallel and the parts in series."""
    return net._series_ints([
        net._parallel_ints([net._leaf_ints(net.KINDS[kind].law, a, b)
                            for (_, kind, a, b) in leaves])
        for leaves in arm])


def build_quartet(qp: QuartetParams, omega0) -> Network:
    """Build a member of the quartet families.

    Family names: a row of ``_QUARTET_REQUIREMENTS`` (N7/N8/N9/N10/N11/N12
    and the degenerate N11a/N11b/N12a/N12b), with optional suffixes 'i'
    (frequency inversion), 'd' (dual) and 'di' (both), e.g. "N8di".  An
    omega0 that is not positive, and a row's requirements that fail, raise
    ConstraintViolated (checked exactly) before any arm is built."""
    w0 = _as_q(omega0)
    fam = qp.family.rstrip("di")
    suffix = qp.family[len(fam):]
    if fam not in _QUARTET_REQUIREMENTS or suffix not in ("", "i", "d", "di"):
        raise ValueError(f"unknown quartet family {qp.family!r}")
    if w0 <= 0:
        raise ConstraintViolated(f"{fam} requires omega0 > 0")
    zero, positive, further = _QUARTET_REQUIREMENTS[fam]
    named = zero + positive + (further[0] if further else "")
    _check_names(fam, [x for x in "ABCDE"
                       if x in named and getattr(qp, x) is None])
    value = {x: getattr(qp, x) for x in "ABCD"}
    if "E" in positive:
        value["E"] = qp.derived_E()
    if not (all(value[x] == 0 for x in zero)
            and all(value[x] > 0 for x in positive)
            and (further is None or further[1](qp))):
        needs = [f"{x} = 0" for x in zero] + [", ".join(positive) + " > 0"]
        if further:
            needs.append(further[0])
        raise ConstraintViolated(f"{fam} requires {', '.join(needs)}")
    n = net.assemble_shape("bridge", **{
        slot: _arm_tree(arm)
        for slot, arm in _quartet_arms(fam, qp, w0).items()})
    if "d" in suffix:
        n = net.dual(n)
    return net.frequency_invert(n, w0) if "i" in suffix else n


# ---------------------------------------------------------------------------
# bridge structural matcher (minimum-function networks with <= 4 storage)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StructureMatch:
    """Decomposition of a network into the five-arm bridge with the
    condition (1-4) its one-port impedances satisfy at j*omega0."""

    lemma8_condition: int
    bridge_assignment: Dict[str, Tuple[str, ...]]
    corners: Tuple[str, str, str, str]      # (a, b, c, d), matched embedding


def _arm_kinds(tree) -> List[str]:
    return [e.kind for e in net.tree_elements(tree)]


def _is_single(tree, kind) -> bool:
    return _arm_kinds(tree) == [kind]


def _is_lc_pair(tree) -> bool:
    return (isinstance(tree, (net.Ser, net.Par))
            and sorted(_arm_kinds(tree)) == [CAPACITOR, INDUCTOR])


def match_minimum_structure(n: Network, omega0) -> StructureMatch:
    """Identify the bridge decomposition and which structural condition the
    arm impedances satisfy at j*omega0.

    Conditions (fixed structural list, conventional numbering):
    1. N1 only resistors; N2,N3 capacitors and N4,N5 inductors (or the
       swap); Z2(Z3+Z4) + Z4(Z3+Z5) = 0.
    2. N1,N2 capacitors; N3 only resistors; N4,N5 inductors;
       Z1 Z2 = Z4 Z5 with Z1 != -Z4 and Z1 != -Z5.
    3. N1 resistors plus at most one storage element; N2 only resistors;
       N3 only capacitors (resp. inductors); N4,N5 only inductors (resp.
       capacitors); Z3 = -Z4 = -Z5.
    4. N1,N2 only resistors; N3 a capacitor (resp. inductor); N4 a series
       or parallel LC pair; N5 an inductor (resp. capacitor);
       Z3 = -Z4 = -Z5.

    An omega0 that is not positive, or not a minimum frequency of the
    impedance, raises NoMatch.
    """
    from . import analysis

    w0 = _as_q(omega0)
    w2 = w0 * w0
    if analysis.storage_count(n) > 4:
        raise NoMatch("more than four storage elements")
    h = analysis.impedance(n)
    if not is_minimum_function(h):
        raise NoMatch("impedance is not a minimum function")
    re, im = h.eval_jomega_pair(w2)
    if w0 <= 0 or re != 0 or im == 0:
        raise NoMatch(f"omega0={w0} is not a minimum frequency")
    # the bridge's two-terminal symmetries: identity, c<->d, a<->b, both
    found = list(net.embeddings(net.skeleton(n)[0], n.port, "bridge"))
    if not found:
        raise NoMatch("network does not reduce to the five-arm bridge")

    def zval(tree) -> QComplex:
        za, zb = net.tree_impedance(tree).eval_jomega_pair(w2)
        return QComplex(za, zb * w0)        # za + j*zb*w0

    for vmap, t in found:
        z = {pos: zval(t[pos]) for pos in t}
        cond = _test_conditions(t, z)
        if cond is not None:
            assignment = {pos: tuple(sorted(e.id for e in net.tree_elements(t[pos])))
                          for pos in sorted(t)}
            return StructureMatch(cond, assignment,
                                  tuple(vmap[v] for v in "abcd"))
    raise NoMatch("no structural condition holds at j*omega0")


def _test_conditions(t, z) -> Optional[int]:
    kinds = {pos: _arm_kinds(t[pos]) for pos in t}

    def all_kind(pos, kind):
        return kinds[pos] and all(k == kind for k in kinds[pos])

    # condition 1
    if all_kind("N1", RESISTOR):
        for k23, k45 in ((CAPACITOR, INDUCTOR), (INDUCTOR, CAPACITOR)):
            if (_is_single(t["N2"], k23) and _is_single(t["N3"], k23)
                    and _is_single(t["N4"], k45) and _is_single(t["N5"], k45)):
                lhs = (z["N2"] * (z["N3"] + z["N4"])
                       + z["N4"] * (z["N3"] + z["N5"]))
                if lhs.is_zero():
                    return 1
    # condition 2
    if (_is_single(t["N1"], CAPACITOR) and _is_single(t["N2"], CAPACITOR)
            and all_kind("N3", RESISTOR)
            and _is_single(t["N4"], INDUCTOR) and _is_single(t["N5"], INDUCTOR)):
        if (z["N1"] * z["N2"] == z["N4"] * z["N5"]
                and z["N1"] != -z["N4"] and z["N1"] != -z["N5"]):
            return 2
    # condition 3
    n1k = kinds["N1"]
    n1_ok = (any(k == RESISTOR for k in n1k)
             and sum(1 for k in n1k if k != RESISTOR) <= 1)
    if n1_ok and all_kind("N2", RESISTOR):
        for k3, k45 in ((CAPACITOR, INDUCTOR), (INDUCTOR, CAPACITOR)):
            if (all_kind("N3", k3) and all_kind("N4", k45)
                    and all_kind("N5", k45)):
                if z["N3"] == -z["N4"] and z["N3"] == -z["N5"]:
                    return 3
    # condition 4
    if all_kind("N1", RESISTOR) and all_kind("N2", RESISTOR) and _is_lc_pair(t["N4"]):
        for k3, k5 in ((CAPACITOR, INDUCTOR), (INDUCTOR, CAPACITOR)):
            if _is_single(t["N3"], k3) and _is_single(t["N5"], k5):
                if z["N3"] == -z["N4"] and z["N3"] == -z["N5"]:
                    return 4
    return None


# ---------------------------------------------------------------------------
# structural Sylvester-resultant fixtures
# ---------------------------------------------------------------------------

def _bridge_complements(merge_port: bool):
    """The Kirchhoff terms of the bridge's spanning trees (merge_port
    False) or of its spanning 2-trees that separate a from b (a spanning
    tree of the bridge with b merged into a), grouped once.  A term takes
    the num (choice 0) of each arm off its tree and the den (choice 1) of
    each arm on it; the terms are grouped by their choices (c1, c2, c5) for
    N1, N2 and N5, so the table is a tuple of ((c1, c2, c5), ((c3, c4),
    ...)) entries, each listing its group's choices for N3 and N4."""
    def at(v):
        return "a" if merge_port and v == "b" else v

    arms = [(at(u), at(v), slot) for (slot, u, v) in net.SHAPES["bridge"]]
    verts = {x for (u, v, _) in arms for x in (u, v)}
    groups = defaultdict(list)
    # len(verts) - 1 arms that connect every vertex form a spanning tree
    for tree in combinations(arms, len(verts) - 1):
        if set(net._search(verts, tree)[0].values()) == {0}:
            on = {slot for (_, _, slot) in tree}
            c = {slot: int(slot in on) for (_, _, slot) in arms}
            groups[c["N1"], c["N2"], c["N5"]].append((c["N3"], c["N4"]))
    return tuple((key, tuple(terms)) for key, terms in groups.items())


_TREE_OFF = _bridge_complements(False)
_TWOTREE_OFF = _bridge_complements(True)


def bridge_structural_polys(arms: Dict[str, Tuple[List[int], List[int]]]):
    """Unreduced numerator/denominator of the five-arm bridge impedance,
    with the arm at each slot N1..N5 given as an unreduced (num, den) pair;
    every polynomial is an ascending int list ([] as zero), so a pair
    cleared of its denominators gives the bridge pair times the product of
    the clearing factors.  Clearing all arm denominators keeps the natural
    polynomial degrees (equal to the number of storage elements for
    single-storage arms).

    The terms are the spanning-tree sums of the four-vertex bridge graph
    (Kirchhoff): a term takes the den of each arm on the tree and the num
    of each arm off it, the 2-trees that separate the port giving the
    numerator and the trees the denominator.  The terms come grouped by
    the num/den choice for N1, N2 and N5, once at import
    (``_bridge_complements``): each group sums its N3 x N4 products and
    multiplies once by its N2 x N5 product, and N1's num and den each
    multiply the sum of their groups once.  All these products serve num
    and den."""
    sides = (0, 1)
    p34 = {(c3, c4): _mul(arms["N3"][c3], arms["N4"][c4])
           for c3 in sides for c4 in sides}
    p25 = {(c2, c5): _mul(arms["N2"][c2], arms["N5"][c5])
           for c2 in sides for c5 in sides}

    def kirchhoff(groups):
        cofactor = [[], []]
        for (c1, c2, c5), terms in groups:
            total = p34[terms[0]]
            for c in terms[1:]:
                total = _add(total, p34[c])
            cofactor[c1] = _add(cofactor[c1], _mul(p25[c2, c5], total))
        return _add(_mul(arms["N1"][0], cofactor[0]),
                    _mul(arms["N1"][1], cofactor[1]))

    return kirchhoff(_TWOTREE_OFF), kirchhoff(_TREE_OFF)


def _quartet_polys(fam: str, w0: Fraction, **params):
    """(num, den, scale): scale times the bridge pair of a quartet family
    member's arms, as ascending int lists: ``bridge_structural_polys`` of
    each arm's ``_arm_ints``, read off the int pairs of ``_quartet_arms``
    with no ``Fraction``, ``Element`` or ``Leaf`` per arm, and scale the
    product of the arm scales."""
    arms, scale = {}, 1
    for slot, arm in _quartet_arms(fam, QuartetParams(fam, **params),
                                   w0).items():
        num, den, s = _arm_ints(arm)
        arms[slot], scale = (num, den), scale * s
    return (*bridge_structural_polys(arms), scale)


def _poly_sqrt(p: Polynomial) -> Optional[Polynomial]:
    """Exact polynomial square root with positive leading coefficient."""
    if p.is_zero():
        return Polynomial()
    deg = int(p.degree)
    if deg % 2:
        return None
    n = deg // 2
    lead = sqrt_fraction(p.leading())
    if lead is None:
        return None
    a = [Q(0)] * (n + 1)
    a[n] = lead
    for k in range(2 * n - 1, n - 1, -1):
        idx = k - n
        acc = Q(0)
        for i in range(idx + 1, n + 1):
            j = k - i
            if 0 <= j <= n:
                acc += a[i] * a[j]
        a[idx] = (p.coeff(k) - acc) / (2 * a[n])
    f = Polynomial(a)
    return f if f * f == p else None


def _sylvester_nominal(p: Polynomial, q: Polynomial, m: int, n: int) -> Fraction:
    """R_0 at the nominal degrees (m, n) of the generic family, so that
    specialization (vanishing leading coefficients) commutes with it: the
    det of the hybrid Bezout rows of the primitive parts over Z, as in
    ``sylvester_determinant``.  A zero p or q (degree -inf) is read as
    all-zero coefficients."""
    if p.degree > m or q.degree > n:
        raise ConstraintViolated("specialized degree exceeds the nominal one")
    return _sylvester_det(p, q, m, n, 0)


def _require_physical(point: Dict[str, Fraction], may_vanish=()) -> None:
    """NonpositiveValue unless every value of point is positive, or 0 where
    its name is in may_vanish."""
    for name, v in point.items():
        if v < 0 or (v == 0 and name not in may_vanish):
            raise net.NonpositiveValue(f"{name} = {v} is not a physical value")


# Each fixture family's parameters; omega0 is optional in every family.
_FIXTURE_PARAMETERS = {"Q7": ("g1", "g2", "F"), "Q8": ("g1", "g2", "c2"),
                       "N11": ("r1", "g2", "g3", "F"),
                       "N12": ("r1", "g2", "g3", "F")}


def resultant_fixture_check(family: str, subs: Dict[str, Fraction]) -> bool:
    """Verify the closed-form Sylvester factorizations used in the
    biquadratic classification proofs, at an exact rational substitution
    point.

    family "Q7": subs g1, g2, F, omega0; checks the degree-3 structural
    resultant factorization directly.
    family "Q8": subs g1, g2, c2, omega0; f1(F)^2 and f2(F) are
    reconstructed from the structural resultants as polynomials in F, and
    f1 is the square root of the first.
    family "N11"/"N12": subs r1, g2, g3, F, omega0; f1 has a known closed
    form, whose square the reconstruction must give, and f2 is
    reconstructed, as polynomials in c1 resp. x1.
    For Q8, N11 and N12 ``_factorization_check`` checks both printed
    factorizations as identities in that variable, and the final resultant
    identity of f1 and f2.

    The families are the quartet families N7, N8, N11 and N12 under a
    change of parameters, built from their arms, and each structural pair
    is checked for degeneracy (``_require_nominal``) and normalised so
    that num(0) is the family's closed form target0 and den carries one
    more factor F: p = c num and q = c F den with c = target0 / num(0),
    applied as powers of c and F on the resultants of the int lists (the
    pair's scale cancels in c).  So the point
    must be physical: every parameter given positive, except r1 and g2 of
    N11/N12, which may be 0 (a shorted series or an open parallel
    resistor).  Any other point raises NonpositiveValue before an arm is
    built; omega0 defaults to 1.
    Before any of that, an unknown family raises ValueError, and a missing
    or unknown parameter ConstraintViolated naming it."""
    if family not in _FIXTURE_PARAMETERS:
        raise ValueError(f"unknown fixture family {family!r}")
    names = _FIXTURE_PARAMETERS[family]
    _check_names(family, [x for x in names if x not in subs],
                 sorted(set(subs) - set(names) - {"omega0"}))
    subs = {k: _as_q(v) for k, v in subs.items()}
    w0 = subs.get("omega0", Q(1))
    _require_physical(dict(subs, omega0=w0),
                      ("r1", "g2") if family in ("N11", "N12") else ())
    if family == "Q7":
        g1, g2, F = subs["g1"], subs["g2"], subs["F"]
        num, den, _ = _quartet_polys("N7", w0, A=1 / g1, B=1 / g2, C=F)
        _require_nominal("Q7", num, den, 3)
        # the scaled pair is c num and c F den, c = w0^3 / num(0), and R_0
        # (3 x 3 Bezout rows) is of degree 3 in each side's coefficients
        r0 = (_subresultant(num, den, 3, 3, 0, 0)
              * (w0 ** 3 / num[0]) ** 6 * F ** 3)
        return r0 == F * F * w0 ** 9 * (g1 - g2) ** 2 * (1 + F * F * g1 * g2) ** 4
    if family == "Q8":
        return _check_q8(subs, w0)
    return _check_n11_n12(family, subs, w0)


def _require_nominal(family, num, den, degree) -> None:
    """ConstraintViolated unless a structural pair, num and den given by
    their trimmed coefficient lists in s (ints, or Z[x] int lists), is of
    the nominal degree with a nonzero num(0)."""
    if len(num) != degree + 1 or len(den) != degree + 1 or not num[0]:
        raise ConstraintViolated(
            f"{family} structural polynomials are degenerate")


def _coefficients_in_x(pair_at, degree, e):
    """c times the x^e multiple of the structural (num, den) pair at x, as
    two lists of Z[x] int lists, the coefficient of s^j at index j, for a
    pair whose x^e multiple has coefficients of degree <= degree in x.
    pair_at(k) is a ``_quartet_polys`` build (num, den, scale), run at the
    int nodes k = 1..degree+1 only.  The builds are put over the lcm L of
    their scales, and interpolation through the int values gives every
    coefficient as a numerator over one w (von zur Gathen & Gerhard,
    Modern Computer Algebra, ch. 5), so c = L w > 0, shared by both sides.
    Each coefficient is a sum of products of positive element values, so
    it vanishes at an x > 0 only when it is zero in x."""
    nodes = range(1, degree + 2)
    builds = [pair_at(k) for k in nodes]
    lcd = math.lcm(*(scale for _, _, scale in builds))
    factors = [k ** e * (lcd // scale)
               for k, (_, _, scale) in zip(nodes, builds)]
    sides = []
    for side in (0, 1):
        width = max(len(b[side]) for b in builds)
        values = [[f * c for c in b[side]] + [0] * (width - len(b[side]))
                  for f, b in zip(factors, builds)]
        sides.append([_interpolate(nodes, column)[0]
                      for column in zip(*values)])
    return sides[0], sides[1]


def _factorization_check(family, pair, scale, cof0, cof1, f1_printed,
                         degrees, rhs) -> bool:
    """The check of Q8, N11 and N12 as an identity in the one variable x
    that their scaled structural pair (p, q) varies with.  pair is (P, Q),
    the x^e multiple of the unscaled pair in coefficients in x, times one
    positive constant c (``_coefficients_in_x``: Z[x] int lists), of
    degree 4 in s with P_0 != 0 (``_require_nominal``).  The normalised
    pair is p = target0 P / P_0 and q = target0 F Q / P_0, and R_k is
    homogeneous of degree 4 - k in each side's coefficients, so R_k(p, q) =
    scale^(4-k) R_k(P, Q) / P_0^(2 (4-k)) with scale = target0^2 F, a
    polynomial in x; c cancels there, since R_k(cP, cQ) = c^(2 (4-k))
    R_k(P, Q) and (c P_0)^(2 (4-k)) carries the same power.  R_0 and R_1
    come from one ``_sylvester_r0_r1`` pass over the 4 x 4 hybrid Bezout
    rows in Z[x], and they and P_0 become Polynomials here, once.
    R_0(p, q) / cof0 and R_1(p, q) / cof1, over the printed cofactors
    (polynomials in x, nonzero at a physical point), are f1^2 and f2 by
    exact division, and a remainder fails the check.  f1 is f1_printed if
    its square is f1^2, or, with no printed f1 (Q8), the square root of
    f1^2, which must exist; the resultant of f1 and f2 at the nominal
    degrees must be rhs."""
    num, den = pair
    _require_nominal(family, num, den, 4)
    r0, r1 = map(_poly, _sylvester_r0_r1(num, den))
    p0sq = _poly(num[0]) ** 2
    f1sq, rem0 = divmod(r0 * scale ** 4, cof0 * p0sq ** 4)
    f2, rem1 = divmod(r1 * scale ** 3, cof1 * p0sq ** 3)
    if rem0 or rem1:
        return False
    if f1_printed is None:
        f1 = _poly_sqrt(f1sq)
    else:
        f1 = f1_printed if f1sq == f1_printed ** 2 else None
    return f1 is not None and _sylvester_nominal(f1, f2, *degrees) == rhs


def _check_q8(subs, w0) -> bool:
    """The Q8 check on N8's structural pair, a function of F.  In N8, C =
    F/c2 and D = F make E = F/(1 + c2), so each storage arm's impedance is
    F times an F-free one: as unreduced pairs, N3 is (F, s/w0) / F and N4,
    N5 are (F n_k, d_k).  Each Kirchhoff term takes the num or the den of
    every arm, so F times the bridge pair is a cubic in F, and
    ``_coefficients_in_x`` builds the bridge at F = 1..4 only.  F is the
    factor that the normalisation puts on den, so scale = target0^2 F."""
    g1, g2, c2 = subs["g1"], subs["g2"], subs["c2"]
    pair = _coefficients_in_x(
        lambda F: _quartet_polys("N8", w0, A=1 / g1, B=1 / g2, C=F / c2, D=F),
        3, 1)
    target0 = (1 + c2) * w0 ** 4
    g12, k0, k1 = g1 * g2, c2 * w0 ** 16 * (1 + c2), -c2 * w0 ** 9
    unit = Polynomial([1, 0, g12])                  # 1 + F^2 g1 g2
    # the elimination identity at the generic degrees (2, 6); even nominal
    # degree of f2 makes the result invariant under the sign of f1
    rhs = (c2 ** 6 * g2 ** 10 * (1 + c2) ** 2
           * (c2 * c2 * g1 + 2 * c2 * (g1 - g2) + g1 - 3 * g2) ** 2)
    return _factorization_check(
        "Q8", pair, Polynomial([0, target0 * target0]), unit ** 4 * k0,
        unit ** 2 * k1, None, (2, 6), rhs)


# the power of the variable that makes an N11/N12 pair linear in it
_N1112_E = {"N11": 0, "N12": 1}


def _n1112_pair_at(family, r1, g2, g3, F, w0):
    """The unreduced structural (num, den) pair of an N11/N12 point as a
    function of var: the quartet's bridge pair at D = F/var.  Only arm N1
    holds var, and var^e times its pair, so var^e times the bridge pair, is
    linear in var (e = 0 for N11's capacitor, 1 for N12's inductor, r1 = 0
    and g2 = 0 included)."""
    # var is c1 (N11) or x1 (N12); r1 = 0 shorts the series resistor and
    # g2 = 0 opens the parallel one
    return lambda var: _quartet_polys(family, w0, A=r1, B=1 / g3, C=g2,
                                      D=F / var, E=F)


def _check_n11_n12(family, subs, w0) -> bool:
    r1, g2, g3, F = subs["r1"], subs["g2"], subs["g3"], subs["F"]
    one_m = 1 - r1 * g3
    # the var-free factors of cof0 = k0 v (v^2 a2 + b2)^2
    a2 = (r1 + F * F * g3) ** 2
    b2 = F * F * (1 + r1 * g2 + F * F * g2 * g3) ** 2
    if family == "N11":
        f1_printed = Polynomial([F * F * g3 * (g3 - g2 * one_m), one_m])
        # positive-definite middle factor, so the vanishing locus is carried
        # by (1 - r1 g3) and the trailing factor alone
        rhs_final = (F ** 10 * g3 ** 5 * (1 - r1 * g3)
                     * ((g2 * one_m * (r1 + F * F * g3) + 1 - g3 * r1
                         - F * F * g3 * g3) ** 2 + g3 * g3 * F * F) ** 2
                     * (g3 * (3 - r1 * g3 + r1 * g2 * (2 - r1 * g3)) - g2))
        k0, k1 = F ** 4 * w0 ** 16, -F * F * w0 ** 9
        t0 = F * (1 + r1 * g2) * w0 ** 4
    else:
        f1_printed = Polynomial([g3 - g2 * one_m, g3 * one_m])
        rhs_final = (-F * F * g3 ** 5
                     * ((g2 * one_m * (r1 + F * F * g3) - g3 * r1) ** 2
                        + g3 * g3 * F * F) ** 2
                     * (g3 - g2 * one_m)
                     * (g2 * one_m * one_m + g3 * (1 + r1 * g3)))
        k0, k1, t0 = -F ** 6 * w0 ** 16, F ** 6 * w0 ** 9, r1 * w0 ** 4
    # num(0) is target0 = t0 v^e, so scale = t0^2 F v^(2e); R1's cofactor
    # is k1 v^(1 - e)
    e = _N1112_E[family]
    pair = _coefficients_in_x(_n1112_pair_at(family, r1, g2, g3, F, w0), 1,
                              e)
    # the elimination identity is at the generic degrees (1, 5)
    return _factorization_check(
        family, pair, Polynomial([0] * (2 * e) + [t0 * t0 * F]),
        Polynomial([b2, 0, a2]) ** 2 * Polynomial([0, k0]),
        Polynomial([0] * (1 - e) + [k1]), f1_printed, (1, 5), rhs_final)


def n12_has_no_feasible_solution(r1, g2, g3, F) -> bool:
    """For feasible parameters (r1, g2 >= 0 and g3, F > 0), no x1 > 0 makes
    the structural polynomial pair drop to McMillan degree two; i.e. the
    family has no biquadratic members.  Any other point raises
    NonpositiveValue."""
    r1, g2, g3, F = map(_as_q, (r1, g2, g3, F))
    _require_physical(dict(r1=r1, g2=g2, g3=g3, F=F), ("r1", "g2"))
    if r1 == 0:
        # the structural numerator then vanishes at s = 0: the impedance has
        # a zero there and cannot be a minimum function at all
        return True
    one_m = 1 - r1 * g3
    a, b = g3 * one_m, g3 - g2 * one_m
    if g2 != 0 and a != 0:
        # generic case: f1 = a*x1 + b is linear, degree drop needs f1 = 0
        # together with R1 = 0 at the same point
        x1 = -b / a
        if x1 <= 0:
            return True
        # R_1 is homogeneous in each side: scaling one keeps it zero or not;
        # one pass over the leading 3 x 3 block of the Bezout rows reads it
        num, den, _ = _n1112_pair_at("N12", r1, g2, g3, F, Q(1))(x1)
        _require_nominal("N12", num, den, 4)
        return _subresultant(num, den, 4, 4, 1, 0) != 0
    if g2 != 0 and a == 0:
        return b != 0          # b = g3 > 0, so always true here
    # boundary g2 = 0 (open parallel resistor): R0 and R1 of x1 times the
    # unscaled pair, as polynomials in x1 up to a positive constant, and a
    # common positive root of theirs directly (x1 > 0, so the factor x1
    # moves no root)
    rho0, rho1 = map(_poly, _sylvester_r0_r1(*_coefficients_in_x(
        _n1112_pair_at("N12", r1, g2, g3, F, Q(1)), 1, 1)))
    if rho0.is_zero() and rho1.is_zero():
        return False
    g = rho0.gcd(rho1)
    return g.degree < 1 or count_real_roots(g, Q(0), "+inf") == 0
