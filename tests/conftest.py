import math
import os
import random
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from prsyn.polyrat import (BiquadParams, Polynomial, Q,  # noqa: E402
                           _add, _mul, _poly, _remainders, leading_minors,
                           sqrt_fraction)
from prsyn.network import (CAPACITOR, INDUCTOR, RESISTOR, Element,  # noqa: E402
                           Leaf, Network, Par, Ser)
from prsyn.synth import bridge_structural_polys  # noqa: E402


def rand_q(rng, lo=1, hi=12) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(lo, hi))


def sample_region(region: str, rng: random.Random) -> BiquadParams:
    """Random valid parameters inside one classification region; regions
    with square-root boundaries are sampled through rationalizing
    substitutions so everything stays exactly rational."""
    K, w0 = rand_q(rng), rand_q(rng)
    if region == "a":
        return BiquadParams(K, w0, Q(1, 2), rand_q(rng))
    if region == "b":
        return BiquadParams(K, w0, Q(2), -rand_q(rng))
    if region == "c":
        # W = (1+t^2)/2 in (1/2, 1), F = W*t/(1-W)
        t = Fraction(rng.randint(1, 19), 20)
        W = (1 + t * t) / 2
        return BiquadParams(K, w0, W, W * t / (1 - W))
    if region == "d":
        # W = 2u^2/(1+u^2) in (1, 2), F = (1-W)*u
        u = 1 + rand_q(rng)
        W = 2 * u * u / (1 + u * u)
        return BiquadParams(K, w0, W, (1 - W) * u)
    if region == "e":
        u = 1 + rand_q(rng)
        W = 2 * u * u / (1 + u * u)
        return BiquadParams(K, w0, W, W * W / (u * (1 - W)))
    if region == "f":
        t = Fraction(rng.randint(1, 19), 20)
        W = (1 + t * t) / 2
        return BiquadParams(K, w0, W, W * (1 - W) / t)
    if region == "none":
        from prsyn.synth import classify_biquad
        while True:
            if rng.random() < 0.5:
                W = Fraction(rng.randint(1, 199), 200)
                if W in (Q(1, 2), 1):
                    continue
                F = rand_q(rng)
            else:
                W = 1 + Fraction(rng.randint(1, 300), 100)
                if W == 2:
                    continue
                F = -rand_q(rng)
            p = BiquadParams(K, w0, W, F)
            phi = 1 - W
            boundary = (
                (Q(1, 2) < W < 1 and F * F * phi * phi == W * W * (2 * W - 1))
                or (1 < W < 2 and F * F * (2 - W) == W * phi * phi)
                or (1 < W < 2 and F * F * phi * phi == W ** 3 * (2 - W))
                or (Q(1, 2) < W < 1 and F * F * (2 * W - 1) == W * W * phi * phi))
            if not boundary:
                return p
    raise ValueError(region)


def random_sp_network(rng: random.Random, max_elems=6) -> Network:
    """Random series-parallel RLC one-port, built by recursive composition."""
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"v{counter[0]}"

    eid = [0]

    def leaf(a, b):
        eid[0] += 1
        kind = rng.choice([RESISTOR, INDUCTOR, CAPACITOR])
        return [Element(f"e{eid[0]}", kind, a, b, rand_q(rng))]

    def build(a, b, budget):
        if budget <= 1 or rng.random() < 0.35:
            return leaf(a, b)
        take = rng.randint(1, budget - 1)
        if rng.random() < 0.5:
            m = fresh()
            return build(a, m, take) + build(m, b, budget - take)
        return build(a, b, take) + build(a, b, budget - take)

    elements = build("p", "n", rng.randint(2, max_elems))
    verts = {v for e in elements for v in (e.head, e.tail)}
    return Network(verts, elements, ("p", "n"))


def random_biconnected_network(rng: random.Random, max_vertices=5,
                               max_elems=8) -> Network:
    """Random RLC one-port on 2 to max_vertices vertices: a path p -> n
    through every vertex (a cycle with the source edge, so biconnected)
    plus random chords, each edge in a random direction.  With four or
    more vertices some are not series-parallel."""
    verts = (["p"] + [f"v{i}" for i in range(rng.randint(0, max_vertices - 2))]
             + ["n"])
    edges = list(zip(verts, verts[1:]))
    edges += [tuple(rng.sample(verts, 2))
              for _ in range(rng.randint(len(verts) // 2,
                                        max_elems - len(edges)))]
    elements = [Element(f"e{j}", rng.choice([RESISTOR, INDUCTOR, CAPACITOR]),
                        *rng.sample(edge, 2), rand_q(rng))
                for j, edge in enumerate(edges)]
    return Network(verts, elements, ("p", "n"))


def ladder_network(size: int, rng: random.Random) -> Network:
    """RLC ladder of even ``size``: series arms alternate L and R, shunt arms
    to the port minus terminal alternate C and R, ending on a shunt arm.
    32 elements give degree 15."""
    kinds = (INDUCTOR, CAPACITOR, RESISTOR, RESISTOR)
    elements, node = [], "p"
    for i in range(size):
        if i % 2 == 0:
            nxt = f"v{i}"
            elements.append(Element(f"e{i}", kinds[i % 4], node, nxt,
                                    rand_q(rng)))
            node = nxt
        else:
            elements.append(Element(f"e{i}", kinds[i % 4], node, "n",
                                    rand_q(rng)))
    verts = {v for e in elements for v in (e.head, e.tail)}
    return Network(verts, elements, ("p", "n"))


def dense_gauss_jordan(rows, rhs, zero, is_zero):
    """Reference: the dense Gauss-Jordan loop, every entry of every row
    rewritten at each pivot, over a field given by zero and is_zero; the
    pivot rule and outputs of ``polyrat.solve``, and no code shared with it."""
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    aug = [list(rows[r]) + list(rhs[r]) for r in range(m)]
    pivots = []
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
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for rr in range(m):
            if rr != r and not is_zero(aug[rr][c]):
                f = aug[rr][c]
                aug[rr] = [x - f * y for x, y in zip(aug[rr], aug[r])]
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
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [zero] * ncols
        vec[fc] = zero + 1
        for i, c in enumerate(pivots):
            vec[c] = -aug[i][fc]
        basis.append(vec)
    return solution, basis


def leading_minors_over_q(m):
    """``leading_minors`` of a matrix of Polynomials, as Polynomials: each
    row cleared into Z[s] int lists by the lcm L_i of its denominators, and
    each minor M_k of the cleared matrix read back over Q as
    M_k / (L_1 ... L_k)."""
    scales = [math.lcm(*(x.content.denominator for x in row)) for row in m]
    ints = [[[c * (x.content.numerator * (scale // x.content.denominator))
              for c in x.prim] for x in row] for row, scale in zip(m, scales)]
    out, den = [], 1
    for minor, scale in zip(leading_minors(ints)[0], scales):
        den *= scale
        out.append(Polynomial([Fraction(c, den) for c in minor]))
    return out


def bridge_over_q(arms):
    """``bridge_structural_polys`` of Polynomial arm pairs, as Polynomials:
    each arm's pair cleared into int lists by the lcm L of its two
    members' denominators, and the bridge pair of the cleared arms read
    back over Q divided by the product of the L's (each Kirchhoff term
    takes one member of every arm, so the pair is linear in each arm's)."""
    ints, scale = {}, 1
    for slot, pair in arms.items():
        lcd = math.lcm(*(x.content.denominator for x in pair))
        ints[slot] = tuple(
            [c * (x.content.numerator * (lcd // x.content.denominator))
             for c in x.prim] for x in pair)
        scale *= lcd
    return tuple(Polynomial([Fraction(c, scale) for c in side])
                 for side in bridge_structural_polys(ints))


def pair_over_q(build):
    """A bridge build (num, den, scale) of ``_quartet_polys``, as the
    Polynomial pair it stands for: both int lists over the scale."""
    num, den, scale = build
    return tuple(Polynomial([Fraction(c, scale) for c in side])
                 for side in (num, den))


def coefficients_in_x_reference(pair_at, degree, e):
    """The former Q[x] ``_coefficients_in_x``, kept as a reference: the x^e
    multiple of the structural pair at x, as two lists of Polynomials in
    x, the coefficient of s^j at index j.  Each build at x = 1..degree+1 is
    read as Polynomials, times k^e, and each coefficient is interpolated
    over Q through its Fraction values, in the Lagrange basis."""
    nodes = [Q(k) for k in range(1, degree + 2)]
    polys = [[side * k ** e for side in pair_over_q(pair_at(k))]
             for k in nodes]

    def lagrange(ys):
        total = Polynomial()
        for i, (xi, yi) in enumerate(zip(nodes, ys)):
            basis = Polynomial([yi])
            for j, xj in enumerate(nodes):
                if j != i:
                    basis = basis * Polynomial([-xj, 1]) * (1 / (xi - xj))
            total = total + basis
        return total

    return tuple([lagrange([p[side].coeff(j) for p in polys])
                  for j in range(max(len(p[side].prim) for p in polys))]
                 for side in (0, 1))


def tree_pair_reference(tree):
    """The former Polynomial ``tree_pair``, kept as a reference: a leaf's
    law is its row of ``KINDS``, and series and parallel parts combine as
    Polynomial products and sums, one part at a time."""
    one = Polynomial([1])
    if isinstance(tree, Leaf):
        side, p = tree.element.electrical().law
        w = Polynomial([0] * p + [tree.element.value])
        return (w, one) if side == "Z" else (one, w)
    pairs = [tree_pair_reference(p) for p in tree.parts]
    if isinstance(tree, Par):
        pairs = [(d, n) for (n, d) in pairs]
    num, den = pairs[0]
    for (n, d) in pairs[1:]:
        num, den = num * d + n * den, den * d
    return (num, den) if isinstance(tree, Ser) else (den, num)


def tree_ints_reference(tree):
    """The former recursive ``_tree_ints``, kept as a reference for the
    stack walk: (num, den, scale) of a tree's impedance as int lists, each
    part folded by a call of its own."""
    if isinstance(tree, Leaf):
        side, p = tree.element.electrical().law
        v = tree.element.value
        w, b = [0] * p + [v.numerator], [v.denominator]
        return (w, b, v.denominator) if side == "Z" else (b, w, v.denominator)
    parts = [tree_ints_reference(p) for p in tree.parts]
    if isinstance(tree, Par):
        parts = [(d, n, s) for (n, d, s) in parts]
    num, den, scale = parts[0]
    for (n, d, s) in parts[1:]:
        num, den = _add(_mul(num, d), _mul(n, den)), _mul(den, d)
        scale *= s
    return (num, den, scale) if isinstance(tree, Ser) else (den, num, scale)


def gcd_prs_reference(p, q):
    """The former ``Polynomial.gcd``, kept as a reference for ``_gcd``: the
    last member of the primitive remainder sequence of the integer parts
    (``_remainders`` with sign 1), made monic."""
    *_, g = _remainders(p.prim, q.prim, 1)
    return _poly(list(g)).monic()


def reduce_reference(num, den):
    """The former Polynomial reduction of ``RationalFunction``: the PRS gcd,
    Q[s] divisions by it, then num over den's leading coefficient and den
    made monic.  Returns (num, den)."""
    if num.is_zero():
        return Polynomial(), Polynomial([1])
    g = gcd_prs_reference(num, den)
    if g.degree >= 1:
        num, den = num // g, den // g
    return num * (1 / den.leading()), den.monic()


def strict_hurwitz_reference(p):
    """The former Polynomial ``strict_hurwitz``: the Routh rows as the
    primitive remainder sequence of the two parity parts of p's integer
    part."""
    if p.is_zero():
        return False
    c, n = p.prim, len(p.prim) - 1
    f, g = ([x if k % 2 == r else 0 for k, x in enumerate(c)]
            for r in (n % 2, 1 - n % 2))
    while g and not g[-1]:
        g.pop()
    for k, row in enumerate(_remainders(f, g, 1)):
        if len(row) != n + 1 - k or (row[-1] > 0) != (c[-1] > 0):
            return False
    return len(row) == 1


def is_positive_real_reference(num, den):
    """The former Polynomial PR test of num / den, reduced by
    ``reduce_reference``: num + den strict Hurwitz by the Polynomial sum,
    and the even-part numerator p q(-s) + p(-s) q by Polynomial products,
    its profile nonnegative on (0, oo) by the Polynomial chain tower."""
    p, q = reduce_reference(num, den)
    if p.is_zero():
        return True
    if not strict_hurwitz_reference(p + q):
        return False
    r = p * q.flip_sign() + p.flip_sign() * q
    if any(r.coeff(k) for k in range(1, len(r.prim), 2)):
        raise AssertionError(f"odd even-part numerator {r}")
    e = Polynomial([(-1) ** m * c for m, c in enumerate(r.coeffs[0::2])])
    return nonnegative_on_nonneg_axis_reference(e)


def nonnegative_on_nonneg_axis_reference(e):
    """The former ``_nonnegative_on_nonneg_axis`` at every degree: e(0) and
    the leading coefficient nonnegative, and no root of odd multiplicity on
    (0, oo) by the Polynomial chain tower."""
    if e.is_zero():
        return True
    if e.coeff(0) < 0 or e.leading() < 0:
        return False
    return odd_multiplicity_reference(e) == 0


def sturm_chain_reference(p):
    """The former Polynomial ``sturm_chain``, kept as a reference: p, p',
    then each next member the negated primitive part of the remainder of
    the two before it, all as Polynomials."""
    chain = [p, p.derivative()]
    while chain[-1]:
        chain.append(-Polynomial((chain[-2] % chain[-1]).prim))
    chain.pop()
    return chain


def square_free_chain_reference(p):
    """The former Polynomial ``_square_free_chain``: p's chain divided by its
    last member g, and g."""
    chain = sturm_chain_reference(p)
    g = chain[-1]
    return (chain if g.is_constant() else [q // g for q in chain]), g


def variations_reference(chain, x):
    """The former ``_variations`` of a chain of Polynomials at x, "+inf" or
    "-inf" included: the sign of p at a/b (b > 0) is that of the integer
    sum prim_i a^i b^(n-i), as the content is positive."""
    infinite = isinstance(x, str) and x in ("+inf", "-inf")
    num, den = (1, 0) if infinite else Fraction(x).as_integer_ratio()

    def sign(p):
        if not p:
            return 0
        if infinite:
            s = 1 if p.prim[-1] > 0 else -1
            return s if x == "+inf" or len(p.prim) % 2 else -s
        acc, bpow = 0, 1
        for c in reversed(p.prim):
            acc = acc * num + c * bpow
            bpow *= den
        return (acc > 0) - (acc < 0)

    signs = [s for s in map(sign, chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots_reference(p, a, b):
    """The former ``count_real_roots``: roots in (a, b] from the square-free
    chain."""
    chain, _ = square_free_chain_reference(p)
    return variations_reference(chain, a) - variations_reference(chain, b)


def odd_multiplicity_reference(p):
    """The former ``_odd_multiplicity_roots``: the alternating sum of the
    roots on (0, oo) over the tower of square-free chains."""
    count, sign = 0, 1
    while not p.is_constant():
        chain, p = square_free_chain_reference(p)
        count += sign * (variations_reference(chain, Q(0))
                         - variations_reference(chain, "+inf"))
        sign = -sign
    return count


def real_roots_reference(p, lo=None, width=None):
    """The former Polynomial ``real_roots``: the square-free part made monic
    above degree two, closed forms in degrees one and two, else Sturm
    bisection down to min(width, 1/L^2), L the content's numerator times
    the primitive part's leading coefficient."""
    chain = None
    if p.degree > 2:
        chain, _ = square_free_chain_reference(p)
        p = chain[0].monic()
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
    chain = chain or sturm_chain_reference(p)
    lead = p.content.numerator * abs(p.prim[-1])
    fine = Fraction(1, lead * lead)
    if width is not None:
        fine = min(fine, Fraction(width))
    bound = 1 + Fraction(max(map(abs, p.prim)), abs(p.prim[-1]))
    a = -bound if lo is None else Fraction(lo)
    if a >= bound:
        return []
    todo = [(a, variations_reference(chain, a), bound,
             variations_reference(chain, bound))]
    out = []
    while todo:
        a, va, b, vb = todo.pop()
        if va - vb > 1 or va - vb == 1 and b - a >= fine:
            m = (a + b) / 2
            vm = variations_reference(chain, m)
            if vm > vb:
                todo.append((m, vm, b, vb))
            if va > vm:
                todo.append((a, va, m, vm))
        elif va - vb == 1:
            c = ((a + b) / 2).limit_denominator(lead)
            out.append(c if a < c <= b and p(c) == 0 else (a, b))
    return out


def count_pr_tests(monkeypatch):
    """Record each PR test that ``polyrat`` evaluates, not each call of
    ``is_positive_real``: the test of a nonzero function starts with the
    strict Hurwitz test of num + den, which nothing else in polyrat runs,
    and a verdict read back from the function runs none.  Each entry is
    the int list of num + den that the test reads."""
    import prsyn.polyrat as polyrat
    tests = []

    def counted(p, hurwitz=polyrat.strict_hurwitz):
        tests.append(p)
        return hurwitz(p)

    monkeypatch.setattr(polyrat, "strict_hurwitz", counted)
    return tests


@pytest.fixture
def rng():
    return random.Random(20250808)


def phasor_space_reference(n, omega, drive, stamp):
    """The former ``analysis._phasor_space``, kept as a reference: the KCL
    rows of the stamp at s = j*omega over Z[j] with the source current as
    the last unknown, plus a drive row, m at the source current's column
    (a current drive) or at the port potential's (a voltage drive) and m
    times the phasor on its right, m the lcm of the phasor's denominators.
    Returns (d, particular solution, nullspace basis), or raises
    InconsistentDrive."""
    from prsyn.analysis import InconsistentDrive, _dc_rows
    from prsyn.polyrat import _gauss, solve
    scale, _, mat, idx = stamp
    a, b = omega.numerator, omega.denominator
    if a:
        rows = [[_gauss(c0 * b * b - c2 * a * a, c1 * a * b)
                 for c0, c1, c2 in row] + [[]] for row in mat]
        source = [0, -a * b * scale]
    else:
        rows = [[[x] if x else [] for x in row] + [[]]
                for row in _dc_rows(n, stamp, 0)]
        source = [-scale]
    rows[idx[n.port[0]]][-1] = source
    row = [[]] * len(rows[0])
    mode, value = drive
    m = math.lcm(value.re.denominator, value.im.denominator)
    row[-1 if mode == "current" else idx[n.port[0]]] = [m]
    rhs = [[[]]] * len(rows) + [[_gauss(int(value.re * m),
                                        int(value.im * m))]]
    solved = solve(rows + [row], rhs)
    if solved is None:
        raise InconsistentDrive(f"drive {mode}={value} at omega={omega}")
    d, particular, basis = solved
    return d, [x for (x,) in particular], basis
