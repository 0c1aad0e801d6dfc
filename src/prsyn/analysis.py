"""Independent verification engine for RLC one-ports.

Symbolic impedance, phasor (sinusoidal trajectory) solving, blocked-
subnetwork detection at a minimum frequency, and state-space extraction
with controllability/observability diagnostics.  Impedance, phasors and
state space share one integer stamp, ``_stamp``: the modified nodal
matrix with the port minus terminal grounded, scaled by s and by one
common denominator L, so that each entry is an int triple (c0, c1, c2)
meaning c0 + c1 s + c2 s^2, and each element's law is the ints (k, p, q)
of its scaled admittance (p/q) s^k, with no Fraction.  The impedance
eliminates over Z[s] on the triples as they are and builds its two
Polynomials at the end.  A phasor system evaluates the triples at
s = j*omega into Gaussian-integer rows, Z[j], each element an int list
[re, im], [re] or [] (zero), the convention of ``polyrat``'s
elimination, plus a current unknown only for an element whose admittance
does not exist there (an inductor at omega = 0); the drive fixes the
source current or the port potential, whose column goes to the
right-hand side, so only the KCL rows are solved, with no drive row.
The state space takes the resistors' c1 and a current unknown for each
capacitor, which holds its state voltage.  One call stamps its network
once.  ``Network`` refuses a bare port, so every
network here has an element and an impedance.  Everything is exact:
frequencies are rationals (a float is a TypeError), and a phasor stays a
Z[j] numerator over the last pivot d of its solve until a public type is
filled: ``_phasor_draw`` builds one ``QComplex`` per field of
``PhasorSolution``, and ``energy_balance`` reads those fields as ints
over one common denominator.  The blocked test is exact too: an element
is blocked when its potential numerators are equal lists at its ends on
the particular solution and on every nullspace basis vector at omega0,
and both the blocked report and the open/short check read H(j*omega0)
off one such solve, the port value alone.  The laws a computed answer
must obey (the impedance is PR, the blocked laws) raise
``InvariantViolation`` (defined in ``polyrat``, re-exported here), also
under ``python -O``.  The elimination lives in the elimination section of
``polyrat``: ``leading_minors`` over Z[s] and ``solve`` over Q or Z[j],
with nullspaces, one fraction-free loop on bare ints; this module only
sets up the systems, and divides by a solve's d where it fills its own
types.  Each impedance is the quotient of the last two leading minors of
one matrix, its vertices in minimum-degree order with the port vertex
last.  The state space is read over Z, with one integer Krylov sequence
per model, kept on the ``StateSpace`` (``_ab_sequence``): A cleared to
the int rows dA over d, and the int Krylov columns (dA)^j (e B), d and e
the least common denominators.  ``state_space`` clears its own int rows
of A, one gcd a row (``_cleared``), and keeps (d, dA) on its model, so
A is never read back from its Fractions; a model built by hand is
cleared from them once, by the same helper.  The sequence gives the
annihilator ints of B through one
``solve`` and the Markov parameters C A^j B, summed over Z, so
``ss_impedance`` is D + N / m with no determinant and no Fraction before
its two polynomials (Kailath 1980, *Linear Systems*, ch. 2 and sec.
6.2).  The PBH polynomials divide det(sI - A) by the monic annihilators
of (A, B), the model's sequence, and (A^T, C), the one sequence PBH
builds itself; det(sI - A) is the det of one ``leading_minors`` pass
over Z[s] on d s I - dA (``_char_poly``).  Whether a function is PR,
lossless or minimum is asked of ``polyrat`` alone, whose
``is_positive_real`` keeps its verdict, so the report after an impedance
does not test it again.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .polyrat import (ONE, InvariantViolation, Polynomial, Q, QComplex,
                      RationalFunction, _as_q, _gauss, _over_lcd, _parts,
                      _poly, _ratfunc, is_lossless, is_positive_real,
                      leading_minors, qcomplex, real_roots, solve,
                      strict_hurwitz)
from . import network as net
from .network import (CAPACITOR, INDUCTOR, RESISTOR, Network, OnePort,
                      OpenCircuit, ShortCircuit, one_port_boundary)


class AnalysisError(Exception):
    pass


class InconsistentDrive(AnalysisError):
    pass


class HypothesesNotMet(AnalysisError):
    pass


class ExtractionFailure(AnalysisError):
    """State extraction impossible; carries the offending element ids."""

    def __init__(self, element_ids: Sequence[str], message: str):
        super().__init__(message)
        self.element_ids = tuple(sorted(element_ids))


class CapacitorLoop(ExtractionFailure):
    pass


class InductorCutset(ExtractionFailure):
    pass


# ---------------------------------------------------------------------------
# the one integer stamp, and exact impedance by nodal analysis
# ---------------------------------------------------------------------------

def _stamp(n: Network):
    """The one integer stamp of n: its modified nodal matrix (Ho, Ruehli &
    Brennan 1975) with the port minus terminal grounded, scaled by s.

    Each element's scaled admittance s*y is v*s^k with k in {0, 1, 2}:
    R -> s/R, L -> 1/L, C -> C s^2.  With L the lcm of the denominators of
    the v, the entries of L*s*Y are int triples (c0, c1, c2), each meaning
    c0 + c1 s + c2 s^2.  Returns (L, laws, triples, idx): laws holds the
    ints (k, p, q) of each element in order, v = p/q in lowest terms (the
    reciprocal of a resistance or an inductance is its value's numerator
    and denominator swapped, with no Fraction), idx the index of every
    vertex but the grounded one."""
    ground = n.port[1]
    idx = {v: i for i, v in enumerate(v for v in n.vertices if v != ground)}
    laws = []
    for e in n.elements:
        side, k = e.electrical().law
        p, q = e.value.numerator, e.value.denominator
        laws.append((k + 1, p, q) if side == "Y" else (1 - k, q, p))
    scale = math.lcm(*(q for _, _, q in laws))
    mat = [[[0, 0, 0] for _ in idx] for _ in idx]
    for e, (k, p, q) in zip(n.elements, laws):
        w = p * (scale // q)
        ends = [(idx[x], sgn) for x, sgn in ((e.head, 1), (e.tail, -1))
                if x != ground]
        for i, si in ends:
            for j, sj in ends:
                mat[i][j][k] += w if si == sj else -w
    return scale, laws, mat, idx


def _dc_rows(n: Network, stamp, k: int) -> List[List[int]]:
    """The c1 of every triple of the stamp, L times the conductance matrix
    of the resistors alone, with a current unknown for every element whose
    k is k, after the potentials in element order.  Such a current leaves
    the head, its KCL coefficients are +-L, and its own row reads
    v_head - v_tail.  The elements of the third k are left out: their
    admittance is zero (a capacitor at omega = 0), or their currents are
    known sources on the right-hand side (the inductors' state currents)."""
    scale, laws, mat, idx = stamp
    ground = n.port[1]
    branch = [e for e, law in zip(n.elements, laws) if law[0] == k]
    width = len(idx) + len(branch)
    rows = [[t[1] for t in row] + [0] * len(branch) for row in mat]
    for col, e in enumerate(branch, len(idx)):
        row = [0] * width
        for v, sgn in ((e.head, 1), (e.tail, -1)):
            if v != ground:
                rows[idx[v]][col] = sgn * scale
                row[idx[v]] = sgn
        rows.append(row)
    return rows


def _min_degree_order(n: Network, idx: Dict[str, int]) -> List[int]:
    """The order in which ``impedance`` eliminates the vertices of idx:
    greedy minimum degree on the pattern of the element ends (Tinney &
    Walker 1967), ties to the lower index, and the port plus terminal last.
    Eliminating a vertex joins its neighbours (its fill-in)."""
    adj: List[Set[int]] = [set() for _ in idx]
    for e in n.elements:
        if e.head in idx and e.tail in idx:
            adj[idx[e.head]].add(idx[e.tail])
            adj[idx[e.tail]].add(idx[e.head])
    port = idx[n.port[0]]
    left = set(range(len(idx))) - {port}
    order = []
    for _ in range(len(left)):
        v = min(left, key=lambda u: (len(adj[u]), u))
        left.remove(v)
        order.append(v)
        for u in adj[v]:
            adj[u] = (adj[u] | adj[v]) - {u, v}
    return order + [port]


def impedance(n: Network, *, _stamped=None) -> RationalFunction:
    """Exact driving-point impedance, checked positive-real: a failed check
    raises InvariantViolation("positive-real").

    Nodal analysis over Z[s] on the matrix L*s*Y of ``_stamp``, whose int
    triples are the entries as they are; H = s * cofactor / determinant.
    In ``_min_degree_order``, which keeps fill-in low and puts the port
    vertex last, the cofactor and the determinant are the last two leading
    minors M_(n-1) and M_n, read from one ``leading_minors`` pass (Bareiss
    over Z[s]).  Those of L*s*Y are L^(n-1) and L^n times those of s*Y, so
    H = s * L * M_(n-1) / M_n, reduced on the int lists (``_ratfunc``):
    the two Polynomials are built at the end.  At
    s = 1 the scaled entries 1/R, 1/L and C are positive and the elements
    connect every vertex, so the matrix is positive definite there and, in
    any symmetric order, no leading minor vanishes.  ``blocked_report``
    passes the stamp it has taken of n as ``_stamped``, so one call stamps
    n once."""
    scale, _, mat, idx = _stamped or _stamp(n)
    order = _min_degree_order(n, idx)
    minors = [[1]] + leading_minors([[mat[r][c] for c in order]
                                     for r in order])[0]
    h = _ratfunc([0] + minors[-2], minors[-1], scale)
    if not is_positive_real(h):
        raise InvariantViolation("positive-real", impedance=h)
    return h


def impedance_series_parallel(n: Network) -> Optional[RationalFunction]:
    """Independent oracle: the series/parallel reduction of ``net.sp_tree``,
    or None if the network is not series-parallel."""
    tree = net.sp_tree(n)
    return None if tree is None else net.tree_impedance(tree)


def storage_count(n: Network) -> int:
    return sum(1 for e in n.elements if e.is_storage())


def mcmillan_gap(n: Network) -> int:
    return storage_count(n) - impedance(n).mcmillan_degree


# ---------------------------------------------------------------------------
# phasor solving
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhasorSolution:
    """Sinusoidal trajectory at a fixed rational frequency: source and
    per-element phasor current/voltage pairs, all exact."""

    frequency: Fraction
    source_current: QComplex
    source_voltage: QComplex
    element_currents: Dict[str, QComplex]
    element_voltages: Dict[str, QComplex]
    free_modes: int = 0                    # dimension of the solution space


def _potential(vec, idx: Dict[str, int], v: str) -> List[int]:
    """The Z[j] numerator of vertex v's potential in a vector of
    ``_phasor_space``."""
    return vec[idx[v]] if v in idx else []


def _phasor_space(n: Network, omega: Fraction, drive: Tuple[str, QComplex],
                  stamp):
    """Solve the modified nodal system at s = j*omega over Z[j], the port
    minus terminal grounded.  Its unknowns are the other potentials, one
    current per element whose impedance is zero there and the source
    current.  The rows come from stamp, n's ``_stamp``: for omega = a/b != 0
    each KCL row is scaled by j*omega*b^2*L, so an entry is (c0 b^2 - c2 a^2)
    + j c1 a b and the source current's coefficient is -j a b L.  At
    omega = 0 the KCL rows are Y(0)*L and an element with c0 != 0, an
    inductor, has a current unknown (``_dc_rows``).

    The drive fixes one unknown, the source current or the port potential,
    to its phasor, m*drive / m with m the lcm of the phasor's denominators.
    That unknown's column goes to the right-hand side, times m*drive, and
    only the KCL rows are solved: a drive row would have had a nonzero in
    that column alone, so the free columns, the rational particular
    solution and the nullspace are the same.  The solve gives m times the
    other unknowns over its last pivot d', so everything is over d = m d'.
    Returns (d, particular solution, nullspace basis, stamp), the vectors
    full-length Z[j] numerators over d (``solve``), the source current
    last, or raises InconsistentDrive."""
    scale, _, mat, idx = stamp
    port = idx[n.port[0]]
    mode, value = drive
    if mode not in ("current", "voltage"):
        raise ValueError(f"unknown drive mode {mode!r}")
    a, b = omega.numerator, omega.denominator
    if a:
        a2, ab, b2 = a * a, a * b, b * b
        rows = [[_gauss(c0 * b2 - c2 * a2, c1 * ab) if c0 or c1 or c2
                 else [] for c0, c1, c2 in row] for row in mat]
        sr, si = 0, -ab * scale             # the source current's coefficient
    else:
        rows = [[[x] if x else [] for x in row]
                for row in _dc_rows(n, stamp, 0)]
        sr, si = -scale, 0
    # the drive cleared of its denominators: vr + j vi = m * value
    (pr, pd), (qr, qd) = (value.re.as_integer_ratio(),
                          value.im.as_integer_ratio())
    m = math.lcm(pd, qd)
    vr, vi = pr * (m // pd), qr * (m // qd)
    if mode == "current":
        # the source current, injected at the plus terminal, is known
        known = len(rows[0])
        rhs = [[[]] for _ in rows]
        rhs[port] = [_gauss(si * vi - sr * vr, -sr * vi - si * vr)]
    else:
        # the port potential is known, and the source current is unknown
        known = port
        rhs = []
        for row in rows:
            cr, ci = _parts(row.pop(port))
            rhs.append([_gauss(ci * vi - cr * vr, -cr * vi - ci * vr)])
            row.append([])
        rows[port][-1] = _gauss(sr, si)

    solved = solve(rows, rhs)
    if solved is None:
        raise InconsistentDrive(
            f"no sinusoidal trajectory with drive {mode}={value} at omega={omega}")
    d, particular, basis = solved
    dr, di = _parts(d)
    vec = [x for (x,) in particular]
    vec.insert(known, _gauss(vr * dr - vi * di, vr * di + vi * dr))
    for v in basis:
        v.insert(known, [])
    if m != 1:
        d = [x * m for x in d]
        basis = [[[x * m for x in y] for y in v] for v in basis]
    return d, vec, basis, stamp


def _phasor_draw(n: Network, omega: Fraction, space, seed) -> PhasorSolution:
    """One trajectory from a _phasor_space result: the particular solution
    plus a pseudo-random combination (from seed) of the free modes, each
    coefficient r/61 + j*i/53 = (53 r + 61 i j) / 3233.

    The trajectory stays over Z[j] until the public fields are filled: its
    unknowns are numerators x over one D (d, or 3233 d with free modes),
    and x * conj(D) over the int |D|^2 gives each value.  An element's
    voltage is the difference of its ends' numerators; its current is
    y*v, with y = v_e (j*omega)^(k-1) from its law (k, p, q), v_e = p/q:
    for omega = a/b, y is p/q, j p a/(q b) or -j p b/(q a) for
    k = 1, 2 or 0.  An element with no admittance, an inductor at
    omega = 0, has its own unknown.  Each field is one QComplex."""
    d, vec, basis, (_, laws, _, idx) = space
    dre, dim = _parts(d)
    re, im = map(list, zip(*map(_parts, vec)))
    if basis:
        rng = random.Random(seed if seed is not None else 0)
        re = [3233 * x for x in re]
        im = [3233 * x for x in im]
        dre, dim = 3233 * dre, 3233 * dim
        for b in basis:
            gr, gi = 53 * rng.randint(1, 997), 61 * rng.randint(1, 991)
            for t, y in enumerate(b):
                if y:
                    yr, yi = _parts(y)
                    re[t] += gr * yr - gi * yi
                    im[t] += gr * yi + gi * yr
    norm = dre * dre + dim * dim
    re, im = ([x * dre + y * dim for x, y in zip(re, im)],
              [y * dre - x * dim for x, y in zip(re, im)])

    def value(xr, xi, den=norm):
        return QComplex(Fraction(xr, den), Fraction(xi, den))

    pot = {v: (re[i], im[i]) for v, i in idx.items()}
    pot[n.port[1]] = (0, 0)
    a, b = omega.numerator, omega.denominator
    currents = {}
    voltages = {}
    extra = iter(range(len(idx), len(vec) - 1))   # zero-impedance currents
    for e, (k, p, q) in zip(n.elements, laws):
        (hr, hi), (tr, ti) = pot[e.head], pot[e.tail]
        vr, vi = hr - tr, hi - ti
        voltages[e.id] = value(vr, vi)
        q *= norm
        if k == 1:                          # v_e
            currents[e.id] = value(p * vr, p * vi, q)
        elif k == 2:                        # j v_e a / b
            currents[e.id] = value(-a * p * vi, a * p * vr, b * q)
        elif a:                             # -j v_e b / a
            currents[e.id] = value(b * p * vi, -b * p * vr, a * q)
        else:
            i = next(extra)
            currents[e.id] = value(re[i], im[i])
    return PhasorSolution(omega, value(re[-1], im[-1]),
                          value(*pot[n.port[0]]), currents, voltages,
                          len(basis))


def phasor_solve(n: Network, omega, drive: Optional[Tuple[str, object]] = None,
                 seed: Optional[int] = None) -> PhasorSolution:
    """Solve for a sinusoidal trajectory at the rational frequency omega.

    drive is ("current", phasor) or ("voltage", phasor), the phasor a
    QComplex or a rational.  The default drives unit current and, only if
    that is inconsistent, unit voltage.  For omega != 0 that is unit
    voltage exactly where the impedance has a pole at j*omega: a null
    vector of the nodal matrix Y(j*omega) is real, and Y' is positive
    definite on it, so the residue at the port vanishes exactly when every
    null vector has a zero port potential.  At omega = 0 a pole at s = 0
    that blocks direct current (a series capacitor) also gets unit
    voltage, with zero current.  When internal resonant modes make the
    trajectory non-unique, a deterministic pseudo-random combination of
    the free modes (from ``seed``) is added so the returned trajectory is
    generic.  ``_phasor_space`` solves the one nodal system over Z[j], on
    one stamp of n for both drives, and ``_phasor_draw`` adds the
    combination.
    """
    omega = _as_q(omega)
    stamp = _stamp(n)
    if drive is not None:
        space = _phasor_space(n, omega, (drive[0], qcomplex(drive[1])), stamp)
    else:
        try:
            space = _phasor_space(n, omega, ("current", QComplex(1, 0)), stamp)
        except InconsistentDrive:
            space = _phasor_space(n, omega, ("voltage", QComplex(1, 0)), stamp)
    return _phasor_draw(n, omega, space, seed)


def energy_balance(sol: PhasorSolution) -> Fraction:
    """|LHS - RHS| of the phasor power identity
    v*conj(i) + conj(v)*i = sum_k v_k*conj(i_k) + conj(v_k)*i_k.

    Each term x*conj(y) + conj(x)*y is the real number
    2 (x.re y.re + x.im y.im).  The voltages' parts are read as ints over
    their lcd, the currents' over theirs, so the difference is one int over
    the product of the two: an exact Fraction, zero when the identity
    holds."""
    volts = [sol.source_voltage] + [sol.element_voltages[eid]
                                    for eid in sol.element_currents]
    amps = [sol.source_current] + list(sol.element_currents.values())
    v, dv = _over_lcd([x for z in volts for x in (z.re, z.im)])
    i, di = _over_lcd([x for z in amps for x in (z.re, z.im)])
    terms = list(map(mul, v, i))
    return Fraction(2 * abs(terms[0] + terms[1] - sum(terms[2:])), dv * di)


# ---------------------------------------------------------------------------
# blocked subnetworks (minimum-frequency structure)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockReport:
    """Partition of a network into maximal-blocked subnetworks and unblocked
    elements for a generic sinusoidal trajectory at omega0."""

    omega0: Fraction
    blocked: Tuple[FrozenSet[str], ...]
    unblocked: FrozenSet[str]
    blocked_oneport_flags: Tuple[bool, ...]
    value: Tuple[Fraction, Fraction]       # H(j*omega0) as eval_jomega_pair


def blocked_report(n: Network, omega0, seed: int = 0) -> BlockReport:
    """Blocked/unblocked partition at a minimum frequency omega0.

    Requires (checked): omega0 > 0, the impedance is not lossless, has no
    pole at j*omega0, and H(j*omega0) is purely imaginary and nonzero.
    The trajectories driven by unit current at omega0 are the particular
    solution of one ``_phasor_space`` solve plus the span of its nullspace
    basis; that solve also gives H(j*omega0) and the pole test
    (``_unit_current``).  A voltage vanishes on a generic one exactly when
    it vanishes on the particular solution and on every basis vector.  At
    omega0 > 0 every admittance is nonzero, so an element is blocked, with
    no current and no voltage, exactly then; no trajectory is drawn and
    ``seed`` has no effect.  The impedance and the solve read one stamp of
    n, and the test compares potential numerators over the solve's d.
    Checks the structural laws a minimum-frequency trajectory must satisfy
    and, with at most four storage elements, the counting laws
    (``_assert_blocked_laws``)."""
    omega0 = _as_q(omega0)
    if omega0 <= 0:
        raise HypothesesNotMet("omega0 must be positive")
    stamp = _stamp(n)
    h = impedance(n, _stamped=stamp)
    if is_lossless(h):
        raise HypothesesNotMet("impedance is lossless")
    try:
        (_, vec, basis, _), (re, im) = _unit_current(n, omega0, stamp)
    except InconsistentDrive:
        raise HypothesesNotMet("impedance has a pole at j*omega0")
    if re != 0 or im == 0:
        raise HypothesesNotMet("H(j*omega0) must be nonzero purely imaginary")

    idx = stamp[3]
    blocked_ids = {e.id for e in n.elements if all(
        _potential(x, idx, e.head) == _potential(x, idx, e.tail)
        for x in [vec] + basis)}

    comps = _element_components(n, blocked_ids)
    unblocked = frozenset(e.id for e in n.elements) - blocked_ids
    flags = []
    for comp in comps:
        boundary = one_port_boundary(n, comp)
        flags.append(len(boundary) == 2)

    report = BlockReport(omega0, tuple(frozenset(c) for c in comps),
                         frozenset(unblocked), tuple(flags), (re, im))
    _assert_blocked_laws(n, report, vec[-1], _potential(vec, idx, n.port[0]))
    return report


def _element_components(n: Network, ids: Set[str]) -> List[Set[str]]:
    """Connected components (by shared vertices) of an element subset."""
    edges = [(e.head, e.tail, e.id) for e in n.elements if e.id in ids]
    component, _ = net._search(n.vertices, edges)
    comps: Dict[int, Set[str]] = {}
    for (head, _, eid) in edges:
        comps.setdefault(component[head], set()).add(eid)
    return sorted(comps.values(), key=sorted)


def _assert_blocked_laws(n: Network, report: BlockReport,
                         current: List[int], voltage: List[int]):
    """Raise InvariantViolation("blocked.k") where law k of a
    minimum-frequency trajectory fails on report; current and voltage are
    the driving-point Z[j] numerators of its solve, [] when zero."""
    # 1. the driving-point trajectory is nonzero in both coordinates
    if not current:
        raise InvariantViolation("blocked.1", vanished="driving current")
    if not voltage:
        raise InvariantViolation("blocked.1", vanished="driving voltage")
    # 2. every resistor is blocked
    blocked_all = set().union(*report.blocked) if report.blocked else set()
    for e in n.elements:
        if e.kind == RESISTOR and e.id not in blocked_all:
            raise InvariantViolation("blocked.2", unblocked_resistor=e.id)
    elems = {e.id: e for e in n.elements}
    unblocked_at: Dict[str, List[str]] = {}
    for eid in report.unblocked:
        e = elems[eid]
        unblocked_at.setdefault(e.head, []).append(eid)
        unblocked_at.setdefault(e.tail, []).append(eid)
    src_at = set(n.port)
    for comp in report.blocked:
        verts = {v for eid in comp for v in (elems[eid].head, elems[eid].tail)}
        # 3./4. incidence rules at blocked-subnetwork vertices: the source
        # meets one only beside an unblocked element, and an unblocked
        # element meets one only beside the source or another
        for v in verts:
            here = unblocked_at.get(v, [])
            if v in src_at and not here:
                raise InvariantViolation("blocked.3", source_alone_at=v)
            if here and v not in src_at and len(here) < 2:
                raise InvariantViolation("blocked.4", lone_unblocked_at=v)
        # 5. no two-vertex contact by the source or a single unblocked element
        if n.port[0] in verts and n.port[1] in verts:
            raise InvariantViolation("blocked.5", spanned_by="source")
        for eid in report.unblocked:
            e = elems[eid]
            if e.head in verts and e.tail in verts:
                raise InvariantViolation("blocked.5", spanned_by=eid)
    if storage_count(n) <= 4:
        # 6. three or four unblocked elements, all storage
        if len(report.unblocked) not in (3, 4):
            raise InvariantViolation("blocked.6",
                                     unblocked_count=len(report.unblocked))
        for eid in report.unblocked:
            if not elems[eid].is_storage():
                raise InvariantViolation("blocked.6", unblocked_nonstorage=eid)
        # 7. one or two maximal-blocked subnetworks, each a one-port
        if len(report.blocked) not in (1, 2):
            raise InvariantViolation("blocked.7",
                                     blocked_count=len(report.blocked))
        if not all(report.blocked_oneport_flags):
            raise InvariantViolation("blocked.7", not_oneport=[
                sorted(c) for c, flag in zip(report.blocked,
                                             report.blocked_oneport_flags)
                if not flag])


def _unit_current(n: Network, omega0: Fraction, stamp):
    """The unit-current ``_phasor_space`` solve of n at omega0 > 0 on its
    stamp and H(j*omega0), its port potential x / d, as the pair (a, b) of
    ``eval_jomega_pair``, meaning a + j*b*omega0: x * conj(d) / |d|^2,
    its imaginary part divided by omega0.  The drive is inconsistent,
    InconsistentDrive, exactly at a pole at j*omega0 (see
    ``phasor_solve``)."""
    space = _phasor_space(n, omega0, ("current", QComplex(1, 0)), stamp)
    d, vec, _, _ = space
    xr, xi = _parts(vec[stamp[3][n.port[0]]])
    dr, di = _parts(d)
    norm = dr * dr + di * di
    return space, (Fraction(xr * dr + xi * di, norm),
                   Fraction((xi * dr - xr * di) * omega0.denominator,
                            norm * omega0.numerator))


def _reduced_value(reduced,
                   omega0: Fraction) -> Optional[Tuple[Fraction, Fraction]]:
    """H(j*omega0) of a reduced network as ``_unit_current`` reads it, or
    None where it has no value (an open circuit, or a pole at j*omega0)."""
    if isinstance(reduced, OpenCircuit):
        return None
    if isinstance(reduced, ShortCircuit):
        return (Q(0), Q(0))
    try:
        return _unit_current(reduced, omega0, _stamp(reduced))[1]
    except InconsistentDrive:
        return None


def blocked_open_short_check(n: Network, report: BlockReport) -> bool:
    """Check that opening or shorting each maximal-blocked one-port
    preserves the impedance value at j*omega0 (sequentially for the second
    one when it remains a one-port).  The report must come from
    blocked_report on this same network: its value is the target, and each
    reduced network's value comes from one Z[j] solve
    (``_reduced_value``), with no impedance over Q[s]."""
    current = n
    for comp, flag in zip(report.blocked, report.blocked_oneport_flags):
        if not flag:
            return False
        # the one-port must survive into the reduced network
        if not comp <= {e.id for e in current.elements}:
            continue
        boundary = one_port_boundary(current, comp)
        if len(boundary) != 2:
            continue
        port_obj = OnePort(current, frozenset(comp), tuple(sorted(boundary)))
        succeeded = None
        for op in (net.open_oneport, net.short_oneport):
            reduced = op(current, port_obj)
            if _reduced_value(reduced, report.omega0) == report.value:
                succeeded = reduced
                break
        if succeeded is None:
            return False
        if isinstance(succeeded, Network):
            current = succeeded
    return True


# ---------------------------------------------------------------------------
# state-space extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateSpace:
    """dx/dt = A x + B i, v = C x + D i with states the inductor currents
    (netlist order) then capacitor voltages (netlist order)."""

    A: Tuple[Tuple[Fraction, ...], ...]
    B: Tuple[Fraction, ...]
    C: Tuple[Fraction, ...]
    D: Fraction
    state_labels: Tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.state_labels)


def _find_capacitor_loop(n: Network) -> Optional[List[str]]:
    """Capacitors on an all-capacitor circuit, or None, read off one search
    of the capacitor subgraph: a capacitor lies on such a circuit exactly
    when its block (biconnected component) holds another edge.  The dual
    of ``_find_inductor_cut``: capacitors become inductors and circuits
    become cut-sets."""
    _, blocks = net._search(n.vertices, [(e.head, e.tail, e.id) for e in n.elements
                                         if e.kind == CAPACITOR])
    loop = [eid for block in blocks if len(block) > 1 for eid in block]
    return sorted(loop) or None


def _find_inductor_cut(n: Network) -> Optional[List[str]]:
    """Inductors on an all-inductor cut-set (with or without the source),
    or None, read off one search of the subgraph without inductors: an
    inductor lies on such a cut-set exactly when its ends lie in different
    components of that subgraph.  The dual of ``_find_capacitor_loop``."""
    component, _ = net._search(n.vertices, [(e.head, e.tail, e.id)
                                            for e in n.elements if e.kind != INDUCTOR])
    cut = [e.id for e in n.elements
           if e.kind == INDUCTOR and component[e.head] != component[e.tail]]
    return sorted(cut) or None


def state_space(n: Network) -> StateSpace:
    """Extract the (A, B, C, D) model with states the inductor currents and
    capacitor voltages.

    Raises CapacitorLoop when the capacitors contain a circuit (their
    voltages are then linearly dependent) and InductorCutset when the
    inductors contain a cut-set (their currents are then constrained).

    One solve over Z gives every potential and capacitor current as int
    numerators over its last pivot den.  A row of [A | B] is an inductor's
    voltage times 1/L, or a capacitor's current times 1/C; with the
    reciprocal u/w from the stamp's int law it is the ints u*x over
    den*w.  The public Fractions are built from those pairs, and A's rows
    are cleared to (d, dA), d the least common denominator (``_cleared``),
    and kept on the model for ``_ab_sequence``."""
    stamp = _stamp(n)
    scale, laws, _, nidx = stamp
    loop = _find_capacitor_loop(n)
    if loop is not None:
        raise CapacitorLoop(loop, f"capacitor loop: {', '.join(loop)}")
    cut = _find_inductor_cut(n)
    if cut is not None:
        raise InductorCutset(cut, f"inductor cut-set: {', '.join(cut)}")

    # value * s is the impedance of an inductor (k = 0), the admittance of a
    # capacitor (k = 2); each is kept with the reciprocal u/w of its value
    inductors, capacitors = [], []
    for e, (k, p, q) in zip(n.elements, laws):
        if k == 0:                          # 1/L = p/q
            inductors.append((e, p, q))
        elif k == 2:                        # 1/C = q/p
            capacitors.append((e, q, p))
    states = [e.id for e, _, _ in inductors + capacitors]
    nstate = len(states)
    ncols = nstate + 1                     # coefficients over (x..., i)

    # a resistor is a conductance; an inductor is a source of its state
    # current (admittance zero); a capacitor is a source of its state
    # voltage, so its current is an unknown after the potentials.  The KCL
    # rows of the stamp are scaled by L, and so is their right-hand side
    ground = n.port[1]
    mat = _dc_rows(n, stamp, 2)
    nnode = len(nidx)
    rhs = [[0] * ncols for _ in mat]
    state_col = {eid: i for i, eid in enumerate(states)}
    for e, _, _ in inductors:              # the state current leaves the head
        for (v, sgn) in ((e.head, 1), (e.tail, -1)):
            if v != ground:
                rhs[nidx[v]][state_col[e.id]] -= sgn * scale
    rhs[nidx[n.port[0]]][nstate] += scale  # the input current i
    for j, (e, _, _) in enumerate(capacitors):   # e_head - e_tail = v_C
        rhs[nnode + j][state_col[e.id]] += 1

    # the solution rows are int numerators over den; a row of [A | B] is an
    # inductor's voltage over L, or a capacitor's current over C: ints u x
    # over den w
    solved = solve(mat, rhs)
    if solved is None or solved[2]:
        raise AnalysisError("singular algebraic system in state extraction")
    den, sol, _ = solved

    def potential_row(v: str) -> List[int]:
        if v == ground:
            return [0] * ncols
        return sol[nidx[v]]

    rows = [([u * (h - t) for h, t in zip(potential_row(e.head),
                                          potential_row(e.tail))], den * w)
            for e, u, w in inductors]
    rows += [([u * x for x in sol[nnode + j]], den * w)
             for j, (_, u, w) in enumerate(capacitors)]
    vout = [Fraction(x, den) for x in potential_row(n.port[0])]
    ss = StateSpace(tuple(tuple(Fraction(x, w) for x in r[:nstate])
                          for r, w in rows),
                    tuple(Fraction(r[nstate], w) for r, w in rows),
                    tuple(vout[:nstate]), vout[nstate], tuple(states))
    object.__setattr__(ss, "_da", _cleared((r[:nstate], w) for r, w in rows))
    return ss


def _cleared(rows) -> Tuple[int, List[List[int]]]:
    """(d, dA): rows given as (ints, den) pairs, each row its ints over
    den, cleared to int rows over d, the least common denominator of all
    their entries.  A row's own is den / gcd(den, *ints), one gcd a row,
    and d is the lcm of those, so it is the lcm of the entries' reduced
    denominators: the least d."""
    rows = [(den // g, [x // g for x in ints])
            for ints, den in rows for g in (math.gcd(den, *ints),)]
    d = math.lcm(*(lcd for lcd, _ in rows))
    return d, [[x * (d // lcd) for x in ints] for lcd, ints in rows]


def _krylov(da: List[List[int]], b) -> Tuple[int, List[List[int]]]:
    """(e, columns): the Krylov columns (dA)^j (e b) = d^j e A^j b, j =
    0..n, of (A, b) over Z by int dot products, A given by its int rows dA
    over d and e the lcm of b's denominators."""
    col, e = _over_lcd(b)
    cols = [col]
    for _ in b:
        col = [sum(map(mul, row, col)) for row in da]
        cols.append(col)
    return e, cols


def _annihilator(cols: List[List[int]]) -> List[int]:
    """The ints c_0..c_k of the annihilator m(s) = sum_j c_j d^j s^j /
    (c_k d^k) of b (``_monic``), from its Krylov columns (``_krylov``).
    Once a column depends on those before it, so does every later one, so
    the free columns of the nullspace that ``solve`` finds are k..n, and
    the first basis vector c belongs to column k: c_k is the last pivot,
    c_j = 0 for j > k, and sum_j c_j d^j A^j b = 0 (Kailath 1980, *Linear
    Systems*, sec. 6.2).  With no state m = 1."""
    _, _, basis = solve(list(zip(*cols)), [[]] * (len(cols) - 1))
    return basis[0][:len(cols) - len(basis) + 1] if basis else [1]


def _monic(d: int, c: List[int]) -> Polynomial:
    """The monic annihilator m of the ints c of ``_annihilator``."""
    return _poly([x * d ** j for j, x in enumerate(c)]).monic()


def _ab_sequence(ss: StateSpace):
    """(d, dA, e, columns, c): the model's one (A, B) sequence, built once
    and kept on it as ``RationalFunction`` keeps its PR verdict.  A is the
    int rows dA over d, the least common denominator of its entries
    (``_cleared``): ``state_space`` keeps them on its model from its own
    int rows, and a model built by hand is cleared here, once, from its
    Fractions; then the Krylov columns and annihilator ints."""
    seq = getattr(ss, "_ab", None)
    if seq is None:
        d, da = (getattr(ss, "_da", None)
                 or _cleared(_over_lcd(row) for row in ss.A))
        e, cols = _krylov(da, ss.B)
        seq = (d, da, e, cols, _annihilator(cols))
        object.__setattr__(ss, "_ab", seq)
    return seq


def ss_impedance(ss: StateSpace) -> RationalFunction:
    """D + C (sI - A)^{-1} B as an exact rational function, summed over Z
    with no determinant.  With m the monic annihilator of B, of degree k,
    s^j I - A^j = (sI - A) sum_(i<j) s^i A^(j-1-i) gives H = D + N / m,
    N = sum_(i<k) s^i sum_(j>i) m_j C A^(j-1-i) B (Kailath 1980, *Linear
    Systems*, ch. 2 and sec. 6.2).  From the model's (A, B) sequence
    (``_ab_sequence``), m_j = c_j d^j / (c_k d^k) and C A^j B = mu_j /
    (d^j e f), mu_j = (f C) . column_j over Z; so, with D = Dn / Dd, H is
    the quotient of the int polynomials with coefficients d^i (Dn e f c_i
    + Dd d sum_(j>i) c_j mu_(j-1-i)) and d^i Dd e f c_i, each built once.
    ``RationalFunction`` cancels the unobservable factors of m."""
    d, _, e, cols, c = _ab_sequence(ss)
    fc, f = _over_lcd(ss.C)
    dn, dd = ss.D.as_integer_ratio()
    mu = [sum(map(mul, fc, col)) for col in cols[:len(c) - 1]]
    num = [d ** i * (dn * e * f * ci + dd * d * sum(map(mul, c[i + 1:], mu)))
           for i, ci in enumerate(c)]
    den = [d ** i * dd * e * f * ci for i, ci in enumerate(c)]
    return RationalFunction(_poly(num), _poly(den))


# ---------------------------------------------------------------------------
# PBH diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PBHReport:
    """Uncontrollable/unobservable mode polynomials and their rational
    roots; stabilizable means no uncontrollable mode in the closed RHP."""

    uncontrollable_poly: Polynomial
    unobservable_poly: Polynomial
    uncontrollable_modes: Tuple[Fraction, ...]
    unobservable_modes: Tuple[Fraction, ...]
    controllable: bool
    observable: bool
    stabilizable: bool


def _char_poly(d: int, da: List[List[int]]) -> Polynomial:
    """chi = det(sI - A) for A cleared as (d, dA) (``_ab_sequence``): the
    det of one ``leading_minors`` pass over Z[s] on the rows of d s I - dA,
    diagonal entries [-x, d] and the others [-x], is d^n chi.  With no
    state chi = 1."""
    if not da:
        return ONE
    det = leading_minors([[[-x, d] if i == j else [-x]
                           for j, x in enumerate(row)]
                          for i, row in enumerate(da)])[1]
    return _poly(det, 1, d ** len(da))


def pbh_diagnostics(ss: StateSpace) -> PBHReport:
    """Exact PBH analysis from det(sI - A) and two Krylov annihilators.

    The uncontrollable (resp. unobservable) modes are the roots of the
    monic gcd of the maximal minors of [sI - A, B] (resp. [sI - A; C]).
    B is a single column, so the controllable subspace is cyclic (Kalman
    1963; Kailath 1980, *Linear Systems*, sec. 6.2) and that gcd is
    chi / m(A, B), where chi = det(sI - A) and m(A, B) is the annihilator
    of B; dually, with the single row C, it is chi / m(A^T, C).  Both
    annihilators come from int Krylov columns (``_krylov``, one ``solve``
    each in ``_annihilator``), and chi from one Z[s] pass over d s I - dA
    (``_char_poly``).  dA and the (A, B) annihilator come from the model's
    ``_ab_sequence``, shared with ``ss_impedance``; only the (A^T, C)
    sequence, on the transpose of dA, is built here.  The modes are the
    rational roots that ``real_roots`` finds, ascending; irrational and
    complex roots remain inside the returned polynomials.  Stabilizability
    is decided exactly with a Hurwitz test on the whole uncontrollable
    polynomial."""
    d, da, _, _, c = _ab_sequence(ss)
    chi = _char_poly(d, da)
    u = chi // _monic(d, c)
    _, cols = _krylov(list(zip(*da)), ss.C)
    o = chi // _monic(d, _annihilator(cols))

    u_modes = tuple(r for r in real_roots(u) if isinstance(r, Fraction))
    o_modes = tuple(r for r in real_roots(o) if isinstance(r, Fraction))
    controllable = u.degree < 1
    observable = o.degree < 1
    stabilizable = controllable or strict_hurwitz(u.prim)
    return PBHReport(u, o, u_modes, o_modes, controllable, observable,
                     stabilizable)
