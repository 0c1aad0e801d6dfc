"""Verification engine: impedance, phasors, blocking, state space, PBH."""

import dataclasses
import functools
import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from prsyn.analysis import (CapacitorLoop, ExtractionFailure,
                            HypothesesNotMet,
                            InconsistentDrive, InductorCutset,
                            PBHReport, StateSpace,
                            _ab_sequence, _annihilator, _char_poly, _krylov,
                            _monic,
                            _min_degree_order,
                            blocked_open_short_check,
                            blocked_report, energy_balance, impedance,
                            impedance_series_parallel, mcmillan_gap,
                            pbh_diagnostics, phasor_solve, ss_impedance,
                            state_space, storage_count)
from prsyn.network import (Element, Network, NetworkError,
                           NotPlanarDualizable, OnePort,
                           OpenCircuit, ShortCircuit, dual, one_port_boundary,
                           open_oneport, parse_netlist, short_oneport)
from prsyn.polyrat import (BiquadParams, Polynomial, Q, QComplex,
                           RationalFunction, _gauss, biquad_template,
                           eval_ratfunc, is_lossless, is_positive_real,
                           leading_minors, parse_ratfunc, qcomplex,
                           real_roots, solve, strict_hurwitz)
from prsyn.synth import (SEVEN_ELEMENT_VARIANTS, build_named,
                         build_seven_element, classify_biquad, theorem2_step)

from conftest import (bridge_over_q, count_pr_tests, dense_gauss_jordan,
                      ladder_network, leading_minors_over_q,
                      phasor_space_reference, rand_q,
                      random_biconnected_network, random_sp_network,
                      sample_region)

N1_TEXT = """
L l4 a c 1
R r1 a d 1/2
C c3 c d 1
R r2 c b 1/2
L l5 d b 1
PORT a b
"""


# N1 with a branch of two tanks resonant at omega = 1 across the port
N1_FREE_MODES_TEXT = N1_TEXT + """L la a m 1
C ca a m 1
L lb m b 1
C cb m b 1
"""


TANKS_TEXT = """
L l1 a m 1
L l2 m b 1
C c1 a m 1
C c2 m b 1
R r1 a b 1
PORT a b
"""


@pytest.fixture
def n1():
    return parse_netlist(N1_TEXT)


@pytest.fixture
def rpfg():
    h = biquad_template(BiquadParams(1, 1, Q(2, 3), 1))
    return build_seven_element(theorem2_step(h), "rpfg_first")


def count_eliminations(monkeypatch):
    """Record each call of ``leading_minors``, the one forward elimination
    entry point, from analysis: one name per forward pass of the Bareiss
    loop (the impedance's, or chi's over Z[s])."""
    import prsyn.analysis as analysis
    calls = []

    def counted(m):
        calls.append("leading_minors")
        return leading_minors(m)

    monkeypatch.setattr(analysis, "leading_minors", counted)
    return calls


class TestImpedance:
    def test_bare_port_has_no_impedance(self):
        # no element joins the terminals, so there is no network to analyse
        with pytest.raises(NetworkError,
                           match="^no element joins the port terminals$"):
            parse_netlist("PORT a b")

    def test_single_resistor(self):
        assert impedance(parse_netlist("R r1 a b 5\nPORT a b")) == \
            RationalFunction(Polynomial([5]))

    def test_series_lc(self):
        n = parse_netlist("L l1 a m 1\nC c1 m b 1\nPORT a b")
        assert impedance(n) == parse_ratfunc("(s^2+1)/(s)")

    def test_n1_fixture(self, n1):
        # independent oracle: spanning-tree bridge formula
        # unreduced (num, den) arms: R = 1/2, C = 1 and L = 1
        half, s, one = Polynomial([Q(1, 2)]), Polynomial([0, 1]), Polynomial([1])
        num, den = bridge_over_q({
            "N1": (half, one), "N2": (half, one), "N3": (one, s),
            "N4": (s, one), "N5": (s, one)})
        assert RationalFunction(num, den) == impedance(n1)
        assert impedance(n1) == biquad_template(BiquadParams(1, 1, Q(1, 2), 1))

    def test_always_positive_real(self, rng):
        for _ in range(40):
            assert is_positive_real(impedance(random_sp_network(rng)))

    def test_series_parallel_oracle_equivalence(self, rng):
        for _ in range(200):
            n = random_sp_network(rng)
            assert impedance_series_parallel(n) == impedance(n)

    @pytest.mark.parametrize("size", [6, 12, 20, 32])
    def test_ladder_matches_series_parallel_oracle(self, size):
        # rows with large denominator lcms, up to degree 16 over 15
        n = ladder_network(size, random.Random(size))
        h = impedance(n)
        assert h == impedance_series_parallel(n)
        assert h.mcmillan_degree == storage_count(n)


def renamed(n, rng):
    """n with its vertices renamed at random, so that their string order,
    and the vertex index of the nodal matrix, changes."""
    old = list(n.vertices)
    new = old
    while [old[new.index(v)] for v in sorted(new)] == old:
        new = [f"w{k}" for k in rng.sample(range(10**6), len(old))]
    name = dict(zip(old, new))
    return Network(new, [Element(e.id, e.kind, name[e.head], name[e.tail],
                                 e.value) for e in n.elements],
                   (name[n.port[0]], name[n.port[1]]))


class TestEliminationOrder:
    def test_impedance_does_not_depend_on_vertex_names(self, rng, rpfg):
        nets = [ladder_network(rng.choice(range(6, 34, 2)), rng)
                for _ in range(8)]
        nets += [random_sp_network(rng, 10) for _ in range(20)]
        for n in nets + [rpfg]:
            h = impedance(n)
            oracle = impedance_series_parallel(n)
            assert oracle is None or h == oracle
            for _ in range(2):
                m = renamed(n, rng)
                assert impedance(m) == h
                idx = {v: i for i, v in enumerate(v for v in m.vertices
                                                  if v != m.port[1])}
                order = _min_degree_order(m, idx)
                assert sorted(order) == list(range(len(idx)))
                assert order[-1] == idx[m.port[0]]
        assert impedance_series_parallel(rpfg) is None
        assert impedance(rpfg) == biquad_template(BiquadParams(1, 1, Q(2, 3), 1))

    def test_ladder_is_eliminated_from_its_far_end(self):
        # a ladder's nodal matrix is tridiagonal along its series path, and
        # eliminating it from the far end inward makes no fill-in
        n = ladder_network(12, random.Random(12))
        idx = {v: i for i, v in enumerate(v for v in n.vertices if v != "n")}
        path = ["v10", "v8", "v6", "v4", "v2", "v0", "p"]
        assert _min_degree_order(n, idx) == [idx[v] for v in path]


class TestPhasor:
    def test_single_resistor(self):
        n = parse_netlist("R r1 a b 7\nPORT a b")
        sol = phasor_solve(n, Q(5))
        assert sol.source_current == QComplex(1, 0)
        assert sol.source_voltage == QComplex(7, 0)

    def test_n1_at_minimum_frequency(self, n1):
        sol = phasor_solve(n1, Q(1))
        assert sol.source_voltage == QComplex(0, 1)   # H(j) = j

    def test_resonant_tank_blocks_current(self):
        n = parse_netlist("L l1 a b 1\nC c1 a b 1\nPORT a b")
        sol = phasor_solve(n, Q(1), drive=("voltage", QComplex(1, 0)))
        assert sol.source_current == QComplex(0, 0)

    def test_energy_balance_single_element(self):
        sol = phasor_solve(parse_netlist("C c1 a b 2\nPORT a b"), Q(3))
        assert energy_balance(sol) == 0

    def test_energy_balance_n1_resistor_terms_vanish(self, n1):
        sol = phasor_solve(n1, Q(1))
        assert energy_balance(sol) == 0
        for eid in ("r1", "r2"):
            ik = sol.element_currents[eid]
            vk = sol.element_voltages[eid]
            assert (vk.conjugate() * ik + ik.conjugate() * vk).is_zero()

    def test_energy_balance_random(self, rng):
        for _ in range(100):
            n = random_sp_network(rng)
            w = Fraction(rng.randint(0, 6), rng.randint(1, 4))
            try:
                sol = phasor_solve(n, w)
            except Exception:
                continue
            assert energy_balance(sol) == 0


class TestBlocked:
    def test_n1_report(self, n1):
        rep = blocked_report(n1, Q(1))
        assert sorted(sorted(c) for c in rep.blocked) == [["r1"], ["r2"]]
        assert sorted(rep.unblocked) == ["c3", "l4", "l5"]
        assert all(rep.blocked_oneport_flags)
        assert blocked_open_short_check(n1, rep)

    def test_fig2b_report(self):
        n = build_named("Fig2b", BiquadParams(1, 1, Q(3, 4), Q(1, 8)))
        rep = blocked_report(n, Q(1))
        blocked_all = set().union(*rep.blocked)
        assert {"r1", "r2"} <= blocked_all
        assert all(rep.blocked_oneport_flags)
        assert blocked_open_short_check(n, rep)

    def test_rpfg_five_unblocked_storage(self, rpfg):
        rep = blocked_report(rpfg, Q(1))
        assert len(rep.unblocked) == 5
        for eid in rep.unblocked:
            assert rpfg.element(eid).is_storage()
        assert blocked_open_short_check(rpfg, rep)

    def test_one_pr_test_per_report(self, monkeypatch):
        # impedance() has asserted PR; the lossless test reuses the verdict
        n = build_named("Fig2b", BiquadParams(1, 1, Q(3, 4), Q(1, 8)))
        tests = count_pr_tests(monkeypatch)
        rep = blocked_report(n, Q(1))
        assert {"r1", "r2"} <= set().union(*rep.blocked)
        assert len(tests) == 1
        with pytest.raises(HypothesesNotMet, match="lossless"):
            blocked_report(parse_netlist("L l1 a b 1\nPORT a b"), Q(1))
        assert len(tests) == 2

    def test_one_pr_test_per_report_under_optimize(self):
        # under -O the assert in impedance() is stripped, and the lossless
        # test of blocked_report takes the one PR verdict itself
        code = textwrap.dedent("""
            import sys
            from fractions import Fraction
            import prsyn.polyrat as polyrat
            from prsyn.analysis import blocked_report
            from prsyn.polyrat import BiquadParams
            from prsyn.synth import build_named

            tests = []
            hurwitz = polyrat.strict_hurwitz

            def counted(p):
                tests.append(p)
                return hurwitz(p)

            n = build_named("Fig2b", BiquadParams(1, 1, Fraction(3, 4),
                                                  Fraction(1, 8)))
            polyrat.strict_hurwitz = counted
            blocked_report(n, 1)
            sys.exit(0 if sys.flags.optimize and len(tests) == 1 else 1)
            """)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_hypotheses_checked(self, n1):
        with pytest.raises(HypothesesNotMet):
            blocked_report(n1, Q(7))     # not a minimum frequency
        lossless = parse_netlist("L l1 a b 1\nPORT a b")
        with pytest.raises(HypothesesNotMet):
            blocked_report(lossless, Q(1))

    @pytest.mark.parametrize("name", ["n1", "rpfg"])
    def test_impedance_computed_once(self, name, request, monkeypatch):
        # blocked_report computes H once, for its hypotheses, and reads
        # H(j*omega0) off its Z[j] solve into the report; the open/short
        # check reads the reduced networks' values off Z[j] solves too, so
        # neither evaluates an impedance
        import prsyn.analysis as analysis
        n = request.getfixturevalue(name)
        calls = []
        evaluated = []
        pair = RationalFunction.eval_jomega_pair

        def counted(net, **shared):
            calls.append(net)
            return impedance(net, **shared)

        def counted_pair(h, omega2):
            evaluated.append(h)
            return pair(h, omega2)

        monkeypatch.setattr(analysis, "impedance", counted)
        monkeypatch.setattr(RationalFunction, "eval_jomega_pair", counted_pair)
        rep = blocked_report(n, Q(1))
        assert len(calls) == 1 and calls[0] is n and evaluated == []
        calls.clear()
        assert blocked_open_short_check(n, rep)
        assert calls == [] and evaluated == []
        assert rep.value == impedance(n).eval_jomega_pair(Q(1))

    @pytest.mark.parametrize("name", ["n1", "rpfg", "n1_free_modes"])
    def test_one_tableau_solve_per_report(self, name, request, monkeypatch):
        # blocked_report solves the nodal phasor system once and reads the
        # blocked set exactly off its particular solution and nullspace
        # basis, so the seed changes nothing; the set is the one a generic
        # trajectory shows, the elements with no current and no voltage in
        # three phasor_solve draws.  n1_free_modes adds a branch of two
        # tanks resonant at omega0 = 1 across the port, so its node m gives
        # one free mode
        import prsyn.analysis as analysis
        if name == "n1_free_modes":
            n = parse_netlist(N1_FREE_MODES_TEXT)
        else:
            n = request.getfixturevalue(name)
        solves = []

        def counted(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(analysis, "solve", counted)
        reports = []
        for seed in (0, 5):
            solves.clear()
            reports.append(blocked_report(n, Q(1), seed=seed))
            assert len(solves) == 1
        rep = reports[0]
        assert reports[1] == rep
        sols = [phasor_solve(n, Q(1), ("current", 1), seed=t) for t in range(3)]
        assert sols[0].free_modes == (1 if name == "n1_free_modes" else 0)
        zero_sets = [{eid for eid, i in sol.element_currents.items()
                      if i.is_zero() and sol.element_voltages[eid].is_zero()}
                     for sol in sols]
        blocked_ids = set.intersection(*zero_sets)
        assert set().union(*rep.blocked) == blocked_ids
        assert rep.unblocked == {e.id for e in n.elements} - blocked_ids
        assert blocked_open_short_check(n, rep)

    def test_zero_on_the_particular_solution_only_is_unblocked(self):
        # the particular solution of n1_free_modes puts its free node m at
        # the port minus potential, so lb and cb have no voltage on it, but
        # the free mode moves m: a generic trajectory does not block them
        import prsyn.analysis as analysis
        n = parse_netlist(N1_FREE_MODES_TEXT)
        _, vec, basis, stamp = analysis._phasor_space(
            n, Q(1), ("current", QComplex(1, 0)), analysis._stamp(n))
        assert len(basis) == 1
        idx = stamp[3]

        def voltage(x, e):      # nonzero exactly when truthy
            return not (_qcomplex_of(analysis._potential(x, idx, e.head))
                        - _qcomplex_of(analysis._potential(x, idx, e.tail))
                        ).is_zero()

        zero_on_p = {e.id for e in n.elements if not voltage(vec, e)
                     and voltage(basis[0], e)}
        assert zero_on_p == {"lb", "cb"}
        rep = blocked_report(n, Q(1))
        assert sorted(sorted(c) for c in rep.blocked) == [["r1"], ["r2"]]
        assert {"la", "ca", "lb", "cb"} <= rep.unblocked

    def test_value_and_pole_read_off_the_solve(self, rng):
        # blocked_report reads H(j*omega0) and the pole test off its one
        # unit-current solve: the value equals eval_jomega_pair of the Q[s]
        # impedance, a pole at j*omega0 still gives the pole message, and
        # the hypotheses keep their order.  A resistor in series with a
        # tank resonant at omega0 = 1 and at 8/5 has such a pole
        seen = dict.fromkeys(("value", "off_unit", "pole", "not_minimum"), 0)
        tanks = [(parse_netlist(f"R r1 a m 1\nL l1 m b {ind}\nC c1 m b 1\n"
                                "PORT a b"), [w0])
                 for ind, w0 in (("1", Q(1)), ("25/64", Q(8, 5)))]
        corpus = [(n, omegas) for n, omegas, _ in _reduced_corpus(rng)]
        for n, omegas in corpus + tanks:
            h = impedance(n)
            if is_lossless(h):
                continue
            for w0 in omegas:
                try:
                    expect = h.eval_jomega_pair(w0 * w0)
                except ZeroDivisionError:
                    with pytest.raises(HypothesesNotMet,
                                       match=r"^impedance has a pole at "
                                             r"j\*omega0$"):
                        blocked_report(n, w0)
                    seen["pole"] += 1
                    continue
                if expect[0] != 0 or expect[1] == 0:
                    with pytest.raises(HypothesesNotMet,
                                       match="must be nonzero purely "
                                             "imaginary"):
                        blocked_report(n, w0)
                    seen["not_minimum"] += 1
                    continue
                assert blocked_report(n, w0).value == expect
                seen["value"] += 1
                seen["off_unit"] += w0.denominator != 1
        assert min(seen.values()) >= 2, seen

    @pytest.mark.parametrize("omega0", [Q(-1), Q(0), -1.0])
    def test_nonpositive_omega0_rejected(self, n1, omega0):
        # H(-j) satisfies the other hypotheses whenever H(j) does; a float
        # is no exact frequency and is refused before its sign is read
        if isinstance(omega0, float):
            with pytest.raises(TypeError):
                blocked_report(n1, omega0)
            return
        with pytest.raises(HypothesesNotMet, match="omega0 must be positive"):
            blocked_report(n1, omega0)


class TestStateSpace:
    def test_parallel_rl_hand_model(self):
        # hand derivation: state i_L; di/dt = (R/L)(i - i_L),
        # v = R(i - i_L); here R = 2, L = 3
        n = parse_netlist("R r1 a b 2\nL l1 a b 3\nPORT a b")
        ss = state_space(n)
        assert ss.state_labels == ("l1",)
        assert ss.A == ((Q(-2, 3),),)
        assert ss.B == (Q(2, 3),)
        assert ss.C == (Q(-2),)
        assert ss.D == 2
        assert ss.B[0] * ss.C[0] == Q(-4, 3)     # magnitude R^2/L
        assert ss_impedance(ss) == impedance(n)

    def test_series_rl_has_inductor_cutset(self):
        n = parse_netlist("R r1 a m 2\nL l1 m b 3\nPORT a b")
        with pytest.raises(InductorCutset, match="l1"):
            state_space(n)

    def test_capacitor_loop_detected(self):
        n = parse_netlist(
            "R r1 a m 1\nC c1 m k 1\nC c2 k b 1\nC c3 m b 1\nL l1 a b 1\n"
            "R r2 k b 2\nPORT a b")
        with pytest.raises(CapacitorLoop) as exc:
            state_space(n)
        assert set(exc.value.element_ids) == {"c1", "c2", "c3"}

    def test_every_capacitor_circuit_is_named(self):
        # two capacitor circuits, apart: both are named, in one sorted list
        n = parse_netlist(
            "C c1 a m 1\nC c2 a m 2\nR r1 m k 1\nC c3 k b 1\nC c4 k j 1\n"
            "C c5 j b 1\nL l1 a b 1\nPORT a b")
        with pytest.raises(CapacitorLoop) as exc:
            state_space(n)
        assert exc.value.element_ids == ("c1", "c2", "c3", "c4", "c5")
        assert str(exc.value) == "capacitor loop: c1, c2, c3, c4, c5"

    def test_capacitor_loop_matches_brute_force(self):
        # a capacitor is named iff its ends stay joined by the other
        # capacitors; random multigraphs, half of them with a capacitor
        # added in parallel to a random element
        from prsyn.analysis import _find_capacitor_loop

        def joined(edges, a, b):
            part = {}

            def find(v):
                while part.get(v, v) != v:
                    v = part[v]
                return v
            for u, v in edges:
                part[find(u)] = find(v)
            return find(a) == find(b)

        rng = random.Random(1972)
        found = 0
        for trial in range(300):
            base = random_biconnected_network(rng, 6, 10)
            elements = [Element(e.id, rng.choice("CCRL"), e.head, e.tail,
                                e.value) for e in base.elements]
            if trial % 2:
                e = rng.choice(elements)
                elements.append(Element("x", "C", e.tail, e.head, 1))
            n = Network(base.vertices, elements, base.port)
            caps = [e for e in elements if e.kind == "C"]
            brute = sorted(e.id for e in caps if joined(
                [(f.head, f.tail) for f in caps if f is not e], e.head, e.tail))
            assert _find_capacitor_loop(n) == (brute or None)
            found += bool(brute)
        assert 50 < found < 250

    def test_transfer_equality_random(self, rng):
        done = 0
        for _ in range(80):
            n = random_sp_network(rng)
            try:
                ss = state_space(n)
            except (CapacitorLoop, InductorCutset):
                continue
            assert ss_impedance(ss) == impedance(n)
            done += 1
        assert done >= 20

    def test_failure_matches_graph_predicates(self, rng):
        from prsyn.analysis import _find_capacitor_loop, _find_inductor_cut
        for _ in range(80):
            n = random_sp_network(rng)
            predicted_fail = (_find_capacitor_loop(n) is not None
                              or _find_inductor_cut(n) is not None)
            try:
                state_space(n)
                assert not predicted_fail
            except (CapacitorLoop, InductorCutset):
                assert predicted_fail


class TestPBH:
    def test_no_state(self, monkeypatch):
        # two resistors in parallel: with no state chi = 1 with no pass, so
        # both mode polynomials are 1
        ss = state_space(parse_netlist("R r1 a b 1\nR r2 a b 2\nPORT a b"))
        assert ss.n == 0
        assert ss_impedance(ss) == RationalFunction(Polynomial([Q(2, 3)]))
        eliminations = count_eliminations(monkeypatch)
        rep = pbh_diagnostics(ss)
        assert eliminations == []
        assert rep.uncontrollable_poly == rep.unobservable_poly == Polynomial([1])
        assert rep.uncontrollable_modes == rep.unobservable_modes == ()
        assert rep.controllable and rep.observable and rep.stabilizable

    def test_minimal_parallel_rl(self):
        ss = state_space(parse_netlist("R r1 a b 2\nL l1 a b 3\nPORT a b"))
        rep = pbh_diagnostics(ss)
        assert rep.controllable and rep.observable and rep.stabilizable

    def test_fig2b_modes(self):
        W, F = Q(3, 4), Q(1, 8)
        n = build_named("Fig2b", BiquadParams(1, 1, W, F))
        ss = state_space(n)
        rep = pbh_diagnostics(ss)
        lam = -W * (1 - W) / F
        assert lam in rep.unobservable_modes
        assert Q(0) in rep.uncontrollable_modes
        assert not rep.stabilizable

    def test_rpfg_nonminimal_modes(self):
        # five states realize a degree-two impedance, so three dimensions
        # must be uncontrollable and/or unobservable
        h = biquad_template(BiquadParams(1, 1, Q(2, 3), 1))
        n = build_seven_element(theorem2_step(h), "rpfg_first")
        ss = state_space(n)
        rep = pbh_diagnostics(ss)
        assert not rep.controllable and not rep.observable
        assert int(rep.uncontrollable_poly.degree) \
            + int(rep.unobservable_poly.degree) >= 3

    def test_complex_modes_stay_in_the_polynomials(self):
        # two L-C tanks resonant at omega = 1 in series across a resistor:
        # the modes +-j are neither controllable nor observable, have no
        # rational root to list, and make the model unstabilizable
        n = parse_netlist(TANKS_TEXT)
        rep = pbh_diagnostics(state_space(n))
        assert rep.uncontrollable_poly == Polynomial([1, 0, 1])
        assert rep.unobservable_poly == Polynomial([1, 0, 1])
        assert rep.uncontrollable_modes == () and rep.unobservable_modes == ()
        assert (rep.controllable, rep.observable, rep.stabilizable) == \
            (False, False, False)

    def test_determinants_on_rpfg_five_states(self, rpfg, monkeypatch):
        # no determinant for the impedance, only the nullspace solve of the
        # annihilator of B; for PBH, one leading_minors pass over Z[s] on
        # d s I - dA for chi, and one nullspace solve per annihilator, the
        # (A, B) one read off the model's sequence once ss_impedance has
        # built it
        import prsyn.analysis as analysis
        ss = state_space(rpfg)
        assert ss.n == 5
        eliminations = count_eliminations(monkeypatch)
        solves = []

        def counted_solve(*args):
            solves.append(args)
            return solve(*args)

        monkeypatch.setattr(analysis, "solve", counted_solve)
        ss_impedance(ss)
        assert (eliminations, len(solves)) == ([], 1)
        solves.clear()
        pbh_diagnostics(ss)
        assert (eliminations, len(solves)) == (["leading_minors"], 1)
        fresh = state_space(rpfg)
        solves.clear()
        eliminations.clear()
        pbh_diagnostics(fresh)
        assert (eliminations, len(solves)) == (["leading_minors"], 2)

    def test_a_cleared_once_per_call(self, rpfg, monkeypatch):
        # chi and both Krylov sequences read one clearing (d, dA) of A, the
        # (A^T, C) sequence its transpose.  A model from state_space keeps
        # the clearing it made of its own int rows, so pbh_diagnostics and
        # ss_impedance on it clear A never again; a model built by hand is
        # cleared once, from its Fractions, by the same helper, to the same
        # least d and dA
        import prsyn.analysis as analysis
        from prsyn.analysis import _cleared
        from prsyn.polyrat import _over_lcd
        cleared = []

        def counted(rows):
            rows = list(rows)
            cleared.append(rows)
            return _cleared(rows)

        monkeypatch.setattr(analysis, "_cleared", counted)
        ss = state_space(rpfg)
        assert len(cleared) == 1
        rep = pbh_diagnostics(ss)
        h = ss_impedance(ss)
        assert len(cleared) == 1
        assert rep == _minor_gcd_pbh(ss)
        hand = StateSpace(ss.A, ss.B, ss.C, ss.D, ss.state_labels)
        assert pbh_diagnostics(hand) == rep and ss_impedance(hand) == h
        assert len(cleared) == 2
        assert cleared[1] == [_over_lcd(row) for row in ss.A]
        d, da = _ab_sequence(ss)[:2]
        assert (d, da) == _ab_sequence(hand)[:2]
        assert d == math.lcm(*(x.denominator for row in ss.A for x in row))
        assert [[Fraction(x, d) for x in row] for row in da] \
            == [list(row) for row in ss.A]

    def test_least_clearing_on_the_corpus(self, rng):
        # state_space clears its [A | B] rows with one gcd a row to the
        # least d; it equals the clearing of the public Fractions on the
        # verify mix and on random networks with states
        from prsyn.analysis import _cleared
        from prsyn.polyrat import _over_lcd
        networks = [classify_biquad(sample_region(r, rng)).witness_network
                    for r in "abcdef"]
        step = theorem2_step(biquad_template(BiquadParams(
            Q(3, 2), Q(2), Q(1, 3), Q(5, 4))))
        networks += [build_seven_element(step, which)
                     for which in SEVEN_ELEMENT_VARIANTS]
        networks += [random_biconnected_network(rng) for _ in range(40)]
        checked = 0
        for n in networks:
            try:
                ss = state_space(n)
            except ExtractionFailure:
                continue
            assert ss._da == _cleared(_over_lcd(row) for row in ss.A)
            assert all(type(x) is Fraction for row in ss.A for x in row)
            checked += ss.n > 1
        assert checked >= 20

    @pytest.mark.parametrize("first", ["ss_impedance", "pbh_diagnostics"])
    def test_one_ab_sequence_per_model(self, rpfg, monkeypatch, first):
        # ss_impedance and pbh_diagnostics on one model, in either order,
        # build the (A, B) Krylov columns and annihilator once: two
        # _krylov calls and two annihilator solves in all, one pair for
        # (A, B) and one for pbh_diagnostics' own (A^T, C).  An equal but
        # distinct model builds its own; nothing is kept by value
        import prsyn.analysis as analysis
        calls = []

        def counted(name, fn):
            def call(*args):
                calls.append(name)
                return fn(*args)
            monkeypatch.setattr(analysis, name, call)

        ss = state_space(rpfg)
        counted("_krylov", _krylov)
        counted("solve", solve)
        pair = [ss_impedance, pbh_diagnostics]
        if first == "pbh_diagnostics":
            pair.reverse()
        answers = [f(ss) for f in pair]
        assert sorted(calls) == ["_krylov", "_krylov", "solve", "solve"]
        calls.clear()
        twin = dataclasses.replace(ss)
        assert twin == ss and twin is not ss
        assert [f(twin) for f in pair] == answers
        assert sorted(calls) == ["_krylov", "_krylov", "solve", "solve"]
        assert _ab_sequence(twin) == _ab_sequence(ss)
        assert _ab_sequence(twin) is not _ab_sequence(ss)


class TestCounts:
    def test_n1(self, n1):
        assert storage_count(n1) == 3 and mcmillan_gap(n1) == 1

    def test_seven_element(self, rpfg):
        assert storage_count(rpfg) == 5 and mcmillan_gap(rpfg) == 3

    def test_series_rl(self):
        n = parse_netlist("R r1 a m 2\nL l1 m b 3\nPORT a b")
        assert storage_count(n) == 1 and mcmillan_gap(n) == 0

    def test_gap_nonnegative_random(self, rng):
        for _ in range(60):
            assert mcmillan_gap(random_sp_network(rng)) >= 0


class TestNumericTolerance:
    """There is no numeric tolerance: every value at s = j*omega is exact,
    and a float or complex argument is a TypeError."""

    def test_precision_env_override(self, n1, monkeypatch):
        # the former PRSYN_PRECISION knob is read by nothing
        before = phasor_solve(n1, Q(2), ("current", 1))
        monkeypatch.setenv("PRSYN_PRECISION", "1e-6")
        after = phasor_solve(n1, Q(2), ("current", 1))
        assert after == before
        assert energy_balance(after) == 0

    def test_float_path_phasor(self, n1):
        # a float frequency (rational or not), drive or minimum frequency
        # is refused; the exact forms of the same arguments are accepted
        calls = [lambda: phasor_solve(n1, 2.0),
                 lambda: phasor_solve(n1, 2 ** 0.5),
                 lambda: phasor_solve(n1, Q(2), ("current", 1.0)),
                 lambda: phasor_solve(n1, Q(2), ("voltage", 1j)),
                 lambda: blocked_report(n1, 1.0)]
        for call in calls:
            with pytest.raises(TypeError):
                call()
        assert phasor_solve(n1, 2, ("current", 1)).frequency == 2

    def test_float_path_matches_exact(self, n1):
        # the one exact path agrees with H(j*omega), and eval_ratfunc
        # refuses a float or complex point
        h = impedance(n1)
        for call in (lambda: eval_ratfunc(h, 0j),
                     lambda: eval_ratfunc(h, 1.0)):
            with pytest.raises(TypeError):
                call()
        assert eval_ratfunc(h, 0) == h.num.coeff(0) / h.den.coeff(0)
        sol = phasor_solve(n1, Q(2), ("current", 1))
        assert sol.source_current == QComplex(1, 0)
        assert sol.source_voltage == eval_ratfunc(h, QComplex(0, 2))


class TestInconsistentDrive:
    def test_voltage_at_impedance_zero(self):
        from prsyn.analysis import InconsistentDrive
        n = parse_netlist("L l1 a m 1\nC c1 m b 1\nPORT a b")  # zero at j*1
        with pytest.raises(InconsistentDrive):
            phasor_solve(n, Q(1), drive=("voltage", QComplex(1, 0)))

    def test_current_at_impedance_pole(self):
        from prsyn.analysis import InconsistentDrive
        n = parse_netlist("L l1 a b 1\nC c1 a b 1\nPORT a b")  # pole at j*1
        with pytest.raises(InconsistentDrive):
            phasor_solve(n, Q(1), drive=("current", QComplex(1, 0)))


class TestDriveNormalization:
    def test_pole_at_omega_defaults_to_voltage_drive(self):
        n = parse_netlist("L l1 a b 1\nC c1 a b 1\nPORT a b")
        sol = phasor_solve(n, Q(1))     # impedance pole at j*1
        assert sol.source_voltage == QComplex(1, 0)
        assert sol.source_current == QComplex(0, 0)

    def test_default_drive_skips_pr_check(self, n1, monkeypatch):
        # the default drive only asks whether unit current is consistent;
        # neither the positive-real check nor an elimination over Q[s] runs,
        # and the impedance takes one
        import prsyn.analysis as analysis
        checks = []
        eliminations = count_eliminations(monkeypatch)

        def counted(h):
            checks.append(h)
            return is_positive_real(h)

        monkeypatch.setattr(analysis, "is_positive_real", counted)
        tank = parse_netlist("L l1 a b 1\nC c1 a b 1\nPORT a b")
        sol = phasor_solve(tank, Q(1))     # impedance pole at j*1
        assert sol.source_voltage == QComplex(1, 0)
        assert phasor_solve(n1, Q(1)).source_current == QComplex(1, 0)
        assert checks == [] and eliminations == []
        impedance(n1)
        assert len(checks) == 1 and eliminations == ["leading_minors"]

    def test_network_without_element_rejected(self):
        # the netlist, and the constructor under it, refuse a bare port
        # before any drive is tried
        for build in (lambda: parse_netlist("PORT a b"),
                      lambda: Network(["a", "b"], [], ("a", "b"))):
            with pytest.raises(NetworkError,
                               match="^no element joins the port terminals$"):
                build()

    def test_no_pole_defaults_to_current_drive(self):
        n = parse_netlist("R r1 a b 3\nPORT a b")
        sol = phasor_solve(n, Q(2))
        assert sol.source_current == QComplex(1, 0)


def _tableau(n, omega, drive):
    """Reference copy of the phasor tableau the nodal system replaced.

    Unknowns [potentials, element currents, source current], the port
    minus terminal grounded; rows are KCL per non-ground vertex (element
    currents leave the head, the source injects at the plus terminal), one
    element law each and the drive.  Returns (rows, rhs, vertex index)."""
    zero = QComplex(0, 0)
    ground = n.port[1]
    nodes = [v for v in n.vertices if v != ground]
    nidx = {v: i for i, v in enumerate(nodes)}
    m = len(n.elements)
    ncols = len(nodes) + m + 1
    isrc = len(nodes) + m
    rows, rhs = [], []

    def new_row():
        rows.append([zero] * ncols)
        rhs.append([zero])
        return rows[-1]

    kcl = {v: new_row() for v in nodes}
    for j, e in enumerate(n.elements):
        col = len(nodes) + j
        if e.head != ground:
            kcl[e.head][col] = kcl[e.head][col] + 1
        if e.tail != ground:
            kcl[e.tail][col] = kcl[e.tail][col] - 1
    kcl[n.port[0]][isrc] = kcl[n.port[0]][isrc] - 1
    for j, e in enumerate(n.elements):
        row = new_row()
        col = len(nodes) + j
        side, p = e.electrical().law
        mag = e.value * omega ** p
        x = QComplex(0, mag) if p else QComplex(mag, 0)
        z = x if side == "Z" else None if mag == 0 else 1 / x
        if z is None:
            row[col] = row[col] + 1         # pole at j*omega: current is zero
            continue
        if e.head != ground:
            row[nidx[e.head]] = row[nidx[e.head]] + 1
        if e.tail != ground:
            row[nidx[e.tail]] = row[nidx[e.tail]] - 1
        row[col] = row[col] - z
    row = new_row()
    mode, value = drive
    if mode == "current":
        row[isrc] = row[isrc] + 1
    else:
        row[nidx[n.port[0]]] = row[nidx[n.port[0]]] + 1
    rhs[-1] = [value]
    return rows, rhs, nidx


def _tableau_vector(n, sol, nidx):
    """[potentials, element currents, source current] of a trajectory,
    the potentials recovered from the element voltages; asserts KVL."""
    pot = {n.port[1]: QComplex(0, 0)}
    while len(pot) < len(n.vertices):
        for e in n.elements:
            v = sol.element_voltages[e.id]
            if e.head in pot and e.tail not in pot:
                pot[e.tail] = pot[e.head] - v
            elif e.tail in pot and e.head not in pot:
                pot[e.head] = pot[e.tail] + v
    for e in n.elements:
        assert pot[e.head] - pot[e.tail] == sol.element_voltages[e.id]
    assert pot[n.port[0]] == sol.source_voltage
    return ([pot[v] for v in sorted(nidx, key=nidx.get)]
            + [sol.element_currents[e.id] for e in n.elements]
            + [sol.source_current])


def _tank_network(rng):
    """A random biconnected network, half the time with an L-C tank
    resonant at omega = 1 added, in parallel or in series, so some
    trajectories have free modes."""
    n = random_biconnected_network(rng)
    if rng.random() < 0.5:
        return n
    a, b = rng.sample(n.vertices, 2)
    inductance = rng.randint(1, 5)
    tank = (f"L lt {a} {b} {inductance}\nC ct {a} {b} 1/{inductance}\n"
            if rng.random() < 0.5 else
            f"L lt {a} tk {inductance}\nC ct tk {b} 1/{inductance}\n")
    return parse_netlist(str(n) + tank)


class TestNodalAgainstTableau:
    """The modified nodal system agrees with the element tableau it
    replaced, at frequencies with poles, zeros and internal resonances."""

    def test_random_networks(self, rng, monkeypatch):
        import prsyn.analysis as analysis
        solved_space = analysis._phasor_space
        drives_used = []

        def recorded(n, omega, drive, stamp):
            space = solved_space(n, omega, drive, stamp)
            drives_used.append(drive[0])
            return space

        monkeypatch.setattr(analysis, "_phasor_space", recorded)
        one = QComplex(1, 0)
        seen = {"unique": 0, "free": 0, "inconsistent": 0, "zero_default": 0}
        for _ in range(60):
            n = _tank_network(rng)
            h = impedance(n)
            for omega in (Q(0), Q(1), Q(2), Q(1, 2), Q(-1)):
                consistent = {}
                for mode in ("current", "voltage"):
                    rows, rhs, nidx = _tableau(n, omega, (mode, one))
                    ref = dense_gauss_jordan(rows, rhs, QComplex(0, 0),
                                             QComplex.is_zero)
                    consistent[mode] = ref is not None
                    if ref is None:
                        with pytest.raises(InconsistentDrive):
                            phasor_solve(n, omega, (mode, one))
                        seen["inconsistent"] += 1
                        continue
                    sol = phasor_solve(n, omega, (mode, one), seed=7)
                    x, basis = [y for (y,) in ref[0]], ref[1]
                    assert sol.free_modes == len(basis)
                    got = _tableau_vector(n, sol, nidx)
                    for row, (b,) in zip(rows, rhs):
                        assert sum((r * y for r, y in zip(row, got)),
                                   QComplex(0, 0)) == b
                    if basis:
                        seen["free"] += 1
                    else:
                        assert got == x
                        seen["unique"] += 1
                drives_used.clear()
                sol = phasor_solve(n, omega, seed=7)
                mode = drives_used[-1]
                assert mode == ("current" if consistent["current"]
                                else "voltage")
                if omega != 0:
                    # the former rule: unit voltage at a pole of H at j*omega
                    pole = h.den.eval_jomega(omega * omega) == (0, 0)
                    assert mode == ("voltage" if pole else "current")
                elif mode == "voltage":
                    seen["zero_default"] += 1
                assert sol == phasor_solve(n, omega, (mode, one), seed=7)
        assert min(seen.values()) >= 5, seen


class TestPhasorSpaceAgainstDriveRow:
    """``_phasor_space`` moves the driven unknown's column to the right-hand
    side and solves the KCL rows alone; it must give the rational
    potentials, source values, nullspace and verdicts of the drive-row
    system it replaced (``conftest.phasor_space_reference``)."""

    def test_same_space_as_the_drive_row_system(self):
        import prsyn.analysis as analysis
        rng = random.Random(1968)
        networks = [parse_netlist(N1_FREE_MODES_TEXT),
                    parse_netlist(TANKS_TEXT),
                    parse_netlist("R r1 a m 1\nC c1 m b 2\nPORT a b")]
        networks += [classify_biquad(sample_region(r, rng)).witness_network
                     for r in "ace"]
        networks += [_tank_network(rng) for _ in range(16)]
        networks += [random_biconnected_network(rng) for _ in range(8)]
        drives = [("current", QComplex(1, 0)), ("voltage", QComplex(1, 0)),
                  ("current", QComplex(Q(2, 3), Q(-1, 5))),
                  ("voltage", QComplex(Q(1, 3), 2)),
                  ("voltage", QComplex(0, Q(-7, 4)))]
        seen = dict.fromkeys(("zero", "nonzero", "current", "voltage",
                              "fraction_drive", "free", "inconsistent"), 0)

        def over(x, d):
            return _qcomplex_of(x) / _qcomplex_of(d)

        for n in networks:
            stamp = analysis._stamp(n)
            for omega in (Q(0), Q(1), Q(1, 2), Q(-1), Q(8, 5)):
                for drive in drives:
                    try:
                        d0, vec0, basis0 = phasor_space_reference(
                            n, omega, drive, stamp)
                    except InconsistentDrive:
                        with pytest.raises(InconsistentDrive):
                            analysis._phasor_space(n, omega, drive, stamp)
                        seen["inconsistent"] += 1
                        continue
                    d, vec, basis, same = analysis._phasor_space(
                        n, omega, drive, stamp)
                    assert same is stamp
                    assert [over(x, d) for x in vec] \
                        == [over(x, d0) for x in vec0]
                    assert [[over(x, d) for x in b] for b in basis] \
                        == [[over(x, d0) for x in b] for b in basis0]
                    seen["zero" if omega == 0 else "nonzero"] += 1
                    seen[drive[0]] += 1
                    seen["fraction_drive"] += drive[1] != QComplex(1, 0)
                    seen["free"] += len(basis) > 0
        assert min(seen.values()) >= 10, seen

    def test_drive_mode_is_checked(self, n1):
        import prsyn.analysis as analysis
        with pytest.raises(ValueError, match="unknown drive mode 'power'"):
            analysis._phasor_space(n1, Q(1), ("power", QComplex(1, 0)),
                                   analysis._stamp(n1))


def _qcomplex_of(z):
    """The QComplex of a Z[j] list [re, im], [re] or []."""
    return QComplex(*(list(z) + [0, 0])[:2])


def _reference_draw(n, omega, space, seed):
    """Reference copy of the QComplex arithmetic that ``_phasor_draw``
    replaced, on a ``_phasor_space`` result read over Q(j): the free-mode
    combination r/61 + j*i/53 as QComplex products, each voltage a
    QComplex difference and each current the QComplex product y * v, y
    from the law (k, p, q) of the stamp, v_e = p/q."""
    import prsyn.analysis as analysis
    d, nums, basis_nums, (_, laws, _, idx) = space

    def over(x):
        return _qcomplex_of(x) / _qcomplex_of(d)

    vec = [over(x) for x in nums]
    basis = [[over(x) for x in b] for b in basis_nums]
    if basis:
        rng = random.Random(seed if seed is not None else 0)
        for b in basis:
            c = QComplex(Fraction(rng.randint(1, 997), 61),
                         Fraction(rng.randint(1, 991), 53))
            vec = [x + c * y for x, y in zip(vec, b)]

    def potential(v):
        return vec[idx[v]] if v in idx else QComplex(0, 0)

    currents = {}
    voltages = {}
    extra = iter(range(len(idx), len(vec) - 1))
    for e, (k, p, q) in zip(n.elements, laws):
        v = Fraction(p, q)
        volt = voltages[e.id] = potential(e.head) - potential(e.tail)
        if k == 0 and not omega:
            currents[e.id] = vec[next(extra)]
        else:
            y = (QComplex(v, 0) if k == 1 else QComplex(0, v * omega)
                 if k == 2 else QComplex(0, -v / omega))
            currents[e.id] = y * volt
    return analysis.PhasorSolution(omega, vec[-1], potential(n.port[0]),
                                   currents, voltages, len(basis))


def _reference_solve(n, omega, drive, seed):
    """(trajectory, drive mode) through ``_reference_draw``, with the
    drives of ``phasor_solve``: the given one, or unit current and, where
    that is inconsistent, unit voltage."""
    import prsyn.analysis as analysis
    one = QComplex(1, 0)
    stamp = analysis._stamp(n)
    if drive is not None:
        drive = (drive[0], qcomplex(drive[1]))
        space = analysis._phasor_space(n, omega, drive, stamp)
    else:
        try:
            drive = ("current", one)
            space = analysis._phasor_space(n, omega, drive, stamp)
        except InconsistentDrive:
            drive = ("voltage", one)
            space = analysis._phasor_space(n, omega, drive, stamp)
    return _reference_draw(n, omega, space, seed), drive[0]


def _reference_energy_balance(sol):
    """Reference copy of the QComplex energy balance: |sum of the source
    term 2 Re(conj(v) i) minus the elements' terms|."""
    def power(v, i):
        return 2 * (v.conjugate() * i).re

    return abs(power(sol.source_voltage, sol.source_current) - sum(
        power(sol.element_voltages[eid], ik)
        for eid, ik in sol.element_currents.items()))


def _draw_corpus():
    """(network, omega, drive, seed) over one fixed seed: n1_free_modes
    with seeds 0-2 at its resonance and elsewhere, TANKS_TEXT and a series
    capacitor at omega = 0 (a pole at s = 0), tanks at their poles, the
    verify mix (biquad witnesses and seven-element realizations) at their
    omega0, and random tank networks at omega in {0, 1, 1/2, -1, 8/5},
    each with the default drive, unit voltage and a complex current."""
    rng = random.Random(3233)
    free = parse_netlist(N1_FREE_MODES_TEXT)
    cases = [(free, Q(1), None, seed) for seed in (0, 1, 2)]
    cases += [(free, Q(1), ("voltage", QComplex(Q(1, 3), 2)), seed)
              for seed in (0, 1, 2)]
    cases += [(free, w, None, 0) for w in (Q(0), Q(8, 5))]
    cases += [(parse_netlist(TANKS_TEXT), w, None, 1)
              for w in (Q(0), Q(1), Q(2))]
    cases.append((parse_netlist("R r1 a m 1\nC c1 m b 2\nPORT a b"), Q(0),
                  None, 0))
    cases += [(parse_netlist(text + "PORT a b"), w, None, 0)
              for text, w in (("L l1 a b 1\nC c1 a b 1\n", Q(1)),
                              ("L l1 a b 4\nC c1 a b 1/4\n", Q(1)),
                              ("R r1 a m 1\nL l1 m b 25/64\nC c1 m b 1\n",
                               Q(8, 5)))]
    for region in ("a", "c", "e", "none"):
        p = sample_region(region, rng)
        cases.append((classify_biquad(p).witness_network, p.omega0, None,
                      rng.randrange(3)))
    step = theorem2_step(biquad_template(BiquadParams(1, Q(8, 5), Q(2, 3), 1)))
    cases += [(build_seven_element(step, which), Q(8, 5), None, 0)
              for which in SEVEN_ELEMENT_VARIANTS]
    drives = (None, ("voltage", 1), ("current", QComplex(2, -1)))
    for _ in range(10):
        n = _tank_network(rng)
        cases += [(n, w, drive, rng.randrange(3))
                  for w in (Q(0), Q(1), Q(1, 2), Q(-1), Q(8, 5))
                  for drive in drives]
    return cases


class TestPhasorDraw:
    """``_phasor_draw`` keeps the trajectory over Z[j] and builds one
    QComplex per field; it must give the PhasorSolution, and
    ``energy_balance`` the residual, that the QComplex route gave."""

    def test_matches_the_qcomplex_route(self):
        seen = dict.fromkeys(("zero", "voltage", "free", "pole",
                              "inconsistent"), 0)
        for n, omega, drive, seed in _draw_corpus():
            try:
                sol = phasor_solve(n, omega, drive, seed=seed)
            except InconsistentDrive:
                with pytest.raises(InconsistentDrive):
                    _reference_solve(n, omega, drive, seed)
                seen["inconsistent"] += 1
                continue
            ref, mode = _reference_solve(n, omega, drive, seed)
            assert sol == ref
            assert all(type(x) is QComplex for x in (
                sol.source_current, sol.source_voltage,
                *sol.element_currents.values(),
                *sol.element_voltages.values()))
            assert energy_balance(sol) == _reference_energy_balance(ref) == 0
            seen["zero"] += omega == 0
            seen["voltage"] += mode == "voltage"
            seen["free"] += sol.free_modes > 0
            seen["pole"] += drive is None and mode == "voltage" and omega != 0
        assert min(seen.values()) >= 3, seen

    def test_perturbed_currents_match_the_qcomplex_balance(self):
        # one current off by a random phasor: the integer balance equals
        # the QComplex one, and is nonzero wherever that element carries a
        # voltage with a nonzero real product
        rng = random.Random(61)
        nonzero = 0
        for n, omega, drive, seed in _draw_corpus()[:40]:
            try:
                sol = phasor_solve(n, omega, drive, seed=seed)
            except InconsistentDrive:
                continue
            eid = rng.choice(sorted(sol.element_currents))
            delta = QComplex(Q(rng.randint(-9, 9), rng.randint(1, 7)),
                             Q(rng.randint(-9, 9), rng.randint(1, 7)))
            off = dataclasses.replace(sol, element_currents={
                **sol.element_currents,
                eid: sol.element_currents[eid] + delta})
            got = energy_balance(off)
            assert got == _reference_energy_balance(off)
            assert got == abs(2 * (sol.element_voltages[eid].conjugate()
                                   * delta).re)
            nonzero += got != 0
        assert nonzero >= 20

    def test_hand_built_residual(self):
        # source 2 V driving 1 A; the element reads 2 + j/7 V and
        # 4/3 + j/5 A: 2 (2*1) - 2 (2*4/3 + 1/7*1/5) = -146/105
        import prsyn.analysis as analysis
        sol = analysis.PhasorSolution(
            Q(1), QComplex(1, 0), QComplex(2, 0),
            {"r1": QComplex(Q(4, 3), Q(1, 5))},
            {"r1": QComplex(2, Q(1, 7))})
        assert energy_balance(sol) == Fraction(146, 105)
        assert energy_balance(dataclasses.replace(
            sol, element_currents={"r1": QComplex(1, 0)},
            element_voltages={"r1": QComplex(2, 0)})) == 0


class TestOneStamp:
    """Each analysis call stamps its network once, and shares the stamp
    within the call: no cache outlives it."""

    def test_six_stamps_per_verify_item(self, monkeypatch):
        # the calls of one verify item, criterion 5 plus the state space:
        # impedance, phasor_solve, blocked_report (its hypothesis
        # impedance and its solve read one stamp) and state_space stamp n
        # once each, and the open/short check stamps two reduced networks
        import prsyn.analysis as analysis
        stamp = analysis._stamp
        stamped = []

        def counted(n):
            stamped.append(n)
            return stamp(n)

        monkeypatch.setattr(analysis, "_stamp", counted)
        rng = random.Random(6)
        items = [(classify_biquad(p).witness_network, p.omega0)
                 for p in (sample_region(r, rng) for r in "abcdef")]
        for sign in (1, -1):
            p = BiquadParams(rand_q(rng), rand_q(rng),
                             Q(3, 4) if sign > 0 else Q(5, 4),
                             sign * rand_q(rng))
            step = theorem2_step(biquad_template(p), p.omega0)
            items += [(build_seven_element(step, which), p.omega0)
                      for which in SEVEN_ELEMENT_VARIANTS]
        for n, w0 in items:
            stamped.clear()
            impedance(n)
            phasor_solve(n, w0, seed=1)
            assert stamped == [n, n]
            rep = blocked_report(n, w0)
            assert stamped == [n, n, n]
            assert blocked_open_short_check(n, rep)
            try:
                state_space(n)
            except ExtractionFailure:
                pass
            assert len(stamped) == 6 and stamped[-1] is n

    def test_fallback_drive_reads_the_same_stamp(self, monkeypatch):
        # unit current is inconsistent at the tank's pole: the unit-voltage
        # solve that follows reuses the stamp
        import prsyn.analysis as analysis
        stamp = analysis._stamp
        stamped = []

        def counted(n):
            stamped.append(n)
            return stamp(n)

        monkeypatch.setattr(analysis, "_stamp", counted)
        tank = parse_netlist("L l1 a b 1\nC c1 a b 1\nPORT a b")
        assert phasor_solve(tank, Q(1)).source_voltage == QComplex(1, 0)
        assert stamped == [tank]


# each law of _assert_blocked_laws broken once, on a crafted report whose
# earlier laws hold: (law, network text, blocked, unblocked, one-port flags,
# driving current, driving voltage)
_N1 = N1_TEXT.replace("PORT a b\n", "")
_BRIDGE = "L l1 a m 1\nC c1 m b 1\nL l2 a n 1\nC c2 n b 1\nR r1 m n 1\n"
_G1 = (1, 0)
BROKEN_LAWS = [
    ("blocked.1", _N1, [{"r1"}, {"r2"}], {"c3", "l4", "l5"}, None,
     (0, 0), _G1),
    ("blocked.1", _N1, [{"r1"}, {"r2"}], {"c3", "l4", "l5"}, None,
     _G1, (0, 0)),
    ("blocked.2", _N1, [{"r1"}], {"c3", "l4", "l5", "r2"}, None, _G1, _G1),
    ("blocked.3", _N1, [{"r1"}, {"r2"}], {"c3", "l5"}, None, _G1, _G1),
    ("blocked.4", _N1, [{"r1"}, {"r2"}], {"l4", "l5"}, None, _G1, _G1),
    ("blocked.5", "R r1 a b 1\nL l1 a b 1\nC c1 a b 1\n", [{"r1"}],
     {"l1", "c1"}, None, _G1, _G1),
    ("blocked.5", "L l1 a m 1\nR r1 m b 1\nC c1 m b 1\nL l2 m b 1\n",
     [{"r1"}], {"l1", "c1", "l2"}, None, _G1, _G1),
    ("blocked.6", "L l1 a b 1\n", [], set(), None, _G1, _G1),
    # a damper is no resistor (law 2) and stores no energy (law 6)
    ("blocked.6", "SPRING k1 a m 1\nINERTER b1 m b 1\nSPRING k2 a n 1\n"
     "DAMPER d2 n b 1\nDAMPER d1 m n 1\n", [{"d1"}],
     {"k1", "b1", "k2", "d2"}, None, _G1, _G1),
    ("blocked.7", "L l1 a m 1\nC c1 m b 1\nL l2 a b 1\n", [],
     {"l1", "c1", "l2"}, None, _G1, _G1),
    ("blocked.7", _BRIDGE, [{"r1"}], {"l1", "c1", "l2", "c2"}, (False,),
     _G1, _G1),
]


class TestBlockedLaws:
    """``_assert_blocked_laws`` raises InvariantViolation, also under
    ``python -O``, naming the law a report breaks."""

    @pytest.mark.parametrize("case", range(len(BROKEN_LAWS)))
    def test_each_law_is_raised(self, case):
        import prsyn.analysis as analysis
        law, text, blocked, unblocked, flags, current, voltage = \
            BROKEN_LAWS[case]
        n = parse_netlist(text + "PORT a b\n")
        rep = analysis.BlockReport(
            Q(1), tuple(frozenset(c) for c in blocked), frozenset(unblocked),
            flags or (True,) * len(blocked), (Q(0), Q(1)))
        with pytest.raises(analysis.InvariantViolation) as exc:
            analysis._assert_blocked_laws(n, rep, _gauss(*current),
                                          _gauss(*voltage))
        assert exc.value.law == law
        assert str(exc.value).startswith(f"invariant {law} violated: ")

    def test_pr_law_raised_under_optimize(self, tmp_path):
        # with the PR verdict forced false, impedance raises the
        # positive-real law under -O, and the CLI exits 4 with one line
        net = tmp_path / "r.net"
        net.write_text("R r1 a b 1\nPORT a b\n")
        code = textwrap.dedent(f"""
            import sys
            import prsyn.analysis as analysis
            from prsyn import cli
            from prsyn.network import parse_netlist
            analysis.is_positive_real = lambda h: False
            try:
                analysis.impedance(parse_netlist(open({str(net)!r}).read()))
            except analysis.InvariantViolation as exc:
                law = exc.law
            else:
                law = None
            exit_code = cli.main(["impedance", {str(net)!r}])
            sys.exit(0 if sys.flags.optimize and law == "positive-real"
                     and exit_code == 4 else 1)
            """)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ("error: invariant positive-real violated: "
                               "impedance=1\n")


def _reduced_corpus(rng):
    """(network, frequencies, one-ports) to open and short.  The networks
    are biquad witnesses of every region and seven-element realizations at
    their own omega0, and n1_free_modes, TANKS_TEXT (a pole at s = j once
    r1 is opened) and random tank networks at omega0 = 1, each also at
    omega0 = 8/5.  The one-ports are every single element and, where the
    network's report exists, its blocked subnetworks."""
    nets = []
    for region in ("a", "b", "c", "d", "e", "f", "none"):
        p = sample_region(region, rng)
        nets.append((classify_biquad(p).witness_network, p.omega0))
    for k in range(4):
        w0 = Q(8, 5) if k < 2 else rand_q(rng)
        W = Q(rng.randint(1, 199), 200)
        p = BiquadParams(rand_q(rng), w0, W + Q(1, 400) * (W == Q(1, 2)),
                         rand_q(rng))
        step = theorem2_step(biquad_template(p), p.omega0)
        nets += [(build_seven_element(step, which), p.omega0)
                 for which in SEVEN_ELEMENT_VARIANTS[k % 2::2]]
    nets += [(parse_netlist(text), Q(1))
             for text in (N1_FREE_MODES_TEXT, TANKS_TEXT)]
    nets += [(_tank_network(rng), Q(1)) for _ in range(16)]
    for n, w0 in nets:
        ports = [{e.id} for e in n.elements]
        try:
            ports += [set(c) for c in blocked_report(n, w0).blocked]
        except HypothesesNotMet:
            pass
        yield n, sorted({w0, Q(8, 5)}), ports


class TestReducedValues:
    """The open/short check reads H_r(j*omega0) off a unit-current Z[j]
    solve of each reduced network.  It must equal eval_jomega_pair of the
    reduced network's Q[s] impedance, the pair (a, b) meaning
    a + j*b*omega0, and give no value exactly where that raises: a pole at
    j*omega0.  Frequencies with denominator 5 catch a pair that forgets to
    divide the imaginary part by omega0."""

    def test_against_the_q_s_impedance(self, rng):
        import prsyn.analysis as analysis
        seen = {"pole": 0, "value": 0, "off_unit": 0, "open": 0, "short": 0}
        for n, omegas, ports in _reduced_corpus(rng):
            for comp in ports:
                boundary = one_port_boundary(n, comp)
                if len(boundary) != 2:
                    continue
                port = OnePort(n, frozenset(comp), tuple(sorted(boundary)))
                for op in (open_oneport, short_oneport):
                    reduced = op(n, port)
                    for w0 in omegas:
                        got = analysis._reduced_value(reduced, w0)
                        if isinstance(reduced, OpenCircuit):
                            assert got is None
                            seen["open"] += 1
                            continue
                        if isinstance(reduced, ShortCircuit):
                            assert got == (0, 0)
                            seen["short"] += 1
                            continue
                        h = impedance(reduced)
                        try:
                            expect = h.eval_jomega_pair(w0 * w0)
                        except ZeroDivisionError:
                            expect = None
                        assert got == expect
                        if expect is None:
                            seen["pole"] += 1
                        else:
                            seen["value"] += 1
                            seen["off_unit"] += (w0.denominator != 1
                                                 and expect[1] != 0)
        assert min(seen.values()) >= 5, seen

def _faddeev_ss_impedance(ss):
    """Reference copy of the Faddeev-LeVerrier resolvent that ss_impedance
    replaced: M_0 = I, M_k = A M_(k-1) + c_k I with c_k = -tr(A M_(k-1))/k,
    the coefficients of det(sI - A), and C M_k B those of its numerator.
    It takes no determinant, so it checks the leading-minor route from
    outside."""
    nn = ss.n
    ms = [[Q(int(i == j)) for j in range(nn)] for i in range(nn)]
    char, num = [Q(1)], []                  # leading coefficient first
    for k in range(1, nn + 1):
        num.append(sum(ss.C[i] * ms[i][j] * ss.B[j]
                       for i in range(nn) for j in range(nn)))
        am = [[sum(ss.A[i][t] * ms[t][j] for t in range(nn))
               for j in range(nn)] for i in range(nn)]
        char.append(-sum(am[i][i] for i in range(nn)) / k)
        ms = [[am[i][j] + (char[-1] if i == j else 0) for j in range(nn)]
              for i in range(nn)]
    return (RationalFunction(Polynomial(num[::-1]), Polynomial(char[::-1]))
            + RationalFunction(Polynomial([ss.D])))


def _expansion_det(rows):
    """Reference determinant over Q[s] with no elimination: Laplace
    expansion along each row in turn, each minor on the remaining rows
    computed once per set of remaining columns."""
    @functools.lru_cache(maxsize=None)
    def minor(cols):
        if not cols:
            return Polynomial([1])
        top, total = rows[len(rows) - len(cols)], Polynomial()
        for k, c in enumerate(cols):
            term = top[c] * minor(cols[:k] + cols[k + 1:])
            total = total - term if k % 2 else total + term
        return total

    return minor(tuple(range(len(rows))))


def _minor_gcd_pbh(ss):
    """Reference copy of the PBH route pbh_diagnostics replaced: the monic
    gcd of the maximal minors of [sI - A, B] and of [sI - A; C] (through
    its transpose), every minor by ``_expansion_det``, then the same
    verdicts."""
    nn = ss.n
    sia = [[Polynomial([-ss.A[i][j], int(i == j)]) for j in range(nn)]
           for i in range(nn)]

    def minor_gcd(rows):
        g = Polynomial()
        for drop in range(nn + 1):
            d = _expansion_det([row[:drop] + row[drop + 1:] for row in rows])
            g = d.monic() if g.is_zero() else g.gcd(d)
        return g

    u = minor_gcd([sia[r] + [Polynomial([ss.B[r]])] for r in range(nn)])
    o = minor_gcd([[sia[r][c] for r in range(nn)] + [Polynomial([ss.C[c]])]
                   for c in range(nn)])
    u_modes = tuple(r for r in real_roots(u) if isinstance(r, Fraction))
    o_modes = tuple(r for r in real_roots(o) if isinstance(r, Fraction))
    return PBHReport(u, o, u_modes, o_modes, u.degree < 1, o.degree < 1,
                     u.degree < 1 or strict_hurwitz(u.prim))


def _leading_minor_char_poly(ss):
    """Reference chi: the last leading minor of sI - A over Q[s], each row
    cleared by its own lcm (``leading_minors_over_q``), where _char_poly
    reads the det of one pass over d s I - dA (1 with no state)."""
    nn = ss.n
    sia = [[Polynomial([-ss.A[i][j], int(i == j)]) for j in range(nn)]
           for i in range(nn)]
    return ([Polynomial([1])] + leading_minors_over_q(sia))[-1]


def _bordered_ss_impedance(ss):
    """Reference copy of the bordered-determinant quotient that
    ss_impedance replaced: det([[sI - A, B], [-C, D]]) = chi (D +
    C (sI - A)^{-1} B) by the Schur complement, so the impedance is the
    quotient of the last two leading minors of the bordered matrix."""
    nn = ss.n
    big = [[Polynomial([-ss.A[i][j], int(i == j)]) for j in range(nn)]
           + [Polynomial([ss.B[i]])] for i in range(nn)]
    big.append([Polynomial([-c]) for c in ss.C] + [Polynomial([ss.D])])
    minors = [Polynomial([1])] + leading_minors_over_q(big) + [Polynomial()]
    return RationalFunction(minors[nn + 1], minors[nn])


def _fraction_krylov_annihilator(a, b):
    """Reference copy of the annihilator route that the int Krylov columns
    replaced: the columns b, Ab, ..., A^n b by Fraction dot products, then
    the first nullspace vector of ``solve``, whose entries over its d are
    the coefficients of m with 1 at s^k."""
    cols = [list(b)]
    for _ in b:
        cols.append([sum(x * y for x, y in zip(row, cols[-1])) for row in a])
    d, _, basis = solve(list(zip(*cols)), [[]] * len(b))
    return (Polynomial([Fraction(x, d) for x in basis[0]]) if basis
            else Polynomial([1]))


SS_SHAPES = ("dense", "scalar", "block", "b_zero", "c_zero", "wide")

# the 65 primes between 999,000 and 10**6: the denominators of the "wide"
# shape, so that the lcm d of A's denominators, and the int Krylov columns,
# grow
WIDE_PRIMES = [p for p in range(999_001, 1_000_000, 2)
               if all(p % f for f in range(3, 1001, 2))]


def _random_state_space(rng, nn, shape):
    """Random (A, B, C, D) over Q with nn states.  "scalar" is A = lambda I,
    so every annihilator has degree at most 1; "block" is A = [[A11, A12],
    [0, A22]] with B = [B1; 0], so the A22 states are uncontrollable;
    "b_zero" and "c_zero" zero one port vector; "wide" is a block form
    whose A22 may be empty, with A and B over distinct primes near 10**6."""
    def q():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    def wide():
        return Fraction(rng.randint(-10**6, 10**6), rng.choice(WIDE_PRIMES))

    k = (rng.randint(1, nn - 1) if shape == "block"
         else rng.randint(1, nn) if shape == "wide" and nn else nn)
    entry = wide if shape == "wide" else q
    lam = q()
    a = [[lam * (i == j) if shape == "scalar"
          else Q(0) if i >= k > j or rng.random() < 0.3 else entry()
          for j in range(nn)] for i in range(nn)]
    b = [entry() if i < k and shape != "b_zero" else Q(0) for i in range(nn)]
    c = [Q(0) if shape == "c_zero" else q() for _ in range(nn)]
    return StateSpace(tuple(map(tuple, a)), tuple(b), tuple(c), q(),
                      tuple(f"x{i}" for i in range(nn)))


class TestStateSpaceAgainstReferences:
    """ss_impedance, pbh_diagnostics, chi and both annihilators agree with
    the routes they replaced (the bordered-determinant quotient, the
    Fraction Krylov annihilator, the minor-gcd PBH route, the last leading
    minor of sI - A) and with the Faddeev resolvent, on random (A, B, C, D)
    over Q."""

    def test_random_systems(self):
        rng = random.Random(1963)
        seen = dict.fromkeys(("n0", "scalar", "block_uncontrollable",
                              "b_zero", "c_zero", "wide", "wide_d_over_10**12",
                              "controllable", "observable", "uncontrollable",
                              "unobservable", "neither"), 0)
        for i in range(300):
            nn = i % 7
            shape = SS_SHAPES[(i // 7) % len(SS_SHAPES)]
            if shape == "block" and nn < 2:
                shape = "dense"
            ss = _random_state_space(rng, nn, shape)
            ref = _minor_gcd_pbh(ss)
            assert pbh_diagnostics(ss) == ref
            d, da, _, _, c = _ab_sequence(ss)
            assert _char_poly(d, da) == _leading_minor_char_poly(ss)
            h = ss_impedance(ss)
            assert h == _bordered_ss_impedance(ss)
            assert h == _faddeev_ss_impedance(ss)
            assert _monic(d, c) == _fraction_krylov_annihilator(ss.A, ss.B)
            _, cols = _krylov(list(zip(*da)), ss.C)
            assert _monic(d, _annihilator(cols)) \
                == _fraction_krylov_annihilator(list(zip(*ss.A)), ss.C)
            seen["n0"] += nn == 0
            seen["scalar"] += shape == "scalar" and nn >= 2
            seen["block_uncontrollable"] += (shape == "block"
                                             and not ref.controllable)
            seen["b_zero"] += shape == "b_zero" and nn > 0
            seen["c_zero"] += shape == "c_zero" and nn > 0
            seen["wide"] += shape == "wide" and nn > 0
            seen["wide_d_over_10**12"] += (
                shape == "wide" and d > 10**12)
            seen["controllable"] += nn > 0 and ref.controllable
            seen["observable"] += nn > 0 and ref.observable
            seen["uncontrollable"] += not ref.controllable
            seen["unobservable"] += not ref.observable
            seen["neither"] += not (ref.controllable or ref.observable)
        assert min(seen.values()) >= 10, seen


class TestFourRoutes:
    """Nodal analysis, the series-parallel oracle, state space, phasor and
    the dual agree on random biconnected graphs, many not series-parallel."""

    def test_random_biconnected_graphs(self, rng):
        routes = {"sp": 0, "not_sp": 0, "state_space": 0, "dual": 0}
        for _ in range(150):
            n = random_biconnected_network(rng)
            h = impedance(n)
            sp = impedance_series_parallel(n)
            if sp is None:
                routes["not_sp"] += 1
            else:
                assert sp == h
                routes["sp"] += 1
            try:
                ss = state_space(n)
            except ExtractionFailure:
                pass
            else:
                assert ss_impedance(ss) == h
                routes["state_space"] += 1
            omega = next(w for w in (Q(1, 3), Q(5, 2), Q(7, 4), Q(11, 3))
                         if h.den.eval_jomega(w * w) != (0, 0))
            sol = phasor_solve(n, omega, ("current", QComplex(2, -1)))
            assert (sol.source_voltage / sol.source_current
                    == eval_ratfunc(h, QComplex(0, omega)))
            try:
                d = dual(n)
            except NotPlanarDualizable:
                continue
            assert impedance(d) == 1 / h
            routes["dual"] += 1
        assert min(routes.values()) >= 10, routes
