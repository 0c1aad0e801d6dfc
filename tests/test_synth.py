"""Synthesis procedures, classifier, quartets, matcher, fixtures."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from prsyn.analysis import impedance, mcmillan_gap, storage_count
from prsyn.network import (CAPACITOR, INDUCTOR, RESISTOR, Element, Leaf,
                           Network, NonpositiveValue, assemble_shape, dual,
                           frequency_invert, par, parse_netlist, ser)
from prsyn.polyrat import (BiquadParams, InvariantViolation, NotMinimum,
                           Polynomial, Q, RationalFunction, biquad_params, biquad_template,
                           is_positive_real, parse_ratfunc,
                           sylvester_determinant)
from prsyn.synth import (SEVEN_ELEMENT_VARIANTS, Classification,
                         ConditionViolated, ConstraintViolated, Fig2Params,
                         NoMatch, NonConstantReduced, QuartetParams,
                         SynthError, SynthesisStep,
                         WrongBranch, build_named, build_quartet,
                         build_seven_element, classify_biquad,
                         match_minimum_structure, n12_has_no_feasible_solution,
                         resultant_fixture_check, theorem2_step,
                         verify_theorem2_identity, _QUARTET_REQUIREMENTS)

from conftest import (bridge_over_q, coefficients_in_x_reference,
                      count_pr_tests, pair_over_q, rand_q, sample_region,
                      tree_pair_reference)


class TestTheorem2Step:
    def test_positive_branch_closed_forms(self):
        # closed forms: mu = W w0 / F, H(mu) = KW,
        # alpha = (F^2+W^2)(1-W) w0 / (2 W^2 F), reduced = W
        h = biquad_template(BiquadParams(1, 1, Q(2, 3), 1))
        step = theorem2_step(h)
        assert step.variant == "X_positive"
        assert step.mu_or_nu == Q(2, 3)
        assert step.h == Q(2, 3)
        assert step.alpha_or_beta == Q(13, 24)
        assert step.reduced.constant_value() == Q(2, 3)
        assert verify_theorem2_identity(h, step)

    def test_negative_branch_closed_forms(self):
        # nu = -F w0 / W, H(nu) = KW, beta = (F^2+W^2)(1-W) w0/(2WF),
        # reduced = 1/W
        h = biquad_template(BiquadParams(1, 1, Q(3, 2), -1))
        step = theorem2_step(h)
        assert step.variant == "X_negative"
        assert step.mu_or_nu == Q(2, 3)
        assert step.h == Q(3, 2)
        assert step.alpha_or_beta == Q(13, 24)
        assert step.reduced.constant_value() == Q(2, 3)
        assert verify_theorem2_identity(h, step)

    def test_closed_forms_random(self, rng):
        for _ in range(25):
            region = rng.choice(["a", "c", "f", "none", "b", "d", "e"])
            p = sample_region(region, rng)
            step = theorem2_step(biquad_template(p), p.omega0)
            K, w0, W, F = p.K, p.omega0, p.W, p.F
            if F > 0:
                assert step.variant == "X_positive"
                assert step.mu_or_nu == W * w0 / F
                assert step.h == K * W
                assert step.alpha_or_beta == \
                    (F * F + W * W) * (1 - W) * w0 / (2 * W * W * F)
                assert step.reduced.constant_value() == W
            else:
                assert step.variant == "X_negative"
                assert step.mu_or_nu == -F * w0 / W
                assert step.h == K * W
                assert step.alpha_or_beta == \
                    (F * F + W * W) * (1 - W) * w0 / (2 * W * F)
                assert step.reduced.constant_value() == 1 / W

    def test_lossless_rejected(self):
        with pytest.raises(NotMinimum):
            theorem2_step(parse_ratfunc("(s^2+1)/(s)"))

    def test_one_minimum_function_test_per_biquad_step(self, rng,
                                                         monkeypatch):
        # theorem2_step tests h once: one is_minimum_function and one
        # imaginary-axis root test each of num and den, on both branches
        import prsyn.polyrat as polyrat
        import prsyn.synth as synth
        tests, axis = [], []
        minimum = polyrat.is_minimum_function
        on_axis = polyrat._has_imaginary_axis_root

        def counted(h):
            tests.append(h)
            return minimum(h)

        def counted_axis(p):
            axis.append(p)
            return on_axis(p)

        for module in (polyrat, synth):
            monkeypatch.setattr(module, "is_minimum_function", counted)
        monkeypatch.setattr(polyrat, "_has_imaginary_axis_root", counted_axis)
        branches = set()
        for region in ("a", "b", "c", "d", "e", "f", "none"):
            p = sample_region(region, rng)
            tests.clear()
            axis.clear()
            step = theorem2_step(biquad_template(p), p.omega0)
            branches.add(step.variant)
            assert (len(tests), len(axis)) == (1, 2)
        assert branches == {"X_positive", "X_negative"}
        with pytest.raises(NotMinimum, match="not a minimum function"):
            biquad_params(parse_ratfunc("(s^2+1)/(s)"))

    def test_biquad_step_asks_only_linear_roots(self, rng, monkeypatch):
        # the branch polynomial of a biquad is a cubic with roots +-j*w0;
        # the step divides out s^2 + w0^2 and asks real_roots only of the
        # linear quotient, which takes its closed form, on both branches
        import prsyn.synth as synth
        degrees = []
        roots = synth.real_roots

        def counted(p, *args):
            degrees.append(p.degree)
            return roots(p, *args)

        monkeypatch.setattr(synth, "real_roots", counted)
        branches = set()
        for region in ("a", "b", "c", "d", "e", "f", "none"):
            p = sample_region(region, rng)
            degrees.clear()
            branches.add(theorem2_step(biquad_template(p), p.omega0).variant)
            assert degrees == [1]
        assert branches == {"X_positive", "X_negative"}

    def test_nonpositive_omega0_rejected(self):
        # the minimum-frequency test reads only omega0^2, so -omega0 would
        # pass it; it is refused on its sign, for a biquad too
        h = parse_ratfunc("(2s^4+18s^3+22s^2+24s+8)/(s^4+2s^3+12s^2+14s+8)")
        assert theorem2_step(h, 2).omega0 == 2
        for w0 in (-2, 0, Q(-1, 3)):
            with pytest.raises(NotMinimum, match="not a minimum frequency"):
                theorem2_step(h, w0)
        biquad = biquad_template(BiquadParams(1, 1, Q(2, 3), 1))
        with pytest.raises(NotMinimum, match="not a minimum frequency"):
            theorem2_step(biquad, -1)

    def test_biquad_omega0_off_its_minimum_frequency(self):
        # a positive omega0 where Re H(j*omega0) != 0 is refused on both
        # branches, in the one text of every minimum function
        for params in (BiquadParams(1, 1, Q(2, 3), 1),
                       BiquadParams(1, 1, Q(3, 2), -1)):
            h = biquad_template(params)
            assert theorem2_step(h, 1).omega0 == 1
            for w0 in (2, Q(1, 2)):
                with pytest.raises(NotMinimum,
                                   match=f"omega0={w0} is not a minimum "
                                         "frequency"):
                    theorem2_step(h, w0)

    def test_wrong_branch(self):
        h = biquad_template(BiquadParams(1, 1, Q(2, 3), 1))
        with pytest.raises(WrongBranch):
            theorem2_step(h, 1, variant="X_negative")

    def test_perturbed_alpha_breaks_identity(self):
        # on both branches, alpha_or_beta, mu_or_nu, h or the reduced
        # function a little off breaks the identity; X follows h and
        # mu_or_nu, so each step keeps the theorem2 laws of its own data
        eps = Q(1, 1000)
        branches = set()
        for params in (BiquadParams(1, 1, Q(2, 3), 1),
                       BiquadParams(1, 1, Q(3, 2), -1)):
            h = biquad_template(params)
            step = theorem2_step(h)
            branches.add(step.variant)
            assert verify_theorem2_identity(h, step)
            w2 = step.omega0 * step.omega0
            for field, value in (("alpha_or_beta", step.alpha_or_beta + eps),
                                 ("mu_or_nu", step.mu_or_nu + eps),
                                 ("h", step.h + eps),
                                 ("reduced", step.reduced + eps)):
                data = dict(vars(step), **{field: value})
                m, hv = data["mu_or_nu"], data["h"]
                data["X"] = (hv / m if step.variant == "X_positive"
                             else -hv * m / w2)
                assert not verify_theorem2_identity(h, SynthesisStep(**data))
        assert branches == {"X_positive", "X_negative"}

    def test_theorem2_laws_are_raised(self):
        # on both branches a step with a flipped sign of X, mu_or_nu or
        # alpha_or_beta breaks theorem2.sign, and one whose h is off breaks
        # theorem2.identity, naming the law and its data
        branches = set()
        for params in (BiquadParams(1, 1, Q(2, 3), 1),
                       BiquadParams(1, 1, Q(3, 2), -1)):
            step = theorem2_step(biquad_template(params))
            branches.add(step.variant)
            fields = (step.variant, step.omega0, step.X, step.mu_or_nu,
                      step.alpha_or_beta, step.h, step.reduced)
            for k in (2, 3, 4):
                bad = list(fields)
                bad[k] = -bad[k]
                with pytest.raises(InvariantViolation) as exc:
                    SynthesisStep(*bad)
                assert exc.value.law == "theorem2.sign"
                assert str(exc.value).startswith(
                    "invariant theorem2.sign violated: variant=")
            with pytest.raises(InvariantViolation) as exc:
                SynthesisStep(*fields[:5], step.h + Q(1, 1000), step.reduced)
            assert exc.value.law == "theorem2.identity"
            assert exc.value.context["h"] == step.h + Q(1, 1000)
        assert branches == {"X_positive", "X_negative"}

    def test_laws_raised_under_optimize(self):
        # under -O the Theorem-2 laws still raise, and so does the even-part
        # law of polyrat, with a forced odd even-part numerator: the CLI
        # check of a PR function then exits 4 with one line
        code = textwrap.dedent("""
            import sys
            import prsyn.polyrat as polyrat
            from prsyn import cli
            from prsyn.polyrat import (BiquadParams, InvariantViolation,
                                       biquad_template)
            from prsyn.synth import SynthesisStep, theorem2_step
            laws = []
            step = theorem2_step(biquad_template(
                BiquadParams(1, 1, polyrat.Q(1, 2), 1)))
            for x, h in ((-step.X, step.h), (step.X, 2 * step.h)):
                try:
                    SynthesisStep(step.variant, step.omega0, x, step.mu_or_nu,
                                  step.alpha_or_beta, h, step.reduced)
                except InvariantViolation as exc:
                    laws.append(exc.law)
            polyrat.even_part_numerator = lambda g: polyrat.Polynomial([0, 1])
            code = cli.main(["check", "1/(s+1)"])
            sys.exit(0 if sys.flags.optimize and code == 4 and laws
                     == ["theorem2.sign", "theorem2.identity"] else 1)
            """)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            "error: invariant even-part violated: numerator=s"]

    def test_mirrored_is_the_step_of_the_inverted_function(self, rng):
        # both branches: mirrored() is an involution between H and H(w0^2/s)
        for _ in range(40):
            p = sample_region(rng.choice(["a", "b", "c", "d", "e", "f",
                                          "none"]), rng)
            h, w0 = biquad_template(p), p.omega0
            step = theorem2_step(h, w0)
            assert step.mirrored() == theorem2_step(h.compose_winv(w0 * w0), w0)
            assert step.mirrored().mirrored() == step

    def test_missing_resonant_pole_raises(self, monkeypatch):
        # the step's residue quotient has no value at j*omega0
        import prsyn.synth as synth

        def pole(num, den, omega2):
            raise ZeroDivisionError("pole at j*omega0")

        monkeypatch.setattr(synth, "_jomega_quotient", pole)
        with pytest.raises(SynthError, match="resonant pole missing"):
            theorem2_step(_degree_three_minimum_function())

    def test_failed_biquad_identity_raises(self, monkeypatch):
        # a typed error, not an assert that python -O would drop
        import prsyn.synth as synth
        monkeypatch.setattr(synth, "verify_theorem2_identity",
                            lambda h, step: False)
        h = biquad_template(BiquadParams(1, 1, Q(2, 3), 1))
        with pytest.raises(SynthError, match="cubic composite identity"):
            theorem2_step(h)

    def test_degree_three_minimum_function(self):
        # composite built from a non-constant reduced function; the step
        # must recover a consistent decomposition, and the seven-element
        # constructor must refuse it
        h = _degree_three_minimum_function()
        step = theorem2_step(h)
        assert verify_theorem2_identity(h, step)
        assert step.reduced.mcmillan_degree <= h.mcmillan_degree - 2
        if not step.reduced.is_constant():
            with pytest.raises(NonConstantReduced):
                build_seven_element(step, "rpfg_first")


def _degree_three_minimum_function():
    """The cubic composite of H_r = (2s+1)/(s+1) at mu = alpha = omega0 = 1
    and H(mu) = 2."""
    hr = parse_ratfunc("(2 s + 1)/(s + 1)")
    mu, alpha, hval = Q(1), Q(1), Q(2)
    s3 = RationalFunction(Polynomial([0, 1, 0, 1]))
    num = s3 + hr * RationalFunction(Polynomial([mu, 0, 2 * alpha + mu]))
    den = (hr * RationalFunction(Polynomial([0, 2 * alpha * mu + 1, 0, 1]))
           + RationalFunction(Polynomial([mu, 0, mu])))
    return hval * num / den


class TestSevenElement:
    @pytest.mark.parametrize("params", [(1, 1, Q(2, 3), 1), (1, 1, Q(3, 2), -1),
                                        (Q(5, 2), Q(3), Q(1, 3), Q(7, 2)),
                                        (Q(1, 2), Q(1, 2), Q(5, 2), -Q(2, 7))])
    def test_all_variants_realize_input(self, params):
        p = BiquadParams(*params)
        h = biquad_template(p)
        step = theorem2_step(h, p.omega0)
        for which in SEVEN_ELEMENT_VARIANTS:
            n = build_seven_element(step, which)
            assert impedance(n) == h
            assert storage_count(n) == 5
            assert len(n.resistors()) == 2
            assert mcmillan_gap(n) == 3

    def test_unknown_variant(self):
        h = biquad_template(BiquadParams(1, 1, Q(2, 3), 1))
        with pytest.raises(ValueError):
            build_seven_element(theorem2_step(h), "bott_duffin")


class TestClassifier:
    def test_condition_a(self):
        c = classify_biquad(BiquadParams(1, 1, Q(1, 2), 1))
        assert (c.storage_min, c.condition) == (3, "a")
        assert impedance(c.witness_network) == \
            biquad_template(BiquadParams(1, 1, Q(1, 2), 1))

    def test_worked_example_is_generic(self):
        c = classify_biquad(BiquadParams(1, 1, Q(2, 3), 1))
        assert (c.storage_min, c.condition) == (5, "none")

    def test_condition_c_exact_arithmetic(self):
        # F^2 = W^2(2W-1)/(1-W)^2 at W = 5/8 gives F = 5/6
        W = Q(5, 8)
        assert Q(5, 6) ** 2 == W * W * (2 * W - 1) / (1 - W) ** 2
        c = classify_biquad(BiquadParams(1, 1, W, Q(5, 6)))
        assert (c.storage_min, c.condition) == (4, "c")

    def test_condition_f_exact_arithmetic(self):
        # F = W(1-W)/sqrt(2W-1) at W = 5/8 gives (5/8)(3/8)/(1/2) = 15/32
        c = classify_biquad(BiquadParams(1, 1, Q(5, 8), Q(15, 32)))
        assert (c.storage_min, c.condition) == (4, "f")

    def test_boundary_exactness(self, rng):
        p = sample_region("c", rng)
        for eps in (Q(1, 10 ** 9), -Q(1, 10 ** 9)):
            shifted = BiquadParams(p.K, p.omega0, p.W, p.F + eps)
            assert classify_biquad(shifted).storage_min == 5

    def test_all_regions_roundtrip(self, rng):
        for region, expect in [("a", 3), ("b", 3), ("c", 4), ("d", 4),
                               ("e", 4), ("f", 4), ("none", 5)]:
            p = sample_region(region, rng)
            c = classify_biquad(p)
            assert c.storage_min == expect
            assert c.condition == (region if region != "none" else "none")
            assert impedance(c.witness_network) == biquad_template(p)


class TestNamedNetworks:
    def test_n1_element_values(self):
        n = build_named("N1", BiquadParams(1, 1, Q(1, 2), 1))
        values = sorted((e.kind, e.value) for e in n.elements)
        assert values == [("C", 1), ("L", 1), ("L", 1),
                          ("R", Q(1, 2)), ("R", Q(1, 2))]
        assert impedance(n) == parse_ratfunc("(s^2+s+1/2)/(s^2+1/2 s+2)")

    def test_condition_guard(self):
        with pytest.raises(ConditionViolated):
            build_named("N1", BiquadParams(1, 1, Q(1, 3), 1))
        with pytest.raises(ConditionViolated):
            build_named("N3", BiquadParams(1, 1, Q(5, 8), Q(1, 3)))

    def test_fig2_pair_same_impedance(self):
        p = BiquadParams(1, 1, Q(3, 4), Q(1, 8))
        a = build_named("Fig2a", p)
        b = build_named("Fig2b", p)
        assert impedance(a) == impedance(b) == biquad_template(p)

    def test_n6_matches_template(self):
        p = BiquadParams(1, 1, Q(5, 8), Q(15, 32))
        assert impedance(build_named("N6", p)) == biquad_template(p)

    @pytest.mark.parametrize("region,name", [("a", "N1"), ("b", "N2"),
                                             ("c", "N3"), ("d", "N4"),
                                             ("e", "N5"), ("f", "N6")])
    def test_named_random_params(self, region, name, rng):
        for _ in range(10):
            p = sample_region(region, rng)
            assert impedance(build_named(name, p)) == biquad_template(p)


class TestQuartets:
    def test_q7_instance_equals_n1(self):
        q = build_quartet(QuartetParams("N7", A=Q(1, 2), B=Q(1, 2), C=1), 1)
        n1 = build_named("N1", BiquadParams(1, 1, Q(1, 2), 1))
        assert impedance(q) == impedance(n1)
        vals = sorted((e.kind, e.value) for e in q.elements)
        assert vals == sorted((e.kind, e.value) for e in n1.elements)

    def test_q8_solution_point(self):
        # elimination solution from the four-storage classification:
        # g1 = (1-W^2)/W^2, g2 = 1, c2 = (2W-1)/(1-W) at W = 5/8
        W, F = Q(5, 8), Q(5, 6)
        g1 = (1 - W * W) / (W * W)
        c2 = (2 * W - 1) / (1 - W)
        q = build_quartet(QuartetParams("N8", A=1 / g1, B=1, C=F / c2, D=F), 1)
        assert impedance(q) == biquad_template(BiquadParams(1, 1, W, F))

    def test_n11_solution_point_gives_half(self):
        # r1 = (g3-1)/g3, g2 = g3(4-g3)/(g3-2)^2, c1 = 2 F^2 g3^2/(2-g3)^2
        g3, F = Q(1), Q(1, 2)
        r1 = (g3 - 1) / g3
        g2 = g3 * (4 - g3) / (g3 - 2) ** 2
        c1 = 2 * F * F * g3 * g3 / (2 - g3) ** 2
        q = build_quartet(QuartetParams("N11a", A=r1, B=1 / g3, C=g2,
                                        D=F / c1, E=F), 1)
        assert biquad_params(impedance(q)).W == Q(1, 2)

    def test_transform_suffixes(self):
        qp = QuartetParams("N8", A=Q(3, 2), B=Q(2), C=Q(5, 4), D=Q(5, 6))
        base = build_quartet(qp, 1)
        h = impedance(base)
        assert impedance(build_quartet(QuartetParams("N8i", **_abcd(qp)), 1)) \
            == h.compose_winv(1)
        assert impedance(build_quartet(QuartetParams("N8d", **_abcd(qp)), 1)) \
            == h.reciprocal()
        assert impedance(build_quartet(QuartetParams("N8di", **_abcd(qp)), 1)) \
            == h.reciprocal().compose_winv(1)

    def test_quartet_closure_via_transforms(self, rng):
        for fam, kwargs in [
            ("N7", dict(A=Q(1, 3), B=Q(7, 2), C=Q(2))),
            ("N9", dict(A=Q(1, 2), B=Q(3), C=Q(5, 4), D=Q(2, 3))),
            ("N10", dict(A=Q(2), B=Q(3), C=Q(5), D=Q(1))),
            ("N11", dict(A=Q(1, 2), B=Q(2), C=Q(3), D=Q(1, 3), E=Q(4, 5))),
            ("N12", dict(A=Q(1, 2), B=Q(2), C=Q(3), D=Q(1, 3), E=Q(4, 5))),
        ]:
            n = build_quartet(QuartetParams(fam, **kwargs), 1)
            h = impedance(n)
            assert impedance(dual(n)) == h.reciprocal()
            assert impedance(frequency_invert(n, 1)) == h.compose_winv(1)

    def test_degenerate_members(self):
        qa = build_quartet(QuartetParams("N12a", A=0, B=1, C=2, D=3, E=1), 1)
        assert len(qa.resistors()) == 2
        qb = build_quartet(QuartetParams("N11b", A=1, B=1, C=0, D=3, E=1), 1)
        assert len(qb.resistors()) == 2
        with pytest.raises(ConstraintViolated):
            build_quartet(QuartetParams("N10", A=1, B=2, C=2, D=1), 1)
        with pytest.raises(ConstraintViolated):
            build_quartet(QuartetParams("N8", A=1, B=2, C=-1, D=1), 1)

    def test_missing_parameter_is_named(self):
        # a member of every family and degenerate member, with each
        # parameter the family reads; leaving any one out must raise
        # ConstraintViolated naming it, not a TypeError from None
        assert set(QUARTET_MEMBERS) == set(_QUARTET_REQUIREMENTS)
        for fam, params in QUARTET_MEMBERS.items():
            build_quartet(QuartetParams(fam, **params), 1)
            for x in params:
                rest = {k: v for k, v in params.items() if k != x}
                for name in (fam, fam + "di"):
                    with pytest.raises(ConstraintViolated,
                                       match=f"^{fam} needs the {x} parameter$"):
                        build_quartet(QuartetParams(name, **rest), 1)
        with pytest.raises(ConstraintViolated,
                           match="^N8 needs the C, D parameters$"):
            build_quartet(QuartetParams("N8", A=1, B=1), 1)

    @pytest.mark.parametrize("omega0", [0, -1])
    def test_nonpositive_omega0_rejected(self, omega0):
        # one typed error before any arm is built, with or without the
        # inversion (0 was a bare ZeroDivisionError, -1 a NonpositiveValue
        # from an arm's element)
        for fam, params in QUARTET_MEMBERS.items():
            for name in (fam, fam + "i"):
                with pytest.raises(ConstraintViolated,
                                   match=f"^{fam} requires omega0 > 0$"):
                    build_quartet(QuartetParams(name, **params), omega0)

    def test_derived_E_with_a_zero_denominator_is_named(self):
        # C - D, C + D resp. B + D = 0 was a bare ZeroDivisionError
        for fam, params, law in [
                ("N10", dict(A=1, B=1, C=1, D=1), r"\(B-D\)/\(C-D\)"),
                ("N8", dict(A=1, B=1, C=1, D=-1), r"CD/\(C\+D\)"),
                ("N9", dict(A=1, B=1, C=1, D=-1), r"\(A\+B\)/\(B\+D\)")]:
            for name in (fam, fam + "di"):
                with pytest.raises(
                        ConstraintViolated,
                        match=f"^{name}: E = {law} has a zero denominator$"):
                    QuartetParams(name, **params).derived_E()
        # and E itself where it is defined
        assert QuartetParams("N8", C=2, D=3).derived_E() == Q(6, 5)
        assert QuartetParams("N9", A=1, B=Q(1, 2), D=3).derived_E() == Q(3, 7)
        assert QuartetParams("N10", B=3, C=5, D=1).derived_E() == Q(1, 2)
        assert QuartetParams("N12b", E=Q(4, 6)).derived_E() == Q(2, 3)


# a member of every family and degenerate member, with each parameter the
# family reads
QUARTET_MEMBERS = {
    "N7": dict(A=Q(1, 3), B=Q(7, 2), C=Q(2)),
    "N8": dict(A=Q(3, 2), B=Q(2), C=Q(5, 4), D=Q(5, 6)),
    "N9": dict(A=Q(1, 2), B=Q(3), C=Q(5, 4), D=Q(2, 3)),
    "N10": dict(A=Q(2), B=Q(3), C=Q(5), D=Q(1)),
    "N11": dict(A=Q(1, 2), B=Q(2), C=Q(3), D=Q(1, 3), E=Q(4, 5)),
    "N11a": dict(A=0, B=1, C=2, D=3, E=1),
    "N11b": dict(A=1, B=1, C=0, D=3, E=1),
    "N12": dict(A=Q(1, 2), B=Q(2), C=Q(3), D=Q(1, 3), E=Q(4, 5)),
    "N12a": dict(A=0, B=1, C=2, D=3, E=1),
    "N12b": dict(A=1, B=1, C=0, D=3, E=1),
}


def _abcd(qp):
    return dict(A=qp.A, B=qp.B, C=qp.C, D=qp.D)


class TestMatcher:
    def test_n1_condition_three(self):
        n = build_named("N1", BiquadParams(1, 1, Q(1, 2), 1))
        m = match_minimum_structure(n, 1)
        assert m.lemma8_condition == 3
        kinds = {pos: sorted(n.element(e).kind for e in ids)
                 for pos, ids in m.bridge_assignment.items()}
        assert kinds["N3"] == ["C"]
        assert kinds["N4"] == ["L"] and kinds["N5"] == ["L"]

    def test_n8_condition_four(self):
        W, F = Q(5, 8), Q(5, 6)
        g1 = (1 - W * W) / (W * W)
        c2 = (2 * W - 1) / (1 - W)
        q = build_quartet(QuartetParams("N8", A=1 / g1, B=1, C=F / c2, D=F), 1)
        m = match_minimum_structure(q, 1)
        assert m.lemma8_condition == 4
        lc_arm = m.bridge_assignment["N4"]
        assert sorted(q.element(e).kind for e in lc_arm) == ["C", "L"]

    def test_n9_condition_one(self):
        q = build_quartet(QuartetParams("N9", A=Q(1, 2), B=Q(3), C=Q(5, 4),
                                        D=Q(2, 3)), 1)
        m = match_minimum_structure(q, 1)
        assert m.lemma8_condition == 1

    def test_n10_condition_two(self):
        q = build_quartet(QuartetParams("N10", A=Q(2), B=Q(3), C=Q(5),
                                        D=Q(1)), 1)
        m = match_minimum_structure(q, 1)
        assert m.lemma8_condition == 2

    def test_n10_condition_two_off_unit_frequency(self):
        # at omega0 = 3/2 the arms must be read at s = j*3/2; every
        # condition compares purely reactive arm values and is homogeneous
        # in them, so this checks the evaluation point (omega0**2)
        w0 = Q(3, 2)
        q = build_quartet(QuartetParams("N10", A=Q(2), B=Q(3), C=Q(5),
                                        D=Q(1)), w0)
        assert match_minimum_structure(q, w0).lemma8_condition == 2
        with pytest.raises(NoMatch, match="not a minimum frequency"):
            match_minimum_structure(q, 1)

    def test_one_pr_test_per_match(self, monkeypatch):
        # impedance() has asserted PR; the minimum test reuses the verdict
        n = build_named("N1", BiquadParams(1, 1, Q(1, 2), 1))
        tests = count_pr_tests(monkeypatch)
        assert match_minimum_structure(n, 1).lemma8_condition == 3
        assert len(tests) == 1

    def test_corners_of_the_matched_embedding(self):
        # with the port reversed only the a<->b, c<->d relabelling gives
        # condition 3; the corners are that embedding's, so the assigned
        # N4 arm l5 lies on corners a-c
        n = build_named("N1", BiquadParams(1, 1, Q(1, 2), 1))
        rev = Network(n.vertices, n.elements, n.port[::-1])
        m = match_minimum_structure(rev, 1)
        assert m.lemma8_condition == 3
        assert m.corners == ("b", "a", "d", "c")
        assert m.bridge_assignment["N4"] == ("l5",)
        a, _, c, _ = m.corners
        assert {n.element("l5").head, n.element("l5").tail} == {a, c}

    def test_nonpositive_omega0_no_match(self):
        # the matcher reads omega0^2 for the minimum-frequency test and
        # omega0 for the arm values; a nonpositive omega0 matches nothing
        n = classify_biquad(BiquadParams(1, 2, Q(1, 2), Q(3, 2))).witness_network
        assert match_minimum_structure(n, 2).lemma8_condition == 3
        for w0 in (-2, 0):
            with pytest.raises(NoMatch, match="not a minimum frequency"):
                match_minimum_structure(n, w0)

    def test_series_rl_no_match(self):
        with pytest.raises(NoMatch):
            match_minimum_structure(
                parse_netlist("R r1 a m 1\nL l1 m b 1\nPORT a b"), 1)


def _scaled(family, pair, degree, target0, F):
    """Reference copy of the normalisation the fixtures apply to a
    structural pair, (num, den, scale) of ``_quartet_polys``: two
    Polynomials scaled so that num(0) is target0 and den carries one more
    factor F, after the nominal-degree check.  The scale cancels in
    target0 / num(0), so the int lists are read as they are."""
    from prsyn.synth import _require_nominal
    num, den, _ = pair
    _require_nominal(family, num, den, degree)
    c = target0 / num[0]
    return Polynomial(num) * c, Polynomial(den) * (c * F)


def _q7_pair(g1, g2, F, w0):
    """The scaled Q7 structural pair whose R_0 the Q7 fixture reads."""
    from prsyn.synth import _quartet_polys
    return _scaled("Q7", _quartet_polys("N7", w0, A=1 / g1, B=1 / g2, C=F),
                   3, w0 ** 3, F)


def _q8_pair(g1, g2, c2, F, w0):
    """The scaled Q8 structural pair that the Q8 fixture reads at F."""
    from prsyn.synth import _quartet_polys
    return _scaled("Q8", _quartet_polys("N8", w0, A=1 / g1, B=1 / g2,
                                        C=F / c2, D=F),
                   4, (1 + c2) * w0 ** 4, F)


class TestResultantFixtures:
    def test_q7_printed_value(self):
        assert resultant_fixture_check(
            "Q7", {"g1": 1, "g2": 2, "F": 1, "omega0": 1})
        p, q = _q7_pair(Q(1), Q(2), Q(1), Q(1))
        assert sylvester_determinant(p, q, 0) == 81

    def test_q7_equal_conductances_vanish(self):
        assert resultant_fixture_check(
            "Q7", {"g1": 2, "g2": 2, "F": Q(1, 3), "omega0": 2})
        p, q = _q7_pair(Q(2), Q(2), Q(1, 3), Q(2))
        assert sylvester_determinant(p, q, 0) == 0

    def test_q7_reads_r0_off_the_int_lists(self, monkeypatch):
        # the Q7 check takes R_0 of the int lists of _quartet_polys, times
        # (w0^3 / num(0))^6 F^3: the R_0 of the scaled Polynomial pair, at
        # random points, g1 = g2 (R_0 = 0) in about a quarter of them
        import prsyn.synth as synth
        from prsyn.polyrat import _subresultant
        seen = []

        def counted(*args):
            seen.append((args, _subresultant(*args)))
            return seen[-1][1]

        monkeypatch.setattr(synth, "_subresultant", counted)
        rng = random.Random(1907)
        zeros = 0
        for _ in range(60):
            g1, g2, F = (rand_q(rng, 1, 9) for _ in range(3))
            if rng.random() < 0.25:
                g2 = g1
            w0 = rand_q(rng, 1, 3)
            assert resultant_fixture_check(
                "Q7", dict(g1=g1, g2=g2, F=F, omega0=w0))
            [((num, den, *degrees), r0)] = seen
            seen.clear()
            assert degrees == [3, 3, 0, 0]
            want = sylvester_determinant(*_q7_pair(g1, g2, F, w0), 0)
            assert r0 * (w0 ** 3 / num[0]) ** 6 * F ** 3 == want
            zeros += want == 0
        assert 5 <= zeros < 60

    def test_q8_family(self):
        assert resultant_fixture_check(
            "Q8", {"g1": Q(3, 2), "g2": Q(2, 3), "c2": Q(5, 4), "omega0": 1})

    def test_q8_solution_point_degree_drop(self):
        W, F = Q(5, 8), Q(5, 6)
        g1 = (1 - W * W) / (W * W)
        c2 = (2 * W - 1) / (1 - W)
        p, q = _q8_pair(g1, Q(1), c2, F, Q(1))
        assert sylvester_determinant(p, q, 0) == 0
        assert sylvester_determinant(p, q, 1) == 0

    def test_n11_family(self):
        assert resultant_fixture_check(
            "N11", {"r1": Q(1, 3), "g2": Q(2, 5), "g3": Q(7, 4), "F": Q(1, 2),
                    "omega0": 1})

    def test_n12_family(self):
        assert resultant_fixture_check(
            "N12", {"r1": Q(1, 3), "g2": Q(2, 5), "g3": Q(7, 4), "F": Q(1, 2),
                    "omega0": 1})

    def test_points_must_be_physical(self):
        # the fixtures are built from quartet arms: a negative conductance
        # is a nonpositive element value
        with pytest.raises(NonpositiveValue):
            resultant_fixture_check("Q7", {"g1": -1, "g2": 2, "F": 1})
        # two negative values whose element values are positive products
        with pytest.raises(NonpositiveValue):
            resultant_fixture_check(
                "Q7", {"g1": 1, "g2": 2, "F": -1, "omega0": -1})

    def test_family_and_parameter_names_are_checked_first(self):
        # the family, then every name, before any value is read: a missing
        # parameter is named, not a KeyError, and an unknown one is named,
        # not ignored
        points = {"Q7": {"g1": Q(1), "g2": Q(2), "F": Q(1)},
                  "Q8": {"g1": Q(3, 2), "g2": Q(2, 3), "c2": Q(5, 4)},
                  "N11": {"r1": Q(1, 3), "g2": Q(2, 5), "g3": Q(7, 4),
                          "F": Q(1, 2)}}
        points["N12"] = points["N11"]
        for fam, point in points.items():
            assert resultant_fixture_check(fam, dict(point, omega0=Q(2)))
            for x in point:
                rest = {k: v for k, v in point.items() if k != x}
                with pytest.raises(ConstraintViolated,
                                   match=f"^{fam} needs the {x} parameter$"):
                    resultant_fixture_check(fam, rest)
            with pytest.raises(ConstraintViolated,
                               match=f"^{fam} has no omega parameter$"):
                resultant_fixture_check(fam, dict(point, omega=Q(3)))
            # names are checked before values: a negative value does not
            # hide an unknown name
            with pytest.raises(ConstraintViolated,
                               match=f"^{fam} has no c, d parameters$"):
                resultant_fixture_check(fam, dict(point, d=-1, c=1))
        with pytest.raises(ConstraintViolated,
                           match="^Q8 needs the c2 parameter$"):
            resultant_fixture_check("Q8", {"g1": 1, "g2": 2})
        with pytest.raises(ConstraintViolated,
                           match="^Q7 needs the g2, F parameters and has no "
                                 "omega parameter$"):
            resultant_fixture_check("Q7", {"g1": 1, "omega": 3})
        for fam in ("Q9", "N8", "q7"):
            with pytest.raises(ValueError, match="unknown fixture family"):
                resultant_fixture_check(fam, {"g1": -1, "g2": 2, "F": 1})

    def test_zero_parameters_are_not_physical(self):
        # a zero that the arms invert is rejected up front; only r1 and g2
        # of N11/N12 may be 0 (a shorted series or an open parallel
        # resistor), which stays a verdict or a degenerate N12 pair
        n1112 = {"r1": Q(1, 3), "g2": Q(2, 5), "g3": Q(7, 4), "F": Q(1, 2)}
        points = {"Q7": {"g1": Q(1), "g2": Q(2), "F": Q(1)},
                  "Q8": {"g1": Q(3, 2), "g2": Q(2, 3), "c2": Q(5, 4)},
                  "N11": n1112, "N12": n1112}
        for fam, point in points.items():
            for name in list(point) + ["omega0"]:
                subs = dict(point, **{name: Q(0)})
                if fam == "N11" and name in ("r1", "g2"):
                    assert resultant_fixture_check(fam, subs)
                elif fam == "N12" and name in ("r1", "g2"):
                    with pytest.raises(ConstraintViolated,
                                       match="degenerate"):
                        resultant_fixture_check(fam, subs)
                else:
                    with pytest.raises(NonpositiveValue):
                        resultant_fixture_check(fam, subs)

    def test_n12_feasibility_rejects_points_off_its_domain(self):
        # the domain is r1, g2 >= 0 and g3, F > 0
        for point in [(1, 1, 0, 1), (1, 1, 1, 0), (1, -1, 1, 1),
                      (-1, 1, 1, 1), (1, 1, -2, 1), (1, 1, 1, -2)]:
            with pytest.raises(NonpositiveValue):
                n12_has_no_feasible_solution(*point)
        assert n12_has_no_feasible_solution(0, 1, 1, 1)
        assert n12_has_no_feasible_solution(Q(1, 2), 0, 3, 2)

    def test_n12_infeasibility(self, rng):
        for _ in range(30):
            assert n12_has_no_feasible_solution(
                Fraction(rng.randint(0, 9), rng.randint(1, 9)),
                Fraction(rng.randint(0, 9), rng.randint(1, 9)),
                Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                Fraction(rng.randint(1, 9), rng.randint(1, 9)))


# the former literal tables: arm numbers k (slot "Nk") off each spanning
# tree and off each 2-tree separating the port
TREE_COMPLEMENTS = [(1, 2), (1, 3), (1, 5), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)]
TWOTREE_COMPLEMENTS = [(2, 3, 5), (1, 2, 5), (1, 2, 3), (2, 4, 5),
                       (3, 4, 5), (1, 4, 5), (1, 2, 4), (1, 3, 4)]


def bridge_reference(arms):
    """The term-by-term expansion: every term's five factors multiplied in
    turn, 16 terms of 5 products each."""
    out = []
    for combos in (TWOTREE_COMPLEMENTS, TREE_COMPLEMENTS):
        total = Polynomial()
        for combo in combos:
            term = Polynomial([1])
            for k in range(1, 6):
                term = term * arms[f"N{k}"][0 if k in combo else 1]
            total = total + term
        out.append(total)
    return tuple(out)


class TestBridgeStructuralPolys:
    def test_matches_term_by_term_reference(self):
        rng = random.Random(6151)

        def poly():
            kind = rng.randrange(4)
            if kind == 0:
                return Polynomial()
            if kind == 1:
                return Polynomial([1])
            size = 1 if kind == 2 else rng.randint(2, 4)
            return Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                               for _ in range(size)])

        for _ in range(300):
            arms = {f"N{k}": (poly(), poly()) for k in range(1, 6)}
            assert bridge_over_q(arms) == bridge_reference(arms)

    def test_complements_match_the_literal_tables(self):
        # the grouped tables, each term read back as the arms off its tree
        # (choice 0, num), are the literal ones, with no term twice
        from prsyn.synth import _TREE_OFF, _TWOTREE_OFF

        def slots(table):
            return sorted(sorted(f"N{k}" for k in combo) for combo in table)

        def off(grouped):
            return sorted(
                sorted(slot for slot, c in zip(("N1", "N2", "N5", "N3", "N4"),
                                               key + term) if c == 0)
                for key, terms in grouped for term in terms)

        assert off(_TREE_OFF) == slots(TREE_COMPLEMENTS)
        assert off(_TWOTREE_OFF) == slots(TWOTREE_COMPLEMENTS)
        # one group per (N1, N2, N5) choice
        for grouped in (_TREE_OFF, _TWOTREE_OFF):
            keys = [key for key, _ in grouped]
            assert len(set(keys)) == len(keys)


# the former hand-coded arm algebra of the fixtures, kept as a reference:
# unreduced (num, den) impedance pairs
def _pair_R(v):
    return (Polynomial([v]), Polynomial([1]))


def _pair_L(v):
    return (Polynomial([0, v]), Polynomial([1]))


def _pair_C(v):
    return (Polynomial([1]), Polynomial([0, v]))


def _pair_ser(p1, p2):
    return (p1[0] * p2[1] + p2[0] * p1[1], p1[1] * p2[1])


def _pair_par(p1, p2):
    return (p1[0] * p2[0], p1[0] * p2[1] + p2[0] * p1[1])


def _reference_arms(family, v, w0):
    """The former fixture arm dicts, keyed by slot, at point v."""
    F = v["F"]
    if family == "Q7":
        n1, n2 = _pair_R(1 / v["g1"]), _pair_R(1 / v["g2"])
        n4 = _pair_L(F / w0)
    elif family == "Q8":
        n1, n2 = _pair_R(1 / v["g1"]), _pair_R(1 / v["g2"])
        clab = F / v["c2"]
        e = clab * F / (clab + F)
        n4 = _pair_par(_pair_L(e / w0), _pair_C(1 / (clab * w0)))
    else:
        storage = (_pair_C(v["var"] / (F * w0)) if family == "N11"
                   else _pair_L(F / (v["var"] * w0)))
        inner = (storage if v["g2"] == 0
                 else _pair_par(_pair_R(1 / v["g2"]), storage))
        n1, n2 = _pair_ser(_pair_R(v["r1"]), inner), _pair_R(1 / v["g3"])
        n4 = _pair_L(F / w0)
    return {"N1": n1, "N2": n2, "N3": _pair_C(1 / (F * w0)), "N4": n4,
            "N5": _pair_L(F / w0)}


def _validated_arms(fam, qp, w0):
    """The trees that ``build_quartet`` assembles: each arm of the
    ``_quartet_arms`` table through ``_arm_tree``."""
    from prsyn.synth import _arm_tree, _quartet_arms
    return {slot: _arm_tree(arm)
            for slot, arm in _quartet_arms(fam, qp, w0).items()}


def _former_quartet_arms(fam, qp, w0):
    """The former Fraction arm table of the quartets, kept as a reference
    for the int-pair one: {slot: tree} of validated leaves."""
    def leaf(eid, kind, v):
        return Leaf(Element(eid, kind, "_", "__", v))

    A, B, C, D = qp.A, qp.B, qp.C, qp.D
    if fam == "N7":
        return dict(N1=leaf("r1", RESISTOR, A), N2=leaf("r2", RESISTOR, B),
                    N3=leaf("c3", CAPACITOR, 1 / (C * w0)),
                    N4=leaf("l4", INDUCTOR, C / w0),
                    N5=leaf("l5", INDUCTOR, C / w0))
    E = {"N8": lambda: C * D / (C + D), "N9": lambda: (A + B) / (B + D),
         "N10": lambda: (B - D) / (C - D)}.get(fam, lambda: qp.E)()
    if fam == "N8":
        return dict(N1=leaf("r1", RESISTOR, A), N2=leaf("r2", RESISTOR, B),
                    N3=leaf("c3", CAPACITOR, 1 / (D * w0)),
                    N4=par(leaf("l4", INDUCTOR, E / w0),
                           leaf("c4", CAPACITOR, 1 / (C * w0))),
                    N5=leaf("l5", INDUCTOR, D / w0))
    if fam == "N9":
        return dict(N1=leaf("r1", RESISTOR, C),
                    N2=leaf("c2", CAPACITOR, 1 / (B * w0)),
                    N3=leaf("c3", CAPACITOR, 1 / (A * w0)),
                    N4=leaf("l4", INDUCTOR, A / (E * w0)),
                    N5=leaf("l5", INDUCTOR, D * E / w0))
    if fam == "N10":
        return dict(N1=leaf("c1", CAPACITOR, 1 / (C * E * w0)),
                    N2=leaf("c2", CAPACITOR, E / (B * w0)),
                    N3=leaf("r3", RESISTOR, A),
                    N4=leaf("l4", INDUCTOR, B / w0),
                    N5=leaf("l5", INDUCTOR, C / w0))
    storage = (leaf("c1", CAPACITOR, 1 / (D * w0)) if fam.startswith("N11")
               else leaf("l1", INDUCTOR, D / w0))
    inner = storage if C == 0 else par(storage, leaf("r3", RESISTOR, 1 / C))
    return dict(N1=inner if A == 0 else ser(leaf("r1", RESISTOR, A), inner),
                N2=leaf("r2", RESISTOR, B),
                N3=leaf("c3", CAPACITOR, 1 / (E * w0)),
                N4=leaf("l4", INDUCTOR, E / w0),
                N5=leaf("l5", INDUCTOR, E / w0))


# a parameter of each family that is the value of a resistor leaf alone
_RESISTOR_PARAMETER = {"N7": "A", "N8": "A", "N9": "C", "N10": "A",
                       "N11": "B", "N12": "B"}


class TestIntArmsAgainstTheValidatedRoute:
    """The fixture route folds the arm table's int pairs with no
    ``Element``; ``build_quartet`` turns the same pairs into validated
    elements.  At every row of ``_QUARTET_REQUIREMENTS`` the two give one
    bridge pair, and a nonpositive leaf is refused on both."""

    @staticmethod
    def _point(rng, fam):
        # a point that meets the row's requirements, with denominators up
        # to 10^9
        zero, positive, further = _QUARTET_REQUIREMENTS[fam]

        def q():
            big = 10 ** rng.choice((1, 3, 9))
            return Fraction(rng.randint(1, big), rng.randint(1, big))

        named = positive + (further[0] if further else "")
        while True:
            params = {x: q() for x in "ABCDE" if x in named}
            params.update({x: Q(0) for x in zero})
            if further is None or further[1](QuartetParams(fam, **params)):
                return params, q()

    def test_pairs_equal_the_validated_bridge(self):
        # and build_quartet's network is the one that the former Fraction
        # table assembles
        from prsyn.network import tree_pair
        from prsyn.synth import _quartet_polys
        rng = random.Random(4411)
        for fam in _QUARTET_REQUIREMENTS:
            for _ in range(50):
                params, w0 = self._point(rng, fam)
                qp = QuartetParams(fam, **params)
                want = bridge_over_q({slot: tree_pair(t) for slot, t
                                      in _validated_arms(fam, qp, w0).items()})
                assert pair_over_q(_quartet_polys(fam, w0, **params)) == want
                n = build_quartet(qp, w0)
                assert n == assemble_shape(
                    "bridge", **_former_quartet_arms(fam, qp, w0))
                assert impedance(n) == RationalFunction(*want)

    def test_nonpositive_leaf_refused_on_both_routes(self):
        # omega0 of 0 or below makes every storage leaf nonpositive, and a
        # resistor parameter of 0 or below its resistor; the table raises
        # before either route reads a leaf, and an element of a
        # nonpositive pair is refused as well
        from prsyn.synth import _arm_tree, _quartet_polys
        rng = random.Random(5813)
        for fam in _QUARTET_REQUIREMENTS:
            for _ in range(5):
                params, w0 = self._point(rng, fam)
                r = _RESISTOR_PARAMETER[fam[:3]]
                points = [(params, -w0), (params, Q(0))] + [
                    (dict(params, **{r: v}), w0) for v in (-params[r], Q(0))]
                for point, omega0 in points:
                    with pytest.raises(NonpositiveValue,
                                       match="value must be positive$"):
                        _quartet_polys(fam, omega0, **point)
                    with pytest.raises(NonpositiveValue,
                                       match="value must be positive$"):
                        _validated_arms(fam, QuartetParams(fam, **point),
                                        omega0)
        with pytest.raises(NonpositiveValue, match="^element r1: "):
            _arm_tree([[("r1", RESISTOR, -1, 2)]])


class TestFixtureArms:
    """The fixtures read the quartet arms: each arm's unreduced pair, and
    the normalised structural polynomials, equal those of the former
    hand-coded algebra, r1 = 0 and g2 = 0 included."""

    def test_arms_match_the_pair_algebra(self):
        from prsyn.network import tree_pair
        from prsyn.synth import QuartetParams, _n1112_pair_at, _quartet_polys
        rng = random.Random(1961)

        def q(zero=False):
            if zero and rng.random() < 0.25:
                return Q(0)
            return Fraction(rng.randint(1, 9), rng.randint(1, 9))

        seen_zero = set()
        for _ in range(60):
            F, w0, g1, g2, c2 = q(), q(), q(), q(), q()
            n1112 = {"F": F, "r1": q(zero=True), "g2": q(zero=True),
                     "g3": q(), "var": q()}
            seen_zero |= {k for k in ("r1", "g2") if n1112[k] == 0}
            r1, g2z, g3, var = (n1112[k] for k in ("r1", "g2", "g3", "var"))
            # (fixture, quartet, point, quartet parameters, nominal degree,
            # closed-form num(0) or None for the unscaled N11/N12 pair)
            points = [
                ("Q7", "N7", {"F": F, "g1": g1, "g2": g2},
                 dict(A=1 / g1, B=1 / g2, C=F), 3, w0 ** 3),
                ("Q8", "N8", {"F": F, "g1": g1, "g2": g2, "c2": c2},
                 dict(A=1 / g1, B=1 / g2, C=F / c2, D=F), 4,
                 (1 + c2) * w0 ** 4),
            ] + [
                (fam, fam, n1112, dict(A=r1, B=1 / g3, C=g2z, D=F / var, E=F),
                 4, None)
                for fam in ("N11", "N12")]
            for family, fam, v, params, degree, target0 in points:
                arms = _validated_arms(fam, QuartetParams(fam, **params), w0)
                want = _reference_arms(family, v, w0)
                got = {slot: tree_pair(t) for slot, t in arms.items()}
                assert got == want
                num, den = bridge_reference(want)
                assert bridge_over_q(got) == (num, den)
                if target0 is None:
                    assert pair_over_q(_n1112_pair_at(fam, r1, g2z, g3, F,
                                                      w0)(var)) == (num, den)
                else:
                    c = target0 / num(Q(0))
                    assert (_scaled(family, _quartet_polys(fam, w0, **params),
                                    degree, target0, F)
                            == (num * c, den * (c * F)))
        assert seen_zero == {"r1", "g2"}

    def test_quartet_polys_match_the_polynomial_reference(self):
        # the int-list build against the former Polynomial one (the
        # reference tree_pair of every arm, term-by-term bridge): equal
        # pairs at Q7, Q8, N11 and N12 points with denominators up to 10^9,
        # r1 = 0 and g2 = 0 included
        from prsyn.synth import QuartetParams, _quartet_polys
        rng = random.Random(5077)

        def q(zero=False):
            if zero and rng.random() < 0.25:
                return Q(0)
            big = 10 ** rng.choice((1, 3, 9))
            return Fraction(rng.randint(1, big), rng.randint(1, big))

        seen_zero = set()
        for _ in range(100):
            w0, F, g1, g2, c2, g3, var = (q() for _ in range(7))
            r1, g2z = q(zero=True), q(zero=True)
            seen_zero |= {k for k, v in (("r1", r1), ("g2", g2z)) if v == 0}
            points = [("N7", dict(A=1 / g1, B=1 / g2, C=F)),          # Q7
                      ("N8", dict(A=1 / g1, B=1 / g2, C=F / c2, D=F))  # Q8
                      ] + [(fam, dict(A=r1, B=1 / g3, C=g2z, D=F / var, E=F))
                           for fam in ("N11", "N12")]
            for fam, params in points:
                arms = _validated_arms(fam, QuartetParams(fam, **params), w0)
                want = bridge_reference({slot: tree_pair_reference(t)
                                         for slot, t in arms.items()})
                assert pair_over_q(_quartet_polys(fam, w0, **params)) == want
        assert seen_zero == {"r1", "g2"}

    def test_coefficients_in_x_match_the_q_reference(self):
        # the Z[x] sides against the former Q[x] route (conftest), equal up
        # to one positive constant shared by num and den, at Q8, N11 and
        # N12 points with denominators up to 10^9, r1 = 0 and g2 = 0
        # included (the g2 = 0 feasibility path reads N12 at g2 = 0)
        from prsyn.synth import (_N1112_E, _coefficients_in_x,
                                 _n1112_pair_at, _quartet_polys)
        rng = random.Random(3571)

        def q(zero=False):
            if zero and rng.random() < 0.25:
                return Q(0)
            big = 10 ** rng.choice((1, 3, 9))
            return Fraction(rng.randint(1, big), rng.randint(1, big))

        seen_zero = set()
        for _ in range(100):
            w0, F, g1, g2, c2, g3 = (q() for _ in range(6))
            r1, g2z = q(zero=True), q(zero=True)
            seen_zero |= {k for k, v in (("r1", r1), ("g2", g2z)) if v == 0}
            checks = [(lambda x: _quartet_polys("N8", w0, A=1 / g1, B=1 / g2,
                                                C=x / c2, D=x), 3, 1)] + [
                (_n1112_pair_at(fam, r1, g2z, g3, F, w0), 1, _N1112_E[fam])
                for fam in ("N11", "N12")]
            for pair_at, degree, e in checks:
                got = _coefficients_in_x(pair_at, degree, e)
                want = coefficients_in_x_reference(pair_at, degree, e)
                assert list(map(len, got)) == list(map(len, want))
                _one_constant([Polynomial(c) for side in got for c in side],
                              [c for side in want for c in side])
        assert seen_zero == {"r1", "g2"}

    def test_n1112_pairs_match_the_direct_bridge(self):
        # the coefficients in var, from the bridge built at var = 1 and 2,
        # read off at every former sample give var^e times the bridge's own
        # pair there
        from prsyn.network import tree_pair
        from prsyn.synth import (_N1112_E, QuartetParams, _coefficients_in_x,
                                 _n1112_pair_at)
        points = [(Q(1, 3), Q(2, 5), Q(7, 4), Q(1, 2), Q(1)),
                  (Q(0), Q(2, 5), Q(7, 4), Q(3, 2), Q(4, 3)),      # r1 = 0
                  (Q(5, 2), Q(0), Q(3), Q(4, 3), Q(2)),            # g2 = 0
                  (Q(0), Q(0), Q(1, 6), Q(5), Q(1, 3))]            # both
        # random points, r1 = 0 and g2 = 0 each in half of them; the former
        # samples of a check (the spot sample 29/4 included), of the g2 = 0
        # feasibility path, and a single random one
        rng = random.Random(4242)
        points += [(Q(0) if k % 2 else rand_q(rng, 1, 9),
                    Q(0) if k % 4 >= 2 else rand_q(rng, 1, 9),
                    rand_q(rng, 1, 9), rand_q(rng, 1, 9), rand_q(rng, 1, 4))
                   for k in range(8)]
        for fam in ("N11", "N12"):
            e = _N1112_E[fam]
            for r1, g2, g3, F, w0 in points:
                cols = _coefficients_in_x(
                    _n1112_pair_at(fam, r1, g2, g3, F, w0), 1, e)
                assert all(len(c) <= 2 for side in cols for c in side)
                got, direct = [], []
                for v in FORMER_SAMPLES + [Q(29, 4), rand_q(rng, 1, 9)]:
                    qp = QuartetParams(fam, A=r1, B=1 / g3, C=g2, D=F / v,
                                       E=F)
                    arms = {slot: tree_pair(t) for slot, t
                            in _validated_arms(fam, qp, w0).items()}
                    want = bridge_over_q(arms)
                    assert want == bridge_reference(arms)
                    got += _read_off(cols, v)
                    direct += (want[0] * v ** e, want[1] * v ** e)
                _one_constant(got, direct)

    def test_q8_pairs_match_the_direct_bridge(self, monkeypatch):
        # the cubic-in-F coefficients that the Q8 check reads, at every
        # former sample of the check (the spot sample 31/5 included), give
        # F times the direct bridge build there; scaled by target0 / P_0
        # (the check's scale is target0^2 F) they are the scaled pair
        import prsyn.synth as synth
        seen = _capturing(monkeypatch)
        rng = random.Random(2718)
        for _ in range(30):
            g1, g2, c2 = (rand_q(rng, 1, 9) for _ in range(3))
            w0 = rand_q(rng, 1, 3)
            assert resultant_fixture_check(
                "Q8", dict(g1=g1, g2=g2, c2=c2, omega0=w0))
            family, cols, scale = seen.pop()[:3]
            target0 = (1 + c2) * w0 ** 4
            assert family == "Q8"
            assert scale == Polynomial([0, target0 * target0])
            got, direct = [], []
            for F in FORMER_SAMPLES + [Q(31, 5)]:
                num, den = pair_over_q(synth._quartet_polys(
                    "N8", w0, A=1 / g1, B=1 / g2, C=F / c2, D=F))
                pair = _read_off(cols, F)
                got += pair
                direct += (num * F, den * F)
                c = target0 / pair[0].coeff(0)
                assert (pair[0] * c, pair[1] * (c * F)) \
                    == _q8_pair(g1, g2, c2, F, w0)
            _one_constant(got, direct)


# the 24 samples x = k/7 at which the fixture checks were once evaluated
FORMER_SAMPLES = [Q(k, 7) for k in range(1, 25)]


def _read_off(cols, x):
    """The pair in s whose s^j coefficients are the Z[x] int lists
    cols[side][j] at x."""
    return tuple(Polynomial([Polynomial(c)(x) for c in side])
                 for side in cols)


def _one_constant(got, want):
    """The one c > 0 with got == c want, Polynomial by Polynomial, for the
    sequences got and want: a Z[x] pair against the pair it stands for."""
    c = next(g.leading() / w.leading() for g, w in zip(got, want) if w)
    assert c > 0
    assert list(got) == [w * c for w in want]
    return c


def _capturing(monkeypatch):
    """Record the arguments of every ``_factorization_check`` call, which
    still runs; the list holds them."""
    import prsyn.synth as synth
    seen, inner = [], synth._factorization_check

    def capture(*args):
        seen.append(args)
        return inner(*args)

    monkeypatch.setattr(synth, "_factorization_check", capture)
    return seen


class TestZxAgainstTheDirectPairs:
    """R0(x) and R1(x), read off one pass over Z[x], equal the integer
    route on the direct ``_quartet_polys`` pair at every former sample, up
    to the power of the one positive constant c that the Z[x] pair
    carries: the 24 samples and the spot sample of each check, and the 16
    samples of the g2 = 0 feasibility path."""

    @staticmethod
    def _compare(cols, e, xs, direct, scaled=None):
        # cols is c (P, Q), e the power of x that makes it polynomial, so
        # R_k of cols is c^(m+n-2k) R_k(P, Q); with scaled = (scale,
        # pair_at), the scaled pair's R_k at x is scale^(4-k) R_k(cP, cQ) /
        # (c P_0)^(2 (4-k)) too
        from prsyn.polyrat import _sylvester_r0_r1
        r = [Polynomial(v) for v in _sylvester_r0_r1(*cols)]
        pairs = [pair_over_q(direct(x)) for x in xs]
        c = _one_constant(
            [p for x in xs for p in _read_off(cols, x)],
            [side * x ** e for x, pair in zip(xs, pairs) for side in pair])
        m, n = len(cols[0]) - 1, len(cols[1]) - 1
        for x, (num, den) in zip(xs, pairs):
            for k in (0, 1):
                assert r[k](x) == c ** (m + n - 2 * k) * sylvester_determinant(
                    num * x ** e, den * x ** e, k)
                if scaled is not None:
                    scale, pair_at = scaled
                    p, q = pair_at(x)
                    assert (scale(x) ** (4 - k) * r[k](x)
                            / Polynomial(cols[0][0])(x) ** (2 * (4 - k))
                            == sylvester_determinant(p, q, k))

    def test_q8_points(self, monkeypatch):
        import prsyn.synth as synth
        seen = _capturing(monkeypatch)
        rng = random.Random(1967)
        for _ in range(8):
            g1, g2, c2 = (rand_q(rng, 1, 9) for _ in range(3))
            w0 = rand_q(rng, 1, 3)
            assert resultant_fixture_check(
                "Q8", dict(g1=g1, g2=g2, c2=c2, omega0=w0))
            _, cols, scale = seen.pop()[:3]
            self._compare(
                cols, 1, FORMER_SAMPLES + [Q(31, 5)],
                lambda F: synth._quartet_polys("N8", w0, A=1 / g1, B=1 / g2,
                                               C=F / c2, D=F),
                (scale, lambda F: _q8_pair(g1, g2, c2, F, w0)))

    def test_n11_n12_points(self, monkeypatch):
        # random points with r1 = 0, g2 = 0, both and neither; N12 is
        # degenerate at r1 = 0 or g2 = 0, so its check stops before the
        # pass there and only the unscaled pair is compared
        from prsyn.synth import _N1112_E, _coefficients_in_x, _n1112_pair_at
        seen = _capturing(monkeypatch)
        rng = random.Random(1971)
        for k in range(16):
            r1 = Q(0) if k % 2 else rand_q(rng, 1, 9)
            g2 = Q(0) if k % 4 >= 2 else rand_q(rng, 1, 9)
            g3, F, w0 = rand_q(rng, 1, 9), rand_q(rng, 1, 9), rand_q(rng, 1, 3)
            for fam in ("N11", "N12"):
                e = _N1112_E[fam]
                pair_at = _n1112_pair_at(fam, r1, g2, g3, F, w0)
                xs = FORMER_SAMPLES + [Q(29, 4)]
                subs = dict(r1=r1, g2=g2, g3=g3, F=F, omega0=w0)
                if fam == "N12" and (r1 == 0 or g2 == 0):
                    with pytest.raises(ConstraintViolated, match="degenerate"):
                        resultant_fixture_check(fam, subs)
                    self._compare(_coefficients_in_x(pair_at, 1, e), e, xs,
                                  pair_at)
                    continue
                assert resultant_fixture_check(fam, subs)
                _, cols, scale = seen.pop()[:3]
                t0 = (F * (1 + r1 * g2) if fam == "N11" else r1) * w0 ** 4
                self._compare(cols, e, xs, pair_at, (scale, lambda v: _scaled(
                    fam, pair_at(v), 4, t0 * v ** e, F)))

    def test_g2_zero_feasibility(self):
        # x1 times the unscaled g2 = 0 pair, of degrees (4, 3) in s
        from prsyn.synth import _coefficients_in_x, _n1112_pair_at
        rng = random.Random(1840)
        for _ in range(12):
            r1, g3, F = (rand_q(rng, 1, 9) for _ in range(3))
            pair_at = _n1112_pair_at("N12", r1, Q(0), g3, F, Q(1))
            cols = _coefficients_in_x(pair_at, 1, 1)
            assert (len(cols[0]), len(cols[1])) == (5, 4)
            self._compare(cols, 1, FORMER_SAMPLES[:16], pair_at)


class TestFalseVerdicts:
    """The fixture checks reach False: each check's own arguments to
    ``_factorization_check``, with a printed factor perturbed or a cofactor
    given an extra factor 1 + x, so that the division leaves a remainder.
    Where it can, a perturbed call also gets the rhs that its own f1 and
    f2 satisfy, so that only the step under test can fail it."""

    POINTS = [("Q8", {"g1": Q(3, 2), "g2": Q(2, 3), "c2": Q(5, 4),
                      "omega0": Q(4, 3)}),
              ("N11", {"r1": Q(1, 3), "g2": Q(2, 5), "g3": Q(7, 4),
                       "F": Q(1, 2), "omega0": Q(3, 2)}),
              ("N11", {"r1": Q(0), "g2": Q(0), "g3": Q(7, 4), "F": Q(1, 2),
                       "omega0": Q(3, 2)}),
              ("N12", {"r1": Q(1, 3), "g2": Q(2, 5), "g3": Q(7, 4),
                       "F": Q(1, 2), "omega0": Q(3, 2)})]

    def _calls(self, monkeypatch):
        """(arguments, f1, f2) of each point's check, which is True."""
        import prsyn.synth as synth
        seen, factors = _capturing(monkeypatch), []
        inner = synth._sylvester_nominal

        def nominal(f1, f2, *degrees):
            factors.append((f1, f2))
            return inner(f1, f2, *degrees)

        monkeypatch.setattr(synth, "_sylvester_nominal", nominal)
        for fam, point in self.POINTS:
            assert resultant_fixture_check(fam, point)
        monkeypatch.undo()
        assert len(seen) == len(factors) == len(self.POINTS)
        return [(args, *f) for args, f in zip(seen, factors)]

    def test_perturbed_printed_factor(self, monkeypatch):
        from prsyn.synth import _factorization_check, _sylvester_nominal
        for args, f1, f2 in self._calls(monkeypatch):
            degrees, rhs = args[6], args[7]
            assert _factorization_check(*args)
            if args[0] == "Q8":
                # the rhs of the final elimination identity
                assert not _factorization_check(*args[:7], rhs + 1)
                continue
            assert args[5] == f1
            # the printed f1, in either coefficient, with the rhs it gives
            for bump in (Polynomial([1]), Polynomial([0, Q(1, 3)])):
                g1 = f1 + bump
                assert not _factorization_check(
                    *args[:5], g1, degrees, _sylvester_nominal(g1, f2,
                                                               *degrees))
            # -f1 squares to f1^2, but flips the sign of the resultant at
            # the odd nominal degree 5
            assert rhs and not _factorization_check(*args[:5], -f1,
                                                    *args[6:])

    def test_cofactor_with_an_extra_factor(self, monkeypatch):
        from prsyn.synth import _factorization_check, _sylvester_nominal
        extra = Polynomial([1, 1])
        for args, f1, f2 in self._calls(monkeypatch):
            cof0, cof1, degrees = args[3], args[4], args[6]
            # cof1 (1 + x) leaves the quotient f2 // (1 + x) and the
            # remainder cof1 P_0^6 (f2 mod (1 + x)); with the rhs of that
            # quotient only the remainder fails the check
            assert f2 % extra
            assert not _factorization_check(
                *args[:4], cof1 * extra, args[5], degrees,
                _sylvester_nominal(f1, f2 // extra, *degrees))
            assert not _factorization_check(*args[:3], cof0 * extra,
                                            *args[4:])
            if args[0] == "Q8":
                # f1^2 over 2: exact, but with no square root
                assert not _factorization_check(*args[:3], cof0 * 2,
                                                *args[4:])

    def test_false_under_optimize(self):
        # the verdict needs no assert: under -O a perturbed rhs still
        # fails the Q8 check
        code = textwrap.dedent("""
            import sys
            import prsyn.synth as synth
            from fractions import Fraction as Q
            seen, inner = [], synth._factorization_check
            synth._factorization_check = lambda *a: seen.append(a) or inner(*a)
            verdict = synth.resultant_fixture_check(
                "Q8", {"g1": Q(3, 2), "g2": Q(2, 3), "c2": Q(5, 4)})
            args = seen.pop()
            if not verdict or inner(*args[:7], args[7] + 1):
                sys.exit(1)
            sys.exit(0 if sys.flags.optimize else 2)
            """)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.run([sys.executable, "-O", "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


def _counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls; the list
    holds the count."""
    count, inner = [0], getattr(module, name)

    def counted(*args, **kwargs):
        count[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return count


class TestOnceAPoint:
    """A fixture check builds its structural pairs once per point: the
    bridge at F = 1..4 for Q8, and at var = 1 and 2 for N11/N12.  A single
    point, the n12_has_no_feasible_solution x1 > 0 path, is one direct
    build, whose R_1 is one pass over its S_1 rows.  R0(x) and R1(x) of a
    check come from one pass of leading minors over Z[x].  The counts are
    per check: they hold, check by check, over a run of points."""

    @pytest.fixture(params=[24, 30], ids=["24_samples", "30_samples"])
    def samples(self, request):
        # the former sample grid x = k/7 of a check, and that grid with six
        # samples more, now taken as the points of a run: values of omega0,
        # or of F on the g2 = 0 feasibility path
        return [Q(k, 7) for k in range(1, request.param + 1)]

    def test_q8_builds_the_bridge_at_most_four_times(self, monkeypatch,
                                                     samples):
        import prsyn.synth as synth
        bridges = _counting(monkeypatch, synth, "bridge_structural_polys")
        for omega0 in samples:
            bridges[0] = 0
            assert resultant_fixture_check(
                "Q8", {"g1": Q(3, 2), "g2": Q(2, 3), "c2": Q(5, 4),
                       "omega0": omega0})
            assert 0 < bridges[0] <= 4

    def test_n11_n12_build_the_bridge_twice(self, monkeypatch, samples):
        import prsyn.synth as synth
        bridges = _counting(monkeypatch, synth, "bridge_structural_polys")
        # N12 is degenerate at r1 = 0 or g2 = 0
        for omega0 in samples:
            for fam, r1, g2 in (("N11", Q(1, 3), Q(2, 5)),
                                ("N11", Q(0), Q(2, 5)),
                                ("N11", Q(1, 3), Q(0)), ("N11", Q(0), Q(0)),
                                ("N12", Q(1, 3), Q(2, 5))):
                bridges[0] = 0
                assert resultant_fixture_check(
                    fam, {"r1": r1, "g2": g2, "g3": Q(7, 4), "F": Q(1, 2),
                          "omega0": omega0})
                # at the two interpolation nodes var = 1, 2
                assert bridges[0] == 2

    def test_one_leading_minor_pass_per_sample(self, monkeypatch, samples):
        # R0(x) and R1(x) of a check come from one leading_minors pass over
        # the interleaved S_0 rows over Z[x]; the one subresultant left is
        # the nominal resultant of f1 and f2, over Z, one pass more
        import prsyn.polyrat as polyrat
        passes = _counting(monkeypatch, polyrat, "leading_minors")
        dets = _counting(monkeypatch, polyrat, "_subresultant")
        for x in samples:
            n1112 = {"g3": Q(7, 4), "F": Q(1, 2), "omega0": x}
            points = [("Q8", {"g1": Q(3, 2), "g2": Q(2, 3), "c2": Q(5, 4),
                              "omega0": x})] + [
                (fam, dict(n1112, r1=r1, g2=g2))
                for fam, r1, g2 in (("N11", Q(1, 3), Q(2, 5)),
                                    ("N11", Q(0), Q(2, 5)),
                                    ("N11", Q(1, 3), Q(0)),
                                    ("N11", Q(0), Q(0)),
                                    ("N12", Q(1, 3), Q(2, 5)))]
            for fam, point in points:
                passes[0] = dets[0] = 0
                assert resultant_fixture_check(fam, point)
                assert passes[0] == 2
                assert dets[0] == 1
            # the g2 = 0 feasibility path: one pass over its (4, 3) pair in
            # x1 and no other determinant
            passes[0] = dets[0] = 0
            assert n12_has_no_feasible_solution(x, 0, 3, 2)
            assert passes[0] == 1
            assert dets[0] == 0

    def test_n12_feasibility_builds_the_bridge_once_at_a_positive_root(
            self, monkeypatch):
        import prsyn.synth as synth
        bridges = _counting(monkeypatch, synth, "bridge_structural_polys")
        # r1 = 1, g2 = 3, g3 = 1/2: f1 = x1/4 - 1 vanishes at x1 = 4
        assert n12_has_no_feasible_solution(1, 3, Q(1, 2), 1)
        assert bridges[0] == 1

    def test_n12_feasibility_reads_r1_off_one_s1_pass(self, monkeypatch):
        # at a positive root x1 of f1, R_1 of the point's pair is the det of
        # one leading_minors pass over the 6 x 6 S_1 rows, equal to the R_1
        # that the S_0 pass of _sylvester_r0_r1 reads, and nonzero
        import prsyn.polyrat as polyrat
        from prsyn.polyrat import _subresultant, _sylvester_r0_r1
        from prsyn.synth import _n1112_pair_at
        sizes, inner = [], polyrat.leading_minors

        def counted(m):
            sizes.append(len(m))
            return inner(m)

        monkeypatch.setattr(polyrat, "leading_minors", counted)
        rng = random.Random(1212)
        seen = 0
        while seen < 20:
            r1, g2, g3, F = (Fraction(rng.randint(1, 9), rng.randint(1, 9))
                             for _ in range(4))
            one_m = 1 - r1 * g3
            a, b = g3 * one_m, g3 - g2 * one_m
            if a == 0 or b / a >= 0:
                continue
            sizes.clear()
            assert n12_has_no_feasible_solution(r1, g2, g3, F)
            assert sizes == [6]
            num, den, _ = _n1112_pair_at("N12", r1, g2, g3, F, Q(1))(-b / a)
            r1_of_s1 = _subresultant(num, den, 4, 4, 1, 0)
            assert r1_of_s1 == _sylvester_r0_r1(num, den)[1] != 0
            seen += 1


class TestFig2Params:
    def test_derived_symbols(self):
        fp = Fig2Params(1, 1, Q(3, 4), Q(1, 8))
        assert (fp.phi, fp.psi, fp.eta) == (Q(1, 4), Q(7, 4), Q(1, 2))
        assert fp.zeta == Q(7, 256)

    def test_parameter_constraints(self):
        with pytest.raises(ConditionViolated):
            Fig2Params(1, 1, Q(3, 4), Q(1, 2))   # F above the zeta > 0 bound
        with pytest.raises(ConditionViolated):
            Fig2Params(1, 1, Q(1, 3), Q(1, 8))   # W below 1/2


class TestGeneralPathAgainstClosedForms:
    """The one root/residue step reproduces the biquadratic closed forms
    exactly on fixed regions of both branches, and every seven-element
    build of its result realizes the input."""

    def test_both_branches(self, rng):
        for region in ("a", "c", "none", "b", "d"):
            p = sample_region(region, rng)
            h = biquad_template(p)
            step = theorem2_step(h, p.omega0)
            K, w0, W, F = p.K, p.omega0, p.W, p.F
            if F > 0:
                assert step.mu_or_nu == W * w0 / F
                assert step.alpha_or_beta == \
                    (F * F + W * W) * (1 - W) * w0 / (2 * W * W * F)
                assert step.reduced.constant_value() == W
            else:
                assert step.mu_or_nu == -F * w0 / W
                assert step.alpha_or_beta == \
                    (F * F + W * W) * (1 - W) * w0 / (2 * W * F)
                assert step.reduced.constant_value() == 1 / W
            for which in SEVEN_ELEMENT_VARIANTS:
                assert impedance(build_seven_element(step, which)) == h

    def test_mirrored_is_the_step_of_the_inverted_function(self, rng):
        for region in ("b", "d", "e", "none", "a", "c", "f"):
            p = sample_region(region, rng)
            h, w0 = biquad_template(p), p.omega0
            step = theorem2_step(h, w0)
            assert step.mirrored() == theorem2_step(h.compose_winv(w0 * w0), w0)


class TestSpecGapInvariants:
    def test_named_witness_gaps(self, rng):
        for region, name, gap in [("a", "N1", 1), ("b", "N2", 1),
                                  ("c", "N3", 2), ("d", "N4", 2),
                                  ("e", "N5", 2), ("f", "N6", 2)]:
            p = sample_region(region, rng)
            assert mcmillan_gap(build_named(name, p)) == gap

    def test_n6_matcher_sees_series_lc(self):
        n = build_named("N6", BiquadParams(1, 1, Q(5, 8), Q(15, 32)))
        m = match_minimum_structure(n, 1)
        assert m.lemma8_condition == 4
        lc = m.bridge_assignment["N4"]
        assert sorted(n.element(e).kind for e in lc) == ["C", "L"]


class TestSevenElementTransformAlgebra:
    """The four variants are one network family seen through duality and
    frequency inversion: building the first variant for the reciprocal
    (resp. frequency-inverted) input and transforming back must reproduce
    the other variants element-for-element."""

    def _multiset(self, n):
        return sorted((e.kind, e.value) for e in n.elements)

    def test_dual_links_the_sign_branches(self, rng):
        for _ in range(5):
            p = sample_region("none", rng)
            h = biquad_template(p)
            step = theorem2_step(h, p.omega0)
            direct = build_seven_element(step, "rpfg_first")
            recip = h.reciprocal()
            step_r = theorem2_step(recip, p.omega0)
            via_dual = dual(build_seven_element(step_r, "rpfg_first"))
            assert impedance(via_dual) == h
            assert self._multiset(via_dual) == self._multiset(direct)

    def test_inversion_links_first_and_second(self, rng):
        for _ in range(5):
            p = sample_region("none", rng)
            h = biquad_template(p)
            w0 = p.omega0
            step = theorem2_step(h, w0)
            for fam in ("rpfg", "alt"):
                second = build_seven_element(step, f"{fam}_second")
                hinv = h.compose_winv(w0 * w0)
                step_i = theorem2_step(hinv, w0)
                via = frequency_invert(
                    build_seven_element(step_i, f"{fam}_first"), w0)
                assert impedance(via) == h
                assert self._multiset(via) == self._multiset(second)


def _ref_leaf(eid, kind, v):
    return Leaf(Element(eid, kind, "_", "__", v))


def _x_negative_reference(step, which):
    """The X < 0 seven-element networks written out element by element,
    with eta = w0^2 + 2 beta nu, zeta = nu + 2 beta and psi = eta + nu^2."""
    L, C, R = INDUCTOR, CAPACITOR, RESISTOR
    w, w2 = step.reduced.constant_value(), step.omega0 ** 2
    h, ab, m = step.h, step.alpha_or_beta, step.mu_or_nu
    eta, zeta = w2 + 2 * ab * m, m + 2 * ab
    psi = eta + m * m
    if which == "rpfg_first":
        return assemble_shape(
            "bridge",
            N1=_ref_leaf("r1", R, h / w),
            N2=par(_ref_leaf("r2", R, h * w),
                   ser(_ref_leaf("c2", C, 2 * ab * psi / (eta * h * w2)),
                       _ref_leaf("l2", L, eta * h / (2 * ab * psi)))),
            N3=_ref_leaf("c3", C, m / (eta * h)),
            N4=_ref_leaf("c4", C, 1 / (h * m)),
            N5=_ref_leaf("l5", L, h * eta / (m * w2)))
    if which == "rpfg_second":
        return assemble_shape(
            "bridge",
            N1=ser(_ref_leaf("r1", R, h / w),
                   par(_ref_leaf("c1", C, m * zeta / (2 * ab * psi * h)),
                       _ref_leaf("l1", L, 2 * ab * h * psi / (zeta * m * w2)))),
            N2=_ref_leaf("r2", R, h * w),
            N3=_ref_leaf("c3", C, zeta / (h * w2)),
            N4=_ref_leaf("c4", C, 1 / (h * m)),
            N5=_ref_leaf("l5", L, h / zeta))
    if which == "alt_first":
        return assemble_shape(
            "wheel_spoke",
            ar1=_ref_leaf("r1", R, h * w),
            ar2=_ref_leaf("l1", L, eta * h / (2 * ab * psi)),
            ar3=_ref_leaf("l2", L, h * eta / (m * w2)),
            br1=_ref_leaf("c1", C, 1 / (h * m)),
            br3=_ref_leaf("r2", R, h / w),
            r12=_ref_leaf("c2", C, 2 * ab / (h * w2)),
            r23=_ref_leaf("c3", C, 2 * ab * m * m / (h * eta * eta)))
    return assemble_shape(
        "wheel_rim",
        sa=_ref_leaf("r1", R, h * w),
        sb=_ref_leaf("c1", C, 1 / (h * m)),
        sp=_ref_leaf("c2", C, zeta * zeta / (2 * ab * h * w2)),
        sq=_ref_leaf("c3", C, 1 / (2 * ab * h)),
        rap=_ref_leaf("l1", L, h / zeta),
        rbq=_ref_leaf("r2", R, h / w),
        rpq=_ref_leaf("l2", L, 2 * ab * h * psi / (zeta * m * w2)))


def _n2_n5_reference(name, p):
    """The N2 and N5 bridges written out arm by arm."""
    K, w0, W, F = p.K, p.omega0, p.W, p.F
    if name == "N2":
        return assemble_shape(
            "bridge",
            N1=_ref_leaf("r1", RESISTOR, 2 * K),
            N2=_ref_leaf("r2", RESISTOR, 2 * K),
            N3=_ref_leaf("l3", INDUCTOR, -K * F / w0),
            N4=_ref_leaf("c4", CAPACITOR, -1 / (K * F * w0)),
            N5=_ref_leaf("c5", CAPACITOR, -1 / (K * F * w0)))
    return assemble_shape(
        "bridge",
        N1=_ref_leaf("r1", RESISTOR, -K * W * W / ((1 - W) * (1 + W))),
        N2=_ref_leaf("r2", RESISTOR, K * W * W),
        N3=_ref_leaf("l3", INDUCTOR, -K * F / w0),
        N4=par(_ref_leaf("c4", CAPACITOR, 1 / (K * F * (1 - W) * w0)),
               _ref_leaf("l4", INDUCTOR, K * F * (1 - W) / ((2 - W) * w0))),
        N5=_ref_leaf("c5", CAPACITOR, -1 / (K * F * w0)))


class TestInvertedBuildsMatchTheWrittenOutNetworks:
    """The X < 0 seven-element networks and N2/N5 are built as frequency
    inversions of X > 0 ones; they must equal the networks written out
    directly: the same ids, kinds, vertices, values and element order, and
    the same port, so netlist text does not change."""

    @staticmethod
    def _netlist(n):
        return ([(e.id, e.kind, e.head, e.tail, e.value) for e in n.elements],
                n.port)

    def test_seven_element_x_negative(self, rng):
        for _ in range(200):
            W = 1 + Fraction(rng.randint(1, 300), 100)
            p = BiquadParams(rand_q(rng), rand_q(rng), W, -rand_q(rng))
            step = theorem2_step(biquad_template(p), p.omega0)
            assert step.variant == "X_negative"
            for which in SEVEN_ELEMENT_VARIANTS:
                assert (self._netlist(build_seven_element(step, which))
                        == self._netlist(_x_negative_reference(step, which)))

    def test_n2_and_n5(self, rng):
        for _ in range(200):
            for region, name in (("b", "N2"), ("e", "N5")):
                p = sample_region(region, rng)
                assert (self._netlist(build_named(name, p))
                        == self._netlist(_n2_n5_reference(name, p)))

    def test_one_network_per_inversion(self, rng, monkeypatch):
        # the inverted, renamed network is built and checked once: an X < 0
        # build and N2/N5 construct the X > 0 network and its inversion
        import prsyn.network as network_mod
        calls = []
        check_graph = network_mod._check_graph

        def counting(*args):
            calls.append(args)
            return check_graph(*args)

        def built(build, *args):
            calls.clear()
            n = build(*args)
            assert len(calls) == 2
            return self._netlist(n)

        monkeypatch.setattr(network_mod, "_check_graph", counting)

        for _ in range(20):
            W = 1 + Fraction(rng.randint(1, 300), 100)
            p = BiquadParams(rand_q(rng), rand_q(rng), W, -rand_q(rng))
            step = theorem2_step(biquad_template(p), p.omega0)
            for which in SEVEN_ELEMENT_VARIANTS:
                assert (built(build_seven_element, step, which)
                        == self._netlist(_x_negative_reference(step, which)))
            for region, name in (("b", "N2"), ("e", "N5")):
                p = sample_region(region, rng)
                assert (built(build_named, name, p)
                        == self._netlist(_n2_n5_reference(name, p)))
