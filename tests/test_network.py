"""Netlist model, graph structure, reductions, and transforms."""

import json
import random
import time
from fractions import Fraction

import pytest

from prsyn.analysis import impedance, impedance_series_parallel
from prsyn.network import (CAPACITOR, DUAL_SHAPE, DUAL_SLOT, INDUCTOR,
                           MECHANICAL, RESISTOR, SHAPES, Element, MissingPort,
                           NetlistSyntaxError, Network, NetworkError,
                           NonpositiveValue, NotBiconnected,
                           NotPlanarDualizable, OnePort, OpenCircuit, Leaf,
                           Par, Ser, ShortCircuit,
                           assemble_shape, dual, embeddings, frequency_invert,
                           from_mechanical, has_C_cutset, has_C_path,
                           has_L_cutset, has_L_path, incidence_matrix,
                           _tree_ints, is_biconnected, network_from_json,
                           network_to_json, open_oneport, parse_netlist,
                           report_grounded_capacitors, serialize_netlist, par,
                           ser, short_oneport, skeleton, sp_tree,
                           to_mechanical, tree_impedance, tree_pair)
from prsyn.polyrat import (BiquadParams, Polynomial, Q, RationalFunction,
                           biquad_params, biquad_template)
from prsyn.synth import build_named

from conftest import (ladder_network, random_biconnected_network,
                      random_sp_network, tree_ints_reference,
                      tree_pair_reference)

N1_TEXT = """
# three-storage witness wired as the four-vertex bridge
L l4 a c 1
R r1 a d 1/2
C c3 c d 1
R r2 c b 1/2
L l5 d b 1
PORT a b
"""


@pytest.fixture
def n1():
    return parse_netlist(N1_TEXT)


class TestParse:
    def test_single_resistor(self):
        n = parse_netlist("R r1 a b 5\nPORT a b")
        assert len(n.elements) == 1 and n.elements[0].value == 5
        assert n.port == ("a", "b")

    def test_dangling_element_diagnostic_names_it(self):
        with pytest.raises(NotBiconnected, match="r2"):
            parse_netlist("R r1 a b 5\nR r2 b c 1\nPORT a b")

    def test_vertex_touched_by_no_element_is_named(self):
        r1 = Element("r1", RESISTOR, "a", "b", 1)
        message = r"^vertex\(es\) z are touched by no element$"
        with pytest.raises(NotBiconnected, match=message):
            Network(["a", "b", "z"], [r1], ("a", "b"))
        text = network_to_json(Network(["a", "b"], [r1], ("a", "b")))
        data = json.loads(text)
        data["vertices"].append("z")
        with pytest.raises(NotBiconnected, match=message):
            network_from_json(json.dumps(data))

    def test_fixture_roundtrip(self, n1):
        normalized = serialize_netlist(n1)
        assert serialize_netlist(parse_netlist(normalized)) == normalized

    def test_missing_port(self):
        with pytest.raises(MissingPort):
            parse_netlist("R r1 a b 5")

    def test_nonpositive_value(self):
        with pytest.raises(NonpositiveValue):
            parse_netlist("R r1 a b 0\nPORT a b")

    def test_bad_syntax(self):
        with pytest.raises(NetlistSyntaxError):
            parse_netlist("R r1 a b\nPORT a b")
        with pytest.raises(NetlistSyntaxError):
            parse_netlist("Q q1 a b 1\nPORT a b")

    def test_decimal_values_are_exact(self):
        n = parse_netlist("C c1 a b 0.25\nPORT a b")
        assert n.elements[0].value == Q(1, 4)

    def test_json_roundtrip(self, n1):
        assert network_from_json(network_to_json(n1)) == n1

    def test_json_values_read_as_netlist_values(self):
        # the exponent is refused before 10**N is computed, so the huge one
        # returns at once; a non-number raises the same error
        data = json.loads(network_to_json(parse_netlist("R r1 a b 1\nPORT a b")))
        for bad in ("x", "1/0", "1e5000000000"):
            data["elements"][0]["value"] = bad
            start = time.process_time()
            with pytest.raises(NetlistSyntaxError):
                network_from_json(json.dumps(data))
            assert time.process_time() - start < 1
        data["elements"][0]["value"] = "1.5e-2"
        assert network_from_json(json.dumps(data)).elements[0].value == Q(3, 200)


class TestIncidence:
    def test_single_element(self):
        n = parse_netlist("L l1 a b 2\nPORT a b")
        assert incidence_matrix(n) == [[1, 1], [-1, -1]]

    def test_rank_is_vertices_minus_one(self, rng):
        for _ in range(20):
            n = random_sp_network(rng)
            m = [[Fraction(x) for x in row] for row in incidence_matrix(n)]
            assert _rank(m) == len(n.vertices) - 1

    def test_three_cycle_circuit_space(self):
        n = parse_netlist("R r1 a b 1\nR r2 b c 2\nR r3 c a 3\nPORT a b")
        m = incidence_matrix(n)
        # hand-computed loop vector: traverse r1 (a->b), r2 (b->c), r3 (c->a),
        # no source current
        loop = [0, 1, 1, 1]
        for row in m:
            assert sum(r * x for r, x in zip(row, loop)) == 0

    def test_rank_nullity_and_orthogonality(self, rng):
        for _ in range(15):
            n = random_sp_network(rng)
            m = [[Fraction(x) for x in row] for row in incidence_matrix(n)]
            cols = len(m[0])
            rank = _rank(m)
            null = _nullspace(m)
            assert rank + len(null) == cols == len(n.elements) + 1
            for vec in null:
                for row in m:
                    assert sum(r * x for r, x in zip(row, vec)) == 0


def _rank(m):
    m = [row[:] for row in m]
    rank = 0
    rows, cols = len(m), len(m[0])
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][c]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(rows):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _nullspace(m):
    rows, cols = len(m), len(m[0])
    aug = [row[:] for row in m]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((rr for rr in range(r, rows) if aug[rr][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for rr in range(rows):
            if rr != r and aug[rr][c] != 0:
                f = aug[rr][c]
                aug[rr] = [x - f * y for x, y in zip(aug[rr], aug[r])]
        pivots.append(c)
        r += 1
    basis = []
    for fc in [c for c in range(cols) if c not in pivots]:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -aug[i][fc]
        basis.append(vec)
    return basis


class TestBiconnectivity:
    def test_bridge_is_biconnected(self, n1):
        assert is_biconnected(n1)

    def test_single_element_across_port(self):
        assert is_biconnected(parse_netlist("R r1 a b 1\nPORT a b"))


# the former recursive series-parallel reducer, kept as a reference: split
# into parallel groups at the port, else in series at the first cut vertex

def _reference_parallel_groups(elements, a, b):
    internal_adj = {}
    for e in elements:
        for v in (e.head, e.tail):
            if v not in (a, b):
                internal_adj.setdefault(v, []).append(e)
    assigned, groups = {}, []
    for v in internal_adj:
        if v in assigned:
            continue
        gid = len(groups)
        comp_elems, stack, seen_e = [], [v], set()
        assigned[v] = gid
        while stack:
            x = stack.pop()
            for e in internal_adj[x]:
                if e.id in seen_e:
                    continue
                seen_e.add(e.id)
                comp_elems.append(e)
                for y in (e.head, e.tail):
                    if y not in (a, b) and y not in assigned:
                        assigned[y] = gid
                        stack.append(y)
        groups.append(comp_elems)
    for e in elements:
        if {e.head, e.tail} == {a, b}:
            groups.append([e])
    return groups


def _reference_reach(elements, a, skip):
    # vertices joined to a by elements that avoid the vertex skip
    seen, stack = {a}, [a]
    while stack:
        x = stack.pop()
        for e in elements:
            if skip not in (e.head, e.tail) and x in (e.head, e.tail):
                y = e.tail if x == e.head else e.head
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return seen


def _reference_sp_tree(elements, a, b):
    if len(elements) == 1:
        e = elements[0]
        return Leaf(e) if {e.head, e.tail} == {a, b} else None
    groups = _reference_parallel_groups(elements, a, b)
    if len(groups) >= 2:
        parts = [_reference_sp_tree(g, a, b) for g in groups]
        return None if None in parts else par(*parts)
    verts = {v for e in elements for v in (e.head, e.tail)}
    m = next((m for m in sorted(verts - {a, b})
              if b not in _reference_reach(elements, a, m)), None)
    if m is None:
        return None
    seen = _reference_reach(elements, a, m)
    side_a = [e for e in elements if e.head in seen or e.tail in seen]
    side_b = [e for e in elements if e not in side_a]
    ta = _reference_sp_tree(side_a, a, m)
    tb = _reference_sp_tree(side_b, m, b)
    return None if ta is None or tb is None else ser(ta, tb)


class TestSeriesParallel:
    def test_series_tag(self):
        n = parse_netlist("R r1 a m 1\nL l1 m b 3\nPORT a b")
        tree = sp_tree(n)
        assert isinstance(tree, Ser)
        z1, z2 = (tree_impedance(p) for p in tree.parts)
        assert z1 + z2 == impedance(n)

    def test_parallel_tag(self):
        n = parse_netlist("R r1 a b 1\nC c1 a b 3\nPORT a b")
        tree = sp_tree(n)
        assert isinstance(tree, Par)
        z1, z2 = (tree_impedance(p) for p in tree.parts)
        assert (z1.reciprocal() + z2.reciprocal()).reciprocal() == impedance(n)

    def test_bridge_is_atomic(self, n1):
        assert sp_tree(n1) is None

    def test_matches_recursive_reference(self):
        # sp_tree reads skeleton; the reference is the former recursive
        # reducer, the same tree up to the order of the parts
        def unordered(tree):
            if isinstance(tree, Leaf):
                return tree.element.id
            return (type(tree).__name__, frozenset(map(unordered, tree.parts)))

        rng = random.Random(1982)
        nets = ([random_sp_network(rng, 10) for _ in range(60)]
                + [random_biconnected_network(rng, 6, 10) for _ in range(60)]
                + [ladder_network(size, rng) for size in (2, 6, 12, 20, 32)])
        kinds = set()
        for n in nets:
            got = sp_tree(n)
            want = _reference_sp_tree(list(n.elements), *n.port)
            assert (got is None) == (want is None)
            kinds.add(want is None)
            if want is not None:
                assert unordered(got) == unordered(want)
                assert tree_impedance(got) == tree_impedance(want)
        assert kinds == {True, False}


def _stepwise_tree_impedance(tree):
    """The former tree evaluator, kept as a reference: every leaf, series
    sum and parallel sum is reduced as it is formed."""
    if isinstance(tree, Leaf):
        e = tree.element
        if e.kind == RESISTOR:
            return RationalFunction(Polynomial([e.value]))
        if e.kind == INDUCTOR:
            return RationalFunction(Polynomial([0, e.value]))
        return RationalFunction(Polynomial([1]), Polynomial([0, e.value]))
    parts = [_stepwise_tree_impedance(p) for p in tree.parts]
    if isinstance(tree, Ser):
        total = parts[0]
        for x in parts[1:]:
            total = total + x
        return total
    inv = parts[0].reciprocal()
    for x in parts[1:]:
        inv = inv + x.reciprocal()
    return inv.reciprocal()


def _random_tree(rng, depth):
    """A random nested Ser/Par tree of R, L and C leaves, values with
    numerators and denominators up to 10, 10^3 or 10^9."""
    if depth == 0 or rng.random() < 0.3:
        big = 10 ** rng.choice((1, 3, 9))
        return Leaf(Element("e", rng.choice([RESISTOR, INDUCTOR, CAPACITOR]),
                            "a", "b", Fraction(rng.randint(1, big),
                                               rng.randint(1, big))))
    parts = tuple(_random_tree(rng, depth - 1)
                  for _ in range(rng.randint(2, 4)))
    return (Ser if rng.random() < 0.5 else Par)(parts)


class TestTreePair:
    def test_matches_polynomial_reference(self):
        # the int-list pair over its scale against the former Polynomial
        # build: equal pairs, not only equal ratios
        rng = random.Random(3301)
        trees = [_random_tree(rng, 4) for _ in range(300)] + [
            _random_tree(rng, 0) for _ in range(60)]
        for cls in (Leaf, Ser, Par):
            assert any(isinstance(t, cls) for t in trees)
        for tree in trees:
            assert tree_pair(tree) == tree_pair_reference(tree)


class TestLongLadders:
    """A ladder's series-parallel tree is as deep as the ladder is long, so
    the int-list fold walks it with a stack."""

    def test_fold_matches_the_recursive_fold(self):
        # 400 elements is about as deep as the recursive fold goes
        for size in (200, 400):
            tree = sp_tree(ladder_network(size, random.Random(size)))
            assert _tree_ints(tree) == tree_ints_reference(tree)

    def test_sp_oracle_on_a_1200_element_ladder(self):
        # the recursive fold raised RecursionError from 600 elements on;
        # the value at s = 2 against the ladder folded from its far end
        n = ladder_network(1200, random.Random(1200))
        h = impedance_series_parallel(n)
        z = {RESISTOR: lambda v: v, INDUCTOR: lambda v: 2 * v,
             CAPACITOR: lambda v: 1 / (2 * v)}
        arms = [z[e.kind](e.value) for e in n.elements]
        total = arms[-1]
        for i in reversed(range(len(arms) - 1)):
            total = (arms[i] + total if i % 2 == 0
                     else 1 / (1 / arms[i] + 1 / total))
        assert h.mcmillan_degree == 600 and h(Q(2)) == total


class TestTreeImpedance:
    def test_matches_stepwise_reference(self):
        # every series-parallel network, ladder and arm of a reduced
        # skeleton, reduced once at the end against at every step
        rng = random.Random(1847)
        nets = ([random_sp_network(rng, 10) for _ in range(150)]
                + [random_biconnected_network(rng, 6, 10) for _ in range(150)]
                + [ladder_network(size, rng) for size in (2, 6, 12, 20, 32)])
        trees = [arm for n in nets for (_, _, arm) in skeleton(n)[0]]
        assert any(isinstance(t, Par) for t in trees)
        assert any(isinstance(t, Ser) for t in trees)
        for tree in trees:
            assert tree_impedance(tree) == _stepwise_tree_impedance(tree)

    def test_pair_is_unreduced(self):
        # l1 || l2 keeps the common factor s: (l1 l2 s^2, (l1 + l2) s)
        tree = par(Leaf(Element("l1", INDUCTOR, "a", "b", 2)),
                   Leaf(Element("l2", INDUCTOR, "a", "b", 3)))
        assert tree_pair(tree) == (Polynomial([0, 0, 6]), Polynomial([0, 5]))
        assert tree_impedance(tree) == RationalFunction(Polynomial([0, Q(6, 5)]))


class TestOpenShort:
    def test_open_bridge_arm_formula(self, n1):
        # opening the N1 arm leaves Z4 + Z2 || (Z3 + Z5)
        p = OnePort(n1, frozenset({"r1"}), ("a", "d"))
        reduced = open_oneport(n1, p)
        z2 = parse_netlist("R x a b 1/2\nPORT a b")
        z4 = impedance(parse_netlist("L x a b 1\nPORT a b"))
        z3 = impedance(parse_netlist("C x a b 1\nPORT a b"))
        z5 = z4
        z2 = impedance(z2)
        expected = z4 + (z2 * (z3 + z5)) / (z2 + z3 + z5)
        assert impedance(reduced) == expected

    def test_short_bridge_arm_formula(self, n1):
        # shorting N3 leaves Z1 || Z4 + Z2 || Z5
        p = OnePort(n1, frozenset({"c3"}), ("c", "d"))
        reduced = short_oneport(n1, p)
        r = impedance(parse_netlist("R x a b 1/2\nPORT a b"))
        l = impedance(parse_netlist("L x a b 1\nPORT a b"))
        expected = (r * l) / (r + l) + (r * l) / (r + l)
        assert impedance(reduced) == expected

    def test_open_only_element(self):
        n = parse_netlist("R r1 a b 1\nPORT a b")
        p = OnePort(n, frozenset({"r1"}), ("a", "b"))
        assert open_oneport(n, p) == OpenCircuit()

    def test_degenerate_outcomes_compare_by_class(self):
        assert OpenCircuit() == OpenCircuit() and ShortCircuit() == ShortCircuit()
        assert OpenCircuit() != ShortCircuit()
        assert repr(OpenCircuit()) == "OpenCircuit()"
        assert len({OpenCircuit(), OpenCircuit()}) == 1

    def test_open_leaves_a_dangling_element(self):
        # opening r1 leaves r2 hanging from the port's minus terminal: no
        # element path joins the terminals, and r2 is pruned with the rest
        n = parse_netlist("R r1 a m 1\nR r2 m b 1\nPORT a b")
        p = OnePort(n, frozenset({"r1"}), ("a", "m"))
        assert open_oneport(n, p) == OpenCircuit()

    def test_short_across_port(self):
        n = parse_netlist("R r1 a b 1\nR r2 a b 2\nPORT a b")
        p = OnePort(n, frozenset({"r1"}), ("a", "b"))
        assert short_oneport(n, p) == ShortCircuit()


class TestOnePortRejections:
    def test_empty_element_set(self, n1):
        with pytest.raises(NetworkError, match="at least one element"):
            OnePort(n1, frozenset(), ("a", "b"))

    def test_disconnected_element_set(self, n1):
        # l4 (a-c) and l5 (d-b) share no vertex
        with pytest.raises(NetworkError, match="must be connected"):
            OnePort(n1, frozenset({"l4", "l5"}), ("a", "b"))

    def test_terminals_differ_from_boundary(self, n1):
        # r1's boundary is {a, d}
        with pytest.raises(NetworkError, match="does not match terminals"):
            OnePort(n1, frozenset({"r1"}), ("a", "b"))


class TestCutsetsAndPaths:
    def test_series_capacitor(self):
        n = parse_netlist("C c1 a b 1\nPORT a b")
        assert has_C_path(n) and has_C_cutset(n)
        assert not has_L_path(n) and not has_L_cutset(n)

    def test_n1_all_false(self, n1):
        assert not has_C_cutset(n1) and not has_L_cutset(n1)
        assert not has_C_path(n1) and not has_L_path(n1)

    def test_two_parallel_inductors(self):
        n = parse_netlist("L l1 a b 1\nL l2 a b 2\nPORT a b")
        assert has_L_path(n) and has_L_cutset(n)


class TestFrequencyInvert:
    def test_inductor_becomes_capacitor(self):
        n = frequency_invert(parse_netlist("L l1 a b 2\nPORT a b"), 1)
        e = n.elements[0]
        assert e.kind == CAPACITOR and e.value == Q(1, 2)

    def test_resistor_unchanged(self):
        n = frequency_invert(parse_netlist("R r1 a b 7\nPORT a b"), 3)
        assert n.elements[0].kind == RESISTOR and n.elements[0].value == 7

    def test_involution(self, rng):
        for _ in range(20):
            n = random_sp_network(rng)
            w0 = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            assert frequency_invert(frequency_invert(n, w0), w0) == n

    def test_parameter_map(self):
        p = BiquadParams(Q(3, 2), Q(2), Q(3, 4), Q(1, 3))
        n = build_named("Fig2b", BiquadParams(1, 1, Q(3, 4), Q(1, 8)))
        h = impedance(frequency_invert(n, 1))
        assert biquad_params(h) == BiquadParams(Q(9, 16), 1, Q(4, 3), -Q(2, 9))

    def test_impedance_is_composed(self, rng):
        for _ in range(50):
            n = random_sp_network(rng)
            w0 = Fraction(rng.randint(1, 5), rng.randint(1, 5))
            assert impedance(frequency_invert(n, w0)) == \
                impedance(n).compose_winv(w0 * w0)


class TestDual:
    def test_series_rl(self):
        n = dual(parse_netlist("R r1 a m 2\nL l1 m b 3\nPORT a b"))
        kinds = sorted((e.kind, e.value) for e in n.elements)
        assert kinds == [(CAPACITOR, Q(3)), (RESISTOR, Q(1, 2))]
        assert isinstance(sp_tree(n), Par)

    def test_single_resistor(self):
        n = dual(parse_netlist("R r1 a b 4\nPORT a b"))
        assert n.elements[0].value == Q(1, 4)

    def test_fresh_nodes_named_depth_first(self):
        # the dual's series nodes take fresh names in depth-first order:
        # n0 at the root, n1 and then n2 down the first arm, n3 in the second
        n = parse_netlist("R g p w 1\nR h p w 2\nL i w x 3\nC a p x 4\n"
                          "C c x n 5\nL d p y 6\nL e p y 7\nR f y n 8\nPORT p n")
        assert serialize_netlist(dual(n)) == (
            "C d n0 n3 6\nC e n3 n 7\nC i n1 n0 3\nL a p n1 4\nL c p n0 5\n"
            "R f n0 n 1/8\nR g n1 n2 1\nR h n2 n0 1/2\nPORT p n\n")

    def test_reciprocal_parameter_map(self):
        p = BiquadParams(1, 1, Q(3, 4), Q(1, 8))
        n = build_named("Fig2b", p)
        h = impedance(dual(n))
        assert biquad_params(h) == BiquadParams(1, 1, Q(4, 3), -8)

    def test_involution_on_series_parallel(self, rng):
        for _ in range(50):
            n = random_sp_network(rng)
            assert impedance(dual(dual(n))) == impedance(n)
            assert impedance(dual(n)) == impedance(n).reciprocal()

    def test_bridge_dual(self, n1):
        assert impedance(dual(n1)) == impedance(n1).reciprocal()

    def test_one_skeleton_per_dual(self, n1, monkeypatch):
        import prsyn.network as network
        calls = []

        def counted(n, skeleton=network.skeleton):
            calls.append(n)
            return skeleton(n)

        monkeypatch.setattr(network, "skeleton", counted)
        sp = parse_netlist("R r1 a m 2\nL l1 m b 3\nC c1 a b 1\nPORT a b")
        for n in (sp, n1):
            assert impedance(dual(n)) == impedance(n).reciprocal()
        assert calls == [sp, n1]

    def test_unsupported_shape(self):
        # triangular prism: 6 vertices, 9 edges including the source
        text = """
        R e1 u1 u2 1
        R e2 u2 u3 1
        R e3 u3 u1 1
        R e4 v1 v2 1
        R e5 v2 v3 1
        R e6 v3 v1 1
        R e7 u2 v2 1
        R e8 u3 v3 1
        PORT u1 v1
        """
        n = parse_netlist(text)
        _, kind = skeleton(n)
        assert kind == "other"
        with pytest.raises(NotPlanarDualizable):
            dual(n)


def _one_leaf_per_slot(shape):
    kinds = (RESISTOR, INDUCTOR, CAPACITOR)
    return {slot: Leaf(Element(f"e{i}", kinds[i % 3], "_", "__", Q(i + 2, 3)))
            for i, (slot, _, _) in enumerate(SHAPES[shape])}


def _element_multiset(n):
    return sorted((e.id, e.kind, e.value) for e in n.elements)


class TestShapes:
    """The one table of non-series-parallel shapes: assembly, recognition,
    embedding and duality all read ``SHAPES``."""

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_assembled_shape_is_recognised(self, shape):
        arms = _one_leaf_per_slot(shape)
        n = assemble_shape(shape, **arms)
        edges, kind = skeleton(n)
        assert kind == shape
        vmap, found = next(embeddings(edges, n.port, shape))
        assert vmap == {v: v for (_, x, y) in SHAPES[shape] for v in (x, y)}
        assert ({slot: t.element.id for slot, t in found.items()}
                == {slot: t.element.id for slot, t in arms.items()})

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_dual_slots_are_an_involution_onto_the_dual_shape(self, shape):
        slots = [slot for (slot, _, _) in SHAPES[shape]]
        dual_slots = [slot for (slot, _, _) in SHAPES[DUAL_SHAPE[shape]]]
        assert DUAL_SHAPE[DUAL_SHAPE[shape]] == shape
        assert sorted(DUAL_SLOT[slot] for slot in slots) == sorted(dual_slots)
        assert all(DUAL_SLOT[DUAL_SLOT[slot]] == slot for slot in slots)

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_dual_of_dual(self, shape):
        n = assemble_shape(shape, **_one_leaf_per_slot(shape))
        d = dual(n)
        assert skeleton(d)[1] == DUAL_SHAPE[shape]
        assert impedance(d) == impedance(n).reciprocal()
        back = dual(d)
        assert _element_multiset(back) == _element_multiset(n)
        assert impedance(back) == impedance(n)

    def test_bridge_embeddings_in_symmetry_order(self, n1):
        # identity, c<->d, a<->b, both
        edges, _ = skeleton(n1)
        maps = [vmap for vmap, _ in embeddings(edges, n1.port, "bridge")]
        assert [tuple(m[v] for v in "abcd") for m in maps] == [
            ("a", "b", "c", "d"), ("a", "b", "d", "c"),
            ("b", "a", "c", "d"), ("b", "a", "d", "c")]

    def test_spoke_hub_on_port_minus(self):
        # the hub is the port's minus terminal: only the reversed port embeds
        n = assemble_shape("wheel_spoke", **_one_leaf_per_slot("wheel_spoke"))
        m = Network(n.vertices, n.elements, n.port[::-1])
        edges, kind = skeleton(m)
        assert kind == "wheel_spoke"
        found = list(embeddings(edges, m.port, "wheel_spoke"))
        assert found and all(vmap["a"] == m.port[1] for vmap, _ in found)
        assert impedance(dual(m)) == impedance(m).reciprocal()
        assert _element_multiset(dual(dual(m))) == _element_multiset(m)

    def test_wheel_dual_names(self):
        n = assemble_shape("wheel_rim", **_one_leaf_per_slot("wheel_rim"))
        d = dual(n)
        assert d.port == ("da", "db")
        assert set(d.vertices) == {"da", "db", "r1", "r2", "r3"}
        assert set(dual(d).vertices) == {"da", "db", "p", "q", "x"}


class TestMechanical:
    def test_resistor_to_damper(self):
        m = to_mechanical(parse_netlist("R r1 a b 2\nPORT a b"))
        assert m.elements[0].kind == "DAMPER" and m.elements[0].value == Q(1, 2)

    def test_capacitor_to_inerter(self):
        m = to_mechanical(parse_netlist("C c1 a b 3\nPORT a b"))
        assert m.elements[0].kind == "INERTER" and m.elements[0].value == 3

    def test_roundtrip_on_fixture(self, n1):
        assert from_mechanical(to_mechanical(n1)) == n1

    def test_mechanical_netlist_roundtrip(self, n1):
        m = to_mechanical(n1)
        text = serialize_netlist(m)
        again = parse_netlist(text)
        assert again == m and again.domain == MECHANICAL
        assert sorted(e.kind for e in again.elements) == [
            "DAMPER", "DAMPER", "INERTER", "SPRING", "SPRING"]

    def test_mechanical_json_roundtrip(self, n1):
        m = to_mechanical(n1)
        assert network_from_json(network_to_json(m)) == m

    def test_mixed_domains_rejected(self):
        elems = [Element("r1", RESISTOR, "a", "b", 1),
                 Element("d1", "DAMPER", "a", "b", 2)]
        with pytest.raises(NetworkError, match="cannot mix"):
            Network({"a", "b"}, elems, ("a", "b"))
        with pytest.raises(NetworkError, match="cannot mix"):
            parse_netlist("R r1 a b 1\nDAMPER d1 a b 2\nPORT a b")
        data = json.loads(network_to_json(parse_netlist(
            "R r1 a b 1\nR d1 a b 2\nPORT a b")))
        data["elements"][1]["kind"] = "DAMPER"
        with pytest.raises(NetworkError, match="cannot mix"):
            network_from_json(json.dumps(data))

    def test_no_electrical_law_for_mechanical_kinds(self):
        m = parse_netlist("DAMPER d1 a b 2\nSPRING k1 a b 3\nPORT a b")
        for transform in (impedance, dual, to_mechanical,
                          lambda n: frequency_invert(n, 1),
                          has_C_cutset, has_L_cutset, has_C_path, has_L_path,
                          report_grounded_capacitors):
            with pytest.raises(NetworkError):
                transform(m)
        with pytest.raises(NetworkError):
            tree_pair(Leaf(m.elements[0]))


class TestGroundedCapacitors:
    def test_across_port(self):
        n = parse_netlist("C c1 a b 3\nR r1 a b 1\nPORT a b")
        assert report_grounded_capacitors(n) == {"c1": True}

    def test_internal(self):
        n = parse_netlist("R r1 a m 1\nC c1 m k 1\nR r2 k b 1\n"
                          "L l1 a b 1\nPORT a b")
        assert report_grounded_capacitors(n) == {"c1": False}

    def test_fig2b_report(self):
        n = build_named("Fig2b", BiquadParams(1, 1, Q(3, 4), Q(1, 8)))
        assert report_grounded_capacitors(n) == \
            {"c3": False, "c4": False, "c5": False}


class TestStructuralInvolution:
    def test_dual_dual_restores_elements(self, rng):
        for _ in range(30):
            n = random_sp_network(rng)
            back = dual(dual(n))
            orig = sorted((e.id, e.kind, e.value) for e in n.elements)
            again = sorted((e.id, e.kind, e.value) for e in back.elements)
            assert orig == again
            assert impedance(back) == impedance(n)

    def test_cut_vertices_empty_for_valid_networks(self, rng):
        from prsyn.network import cut_vertices
        for _ in range(10):
            assert cut_vertices(random_sp_network(rng)) == set()
