"""One-port network model: kind table, netlist format, graph structure,
transforms.

A network is a labelled multigraph of two-terminal elements plus a
distinguished source port.  One ``Network`` type holds either electrical
kinds (R, L, C) or their force-current mechanical analogues (damper,
spring, inerter), never a mix.  Everything a kind means -- its domain,
whether it stores energy, its dual, its frequency-inversion partner, its
analogue and its impedance law -- is one row of ``KINDS``; the analysis
and the transforms read that row instead of testing the kind.  Asking a
mechanical kind for an electrical law or partner raises ``NetworkError``.

A network has at least one element, and its graph including a virtual
source edge across the port must be connected and biconnected; elements
outside the source's biconnected component are rejected at construction
and silently pruned by the open/short reductions (where the pruning is
part of the operation).
Every graph question -- connectivity, biconnectivity, a driving-point
path or cut-set, a one-port's connectedness -- and those of ``analysis``
and ``synth`` read one depth-first search, ``_search``, which numbers the
connected components and lists the blocks (biconnected components).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .polyrat import Polynomial, RationalFunction, _add, _as_q, _mul, _poly

RESISTOR, INDUCTOR, CAPACITOR = "R", "L", "C"
DAMPER, SPRING, INERTER = "DAMPER", "SPRING", "INERTER"
ELECTRICAL, MECHANICAL = "electrical", "mechanical"


class NetworkError(Exception):
    pass


class NetlistSyntaxError(NetworkError):
    pass


class NotBiconnected(NetworkError):
    pass


class NonpositiveValue(NetworkError):
    pass


class MissingPort(NetworkError):
    pass


class NotPlanarDualizable(NetworkError):
    pass


@dataclass(frozen=True)
class Kind:
    """One row of the kind table ``KINDS``.

    ``analogue`` and ``dual`` are (kind, inverts): the partner kind and
    whether its value is the reciprocal of this one.  ``inverse`` is the
    partner under s -> omega0^2/s; a storage value v becomes
    1/(v omega0^2) there, any other value is kept.  ``law`` is (side, p)
    with p in (0, 1): value * s**p is the element's impedance (side "Z")
    or its admittance (side "Y").  Mechanical rows have no dual, inverse
    or law."""

    domain: str
    storage: bool
    analogue: Tuple[str, bool]
    dual: Optional[Tuple[str, bool]] = None
    inverse: Optional[str] = None
    law: Optional[Tuple[str, int]] = None


KINDS: Dict[str, Kind] = {
    RESISTOR: Kind(ELECTRICAL, False, (DAMPER, True), (RESISTOR, True),
                   RESISTOR, ("Z", 0)),
    INDUCTOR: Kind(ELECTRICAL, True, (SPRING, True), (CAPACITOR, False),
                   CAPACITOR, ("Z", 1)),
    CAPACITOR: Kind(ELECTRICAL, True, (INERTER, False), (INDUCTOR, False),
                    INDUCTOR, ("Y", 1)),
    DAMPER: Kind(MECHANICAL, False, (RESISTOR, True)),
    SPRING: Kind(MECHANICAL, True, (INDUCTOR, True)),
    INERTER: Kind(MECHANICAL, True, (CAPACITOR, False)),
}


@dataclass(frozen=True)
class Element:
    """Two-terminal element, oriented head -> tail as written in the netlist."""

    id: str
    kind: str
    head: str
    tail: str
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", _as_q(self.value))
        if self.kind not in KINDS:
            raise NetworkError(f"unknown element kind {self.kind!r}")
        if self.value <= 0:
            raise NonpositiveValue(f"element {self.id}: value must be positive")
        if self.head == self.tail:
            raise NetworkError(f"element {self.id}: self-loop not allowed")

    def electrical(self) -> Kind:
        """The kind's row of ``KINDS``; NetworkError unless it is electrical."""
        row = KINDS[self.kind]
        if row.domain != ELECTRICAL:
            raise NetworkError(
                f"element {self.id}: {self.kind} has no electrical law")
        return row

    def recast(self, partner: Tuple[str, bool]) -> Element:
        """The same edge as partner = (kind, inverts) of a ``Kind`` row."""
        kind, inverts = partner
        return Element(self.id, kind, self.head, self.tail,
                       1 / self.value if inverts else self.value)

    def is_storage(self) -> bool:
        return KINDS[self.kind].storage


def _check_graph(vertices, elements, port):
    vset = set(vertices)
    if port[0] == port[1]:
        raise MissingPort("port terminals must be distinct")
    for t in port:
        if t not in vset:
            raise MissingPort(f"port terminal {t!r} is not a vertex")
    if not elements:
        raise NetworkError("no element joins the port terminals")
    ids = set()
    for e in elements:
        if e.id in ids:
            raise NetworkError(f"duplicate element id {e.id!r}")
        ids.add(e.id)
        for v in (e.head, e.tail):
            if v not in vset:
                raise NetworkError(f"element {e.id}: unknown vertex {v!r}")
    # connectivity and biconnectivity of the graph *including* the source
    # edge: every element in the source's block, every vertex in its
    # component (once the first holds, a vertex outside it touches no element)
    edges = [(e.head, e.tail, e.id) for e in elements] + [(port[0], port[1], "__source__")]
    component, blocks = _search(vset, edges)
    outside = sorted(eid for block in blocks if "__source__" not in block
                     for eid in block)
    if outside:
        raise NotBiconnected(
            f"element(s) {', '.join(outside)} are not in "
            "the source's biconnected component")
    loose = sorted(v for v in vset if component[v] != component[port[0]])
    if loose:
        raise NotBiconnected(
            f"vertex(es) {', '.join(loose)} are touched by no element")


class Network:
    """Immutable one-port of at least one element; its element kinds all
    lie in one ``domain``."""

    __slots__ = ("vertices", "elements", "port", "domain")

    def __init__(self, vertices: Iterable[str], elements: Iterable[Element],
                 port: Tuple[str, str]):
        vertices = tuple(sorted(set(vertices)))
        elements = tuple(elements)
        port = (port[0], port[1])
        domains = {KINDS[e.kind].domain for e in elements}
        if len(domains) > 1:
            raise NetworkError("cannot mix electrical and mechanical kinds")
        _check_graph(vertices, elements, port)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "port", port)
        object.__setattr__(self, "domain", domains.pop())

    def __setattr__(self, *a):
        raise AttributeError("Network is immutable")

    def element(self, eid: str) -> Element:
        for e in self.elements:
            if e.id == eid:
                return e
        raise KeyError(eid)

    def resistors(self) -> Tuple[Element, ...]:
        return tuple(e for e in self.elements if e.kind == RESISTOR)

    def __eq__(self, other):
        if not isinstance(other, Network):
            return NotImplemented
        return (self.vertices == other.vertices and self.port == other.port
                and sorted(self.elements, key=lambda e: e.id)
                == sorted(other.elements, key=lambda e: e.id))

    def __hash__(self):
        return hash((self.vertices, self.port,
                     tuple(sorted(self.elements, key=lambda e: e.id))))

    def __repr__(self):
        return (f"Network({len(self.elements)} elements, "
                f"port {self.port[0]}->{self.port[1]})")

    def __str__(self):
        return serialize_netlist(self)


@dataclass(frozen=True)
class OnePort:
    """Connected element subset touching the rest of the network (and the
    source) at exactly its two terminal vertices."""

    parent: Network
    element_ids: FrozenSet[str]
    terminals: Tuple[str, str]

    def __post_init__(self):
        object.__setattr__(self, "element_ids", frozenset(self.element_ids))
        if not self.element_ids:
            raise NetworkError("one-port must contain at least one element")
        elems = [self.parent.element(eid) for eid in self.element_ids]
        verts = {v for e in elems for v in (e.head, e.tail)}
        component, _ = _search(verts, [(e.head, e.tail, e.id) for e in elems])
        if set(component.values()) != {0}:
            raise NetworkError("one-port subgraph must be connected")
        boundary = one_port_boundary(self.parent, self.element_ids)
        if boundary != set(self.terminals):
            raise NetworkError(
                f"one-port boundary {sorted(boundary)} does not match "
                f"terminals {sorted(self.terminals)}")

    def elements(self) -> List[Element]:
        return [e for e in self.parent.elements if e.id in self.element_ids]


def one_port_boundary(n: Network, element_ids: Iterable[str]) -> Set[str]:
    """Vertices of the subnetwork where the source or outside elements touch."""
    inside = set(element_ids)
    verts = {v for e in n.elements if e.id in inside for v in (e.head, e.tail)}
    boundary = set()
    for e in n.elements:
        if e.id not in inside:
            for v in (e.head, e.tail):
                if v in verts:
                    boundary.add(v)
    for v in n.port:
        if v in verts:
            boundary.add(v)
    return boundary


# ---------------------------------------------------------------------------
# the graph search (multigraph aware)
# ---------------------------------------------------------------------------

def _search(vertices, edges) -> Tuple[Dict[str, int], List[Set[str]]]:
    """One iterative depth-first search of the multigraph on vertices with
    edges (u, v, id) (Tarjan 1972).  Returns (component, blocks): component
    numbers each vertex's connected component, one number per search root
    counted from 0, and blocks are the biconnected components as sets of
    edge ids; every edge lies in exactly one block."""
    adj: Dict[str, List[Tuple[str, int]]] = {v: [] for v in vertices}
    for idx, (u, v, eid) in enumerate(edges):
        adj[u].append((v, idx))
        adj[v].append((u, idx))
    component: Dict[str, int] = {}
    visited: Dict[str, int] = {}
    low: Dict[str, int] = {}
    blocks: List[Set[str]] = []
    stack_edges: List[int] = []
    roots = counter = 0
    for root in vertices:
        if root in visited:
            continue
        dfs = [(root, None, iter(adj[root]))]
        component[root] = roots
        visited[root] = low[root] = counter
        counter += 1
        while dfs:
            x, in_edge, it = dfs[-1]
            advanced = False
            for (y, idx) in it:
                if idx == in_edge:
                    continue
                if y not in visited:
                    stack_edges.append(idx)
                    component[y] = roots
                    visited[y] = low[y] = counter
                    counter += 1
                    dfs.append((y, idx, iter(adj[y])))
                    advanced = True
                    break
                elif visited[y] < visited[x]:
                    stack_edges.append(idx)
                    low[x] = min(low[x], visited[y])
            if advanced:
                continue
            dfs.pop()
            if dfs:
                px = dfs[-1][0]
                low[px] = min(low[px], low[x])
                if low[x] >= visited[px]:
                    block = set()
                    while True:
                        idx = stack_edges.pop()
                        block.add(edges[idx][2])
                        if idx == in_edge:
                            break
                    blocks.append(block)
        roots += 1
    return component, blocks


def cut_vertices(n: Network) -> Set[str]:
    """Articulation points of the graph including the source edge: none,
    since ``_check_graph`` rejects every network whose graph with the
    source edge is not connected and biconnected."""
    return set()


def is_biconnected(n: Network) -> bool:
    """True: ``_check_graph`` rejects every network whose graph with the
    source edge is not connected and biconnected."""
    return True


# ---------------------------------------------------------------------------
# netlist text format
# ---------------------------------------------------------------------------

# The largest decimal exponent an exact number may carry: Fraction("1eN")
# computes 10**N, and 1e1000 is already far beyond any physical value.
MAX_EXPONENT = 1000


def exact_number(text: str) -> Fraction:
    """The rational literal text (such as 3/2 or 1.5e-3) as a Fraction.
    ValueError when text is not one, or when its decimal exponent exceeds
    MAX_EXPONENT in magnitude; that is checked before 10**N is computed."""
    exponent = text.lower().partition("e")[2]
    try:
        if not exponent or abs(int(exponent)) <= MAX_EXPONENT:
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not an exact number: {text!r}") from None
    raise ValueError(f"exponent beyond {MAX_EXPONENT} in {text!r}")


def parse_netlist(text: str) -> Network:
    """Parse the one-statement-per-line netlist grammar.

    An element statement names a kind of ``KINDS``: R|L|C or
    DAMPER|SPRING|INERTER, not both in one netlist.  '#' starts a comment.
    """
    elements = []
    port = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        head = fields[0].upper()
        if head == "PORT":
            if len(fields) != 3:
                raise NetlistSyntaxError(f"line {lineno}: PORT needs two nodes")
            if port is not None:
                raise NetlistSyntaxError(f"line {lineno}: duplicate PORT")
            port = (fields[1], fields[2])
            continue
        if head not in KINDS:
            raise NetlistSyntaxError(f"line {lineno}: unknown statement {fields[0]!r}")
        if len(fields) != 5:
            raise NetlistSyntaxError(
                f"line {lineno}: expected '{head} <id> <node+> <node-> <value>'")
        try:
            value = exact_number(fields[4])
        except ValueError as exc:
            raise NetlistSyntaxError(f"line {lineno}: {exc}") from None
        if value <= 0:
            raise NonpositiveValue(f"line {lineno}: value must be positive")
        elements.append(Element(fields[1], head, fields[2], fields[3], value))
    if port is None:
        raise MissingPort("netlist has no PORT statement")
    vertices = {v for e in elements for v in (e.head, e.tail)} | set(port)
    return Network(vertices, elements, port)


def serialize_netlist(n: Network) -> str:
    """Deterministic netlist text; inverse of parse_netlist up to whitespace."""
    lines = [f"{e.kind} {e.id} {e.head} {e.tail} {e.value}"
             for e in sorted(n.elements, key=lambda e: (e.kind, e.id))]
    lines.append(f"PORT {n.port[0]} {n.port[1]}")
    return "\n".join(lines) + "\n"


def network_to_json(n: Network) -> str:
    return json.dumps({
        "vertices": list(n.vertices),
        "port": list(n.port),
        "elements": [
            {"id": e.id, "kind": e.kind, "head": e.head, "tail": e.tail,
             "value": str(e.value)}
            for e in n.elements
        ],
    }, indent=2)


def network_from_json(text: str) -> Network:
    """Inverse of network_to_json; values are read by exact_number."""
    data = json.loads(text)
    try:
        elems = [Element(e["id"], e["kind"], e["head"], e["tail"],
                         exact_number(str(e["value"])))
                 for e in data["elements"]]
    except ValueError as exc:
        raise NetlistSyntaxError(str(exc)) from None
    return Network(data["vertices"], elems, tuple(data["port"]))


# ---------------------------------------------------------------------------
# incidence matrix
# ---------------------------------------------------------------------------

def incidence_matrix(n: Network) -> List[List[int]]:
    """Vertex-by-edge incidence matrix; column 0 is the source edge
    (oriented port+ -> port-), then elements in netlist order, oriented
    head -> tail.  Entry -1 when the edge is oriented toward the vertex."""
    rows = {v: [0] * (len(n.elements) + 1) for v in n.vertices}
    rows[n.port[0]][0] = 1
    rows[n.port[1]][0] = -1
    for j, e in enumerate(n.elements, start=1):
        rows[e.head][j] = 1
        rows[e.tail][j] = -1
    return [rows[v] for v in n.vertices]


# ---------------------------------------------------------------------------
# open / short one-ports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OpenCircuit:
    """Degenerate outcome: no element path remains between the terminals."""


@dataclass(frozen=True)
class ShortCircuit:
    """Degenerate outcome: the terminals coincide; impedance identically 0."""


ReducedNetwork = Union[Network, OpenCircuit, ShortCircuit]


def _prune_to_source(elements, port) -> ReducedNetwork:
    """Drop anything outside the source edge's biconnected component;
    classify degenerate outcomes.  When no element path joins the port
    terminals, the source edge is a block by itself and nothing is kept:
    an open circuit."""
    if port[0] == port[1]:
        return ShortCircuit()
    edges = [(e.head, e.tail, e.id) for e in elements]
    edges.append((port[0], port[1], "__source__"))
    vset = {v for e in elements for v in (e.head, e.tail)} | set(port)
    _, blocks = _search(vset, edges)
    keep = next(b for b in blocks if "__source__" in b)
    kept = [e for e in elements if e.id in keep]
    if not kept:
        return OpenCircuit()
    verts = {v for e in kept for v in (e.head, e.tail)} | set(port)
    return Network(verts, kept, port)


def open_oneport(n: Network, p: OnePort) -> ReducedNetwork:
    """Remove the one-port's elements, then prune to the source component."""
    kept = [e for e in n.elements if e.id not in p.element_ids]
    return _prune_to_source(kept, n.port)


def short_oneport(n: Network, p: OnePort) -> ReducedNetwork:
    """Connect the one-port's two terminals, then prune to the source
    component (which removes the one-port's own elements)."""
    t1, t2 = p.terminals

    def ren(v: str) -> str:
        return t1 if v == t2 else v

    kept = [Element(e.id, e.kind, ren(e.head), ren(e.tail), e.value)
            for e in n.elements if ren(e.head) != ren(e.tail)]
    return _prune_to_source(kept, (ren(n.port[0]), ren(n.port[1])))


# ---------------------------------------------------------------------------
# driving-point cut-set / path predicates
# ---------------------------------------------------------------------------

def _require_domain(n: Network, domain: str) -> None:
    if n.domain != domain:
        raise NetworkError(f"{domain} network expected, got {n.domain} kinds")


def _dp_path(n: Network, kinds: Set[str]) -> bool:
    """Whether the elements of the given kinds alone join the terminals."""
    _require_domain(n, ELECTRICAL)
    component, _ = _search(n.vertices, [(e.head, e.tail, e.id)
                                        for e in n.elements if e.kind in kinds])
    return component[n.port[0]] == component[n.port[1]]


def has_C_cutset(n: Network) -> bool:
    """Removal of all capacitors disconnects the terminals (pole at s=0)."""
    return not _dp_path(n, {RESISTOR, INDUCTOR})


def has_L_cutset(n: Network) -> bool:
    """Removal of all inductors disconnects the terminals (pole at s=inf)."""
    return not _dp_path(n, {RESISTOR, CAPACITOR})


def has_C_path(n: Network) -> bool:
    """All-capacitor path between the terminals (zero at s=inf)."""
    return _dp_path(n, {CAPACITOR})


def has_L_path(n: Network) -> bool:
    """All-inductor path between the terminals (zero at s=0)."""
    return _dp_path(n, {INDUCTOR})


# ---------------------------------------------------------------------------
# element-wise transforms
# ---------------------------------------------------------------------------

def _invert_element(e: Element, w2: Fraction) -> Element:
    row = e.electrical()
    value = 1 / (e.value * w2) if row.storage else e.value
    return Element(e.id, row.inverse, e.head, e.tail, value)


def frequency_invert(n: Network, omega0) -> Network:
    """Network whose impedance is H(omega0^2/s): R fixed, L <-> C swapped
    with values v -> 1/(v*omega0^2); topology unchanged."""
    w0 = _as_q(omega0)
    if w0 <= 0:
        raise NetworkError("omega0 must be positive")
    w2 = w0 * w0
    return Network(n.vertices, [_invert_element(e, w2) for e in n.elements], n.port)


def _dual_element(e: Element) -> Element:
    return e.recast(e.electrical().dual)


# -- two-terminal impedance trees (used by dual and the constructors) -------

@dataclass(frozen=True)
class Leaf:
    element: Element


@dataclass(frozen=True)
class Ser:
    parts: Tuple


@dataclass(frozen=True)
class Par:
    parts: Tuple


def ser(*parts):
    flat = []
    for p in parts:
        flat.extend(p.parts if isinstance(p, Ser) else [p])
    return Ser(tuple(flat))


def par(*parts):
    flat = []
    for p in parts:
        flat.extend(p.parts if isinstance(p, Par) else [p])
    return Par(tuple(flat))


def _leaf_ints(law: Tuple[str, int], a: int,
               b: int) -> Tuple[List[int], List[int], int]:
    """``_tree_ints`` of a leaf of value a/b (b > 0) whose kind has the law
    (side, p) of ``Kind``: ([0]*p + [a], [b], b) on the Z side, with num and
    den swapped on the Y side.  The one leaf law of both int routes: the
    tree walk of ``_tree_ints`` and the quartet arms of the fixture checks,
    which give their leaves as int pairs with no ``Element``."""
    side, p = law
    w, d = [0] * p + [a], [b]
    return (w, d, b) if side == "Z" else (d, w, b)


def _series_ints(parts) -> Tuple[List[int], List[int], int]:
    """(num, den, scale) of parts (num, den, scale) in series: the pairs add
    and the scales multiply, since the sum is linear in each part's pair."""
    num, den, scale = parts[0]
    for (n, d, s) in parts[1:]:
        num, den = _add(_mul(num, d), _mul(n, den)), _mul(den, d)
        scale *= s
    return num, den, scale


def _parallel_ints(parts) -> Tuple[List[int], List[int], int]:
    """(num, den, scale) of parts (num, den, scale) in parallel: the
    admittances (den, num) add in series."""
    den, num, scale = _series_ints([(d, n, s) for (n, d, s) in parts])
    return num, den, scale


# explicit stacks below: a ladder's tree is as deep as the ladder is long
def _tree_ints(tree) -> Tuple[List[int], List[int], int]:
    """(num, den, scale): scale times the unreduced (num, den) of a
    two-terminal tree's impedance, as ascending int lists.  A leaf of value
    a/b gives ``_leaf_ints`` of its kind's law, b times its pair; series
    parts add, parallel parts add as admittances, and the scales multiply,
    since the pair is linear in each leaf's (``_series_ints`` and
    ``_parallel_ints``).  The stack holds a (node, its folded parts) frame
    per open node: a leaf part folds where it is met, a node part opens a
    frame of its own, and a frame whose parts are all folded closes into
    its parent's."""
    # a one-part series root folds to the tree's own triple, so a bare
    # leaf is met as a part like any other
    stack = [(Ser((tree,)), [])]
    while True:
        t, parts = stack[-1]
        if len(parts) < len(t.parts):
            p = t.parts[len(parts)]
            if isinstance(p, Leaf):
                e = p.element
                parts.append(_leaf_ints(e.electrical().law, e.value.numerator,
                                        e.value.denominator))
            else:
                stack.append((p, []))
            continue
        stack.pop()
        fold = _series_ints if isinstance(t, Ser) else _parallel_ints
        folded = fold(parts)
        if not stack:
            return folded
        stack[-1][1].append(folded)


def tree_pair(tree) -> Tuple[Polynomial, Polynomial]:
    """Unreduced (num, den) of a two-terminal tree's impedance, no gcd
    taken: ``_tree_ints`` over its scale."""
    num, den, scale = _tree_ints(tree)
    return _poly(num, 1, scale), _poly(den, 1, scale)


def tree_impedance(tree) -> RationalFunction:
    """Impedance of a two-terminal tree, reduced once."""
    return RationalFunction(*tree_pair(tree))


def tree_elements(tree) -> List[Element]:
    """The elements of the tree's leaves, left to right."""
    out, stack = [], [tree]
    while stack:
        t = stack.pop()
        if isinstance(t, Leaf):
            out.append(t.element)
        else:
            stack.extend(reversed(t.parts))
    return out


def dual_tree(tree):
    """The dual tree: Ser and Par swapped, leaves dualized left to right."""
    done, stack = [], [(tree, False)]
    while stack:
        t, ready = stack.pop()
        if isinstance(t, Leaf):
            done.append(Leaf(_dual_element(t.element)))
        elif not ready:
            stack.append((t, True))
            stack.extend((p, False) for p in reversed(t.parts))
        else:
            k = len(t.parts)
            done[-k:] = [(Par if isinstance(t, Ser) else Ser)(tuple(done[-k:]))]
    return done[0]


class _NodeGen:
    def __init__(self, taken: Iterable[str]):
        self.taken = set(taken)
        self.k = 0

    def fresh(self) -> str:
        while True:
            name = f"n{self.k}"
            self.k += 1
            if name not in self.taken:
                self.taken.add(name)
                return name


def _emit_tree(tree, a: str, b: str, gen: _NodeGen, out: List[Element]):
    """Append the tree's elements between a and b to out, depth first; a
    series node takes its interior names from gen before its parts emit."""
    stack = [(tree, a, b)]
    while stack:
        t, u, v = stack.pop()
        if isinstance(t, Leaf):
            e = t.element
            out.append(Element(e.id, e.kind, u, v, e.value))
        elif isinstance(t, Ser):
            nodes = [u] + [gen.fresh() for _ in t.parts[:-1]] + [v]
            stack.extend(reversed(list(zip(t.parts, nodes, nodes[1:]))))
        else:
            stack.extend((p, u, v) for p in reversed(t.parts))


def assemble(edge_trees: Sequence[Tuple[str, str, object]],
             port: Tuple[str, str]) -> Network:
    """Build a Network from (node, node, impedance-tree) entries; series
    interiors get fresh node names."""
    skeleton_nodes = {v for (u, v, _) in edge_trees} | {u for (u, v, _) in edge_trees}
    gen = _NodeGen(skeleton_nodes | set(port))
    out: List[Element] = []
    for (u, v, tree) in edge_trees:
        _emit_tree(tree, u, v, gen, out)
    verts = {v for e in out for v in (e.head, e.tail)} | set(port)
    return Network(verts, out, port)


# -- the non-series-parallel shapes -------------------------------------------
#
# Each shape is a template with its port at vertices a-b: its arm slots in
# assembly order, as (slot, u, v) on template vertices.  The constructors
# assemble a template, ``skeleton`` recognises one, ``dual`` carries one onto
# its dual shape and the bridge matcher reads its arms off one.

SHAPES: Dict[str, Tuple[Tuple[str, str, str], ...]] = {
    # Wheatstone bridge, internal vertices c and d
    "bridge": (("N4", "a", "c"), ("N1", "a", "d"), ("N3", "c", "d"),
               ("N2", "c", "b"), ("N5", "d", "b")),
    # 4-wheel, source on the rim: hub x, rim cycle a-b-q-p-a
    "wheel_rim": (("sa", "x", "a"), ("sb", "x", "b"), ("sp", "x", "p"),
                  ("sq", "x", "q"), ("rap", "a", "p"), ("rbq", "b", "q"),
                  ("rpq", "p", "q")),
    # 4-wheel, source on a spoke: hub a, rim cycle b-r1-r2-r3-b
    "wheel_spoke": (("ar1", "a", "r1"), ("ar2", "a", "r2"), ("ar3", "a", "r3"),
                    ("br1", "b", "r1"), ("br3", "b", "r3"),
                    ("r12", "r1", "r2"), ("r23", "r2", "r3")),
}

# The planar dual of each shape, and of each slot: the slot of the dual
# shape whose arm crosses it.  DUAL_SLOT is its own inverse.
DUAL_SHAPE = {"bridge": "bridge", "wheel_rim": "wheel_spoke",
              "wheel_spoke": "wheel_rim"}
DUAL_SLOT = {x: y for pair in (("N1", "N2"), ("N3", "N3"), ("N4", "N4"),
                               ("N5", "N5"), ("sa", "br3"), ("sb", "br1"),
                               ("sp", "r23"), ("sq", "r12"), ("rap", "ar3"),
                               ("rbq", "ar1"), ("rpq", "ar2"))
             for (x, y) in (pair, pair[::-1])}


def assemble_shape(shape: str, names: Optional[Dict[str, str]] = None,
                   **arms) -> Network:
    """The network with arms[slot] at each slot of shape; a template vertex
    v is named names[v] when given, else v."""
    name = (names or {}).get
    return assemble([(name(u, u), name(v, v), arms[slot])
                     for (slot, u, v) in SHAPES[shape]],
                    (name("a", "a"), name("b", "b")))


def embeddings(edges, port: Tuple[str, str], shape: str):
    """Yield (vertex map, {slot: arm}) for each way to carry the template
    of shape onto skeleton edges (u, v, arm), with its port a-b on port:
    first the port as given, then reversed, and within each the inner
    vertices in sorted order."""
    slots = SHAPES[shape]
    inner = sorted({x for (u, v, _) in edges for x in (u, v)} - set(port))
    tinner = sorted({x for (_, u, v) in slots for x in (u, v)} - {"a", "b"})
    if len(edges) != len(slots) or len(inner) != len(tinner):
        return
    lookup = {frozenset((u, v)): t for (u, v, t) in edges}
    for (a, b) in (port, port[::-1]):
        for image in permutations(inner):
            vmap = dict(zip(tinner, image), a=a, b=b)
            pairs = [frozenset((vmap[u], vmap[v])) for (_, u, v) in slots]
            if all(p in lookup for p in pairs):
                yield vmap, {s: lookup[p] for ((s, _, _), p) in zip(slots, pairs)}


def skeleton(n: Network):
    """Reduce parallel bundles and internal degree-2 chains to composite
    arms; return (edges, kind) where edges are (u, v, tree) on the reduced
    vertex set and kind classifies the shape: "sp" (a single arm between
    the port vertices), a shape of ``SHAPES`` that embeds onto the edges,
    or "other"."""
    a, b = n.port
    edges: List[Tuple[str, str, object]] = [(e.head, e.tail, Leaf(e))
                                            for e in n.elements]
    changed = True
    while changed:
        changed = False
        bundles: Dict[FrozenSet[str], List[int]] = {}
        for i, (u, v, _) in enumerate(edges):
            bundles.setdefault(frozenset((u, v)), []).append(i)
        for pair, idxs in bundles.items():
            if len(idxs) > 1:
                u, v, _ = edges[idxs[0]]
                merged = par(*(edges[i][2] for i in idxs))
                edges = [e for i, e in enumerate(edges) if i not in idxs]
                edges.append((u, v, merged))
                changed = True
                break
        if changed:
            continue
        deg: Dict[str, List[int]] = {}
        for i, (u, v, _) in enumerate(edges):
            deg.setdefault(u, []).append(i)
            deg.setdefault(v, []).append(i)
        for v, idxs in deg.items():
            if v in (a, b) or len(idxs) != 2:
                continue
            i1, i2 = idxs
            (u1, v1, t1), (u2, v2, t2) = edges[i1], edges[i2]
            x = v1 if u1 == v else u1
            y = v2 if u2 == v else u2
            if x == y:
                # would create a self-loop; leave for "other"
                continue
            edges = [e for i, e in enumerate(edges) if i not in (i1, i2)]
            edges.append((x, y, ser(t1, t2)))
            changed = True
            break
    if len(edges) == 1 and {edges[0][0], edges[0][1]} == {a, b}:
        return edges, "sp"
    return edges, next((s for s in SHAPES
                        if next(embeddings(edges, n.port, s), None)), "other")


def sp_tree(n: Network):
    """Series-parallel tree of the whole network, or None if not SP: the
    single arm that ``skeleton`` reduces a series-parallel network to."""
    edges, kind = skeleton(n)
    return edges[0][2] if kind == "sp" else None


def dual(n: Network) -> Network:
    """Dual network with impedance 1/H(s).

    Supported: series-parallel networks and the shapes of ``SHAPES`` with
    series-parallel arms; other topologies raise NotPlanarDualizable.  The
    dual arm of each slot goes to its dual slot in the dual shape.  A
    bridge's dual keeps the network's vertex names; a wheel's dual takes
    the dual template's names, its port renamed da-db."""
    edges, kind = skeleton(n)
    if kind == "sp":
        return assemble([(n.port[0], n.port[1], dual_tree(edges[0][2]))],
                        n.port)
    if kind == "other":
        raise NotPlanarDualizable(
            "dual is implemented for series-parallel, bridge, and wheel shapes")
    vmap, arms = next(embeddings(edges, n.port, kind))
    shape = DUAL_SHAPE[kind]
    names = vmap if shape == kind else {"a": "da", "b": "db"}
    return assemble_shape(shape, names, **{
        DUAL_SLOT[slot]: dual_tree(arm) for slot, arm in arms.items()})


# ---------------------------------------------------------------------------
# mechanical analogy (force-current)
# ---------------------------------------------------------------------------

def _analogue(n: Network, domain: str) -> Network:
    """Force-current analogue of a network whose kinds lie in domain."""
    _require_domain(n, domain)
    return Network(n.vertices,
                   [e.recast(KINDS[e.kind].analogue) for e in n.elements], n.port)


def to_mechanical(n: Network) -> Network:
    """R -> damper c=1/R, L -> spring k=1/L, C -> inerter b=C; topology kept."""
    return _analogue(n, ELECTRICAL)


def from_mechanical(m: Network) -> Network:
    """Damper c -> R=1/c, spring k -> L=1/k, inerter b -> C=b; topology kept."""
    return _analogue(m, MECHANICAL)


def report_grounded_capacitors(n: Network) -> Dict[str, bool]:
    """Which capacitors touch the ground terminal (port minus); these are
    the inerters replaceable by masses under the analogy."""
    _require_domain(n, ELECTRICAL)
    ground = n.port[1]
    return {e.id: ground in (e.head, e.tail)
            for e in n.elements if e.kind == CAPACITOR}
