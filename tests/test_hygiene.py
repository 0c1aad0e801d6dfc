"""Source hygiene: no unused imports, no unreferenced helpers, no
environment knobs and no floating-point arithmetic in prsyn.

Every module of ``src/prsyn`` except ``__init__.py`` (whose imports are the
public API) must use each name it imports.  Every module-level function
must be exported by ``__init__``, referenced elsewhere in ``src/`` or in
``perfbench/``, or be one of the few oracles that only the tests compare
the engine with; a function that only the tests call is unused code.  Every
module-level constant must be referenced somewhere in ``src/`` or
``tests/`` besides its own assignment.  No module reads the environment,
none calls ``complex``, and only the CLI ``check`` formatter calls
``float``, to print a minimum frequency whose square is irrational.  The
one fraction-free elimination loop, ``_eliminate``, is named only by its
two entry points in the elimination section of ``polyrat``: the leading
minors and the determinant of one pass over Z, Z[s] or Z[x]
(``leading_minors``) run its forward half, and the solves (``solve``) its
back half too, over Z on cleared rows and over Z[j] on the phasor rows
that ``analysis`` stamps there, so no second elimination loop runs beside
it.  Every ring of that section runs on bare ints: an element of Z[s],
Z[x] or Z[j] is one trimmed int list, so no function of the section
calls ``Polynomial``, ``Fraction`` (or its alias ``Q``), ``QComplex``,
``_poly`` or ``_new``; nor does the fixture route, which runs on the same int lists from the
bridge builds to the verdict, and which builds no ``Element`` or ``Leaf``
either: ``synth._quartet_arms`` (the one quartet arm table, its leaf
values int pairs from ``synth._arm_leaf``, N11/N12's arm N1 from
``synth._n1112_arm``), ``synth._arm_ints`` (an arm's
pair, by the leaf, series and parallel laws ``network._leaf_ints``,
``_series_ints`` and ``_parallel_ints`` that the tree walk
``network._tree_ints`` shares), ``synth.bridge_structural_polys`` (the
Kirchhoff cofactors of arm N1, over terms grouped once at import) and
``synth._with_n1`` (the bridge pair they give with N1's),
``synth._quartet_polys`` (a member's pair over its scale),
``synth._n1112_pair_at`` (an N11/N12 member's pairs, N1 alone rebuilt),
``synth._coefficients_in_x`` (the pair's coefficients in x, from builds
at integer nodes), ``polyrat._interpolate`` (integer points, an int
numerator over one int), ``polyrat._bezout_rows`` (the hybrid Bezout
rows of a pair, in the ring of its sequences), ``polyrat._sylvester_r0_r1``
and ``polyrat._subresultant`` (answers in that ring, Z or Z[x]), and
then ``synth._check_q8`` and ``synth._check_n11_n12`` (their closed forms,
each an int list over one int), ``synth._factorization_check`` (its
exact divisions), ``synth._int_sqrt`` (Q8's f1) and
``synth._sylvester_nominal`` (the nominal resultant of f1 and f2,
compared with rhs cross-multiplied).  Four
readers call ``leading_minors``: ``analysis.impedance`` over Z[s], the
one elimination of the nodal matrix; ``analysis._char_poly``, det(sI - A)
as the det of one pass over Z[s]; ``polyrat._sylvester_r0_r1``, which
reads R_0 and R_1 of a pair, R_0(x) and R_1(x) of a fixture pair over
Z[x], off one pass over the hybrid Bezout rows; and
``polyrat._subresultant``, one R_k as the det of one pass over their
leading block, which every other Sylvester determinant is.  Only
``synth._coefficients_in_x`` interpolates, reading a fixture pair's
coefficients in x off a few bridge builds; no check interpolates sampled
values of its answer.  Likewise
two ``while`` loops divide: ``_remainders``, the primitive remainder
sequence on int lists that ``sturm_chain``, the Routh rows of
``strict_hurwitz`` and the gcd's fallback read; and ``_gcd``, the
heuristic gcd that rebuilds a candidate from its digits in base xi, which
``Polynomial.gcd``, every reduction of a ``RationalFunction`` and the PR
test's odd part read, and which hands back the cofactors that its exact
division check computed, so ``_odd_part``, Yun's square-free
decomposition, and the reduction divide by no gcd again.  The real-root code reads gcd(p, p')
off the Sturm chain rather than running a gcd.  The root section runs
on the same int lists, so its helpers (``_remainders``, ``_primitive``,
``_gcd``, ``_derivative``, ``sturm_chain``, ``_square_free_chain``,
``_sign_at``, ``_variations``, ``_odd_part``, ``_taylor_shift``,
``_sign_variations``, ``_odd_positive_root``, ``_has_imaginary_axis_root``
and ``strict_hurwitz``) build no ``Polynomial`` or ``Fraction``.  The state space is read
over Z too: one integer Krylov sequence per model, kept on the
``StateSpace`` (``analysis._ab_sequence``), its columns (``_krylov``) and
annihilator ints (``_annihilator``), and Markov parameters summed over Z
in ``ss_impedance``, which builds its two polynomials once, through
``_poly``; none of them calls ``Fraction``, ``Q`` or ``Polynomial``.  ``Polynomial`` is the
one polynomial class of ``polyrat``, and the one class with division.  In the graph code of ``network`` and ``analysis`` exactly
one function runs a stack loop over the graph: the depth-first search
``_search``, which gives both the connected components and the blocks;
the only other stack loops there walk a series-parallel tree
(``_tree_ints``, ``tree_elements``, ``dual_tree`` and ``_emit_tree``).
No function calls itself, so no input's depth meets the recursion limit,
except the two builders whose recursion is one level deep.  Only
``network`` names the bare-port error: the one place a one-port without
an element is refused.  In ``synth`` only
``bridge_structural_polys``, the one bridge evaluator, reads the bridge's
spanning-tree tables ``_TREE_OFF`` and ``_TWOTREE_OFF``.  No function
takes a ``True``/``False`` default: a
boolean mode switch is a second function hidden in the first.  No
module holds an ``assert``: the invariant checks raise
``InvariantViolation``, which ``python -O`` does not strip.  ``solve``
answers in the ring of its rows and ``energy_balance`` sums ints, so
neither builds a ``QComplex``.  The checks read the sources with ``ast``;
nothing is imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prsyn"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
# what keeps a function alive: the package itself and the benchmark
CALLERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
# functions that only the tests call: independent references the engine's
# answers are compared with (series-parallel reduction, a JSON round trip)
ORACLES = {"impedance_series_parallel", "network_to_json", "network_from_json"}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree):
    """Names read anywhere under a node, as identifiers, attribute names or
    names bound by a from-import (a re-export or a test's import)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


def test_no_unused_imports():
    unused = []
    for path in MODULES:
        tree = _tree(path)
        loads = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in loads:
                        unused.append(f"{path.name}: {bound}")
    assert unused == []


def test_every_module_function_is_referenced():
    # (file, enclosing top-level function or None, name): a function that
    # only calls itself is not referenced, and a reference from tests/
    # alone does not count
    refs = set()
    for path in CALLERS:
        for top in _tree(path).body:
            owner = getattr(top, "name", None)
            refs |= {(path, owner, name) for name in _used_names(top)}
    unreferenced = []
    for path in MODULES:
        for fn in _tree(path).body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name not in ORACLES and not any(
                    name == fn.name and (where, owner) != (path, fn.name)
                    for where, owner, name in refs):
                unreferenced.append(f"{path.name}: {fn.name}")
    assert unreferenced == []


def _assigned_names(top):
    """Names a module-level assignment binds, dunders left out."""
    targets = (top.targets if isinstance(top, ast.Assign)
               else [top.target] if isinstance(top, ast.AnnAssign) else [])
    return {t.id for t in targets
            if isinstance(t, ast.Name) and not t.id.startswith("__")}


def test_every_module_constant_is_referenced():
    # a constant read only by its own assignment is not referenced
    refs = [(path, top, _used_names(top))
            for path in SOURCES for top in _tree(path).body]
    unreferenced = []
    for path in MODULES:
        for top in _tree(path).body:
            for name in sorted(_assigned_names(top)):
                if not any(name in used and (where, node.lineno)
                           != (path, top.lineno)
                           for where, node, used in refs):
                    unreferenced.append(f"{path.name}: {name}")
    assert unreferenced == []


def _calls(node, names):
    """Line numbers of calls to the builtins ``names`` under node."""
    return [c.lineno for c in ast.walk(node)
            if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
            and c.func.id in names]


def test_no_environment_knobs():
    # behaviour is set by arguments only, never by the environment
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Attribute)
                    and node.attr in ("environ", "getenv")
                    or isinstance(node, ast.ImportFrom)
                    and node.module == "os"):
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []


# the one function that calls float: the CLI check formatter prints a
# minimum frequency whose square is irrational as an approximate float
FLOAT_PRINT = ("cli.py", "_cmd_check")


def test_no_float_arithmetic():
    found = []
    for path in MODULES:
        for top in _tree(path).body:
            names = {"float", "complex"}
            if (path.name, getattr(top, "name", None)) == FLOAT_PRINT:
                names = {"complex"}
            found += [f"{path.name}:{line}" for line in _calls(top, names)]
    assert found == []


# the entry points of the one elimination loop: int, Z[s] or Z[x] rows
# forward (the leading minors and the determinant), int or Z[j] rows
# forward and back (the solve)
BAREISS_ENTRY_POINTS = {("src/prsyn/polyrat.py", "leading_minors"),
                        ("src/prsyn/polyrat.py", "solve")}


def test_bareiss_named_only_by_its_entry_points():
    # no call, import or alias of _eliminate anywhere else in src/ or tests/
    found = set()
    for path in SOURCES:
        for top in _tree(path).body:
            if "_eliminate" in _used_names(top):
                found.add((path.relative_to(ROOT).as_posix(),
                           getattr(top, "name", None)))
    assert found == BAREISS_ENTRY_POINTS


# the readers of one forward pass: the impedance's leading minors, the one
# elimination of the nodal matrix over Z[s]; the characteristic polynomial
# of the state space, the det of one pass over Z[s]; R_0 and R_1 of a
# pair, over Z or Z[x], off one pass over its hybrid Bezout rows; and one
# R_k, the det of a pass over their leading block, which every other
# Sylvester determinant is
LEADING_MINOR_CALLERS = {("analysis.py", "impedance"),
                         ("analysis.py", "_char_poly"),
                         ("polyrat.py", "_sylvester_r0_r1"),
                         ("polyrat.py", "_subresultant")}


def _callers(name):
    """(module, top-level name) of every top-level statement in src/ that
    calls name, by a plain or an attribute call."""
    found = set()
    for path in MODULES:
        for top in _tree(path).body:
            if any(isinstance(c, ast.Call) and name
                   in (getattr(c.func, "id", None),
                       getattr(c.func, "attr", None))
                   for c in ast.walk(top)):
                found.add((path.name, getattr(top, "name", None)))
    return found


def test_leading_minors_called_only_by_its_readers():
    # a call of leading_minors anywhere else in src/ is a second
    # determinant route, or a second subresultant reader
    assert _callers("leading_minors") == LEADING_MINOR_CALLERS


# the one caller of _interpolate: a fixture pair's coefficients in x, from
# the bridge at a few integer nodes
INTERPOLATE_CALLERS = {("synth.py", "_coefficients_in_x")}


def test_no_qcomplex_in_the_solve_or_the_energy_balance():
    # the solve returns numerators over its last pivot and the energy
    # balance reads the public fields as ints: a QComplex built in either
    # is the per-entry Fraction work that the Z[j] route removed
    built = _callers("QComplex")
    assert ("polyrat.py", "solve") not in built
    assert ("analysis.py", "energy_balance") not in built
    # the pin still sees the one place that fills PhasorSolution
    assert ("analysis.py", "_phasor_draw") in built


def test_no_assert_in_prsyn():
    # an assert vanishes under python -O; the invariants raise
    # InvariantViolation instead, in every module
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert found == []


# what the elimination section of polyrat may not build: its rings run on
# bare ints, so a call of these is an object back inside the kernel
# (Q is polyrat's alias of Fraction)
KERNEL_OBJECTS = {"Polynomial", "Fraction", "Q", "QComplex", "_poly", "_new"}


def _section_functions(path, title):
    """The top-level functions of the section of path whose header comment
    starts with title, up to the next section's header."""
    lines = path.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith(f"# {title}"))
    rules = [i for i, line in enumerate(lines[start:], start)
             if line.startswith("# ---")]
    end = rules[1] if len(rules) > 1 else len(lines)
    return [top for top in _tree(path).body
            if isinstance(top, ast.FunctionDef) and start < top.lineno <= end]


def _object_calls(fns, names=KERNEL_OBJECTS):
    """Each call of a name in names in the functions fns, as name:line."""
    return [f"{fn.name}:{c.lineno}" for fn in fns for c in ast.walk(fn)
            if isinstance(c, ast.Call) and (getattr(c.func, "id", None)
                                            or getattr(c.func, "attr", None))
            in names]


def test_no_objects_in_the_elimination_kernel():
    fns = _section_functions(PACKAGE / "polyrat.py", "Exact elimination")
    # the pin still sees the loop, its three ring steps and entry points
    assert {"_eliminate", "_step_int", "_step_poly", "_step_gauss",
            "leading_minors", "solve"} <= {fn.name for fn in fns}
    assert _object_calls(fns) == []


# the fixture route on int lists, from the bridge builds to the verdict:
# the quartet arm table and its int-pair leaves (N11/N12's arm N1 among
# them), each arm's pair by the leaf, series and parallel laws that the
# tree walk shares, the Kirchhoff cofactors of N1 and the bridge pair they
# give, a quartet member's pair over its scale, an N11/N12 member's pairs
# with N1 alone rebuilt, the coefficients in x, their interpolation, the
# hybrid Bezout rows and the Z[x] passes, and then the closed forms of the
# Q8 and N11/N12 checks, the exact divisions, the square root and the
# nominal resultant of the factorization check
BRIDGE_BUILDS = {("network.py", "_tree_ints"),
                 ("network.py", "_leaf_ints"),
                 ("network.py", "_series_ints"),
                 ("network.py", "_parallel_ints"),
                 ("synth.py", "_quartet_arms"),
                 ("synth.py", "_n1112_arm"),
                 ("synth.py", "_arm_leaf"),
                 ("synth.py", "_arm_ints"),
                 ("synth.py", "bridge_structural_polys"),
                 ("synth.py", "_with_n1"),
                 ("synth.py", "_quartet_polys"),
                 ("synth.py", "_n1112_pair_at"),
                 ("synth.py", "_coefficients_in_x"),
                 ("synth.py", "_int_sqrt"),
                 ("synth.py", "_sylvester_nominal"),
                 ("synth.py", "_factorization_check"),
                 ("synth.py", "_check_q8"),
                 ("synth.py", "_check_n11_n12"),
                 ("polyrat.py", "_interpolate"),
                 ("polyrat.py", "_bezout_rows"),
                 ("polyrat.py", "_sylvester_r0_r1"),
                 ("polyrat.py", "_subresultant")}


def test_no_objects_in_the_bridge_builds():
    # a Polynomial or Fraction built per arm, per Kirchhoff term, per
    # coefficient or per closed form is the round trip through Q[x] that
    # the int lists removed, and an Element or Leaf per arm the validated
    # route that only build_quartet takes; the Q8 and N11/N12 checks build
    # no Polynomial from the bridge to the verdict
    fns = [top for module, name in BRIDGE_BUILDS
           for top in _tree(PACKAGE / module).body
           if isinstance(top, ast.FunctionDef) and top.name == name]
    assert len(fns) == len(BRIDGE_BUILDS)
    assert _object_calls(fns, KERNEL_OBJECTS | {"Element", "Leaf",
                                                "_leaf"}) == []


def test_interpolate_called_only_by_the_coefficients_in_x():
    # a call of _interpolate anywhere else in src/ is a check read off
    # sampled values of its answer, where one exact pass can give the
    # identity itself
    assert _callers("_interpolate") == INTERPOLATE_CALLERS


def test_spanning_tree_tables_read_only_by_the_bridge_evaluator():
    # no second Kirchhoff route over the bridge: outside their own
    # assignments, the tree and 2-tree complement tables are read in src/
    # only by bridge_structural_polys
    tables = {"_TREE_OFF", "_TWOTREE_OFF"}
    found = set()
    for path in MODULES:
        for top in _tree(path).body:
            reads = set()
            for node in ast.walk(top):
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                        node.ctx, ast.Load):
                    reads.add(node.id if isinstance(node, ast.Name)
                              else node.attr)
                elif isinstance(node, ast.ImportFrom):
                    reads.update(alias.name for alias in node.names)
            if reads & tables:
                found.add((path.name, getattr(top, "name", None)))
    assert found == {("synth.py", "bridge_structural_polys")}


# the one remainder loop, which the Sturm chain (whose last member is
# gcd(p, p') for the root code), the Routh rows and the gcd's fallback read;
# and the heuristic gcd, whose loop rebuilds a candidate from its digits in
# base xi and checks it by exact division.  Yun's loop of the PR test's
# odd part reads the gcd's cofactors, so it divides nothing itself
PREM_LOOPS = {("polyrat.py", "_remainders"), ("polyrat.py", "_gcd")}


def _divides(node) -> bool:
    """Whether node calls _divide, divmod or a prem, or applies % or //."""
    return (isinstance(node, ast.Call) and (getattr(node.func, "id", None)
                                            or getattr(node.func, "attr", None))
            in ("_divide", "divmod", "prem")
            or isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, (ast.Mod, ast.FloorDiv)))


def test_one_remainder_loop():
    # a `while` loop that divides, anywhere else in src/, is a second
    # remainder sequence or a second gcd
    found = set()
    for path in MODULES:
        for top in _tree(path).body:
            owners = ([(f"{top.name}.{getattr(fn, 'name', None)}", fn)
                       for fn in top.body]
                      if isinstance(top, ast.ClassDef)
                      else [(getattr(top, "name", None), top)])
            for owner, node in owners:
                if any(isinstance(loop, ast.While)
                       and any(map(_divides, ast.walk(loop)))
                       for loop in ast.walk(node)):
                    found.add((path.name, owner))
    assert found == PREM_LOOPS


# the root section on int lists: the remainder loop, the heuristic gcd and
# its primitive parts, and what reads them, the PR test's odd part and
# Descartes bisection included
ROOT_HELPERS = {"_remainders", "_primitive", "_gcd", "_derivative",
                "sturm_chain", "_square_free_chain", "_sign_at", "_variations",
                "_odd_part", "_taylor_shift", "_sign_variations",
                "_odd_positive_root", "_has_imaginary_axis_root",
                "strict_hurwitz"}


def test_no_objects_in_the_root_helpers():
    # a Polynomial (or Fraction) built per chain member, per remainder, per
    # gcd candidate or per sign is the object route that the int lists
    # removed; the public functions read .prim once, at entry
    fns = [top for top in _tree(PACKAGE / "polyrat.py").body
           if isinstance(top, ast.FunctionDef) and top.name in ROOT_HELPERS]
    assert len(fns) == len(ROOT_HELPERS)
    assert _object_calls(fns) == []


# the state-space route on bare ints: the model's one (A, B) sequence, its
# Krylov columns and annihilator ints, and the impedance summed over Z
STATE_SPACE_INTS = {"_ab_sequence", "_krylov", "_annihilator",
                    "ss_impedance"}


def test_no_fractions_in_the_state_space_route():
    # a Fraction built per Markov parameter or per coefficient, or a
    # Polynomial per annihilator, is the object route that the int Krylov
    # columns removed; ss_impedance builds its two polynomials with _poly
    # in its return, once each
    fns = [top for top in _tree(PACKAGE / "analysis.py").body
           if isinstance(top, ast.FunctionDef) and top.name in STATE_SPACE_INTS]
    assert len(fns) == len(STATE_SPACE_INTS)
    assert _object_calls(fns, {"Polynomial", "Fraction", "Q"}) == []
    [impedance] = [fn for fn in fns if fn.name == "ss_impedance"]
    returned = impedance.body[-1]
    assert isinstance(returned, ast.Return)

    def polys(node):
        return [c for c in ast.walk(node) if isinstance(c, ast.Call)
                and getattr(c.func, "id", None) == "_poly"]

    assert len(polys(impedance)) == len(polys(returned)) == 2


# the classes of polyrat with arithmetic, one per number type: QComplex for
# Q(j), Polynomial for Q[s] and RationalFunction for Q(s).  The rings of
# the elimination loop, Z[s], Z[x] and Z[j], are int lists, not classes
ARITHMETIC_CLASSES = {"QComplex", "Polynomial", "RationalFunction"}
EUCLIDEAN_CLASSES = {"Polynomial"}


def test_one_polynomial_type():
    # a second polynomial class, such as an integer kernel beside
    # Polynomial, fails: only Polynomial has division with remainder
    arithmetic, euclidean = set(), set()
    for top in _tree(PACKAGE / "polyrat.py").body:
        if isinstance(top, ast.ClassDef):
            defs = {n.name for n in top.body if isinstance(n, ast.FunctionDef)}
            if defs & {"__add__", "__sub__", "__mul__"}:
                arithmetic.add(top.name)
            if defs & {"__divmod__", "prem", "gcd"}:
                euclidean.add(top.name)
    assert arithmetic == ARITHMETIC_CLASSES and euclidean == EUCLIDEAN_CLASSES


# the one graph search, which numbers the components and lists the blocks:
# no other stack loop in the graph code of network and analysis, and no
# fewer (a lost search means the pin itself has gone stale)
GRAPH_WALKS = {("network.py", "_search")}
# stack loops over a series-parallel tree, not the graph: a ladder's tree
# is as deep as the ladder is long
TREE_WALKS = {("network.py", "_tree_ints"), ("network.py", "tree_elements"),
              ("network.py", "dual_tree"), ("network.py", "_emit_tree")}


def test_one_graph_walk():
    # a `while` loop that calls .pop() is a hand-written DFS
    found = set()
    for name in ("network.py", "analysis.py"):
        for top in _tree(PACKAGE / name).body:
            for loop in ast.walk(top):
                if isinstance(loop, ast.While) and any(
                        isinstance(c, ast.Call)
                        and isinstance(c.func, ast.Attribute)
                        and c.func.attr == "pop" for c in ast.walk(loop)):
                    found.add((name, getattr(top, "name", None)))
    assert found == GRAPH_WALKS | TREE_WALKS


# functions that call themselves: the seven-element and named builders
# recurse one level, on the mirrored step or the inverted parameters
SELF_CALLS = {("synth.py", "build_seven_element"), ("synth.py", "build_named")}


def test_no_unbounded_recursion():
    # a function that calls itself by name runs as deep as its input: a
    # long ladder's tree is nested past the recursion limit
    found = set()
    for path in MODULES:
        for top in _tree(path).body:
            if isinstance(top, ast.FunctionDef) and any(
                    isinstance(c, ast.Call)
                    and getattr(c.func, "id", None) == top.name
                    for c in ast.walk(top)):
                found.add((path.name, top.name))
    assert found == SELF_CALLS


BARE_PORT = "no element joins the port terminals"


def test_bare_port_named_only_by_network():
    # one module decides that a one-port needs an element; a second copy
    # of the message is a second check of the same case
    found = {path.name for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.Constant) and node.value == BARE_PORT}
    assert found == {"network.py"}


def test_no_boolean_default_parameters():
    # a True/False default is a mode switch inside one function; a second
    # behaviour gets its own function or caller instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
                found += [f"{path.name}:{fn.lineno}"
                          for d in fn.args.defaults + fn.args.kw_defaults
                          if isinstance(d, ast.Constant)
                          and isinstance(d.value, bool)]
    assert found == []
