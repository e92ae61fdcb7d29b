"""Source hygiene: no module of the package imports a name it never uses,
keeps a private helper nothing calls, holds an unbounded cache or
state a caller must open (a `contextvars` scope), one
function owns the eigendecomposition, propagators stay factored, the exact
generator route and the optomech mirror stay off the truncated basis, the
coherent-superposition builder forms no quadrature per state build, no
block of N identical queries is applied one query at a time, and neither
the dimension-doubling loop nor the homodyne readout takes a finite
difference, the coherent superposition decomposes only its + branch
generator, a spectrum on another spectrum's basis is derived, never
checked again, and no other module reads a private name of `strategies`."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "cvmet"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nc()\n") == ["b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unreferenced_private_defs(sources: dict) -> list:
    """(module, name) of every top-level `_private` def that no module of
    `sources` names outside the def's own body: a leftover helper."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    found = []
    for module, tree in trees.items():
        for fn in tree.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
                    and not fn.name.startswith("__")):
                continue
            own = {id(node) for node in ast.walk(fn)}
            if not any(fn.name in (getattr(node, "id", None), getattr(node, "attr", None),
                                   node.name if isinstance(node, ast.alias) else None)
                       and id(node) not in own
                       for other in trees.values() for node in ast.walk(other)):
                found.append((module, fn.name))
    return sorted(found)


def test_checker_flags_an_unreferenced_private_def():
    sources = {"a.py": ("def _used():\n    pass\n"
                        "def _imported():\n    pass\n"
                        "def _recursive(n):\n    return _recursive(n - 1)\n"
                        "def _dead():\n    pass\n"
                        "def public():\n    pass\n"),
               "b.py": "from . import a\nfrom .a import _imported\nx = a._used\n"}
    assert unreferenced_private_defs(sources) == [("a.py", "_dead"), ("a.py", "_recursive")]


def test_every_private_def_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_defs(sources) == []


def unbounded_caches(source: str) -> list:
    """Line of every functools cache that names no explicit integer maxsize:
    `functools.cache`, a bare or empty `lru_cache`, or `maxsize=None`."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "functools"
                for alias in node.names}

    def functools_name(node):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
            return node.attr
        return imported.get(node.id) if isinstance(node, ast.Name) else None

    bounded = set()
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and functools_name(call.func) == "lru_cache":
            size = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
            if size and isinstance(size[0], ast.Constant) and type(size[0].value) is int:
                bounded.add(id(call.func))
    return sorted(node.lineno for node in ast.walk(tree)
                  if functools_name(node) in ("cache", "lru_cache") and id(node) not in bounded)


def test_checker_flags_an_unbounded_cache():
    source = ("import functools\nfrom functools import lru_cache as lru\n"
              "@functools.cache\ndef a(): pass\n"
              "@functools.lru_cache\ndef b(): pass\n"
              "@functools.lru_cache()\ndef c(): pass\n"
              "@lru(maxsize=None)\ndef d(): pass\n"
              "@functools.lru_cache(maxsize=8)\ndef e(): pass\n"
              "@lru(16)\ndef f(): pass\n"
              "cache = {}\n")
    assert unbounded_caches(source) == [3, 5, 7, 9]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    """A cache without a bound grows for the life of the process; what the
    rows of a sweep share (the quadrature and branch spectra of
    `strategies`) lives in caches of a few entries."""
    assert unbounded_caches(path.read_text(encoding="utf-8")) == []


def caller_opened_state(source: str) -> list:
    """Line of every `contextvars` import and of every module-level
    assignment that calls a `ContextVar`."""
    tree = ast.parse(source)
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             and any(alias.name.split(".")[0] == "contextvars" for alias in node.names)
             or isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "contextvars"]
    found += [node.lineno for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
              and any(isinstance(call, ast.Call)
                      and ast.unparse(call.func).split(".")[-1] == "ContextVar"
                      for call in ast.walk(node))]
    return sorted(found)


def test_checker_flags_caller_opened_state():
    source = ("import contextvars\nimport contextvars as cv\n"
              "from contextvars import ContextVar\nimport functools\n"
              "_A = cv.ContextVar('a', default=None)\n"
              "_B: object = ContextVar('b')\n"
              "def f():\n    return functools.reduce\n")
    assert caller_opened_state(source) == [1, 2, 3, 5, 6]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_holds_caller_opened_state(path):
    """What calls share lives in bounded caches that no caller sees, never
    in a scope that each caller must remember to open."""
    assert caller_opened_state(path.read_text(encoding="utf-8")) == []


def test_every_config_key_is_read_by_the_cli():
    """A DEFAULT_CONFIG key that cli.py never names outside the literal is a
    dead knob: settable, defaulted, and ignored."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    literal = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "DEFAULT_CONFIG" for t in node.targets))
    inside = {id(node) for node in ast.walk(literal)}
    named = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)
             and isinstance(node.value, str) and id(node) not in inside}
    keys = {key.value for node in ast.walk(literal) if isinstance(node, ast.Dict)
            for key in node.keys}
    assert keys - named == set()


def eigh_sites(source: str) -> list:
    """Enclosing function of every reference to `eigh`: a call through
    `np.linalg.eigh`, a bare name, or an import of the name."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            if ((isinstance(child, ast.Attribute) and child.attr == "eigh")
                    or (isinstance(child, ast.Name) and child.id == "eigh")
                    or (isinstance(child, ast.alias) and child.name == "eigh")):
                sites.append(function)
            visit(child, inner)

    visit(ast.parse(source), None)
    return sites


def test_checker_finds_every_eigh_site():
    source = ("import numpy as np\nfrom numpy.linalg import eigh\n"
              "def f(h):\n    return np.linalg.eigh(h)\n"
              "def g(h):\n    return eigh(h)\n")
    assert eigh_sites(source) == [None, "f", "g"]


def test_spectrum_owns_the_only_eigh():
    """One propagator path: every eigendecomposition goes through
    `cvspace.spectrum`, where the real solver and the caches' callers meet."""
    sites = [(path.name, site) for path in sorted(PACKAGE.glob("*.py"))
             for site in eigh_sites(path.read_text(encoding="utf-8"))]
    assert sites == [("cvspace.py", "spectrum")]


FACTORED = ("propagator", "exp_antihermitian")


def _is_factored(node, bound) -> bool:
    """A call of a FACTORED function, or a name bound to one in this function."""
    if isinstance(node, ast.Name):
        return node.id in bound
    if isinstance(node, ast.Call):
        func = node.func
        return getattr(func, "id", getattr(func, "attr", None)) in FACTORED
    return False


def dense_propagator_sites(source: str) -> list:
    """Enclosing function of every `.mat` read on a propagator or
    exp_antihermitian result, called inline or bound to a local name."""
    sites = []

    def visit(node, function, bound):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name, set())
                continue
            if isinstance(child, ast.Assign) and _is_factored(child.value, ()):
                bound.update(t.id for t in child.targets if isinstance(t, ast.Name))
            if (isinstance(child, ast.Attribute) and child.attr == "mat"
                    and _is_factored(child.value, bound)):
                sites.append(function)
            visit(child, function, bound)

    visit(ast.parse(source), None, set())
    return sites


def test_checker_finds_every_dense_propagator_site():
    source = ("def f(h, x):\n    return propagator(h, 1.0).mat @ x\n"
              "def g(a, d, x):\n    u = bch.exp_antihermitian(a, d)\n    return u.mat @ x\n"
              "def k(h, x):\n    u = propagator(h, 1.0)\n"
              "    return u @ x + build_quadrature(4, 'X').mat @ x\n")
    assert dense_propagator_sites(source) == ["f", "g"]


def test_only_the_factorization_check_reads_a_dense_propagator():
    """State builders apply propagators through their spectrum; the dense
    matrix is for `bch.verify_factorization`, which compares matrices."""
    sites = [(path.name, site) for path in sorted(PACKAGE.glob("*.py"))
             for site in dense_propagator_sites(path.read_text(encoding="utf-8"))]
    assert sites == [("bch.py", "verify_factorization")]


def call_sites(source: str, name: str) -> list:
    """Enclosing function of every call of `name`, as a bare name or a method."""
    sites = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            if (isinstance(child, ast.Call)
                    and getattr(child.func, "id", getattr(child.func, "attr", None)) == name):
                sites.append(function)
            visit(child, inner)

    visit(ast.parse(source), None)
    return sites


# The truncated-basis machinery of the generator algebra and of the dimension
# loop, and the only functions allowed to call it: no function substitutes the
# tables into a P matrix (the factorization check and the factorized builders
# take their phase operators on the spectrum of P instead), and only the
# finite-difference route doubles d.
BASIS_ONLY_IN = {
    "to_matrix": set(),
    "converge_dimension": {("qfi.py", "qfi_converged")},
}


def basis_route_violations(sources: dict) -> list:
    """(file, function, name) of every call of a BASIS_ONLY_IN name elsewhere."""
    return sorted((filename, site, name)
                  for filename, source in sources.items()
                  for name, allowed in BASIS_ONLY_IN.items()
                  for site in call_sites(source, name)
                  if (filename, site) not in allowed)


# the generator route as it ran in the truncated basis, before the node layer
BASIS_GENERATOR_ROUTE = '''
def qfi_generator(cfg, which_param, dim):
    dim = as_dim(dim)
    probe = prepare_probe(cfg.probe, dim)
    mats = {}
    for poly, symbol, sigma in _branch_generators(cfg, which_param):
        if symbol not in mats:
            mats[symbol] = build_quadrature(dim, symbol).mat
        g_phi = poly.to_matrix(mats[symbol]) @ probe.vec

def _probe_variance(probe, which):
    def at_dim(d):
        return variance(prepare_probe(probe, FockDim(d)), build_quadrature(d, which))
    scan = converge_dimension(at_dim, start=16)
    return scan.value
'''


def test_checker_flags_the_basis_generator_route():
    assert basis_route_violations({"qfi.py": BASIS_GENERATOR_ROUTE}) == [
        ("qfi.py", "_probe_variance", "converge_dimension"),
        ("qfi.py", "qfi_generator", "to_matrix")]


def test_generator_route_needs_no_basis():
    """The exact generator route and the probe variances run on quadrature
    nodes; Fock matrices of the tables and the doubling loop stay where the
    Fock basis is the point."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert basis_route_violations(sources) == []


# the Fock-basis mirror as it ran before the momentum nodes
FOCK_MIRROR = '''
@functools.lru_cache(maxsize=8)
def _kinetic_spectrum(d, mass):
    return spectrum(_kinetic(d, mass))

@functools.lru_cache(maxsize=8)
def _displaced_spectrum(d, mass, g, omega_c):
    return spectrum(h1)

def _mirror_branches(p):
    phi = prepare_probe(p.mirror_probe, d).vec
    b0 = propagator(_kinetic_spectrum(d, p.mass), t_total) @ phi
    b1 = propagator(_displaced_spectrum(d, p.mass, p.g, p.omega_c), t_total) @ phi
    return b0, b1
'''
BASIS_CALLS = ("spectrum", "propagator", "prepare_probe")


def basis_calls(source: str) -> list:
    """(function, name) of every call of a BASIS_CALLS name."""
    return sorted((site, name) for name in BASIS_CALLS for site in call_sites(source, name))


def test_checker_flags_the_fock_mirror():
    assert basis_calls(FOCK_MIRROR) == [
        ("_displaced_spectrum", "spectrum"), ("_kinetic_spectrum", "spectrum"),
        ("_mirror_branches", "prepare_probe"), ("_mirror_branches", "propagator"),
        ("_mirror_branches", "propagator")]


def test_optomech_mirror_needs_no_basis():
    """The mirror branches are closed forms on momentum nodes: applications
    prepares no Fock probe, decomposes no generator and builds no propagator."""
    assert basis_calls((PACKAGE / "applications.py").read_text(encoding="utf-8")) == []


QUADRATURE_BUILDERS = ("build_quadrature", "operator_power")


def uncached_quadrature_calls(source: str, root: str) -> list:
    """(function, name) of every QUADRATURE_BUILDERS call that `root` reaches
    through this module's functions without entering an lru_cache'd one."""
    tree = ast.parse(source)
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    cached = {name for name, node in functions.items()
              if any("lru_cache" in ast.unparse(dec) for dec in node.decorator_list)}
    found, seen, todo = set(), set(), [root]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for call in ast.walk(functions[name]):
            callee = (getattr(call.func, "id", getattr(call.func, "attr", None))
                      if isinstance(call, ast.Call) else None)
            if callee in QUADRATURE_BUILDERS:
                found.add((name, callee))
            elif callee in functions and callee not in cached:
                todo.append(callee)
    return sorted(found)


# cs_output as it rebuilt X, P and the dense P^m on every state build
PER_BUILD_CS_OUTPUT = '''
def _mode_operators(cfg_m, dim):
    x = build_quadrature(dim, "X")
    pm = operator_power(build_quadrature(dim, "P"), cfg_m)
    return x, pm

@functools.lru_cache(maxsize=8)
def _mode_spectra(m, dim):
    x, pm = _mode_operators(m, dim)
    return spectrum(x), spectrum(pm)

def cs_output(cfg, dim):
    x, pm = _mode_operators(cfg.m, dim)
    for sign in (+1.0, -1.0):
        gen = Operator(dim, cfg.theta1 * x.mat + sign * cfg.theta2 * pm.mat, hermitian=True)
'''


def test_checker_flags_per_build_quadratures():
    assert uncached_quadrature_calls(PER_BUILD_CS_OUTPUT, "cs_output") == [
        ("_mode_operators", "build_quadrature"), ("_mode_operators", "operator_power")]
    assert uncached_quadrature_calls(PER_BUILD_CS_OUTPUT, "_mode_spectra") != []
    cached_only = PER_BUILD_CS_OUTPUT.replace("x, pm = _mode_operators(cfg.m, dim)",
                                              "x, pm = _mode_spectra(cfg.m, dim)")
    assert uncached_quadrature_calls(cached_only, "cs_output") == []


def test_cs_output_reads_cached_bands():
    """Only theta changes between the builds of a coherent-superposition
    state, so X and P^m come from the cached band table, never per build."""
    source = (PACKAGE / "strategies.py").read_text(encoding="utf-8")
    assert uncached_quadrature_calls(source, "cs_output") == []
    assert uncached_quadrature_calls(source, "output_derivative") == []


def query_loops(source: str) -> list:
    """Line of every `for` loop or comprehension over a `range(...)` whose
    arguments name `n_queries`: N identical queries applied one at a time."""
    tree = ast.parse(source)
    return sorted(loop.iter.lineno for loop in ast.walk(tree)
                  if isinstance(loop, (ast.For, ast.comprehension))
                  and isinstance(loop.iter, ast.Call)
                  and getattr(loop.iter.func, "id", None) == "range"
                  and any(getattr(node, "id", getattr(node, "attr", None)) == "n_queries"
                          for arg in loop.iter.args for node in ast.walk(arg)))


# switch_output as it applied each single-query gate N times
LITERAL_SWITCH_OUTPUT = '''
def switch_output(cfg, dim):
    u1 = propagator(x, cfg.theta1)
    u2 = propagator(pm, cfg.theta2)
    b0 = phi
    for _ in range(cfg.n_queries):
        b0 = u2 @ b0
    for _ in range(cfg.n_queries):
        b0 = u1 @ b0
    b1 = phi
    for _ in range(cfg.n_queries):
        b1 = u1 @ b1
    for _ in range(cfg.n_queries):
        b1 = u2 @ b1
    return QState.from_branches([b0, b1], dim)
'''


def test_checker_flags_the_literal_switch_output():
    assert query_loops(LITERAL_SWITCH_OUTPUT) == [6, 8, 11, 13]
    assert query_loops("n_queries = 3\nfor k in range(1, n_queries + 1): pass\n"
                       "[k for k in range(n_queries)]\nfor k in range(n): pass\n") == [2, 3]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_query_block_is_applied_query_by_query(path):
    """N identical queries are one unitary, e^{-i N theta H}: every builder
    evaluates the block as one exponent, so no loop runs over N."""
    assert query_loops(path.read_text(encoding="utf-8")) == []


def reached_calls(sources: dict, root: str) -> set:
    """Name of every call that `root` makes, directly or through the
    top-level functions of `sources` it calls (nested defs included)."""
    functions = {node.name: node for source in sources.values()
                 for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    called, todo = set(), [root]
    while todo:
        for call in ast.walk(functions[todo.pop()]):
            callee = (getattr(call.func, "id", getattr(call.func, "attr", None))
                      if isinstance(call, ast.Call) else None)
            if callee and callee not in called:
                called.add(callee)
                if callee in functions:
                    todo.append(callee)
    return called


# qfi_converged as it differenced each Fock-basis state on a Richardson ladder
RICHARDSON_FOCK_LOOP = '''
def builder_for(cfg, which_param, dim):
    def build(theta):
        return build_output(replace(cfg, **{which_param: theta}), dim)
    return build

def qfi_fd(builder, theta0, start=0):
    value, converged, history = richardson(estimate, 1e-4 * max(1.0, abs(theta0)), start)

def qfi_converged(cfg, which_param):
    def at_dim(d):
        est = qfi_fd(builder_for(cfg, which_param, d), theta0, rung)
        return est.value
    scan = converge_dimension(at_dim, start=start)
'''
DIFFERENCES = {"qfi_fd", "richardson"}


def test_checker_flags_the_richardson_fock_loop():
    assert reached_calls({"qfi.py": RICHARDSON_FOCK_LOOP}, "qfi_converged") & DIFFERENCES == {
        "qfi_fd", "richardson"}
    exact = RICHARDSON_FOCK_LOOP.replace(
        "est = qfi_fd(builder_for(cfg, which_param, d), theta0, rung)",
        "est = exact(*output_derivative(cfg, d))")
    assert reached_calls({"qfi.py": exact}, "qfi_converged") & DIFFERENCES == set()


def test_qfi_converged_takes_no_difference():
    """Both routes of the dimension loop differentiate exactly (the Fock
    states from their spectra, the node states by their phases), so nothing
    `qfi_converged` reaches steps a parameter or calls Richardson."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert reached_calls(sources, "qfi_converged") & DIFFERENCES == set()


# homodyne_g_variance as it differenced node-sum overlaps on a Richardson ladder
NODE_SUM_READOUT = '''
def _mirror_branches(p, nodes=MOMENTUM_NODES):
    q, phi = probe_amplitudes(p.mirror_probe, nodes, 0.0)
    return kinetic * phi, coupled * kinetic * moved

def optomech_state(p):
    b0, b1 = _mirror_branches(p)
    reference = np.vdot(*_mirror_branches(p, 2 * MOMENTUM_NODES))
    return QState(CAVITY_DIM.d, FockDim(b0.size), amps)

def cavity_mean(p):
    return cavity_moment(optomech_state(p), 1)

def homodyne_g_variance(p):
    state = optomech_state(p)
    def slope(step):
        up = cavity_mean(replace(p, g=p.g + step))
        dn = cavity_mean(replace(p, g=p.g - step))
        return (up - dn) / (2 * step)
    derivative, converged, history = richardson(slope, 1e-4 * max(1.0, abs(p.g)))
'''
NODE_STATE_DIFFERENCES = DIFFERENCES | {"optomech_state", "_mirror_branches"}


def test_checker_flags_the_node_sum_readout():
    assert reached_calls({"applications.py": NODE_SUM_READOUT}, "homodyne_g_variance") & (
        NODE_STATE_DIFFERENCES) == {"richardson", "optomech_state", "_mirror_branches"}


def test_homodyne_readout_takes_no_difference():
    """The readout takes <b0|b1> and its g-derivative in closed form, so it
    steps no coupling and builds no node state: the node state stays the
    oracle that the tests difference against claim 8's exact F_g."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert reached_calls(sources, "homodyne_g_variance") & NODE_STATE_DIFFERENCES == set()


# claim_8_optomech_scaling as it differenced the node state for F_g
STEPPED_CLAIM_8 = '''
def claim_8_optomech_scaling():
    for n in DEFAULT_OPTOMECH_SWEEP:
        p = replace(p0, n_steps=int(n))
        d2 = homodyne_g_variance(p)
        rows.append((n, d2))
        fisher = qfi_fd(lambda g, pp=p: optomech_state(replace(pp, g=g)), p.g)
        bound = 1.0 / fisher.value

def qfi_fd(builder, theta0):
    value, converged, history = richardson(estimate, 1e-4 * max(1.0, abs(theta0)))
'''


def test_checker_flags_the_stepped_claim_8():
    assert reached_calls({"claims.py": STEPPED_CLAIM_8}, "claim_8_optomech_scaling") & (
        DIFFERENCES) == {"qfi_fd", "richardson"}
    exact = STEPPED_CLAIM_8.replace(
        "fisher = qfi_fd(lambda g, pp=p: optomech_state(replace(pp, g=g)), p.g)",
        "fisher = optomech_fisher(p)").replace("fisher.value", "fisher")
    assert reached_calls({"claims.py": exact}, "claim_8_optomech_scaling") & DIFFERENCES == set()


def test_claim_8_takes_no_difference():
    """Claim 8's quantum bound 1/F_g is exact (`optomech_fisher`: b1 and its
    g-derivative on the momentum nodes), so the claim steps no coupling and
    calls no Richardson; `qfi_fd` is left to claims 2 and 9."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert reached_calls(sources, "claim_8_optomech_scaling") & DIFFERENCES == set()


def theta2_arguments(source: str, callee: str = "generator_spectrum") -> list:
    """(function, line, signed) of every argument of a `callee` call that
    names theta2, signed when theta2 sits inside an expression
    (`sign * cfg.theta2`, `-cfg.theta2`) rather than being passed bare."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else function
            if (isinstance(child, ast.Call)
                    and getattr(child.func, "id", getattr(child.func, "attr", None)) == callee):
                for arg in child.args + [k.value for k in child.keywords]:
                    bare = getattr(arg, "id", getattr(arg, "attr", None)) == "theta2"
                    if bare or any(getattr(part, "id", getattr(part, "attr", None)) == "theta2"
                                   for part in ast.walk(arg)):
                        found.append((function, arg.lineno, not bare))
            visit(child, inner)

    visit(ast.parse(source), None)
    return found


# the branch spectrum as it decomposed each branch generator, theta2 signed by the branch
SIGNED_BRANCH_SPECTRUM = '''
def _branch_spectrum(cfg, dim, sign):
    if cfg.m == 1:
        z = complex(cfg.theta1, sign * cfg.theta2)
        return rotated(z)
    return generator_spectrum(cfg.m, dim, cfg.theta1, sign * cfg.theta2)

def _minus_spectrum(cfg, dim):
    return generator_spectrum(cfg.m, dim, cfg.theta1, b=-cfg.theta2)

def _plus_spectrum(cfg, dim, theta2):
    return generator_spectrum(cfg.m, dim, cfg.theta1, theta2)
'''


def test_checker_flags_the_signed_branch_spectrum():
    assert theta2_arguments(SIGNED_BRANCH_SPECTRUM) == [
        ("_branch_spectrum", 6, True), ("_minus_spectrum", 9, True), ("_plus_spectrum", 12, False)]


def test_only_the_plus_branch_generator_is_decomposed():
    """H- = -Pi conj(H+) Pi on the truncated basis, so the - branch runs on
    the spectrum of H+: one call passes theta2 to `generator_spectrum`, and
    bare, none asks for the generator at -theta2, which would double the
    eigh of every coherent-superposition row."""
    source = (PACKAGE / "strategies.py").read_text(encoding="utf-8")
    assert [(function, signed) for function, _, signed in theta2_arguments(source)] == [
        ("_cs_branches", False)]


def private_strategies_reads(source: str) -> list:
    """(line, name) of every reference to a `_private` name of `strategies`:
    an attribute read off the module or a name imported from it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "strategies"):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("strategies"):
            names = [alias.name for alias in node.names]
        else:
            continue
        found.extend((node.lineno, name) for name in names
                     if name.startswith("_") and not name.startswith("__"))
    return sorted(found)


# verify_factorization as it read the cache keys of strategies' spectra
PRIVATE_READS = '''
def verify_factorization(m, lambda_im, dim, variant="AB"):
    from . import strategies  # strategies imports bch
    summed = strategies._quadrature_spectrum("X+P", m, dim)
    x, pm = strategies._mode_spectra(m, dim)
    p = strategies._quadrature_spectrum("P", 1, dim)

def _reader(dim):
    from .strategies import _phase_spectrum, generator_spectrum
    return generator_spectrum(1, dim, 0.0, 1.0), strategies.SWITCH, strategies.__name__
'''


def test_checker_flags_private_strategies_reads():
    assert private_strategies_reads(PRIVATE_READS) == [
        (4, "_quadrature_spectrum"), (5, "_mode_spectra"), (6, "_quadrature_spectrum"),
        (9, "_phase_spectrum")]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "strategies.py"],
                         ids=lambda p: p.name)
def test_no_module_reads_a_private_name_of_strategies(path):
    """Every other module asks `strategies` for a spectrum through its one
    public rule, `generator_spectrum`, never through a private cache key."""
    assert private_strategies_reads(path.read_text(encoding="utf-8")) == []


def borrowed_basis_spectra(source: str) -> list:
    """(function, line) of every `Spectrum(...)` call whose basis, the third
    argument or `v=`, is an expression of another spectrum's `.v`: that `.v`
    itself or any product, rotation or slice of it, read inline or through a
    local name bound to such an expression."""
    found = []

    def reads_a_basis(expr, bound) -> bool:
        return any(isinstance(part, ast.Attribute) and part.attr == "v"
                   or isinstance(part, ast.Name) and part.id in bound
                   for part in ast.walk(expr))

    def visit(node, function, bound):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name, set())
                continue
            if isinstance(child, ast.Assign) and reads_a_basis(child.value, bound):
                bound.update(t.id for t in child.targets if isinstance(t, ast.Name))
            if (isinstance(child, ast.Call)
                    and getattr(child.func, "id", getattr(child.func, "attr", None)) == "Spectrum"):
                basis = child.args[2:3] + [k.value for k in child.keywords if k.arg == "v"]
                if basis and reads_a_basis(basis[0], bound):
                    found.append((function, child.lineno))
            visit(child, function, bound)

    visit(ast.parse(source), None, set())
    return found


# _phase_spectrum and the C_n factors of verify_factorization as they
# re-checked P's verified basis, and the m = 1 branch spectrum as it copied
# and re-checked X's rotated basis, beside spectra on bases of their own
BORROWED_BASES = '''
def _phase_spectrum(cfg, dim, variant):
    p = _quadrature_spectrum("P", 1, dim)
    return Spectrum(dim, h, p.v)

def verify_factorization(m, lambda_im, dim, variant):
    for n, power, r in weights:
        factors.append(propagator(cvspace.Spectrum(dim, r * p.w ** power, v=p.v), 1.0))

def _bound(dim, p):
    basis = p.v
    return Spectrum(dim, p.w, basis)

def _branch_spectrum(cfg, dim):
    rotation = np.exp(1j * cmath.phase(z) * np.arange(dim.d))
    return Spectrum(dim, abs(z) * x.w, rotation[:, None] * x.v)

def _rotated(dim, x, rotation):
    basis = rotation[:, None] * x.v
    return Spectrum(dim, x.w, v=basis.copy())

def _own_bases(dim, x, w, v, rotation):
    framed = x.reweighted(abs(z) * x.w).in_frame(rotation)
    return Spectrum(dim, w, v), Spectrum(dim, np.zeros(dim.d), np.eye(dim.d)), x.reweighted(w)
'''


def test_checker_flags_a_spectrum_on_a_borrowed_basis():
    assert borrowed_basis_spectra(BORROWED_BASES) == [
        ("_phase_spectrum", 4), ("verify_factorization", 8), ("_bound", 12),
        ("_branch_spectrum", 16), ("_rotated", 20)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_derived_spectra_reuse_the_verified_basis(path):
    """V^dag V is checked once per eigenbasis: new eigenvalues on a basis
    that a Spectrum already verified go through `Spectrum.reweighted`, and
    a diagonal rotation of it (a phase-space rotation of X) through
    `Spectrum.in_frame`, both sharing its `v` with no copy; only a basis of
    its own (the identity, a new eigh) is checked at construction."""
    assert borrowed_basis_spectra(path.read_text(encoding="utf-8")) == []
