"""Every public name listed in a module's __all__ resolves, and every error is a BCError."""

import ast
import builtins
import importlib
import os
import pkgutil
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import bcjacobi
from bcjacobi import continuous_time as ct
from bcjacobi import core, discrete_wave, errors, graph_wave, heat, inverse_bc, moments, toda, weyl_debranges

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(bcjacobi.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"bcjacobi.{name}")
    missing = [attr for attr in getattr(module, "__all__", []) if not hasattr(module, attr)]
    assert missing == []


def _raises(node, func=None):
    """(enclosing function, raised expression) for each `raise X` under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _raises(child, child.name)
            continue
        if isinstance(child, ast.Raise) and child.exc is not None:
            exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
            yield func, ast.unparse(exc)
        yield from _raises(child, func)


@pytest.fixture(scope="module")
def trees():
    """Each package module's parsed source, by module name, parsed once for this file."""
    paths = sorted(Path(bcjacobi.__file__).parent.glob("*.py"))
    return {path.stem: ast.parse(path.read_text()) for path in paths}


def test_every_raise_names_a_bcerror(trees):
    """One error path: each `raise` in the package names a BCError subclass."""
    offenders = []
    for stem, tree in trees.items():
        for func, name in _raises(tree):
            cls = getattr(errors, name, None) or getattr(builtins, name, None)
            if not (isinstance(cls, type) and issubclass(cls, errors.BCError)):
                offenders.append(f"{stem}.py:{func}: raise {name}")
    assert offenders == []


def _enclosing(node, hit, func=None):
    """Enclosing function of each node under `node` for which `hit` holds."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _enclosing(child, hit, child.name)
            continue
        if hit(child):
            yield func
        yield from _enclosing(child, hit, func)


def _callers(node, name):
    """Enclosing function of each call to `name` (plain or attribute) under node."""
    return _enclosing(node, lambda n: isinstance(n, ast.Call) and name in (
        getattr(n.func, "id", None), getattr(n.func, "attr", None)))


def _mentions(node, name):
    """Enclosing function of each use of `name` under node: a name, an attribute or an imported alias."""
    return _enclosing(node, lambda n: name in (getattr(n, "id", None), getattr(n, "attr", None), getattr(n, "name", None)))


def test_one_admissibility_decision(trees):
    """Every verdict on a discrete response comes from `inverse_bc._admit`: only it
    and `indeterminacy_sequences`, which cuts rather than refuses, run the sweep."""
    callers = sorted(f"{stem}.{func}" for stem, tree in trees.items() for func in _callers(tree, "_chebyshev_sweep"))
    assert callers == ["inverse_bc._admit", "moments.indeterminacy_sequences"]


def test_one_kernel_evaluator(trees):
    """Every continuous-time kernel table is taken at exact nodes by
    `continuous_time._node_kernels`, the only caller of `wave_kernel`."""
    callers = {f"{stem}.{func}" for stem, tree in trees.items() for func in _callers(tree, "wave_kernel")}
    assert callers == {"continuous_time._node_kernels"}


def test_one_check_verdict(trees):
    """Every acceptance verdict is read off bounded figures: `verify._result`
    alone builds a CheckResult, and each check returns `_result(name, t0, ...)`
    with every figure a `_bounded` record, so no check states its own pass flag."""
    builders = {f"{stem}.{func}" for stem, tree in trees.items() for func in _callers(tree, "CheckResult")}
    assert builders == {"verify._result"}
    checks = [f for f in trees["verify"].body if isinstance(f, ast.FunctionDef) and f.name.startswith("check_")]
    assert len(checks) == 12
    for check in checks:
        returns = [n.value for n in ast.walk(check) if isinstance(n, ast.Return)]
        assert returns, check.name
        for call in returns:
            assert isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_result", check.name
            assert len(call.args) == 2 and ast.unparse(call.args[1]) == "t0", check.name
            assert all(kw.arg is None or getattr(getattr(kw.value, "func", None), "id", None) == "_bounded"
                       for kw in call.keywords), check.name


def test_one_definition_of_each_continuous_experiment(trees):
    """The default test function is read from `continuous_time._PSI_PRESETS`, so
    `gauss_test_function` has no direct caller (`psi_preset` calls it from that
    table), and the random string of criterion 10 is drawn by one constructor,
    `continuous_time._random_string`, the only caller of `string_system`, which only
    criterion 10's round trip `continuous_time._recovery_experiment` calls."""

    def callers(name):
        return {f"{stem}.{func}" for stem, tree in trees.items() for func in _callers(tree, name)}

    assert callers("gauss_test_function") == set()
    assert callers("string_system") == {"continuous_time._random_string"}
    assert callers("_random_string") == {"continuous_time._recovery_experiment"}
    assert callers("_recovery_experiment") == {"cli.run_scenario", "verify.check_continuous_time"}


def test_one_structured_matrix_builder(trees):
    """Every Hankel and Toeplitz matrix is a gather of `core._hankel`, the only
    `sliding_window_view` in the package, and every dense tridiagonal one comes
    from `core._tridiagonal`; scipy's hankel and toeplitz and numpy's writable
    `as_strided` views are not used."""

    def where(name, find):
        return {f"{stem}.{func}" for stem, tree in trees.items() for func in find(tree, name)}

    for name in ("hankel", "toeplitz", "as_strided"):
        assert where(name, _mentions) == set(), name
    assert where("sliding_window_view", _mentions) == {"core._hankel"}
    assert where("_hankel", _callers) == {
        "moments._reversed_hankel", "continuous_time._kernel_matrix", "inverse_bc.response_matrix",
        "discrete_wave._connecting",
    }
    assert where("_tridiagonal", _callers) == {
        "core.matrix", "core.eig_spectral_data", "toda.toda_qr_flow", "continuous_time.string_system",
        "continuous_time._top_eigenpairs", "continuous_time._refine_ritz",
    }


def test_one_connecting_orientation(trees):
    """`discrete_wave` alone knows the connecting matrix's orientation: `_connecting`
    builds C_T = J C^T J, `_nested_blocks` checks it, `connecting_from_response`
    returns the reversed view C^T of the checked matrix, the sweep's refusal scale
    reads C_T as built, and every reader of the nested blocks takes C_T from
    `_nested_blocks`; no module flips it back."""

    def callers(name):
        return {f"{stem}.{func}" for stem, tree in trees.items() for func in _callers(tree, name)}

    assert callers("reverse_order") == set()
    assert callers("_connecting") == {"discrete_wave._nested_blocks", "inverse_bc._pivot_scale"}
    assert callers("_nested_blocks") == {
        "discrete_wave.connecting_from_response", "inverse_bc.nested_min_singular_values",
        "inverse_bc.schrodinger_even_entries", "weyl_debranges.beta_sequences", "verify.check_debranges",
    }
    for stem in ("inverse_bc", "weyl_debranges", "verify"):
        slices = [ast.unparse(n.slice) for n in ast.walk(trees[stem]) if isinstance(n, ast.Subscript)]
        assert "::-1, ::-1" not in slices, stem


def test_one_overflow_rule(trees):
    """`core` holds both finiteness rules, each written once: `_as_finite` for what
    comes in and `_require_finite` for what the package computes.  No other function
    builds a "float range" NumericalFailureError except `_step_field`, whose message
    names the step; and the public connecting matrix is read through the checked
    `_nested_blocks`, so `_connecting` has only it and the sweep's scale as callers."""

    def says_float_range(node):
        return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "NumericalFailureError"
                and any("float range" in ast.unparse(arg) for arg in node.args))

    raisers = {f"{stem}.{func}" for stem, tree in trees.items() for func in _enclosing(tree, says_float_range)}
    assert raisers == {"core._require_finite", "discrete_wave._step_field"}
    defs = {f"{stem}.{node.name}" for stem, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name in ("_as_finite", "_require_finite")}
    assert defs == {"core._as_finite", "core._require_finite"}
    callers = {f"{stem}.{func}" for stem, tree in trees.items() for func in _callers(tree, "_connecting")}
    assert callers == {"discrete_wave._nested_blocks", "inverse_bc._pivot_scale"}


_OVERFLOWED = {
    "connecting_from_response": lambda: discrete_wave.connecting_from_response([1e308, 1, 1e308, 1, 1e308], 3),
    "connecting_from_response-complex": lambda: discrete_wave.connecting_from_response(
        np.array([1e308, 1, 1e308, 1, 1e308], dtype=complex), 3),
    "build_B-connecting": lambda: moments.build_B([1e308, 1, 1e308, 1, 1e308, 1], 2),
    "build_B-sum": lambda: moments.build_B([1, 1e308, 0, 0], 2),  # C^3 is finite, B^2[0, 0] = 2e308
    "moments_to_response": lambda: moments.moments_to_response([1, 0, 1e308, 0, 1e308]),
    "response_to_moments": lambda: moments.response_to_moments([1, 1e308, 1e308, 1e308, 1e308]),
    "truncated_moment_spectral": lambda: moments.truncated_moment_spectral([1, 0, 1e308, 0, 1e308], 3),
    "solvability-hausdorff": lambda: moments.solvability([1e308, -1e308, 1e308, -1e308], "hausdorff", 2),
    "solvability-stieltjes": lambda: moments.solvability([1e308, -1e308, 1e308, -1e308], "stieltjes", 2),
    "response_function": lambda: ct.response_function(core.JacobiSpec(1.0, [], [-1e6]), ct.TimeGrid(1.0, 4)),
    "debranges_kernel": lambda: weyl_debranges.debranges_kernel(np.eye(300), 1e3, 300),
    "debranges_kernel_hankel": lambda: weyl_debranges.debranges_kernel_hankel(np.eye(300), 1e3, 300),
    "debranges_inner": lambda: weyl_debranges.debranges_inner(
        np.eye(2) * 1e308, weyl_debranges.DeBrangesElement([1e308, 1]), weyl_debranges.DeBrangesElement([1e308, 1])),
    "chebyshev_values": lambda: core.chebyshev_values(300, 1e3),
    "moments_of_measure": lambda: core.moments_of_measure(core.SpectralMeasure(((1e200, 1.0),)), 3),
    "phi_eval": lambda: core.phi_eval(core.JacobiSpec(1.0, [1e-300], [0, 0]), 1e300, 3),
}


@pytest.mark.parametrize("action", ["error", "default", "ignore"])
@pytest.mark.parametrize("name", sorted(_OVERFLOWED))
def test_an_overflowed_result_is_refused_under_any_warning_filter(name, action):
    """Finite data whose result leaves the float range is refused by the one rule,
    `NumericalFailureError`, with no numpy warning under any filter: never returned
    as inf or NaN, and never refused as if the input were malformed."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter(action)
        with pytest.raises(errors.NumericalFailureError, match="overflows the float range$"):
            _OVERFLOWED[name]()
    assert seen == []


def test_no_foreign_module_among_public_names():
    """A module imported by the package for its own use is not part of its API."""
    foreign = [
        name for name in dir(bcjacobi)
        if not name.startswith("_")
        and isinstance(getattr(bcjacobi, name), types.ModuleType)
        and not getattr(bcjacobi, name).__name__.startswith("bcjacobi.")
    ]
    assert foreign == []


@pytest.fixture(scope="module")
def cli_import_modules():
    """The modules loaded by `import bcjacobi.cli, bcjacobi.verify` in a fresh interpreter."""
    src = str(Path(bcjacobi.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bcjacobi.cli, bcjacobi.verify; print(*sys.modules, sep='\\n')"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_cli_import_loads_no_scipy(cli_import_modules):
    """numpy is the only runtime dependency: `scipy.linalg` alone was more than
    half of every process's cold start (556 modules against 239 without it), and
    the package's five calls into it each have a short numpy replacement."""
    assert {"bcjacobi.cli", "bcjacobi.verify"} <= cli_import_modules
    loaded = sorted(m for m in cli_import_modules if m.startswith("scipy"))
    assert loaded == []


def test_import_does_not_load_scipy_signal(cli_import_modules):
    """`scipy.signal` costs ~0.4 s to import; the FFT kernel apply uses numpy.fft."""
    assert "bcjacobi" in cli_import_modules
    assert "scipy.signal" not in cli_import_modules


def test_cli_import_loads_only_scipy_linalg(cli_import_modules):
    """`scipy.integrate` alone pulled in ~200 modules (optimize, special, fft, ...)
    and ~0.25 s of every process's start, and `scipy.signal` ~0.4 s; no code of the
    package needs them (the FFT kernel apply uses numpy.fft).  `scipy.sparse`
    came in for ARPACK alone; the continuous-time inverse runs its own Lanczos.
    `scipy.linalg` was the last subpackage allowed, and its calls now have numpy
    replacements, so no scipy subpackage is loaded at all."""
    absent = ["scipy.integrate", "scipy.optimize", "scipy.special", "scipy.fft", "scipy.stats", "scipy.signal",
              "scipy.sparse"]
    loaded = [m for m in absent if m in cli_import_modules]
    assert not loaded, loaded
    assert sorted(m for m in cli_import_modules if m.startswith("scipy.")) == []


_R = np.r_[1.0, np.zeros(11)]  # the free response, long enough for every size below 6
_S = np.array([1.0, 0, 1, 0, 2, 0, 5, 0, 14, 0, 42, 0])  # Catalan moments of the free block
_MU = core.spectral_measure(core.free_spec(3))
_GRID = ct.TimeGrid(2.0, 40)

# each public function taking a size, horizon or order argument, called with that argument
SIZE_ARGUMENTS = {
    "invert_factorization": lambda n: inverse_bc.invert_factorization(_R, n),
    "characterize": lambda n: inverse_bc.characterize(_R, n),
    "connecting_from_response": lambda n: discrete_wave.connecting_from_response(_R, n),
    "nested_min_singular_values": lambda n: inverse_bc.nested_min_singular_values(_R, n),
    "schrodinger_check": lambda n: inverse_bc.schrodinger_check(_R, n),
    "schrodinger_even_entries": lambda n: inverse_bc.schrodinger_even_entries(np.zeros(5), n),
    "beta_sequences": lambda n: weyl_debranges.beta_sequences(_R, n),
    "response_matrix": lambda n: inverse_bc.response_matrix(_R, n),
    "kappa_vector": lambda n: inverse_bc.kappa_vector(n, 0.5),
    "solvability": lambda n: moments.solvability(_S, "hamburger", n),
    "truncated_moment_naive": lambda n: moments.truncated_moment_naive(_S, n),
    "truncated_moment_spectral": lambda n: moments.truncated_moment_spectral(_S, n),
    "build_hankel_pair": lambda n: moments.build_hankel_pair(_S, n),
    "build_B": lambda n: moments.build_B(_R, n),
    "lambda_matrix": lambda n: moments.lambda_matrix(n),
    "heat_connecting": lambda n: heat.heat_connecting(_S, n),
    "invert_heat": lambda n: heat.invert_heat(_S, n),
    "chebyshev_values": lambda n: core.chebyshev_values(n, 0.5),
    "chebyshev_u": lambda n: core.chebyshev_u(n, 0.5),
    "phi_eval": lambda n: core.phi_eval(core.free_spec(3), 0.5, n),
    "alpha_star_partials": lambda n: core.alpha_star_partials(core.free_spec(3), n),
    "moments_of_measure": lambda n: core.moments_of_measure(_MU, n),
    "toda_moments": lambda n: toda.toda_moments(_MU, 0.1, n),
    "recursion_residual": lambda n: toda.recursion_residual(_MU, 0.1, n, 1e-3),
    "response_vector": lambda n: discrete_wave.response_vector(core.free_spec(3), n),
    "heat_response": lambda n: heat.heat_response(core.free_spec(3), n),
    "solve_semi_infinite": lambda n: discrete_wave.solve_semi_infinite(core.free_spec(3), np.ones(2), n),
    "solve_finite_dirichlet": lambda n: discrete_wave.solve_finite_dirichlet(core.free_spec(3), np.ones(2), n),
    "solve_heat": lambda n: heat.solve_heat(core.free_spec(3), np.ones(2), n),
    "control_matrix": lambda n: discrete_wave.control_matrix(core.free_spec(3), n),
    "heat_control_matrix": lambda n: heat.heat_control_matrix(core.free_spec(3), n),
    "GraphSpec.star": lambda n: graph_wave.GraphSpec.star(n, 3),
    "recover_matrix_continuous": lambda n: ct.recover_matrix_continuous(
        ct.response_function(core.free_spec(2), _GRID.doubled()), n, _GRID
    ),
}

# a polynomial degree, a highest moment index or a forward solve's number of steps may be 0
ZERO_IS_A_SIZE = {"chebyshev_values", "chebyshev_u", "moments_of_measure", "toda_moments", "recursion_residual",
                  "solve_semi_infinite", "solve_finite_dirichlet", "solve_heat"}


@pytest.mark.parametrize("name", sorted(SIZE_ARGUMENTS))
def test_one_size_rule(name):
    """A size that is not a positive integer (a non-negative one where 0 is a size) is a BCError."""
    call = SIZE_ARGUMENTS[name]
    call(2)
    for bad in (2.5, True, -1) + (() if name in ZERO_IS_A_SIZE else (0,)):
        with pytest.raises(errors.InvalidInputError, match="must be an integer"):
            call(bad)


_FREE = core.free_spec(3)
_F = weyl_debranges.DeBrangesElement(np.ones(3))
# a valid and a wrong value of each structured argument type
_TYPED = {
    ct.TimeGrid: (_GRID, (2.0, 40)),
    core.JacobiSpec: (_FREE, _MU),
    core.SpectralMeasure: (_MU, [(0.0, 1.0)]),
    ct.StringSpec: (ct.StringSpec.uniform(3), _FREE),
    graph_wave.GraphSpec: (graph_wave.GraphSpec.path(2), {"edges": []}),
    weyl_debranges.DeBrangesElement: (_F, np.ones(3)),
    np.random.Generator: (np.random.default_rng(0), np.random.RandomState(0)),
    dict: ({}, [("in", np.zeros(3))]),
}

# each public function taking a structured argument, called with that argument
TYPE_ARGUMENTS = {
    "solve_second_order": (ct.TimeGrid, lambda g: ct.solve_second_order(_FREE, np.zeros(41), g)),
    "response_function": (ct.TimeGrid, lambda g: ct.response_function(_FREE, g)),
    "connecting_spectral": (ct.TimeGrid, lambda g: ct.connecting_spectral(_FREE, g)),
    "corrected_response": (ct.TimeGrid, lambda g: ct.corrected_response(3, g)),
    "triangular_bump": (ct.TimeGrid, lambda g: ct.triangular_bump(g)),
    "ResponseFunctionSamples": (ct.TimeGrid, lambda g: ct.ResponseFunctionSamples(np.zeros(41), g)),
    "response_vector": (core.JacobiSpec, lambda s: discrete_wave.response_vector(s, 3)),
    "control_matrix": (core.JacobiSpec, lambda s: discrete_wave.control_matrix(s, 3)),
    "solve_semi_infinite": (core.JacobiSpec, lambda s: discrete_wave.solve_semi_infinite(s, np.ones(2), 2)),
    "solve_finite_dirichlet": (core.JacobiSpec, lambda s: discrete_wave.solve_finite_dirichlet(s, np.ones(2), 2)),
    "solve_heat": (core.JacobiSpec, lambda s: heat.solve_heat(s, np.ones(2), 2)),
    "heat_response": (core.JacobiSpec, lambda s: heat.heat_response(s, 3)),
    "heat_control_matrix": (core.JacobiSpec, lambda s: heat.heat_control_matrix(s, 3)),
    "eig_spectral_data": (core.JacobiSpec, core.eig_spectral_data),
    "spectral_measure": (core.JacobiSpec, core.spectral_measure),
    "toda_solve": (core.JacobiSpec, lambda s: toda.toda_solve(s, 0.1)),
    "toda_qr_flow": (core.JacobiSpec, lambda s: toda.toda_qr_flow(s, 0.1)),
    "weyl_resolvent": (core.JacobiSpec, lambda s: weyl_debranges.weyl_resolvent(s, 10.0)),
    "phi_eval": (core.JacobiSpec, lambda s: core.phi_eval(s, 0.5, 2)),
    "alpha_star_partials": (core.JacobiSpec, core.alpha_star_partials),
    "roundtrip_report": (core.JacobiSpec, lambda s: inverse_bc.roundtrip_report(s, 2)),
    "moser_evolve": (core.SpectralMeasure, lambda m: toda.moser_evolve(m, 0.1)),
    "toda_moments": (core.SpectralMeasure, lambda m: toda.toda_moments(m, 0.1, 2)),
    "recursion_residual": (core.SpectralMeasure, lambda m: toda.recursion_residual(m, 0.1, 2, 1e-3)),
    "string_system": (ct.StringSpec, ct.string_system),
    "simulate": (graph_wave.GraphSpec, lambda g: graph_wave.simulate(g, {}, 2)),
    "simulate[controls]": (dict, lambda c: graph_wave.simulate(graph_wave.GraphSpec.path(2), c, 2)),
    "random_spec": (np.random.Generator, lambda rng: core.random_spec(3, rng)),
    "debranges_inner[F]": (weyl_debranges.DeBrangesElement, lambda F: weyl_debranges.debranges_inner(np.eye(3), F, _F)),
    "debranges_inner[G]": (weyl_debranges.DeBrangesElement, lambda G: weyl_debranges.debranges_inner(np.eye(3), _F, G)),
}


@pytest.mark.parametrize("name", sorted(TYPE_ARGUMENTS))
def test_one_type_rule(name):
    """None or a value of another type in a structured argument is a BCError naming the type expected."""
    cls, call = TYPE_ARGUMENTS[name]
    good, wrong = _TYPED[cls]
    call(good)
    for bad in (None, wrong):
        with pytest.raises(errors.InvalidInputError, match=f"must be a {cls.__name__}, got {type(bad).__name__}"):
            call(bad)


def test_free_resolvent_takes_no_spec():
    assert weyl_debranges.weyl_resolvent(None, 2.5, kind="free") == -0.5


# each public function taking a spectral parameter lambda, called with it
LAMBDA_ARGUMENTS = {
    "chebyshev_values": lambda x: core.chebyshev_values(3, x),
    "chebyshev_u": lambda x: core.chebyshev_u(3, x),
    "kappa_vector": lambda x: inverse_bc.kappa_vector(3, x),
    "DeBrangesElement": lambda x: _F(x),
    "solve_krein": lambda x: inverse_bc.solve_krein(np.eye(3), _R, x, 0.0, 1.0, 3),
    "phi_eval": lambda x: core.phi_eval(_FREE, x, 2),
    "weyl_series": lambda x: weyl_debranges.weyl_series(_R, x),
    "weyl_resolvent": lambda x: weyl_debranges.weyl_resolvent(_FREE, x),
    "weyl_resolvent[free]": lambda x: weyl_debranges.weyl_resolvent(None, x, kind="free"),
    "in_domain_D": lambda x: weyl_debranges.in_domain_D(x, 1.0),
    "joukowsky_z": weyl_debranges.joukowsky_z,
    "debranges_kernel": lambda x: weyl_debranges.debranges_kernel(np.eye(3), x, 3),
    "debranges_kernel_hankel": lambda x: weyl_debranges.debranges_kernel_hankel(np.eye(3), x, 3),
}


@pytest.mark.parametrize("name", sorted(LAMBDA_ARGUMENTS))
def test_one_lambda_rule(name):
    """A lambda that is not a finite number is a BCError."""
    call = LAMBDA_ARGUMENTS[name]
    call(10.0)
    call(10.0 + 1.0j)
    for bad in ("x", None, np.nan, np.inf, complex(1.0, -np.inf)):
        with pytest.raises(errors.InvalidInputError, match="lambda must be"):
            call(bad)


def test_lambda_keeps_its_shape():
    lam = np.array([[0.5, -1.5, 3.0]])
    vals = core.chebyshev_values(4, lam)
    assert vals.shape == (5, 1, 3)
    for j, x in enumerate(lam[0]):
        assert np.array_equal(vals[:, 0, j], core.chebyshev_values(4, x))
    with pytest.raises(errors.InvalidInputError, match="lambda must be a number"):
        weyl_debranges.weyl_series(_R, lam)
    with pytest.raises(errors.InvalidInputError, match="B must be"):
        weyl_debranges.in_domain_D(1j, "x")


# each public function taking a real or complex scalar coefficient, called with it
SCALAR_ARGUMENTS = {
    "solve_krein[alpha]": ("alpha", lambda x: inverse_bc.solve_krein(np.eye(3), _R, 0.5, x, 1.0, 3)),
    "solve_krein[beta]": ("beta", lambda x: inverse_bc.solve_krein(np.eye(3), _R, 0.5, 0.0, x, 3)),
    "JacobiSpec[complex a0]": ("a0", lambda x: core.JacobiSpec(a0=x, a=[1.0], b=[0.0, 0.0], mode="complex")),
}


@pytest.mark.parametrize("name", sorted(SCALAR_ARGUMENTS))
def test_scalar_coefficients_must_be_finite_numbers(name):
    """alpha and beta of solve_krein and a complex block's a0: NaN gave an all-NaN
    control or block, and "x" numpy's UFuncTypeError or complex()'s ValueError."""
    what, call = SCALAR_ARGUMENTS[name]
    call(0.5)
    call(0.5 + 1.0j)
    for bad in ("x", None, np.nan, np.inf, complex(1.0, np.nan), [1.0, 2.0]):
        with pytest.raises(errors.InvalidInputError, match=f"{what} must be"):
            call(bad)


@pytest.mark.parametrize("a, b", [(["x"], [0.0, 0.0]), ([1.0], ["x", 0.0]), ([np.nan], [0.0, 0.0]),
                                  ([1.0], [0.0, np.inf]), ([[1.0], [2.0, 3.0]], [0.0, 0.0])])
def test_complex_block_coefficients_are_coerced(a, b):
    with pytest.raises(errors.InvalidInputError, match="coefficients must be"):
        core.JacobiSpec(a0=1.0, a=a, b=b, mode="complex")


def test_complex_block_stays_complex():
    spec = core.JacobiSpec(a0=2, a=[1], b=[0, 1], mode="complex")
    assert spec.a0 == 2 + 0j and spec.a.dtype == complex and spec.b.dtype == complex


# each public function taking a tolerance, called with it
TOL_ARGUMENTS = {
    "weyl_series": lambda tol: weyl_debranges.weyl_series(_R, 10.0, tol=tol),
    "schrodinger_check": lambda tol: inverse_bc.schrodinger_check(_R, 2, tol=tol),
    "solvability": lambda tol: moments.solvability(_S, "hamburger", 2, tol=tol),
}


@pytest.mark.parametrize("name", sorted(TOL_ARGUMENTS))
def test_one_tolerance_rule(name):
    """A tolerance must be a finite number > 0: "x" ended in UFuncTypeError, and
    NaN or -1 in weyl_series in a "too short" BCError that named no tolerance."""
    call = TOL_ARGUMENTS[name]
    call(1e-8)
    for bad in ("x", None, [1e-8], np.nan, np.inf, -1.0, 0.0, 1j):
        with pytest.raises(errors.InvalidInputError, match="tol must be"):
            call(bad)


_MOMENTS = np.array([1.0, 0, 1, 0, 2])
_PATH = (("a", True), ("b", True))
# each malformed argument of a graph, a bump, an extension, a random block or a
# de Branges element, with the message it is refused with; each used to end in
# a TypeError, ValueError or AttributeError of Python's or numpy's own
MALFORMED = {
    "GraphSpec[vertex not a pair]": (lambda: graph_wave.GraphSpec(vertices=("a", "b"), edges=()), "vertices must be"),
    "GraphSpec[edge not an Edge]": (lambda: graph_wave.GraphSpec(vertices=_PATH, edges=(("a", "b", 2),)),
                                    "edges must be"),
    "triangular_bump[string width]": (lambda: ct.triangular_bump(_GRID, width="x"), "width must be"),
    "triangular_bump[array width]": (lambda: ct.triangular_bump(_GRID, width=np.ones(2)), "width must be"),
    "truncated_moment_naive[string pair]": (
        lambda: moments.truncated_moment_naive(_MOMENTS, 2, extension=[("x", 0.0)]), "extension must be"),
    "truncated_moment_naive[flat]": (
        lambda: moments.truncated_moment_naive(_MOMENTS, 2, extension=[1.0]), "extension must be"),
    "random_spec[reversed range]": (
        lambda: core.random_spec(3, np.random.default_rng(0), a_range=(2.0, 1.0)), "a_range must be"),
    "random_spec[short range]": (
        lambda: core.random_spec(3, np.random.default_rng(0), b_range=(1.0,)), "b_range must be"),
    "DeBrangesElement[2-D]": (lambda: weyl_debranges.DeBrangesElement(np.ones((2, 2))), "coefficients must be 1-D"),
    # a matrix where a sequence is meant, and a bool where a number is
    "moments_to_response[2-D]": (lambda: moments.moments_to_response(np.ones((2, 2))), "moments must be 1-D"),
    "response_to_moments[2-D]": (lambda: moments.response_to_moments(np.ones((2, 2))), "response must be 1-D"),
    "connecting_from_response[2-D]": (
        lambda: discrete_wave.connecting_from_response(np.ones((3, 3)), 2), "response must be 1-D"),
    "invert_factorization[2-D]": (lambda: inverse_bc.invert_factorization(np.ones((3, 3)), 2), "response must be 1-D"),
    "ResponseVector[2-D]": (lambda: discrete_wave.ResponseVector(np.ones((2, 2))), "response must be 1-D"),
    "solve_krein[flat C]": (lambda: inverse_bc.solve_krein(np.ones(9), _R, 0.5, 0.0, 1.0, 3), "C must be 2-D"),
    "TimeGrid[bool T]": (lambda: ct.TimeGrid(True, 40), "T must be a single number, got bool"),
    "free_spec[bool a0]": (lambda: core.free_spec(3, a0=True), "a0 must be a single number, got bool"),
    "reverse_order[ragged]": (lambda: discrete_wave.reverse_order([[1, 2], [3]]), "C must be numbers"),
    "reverse_order[strings]": (lambda: discrete_wave.reverse_order([["a"]]), "C must be numbers"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_arguments_are_refused(name):
    call, match = MALFORMED[name]
    with pytest.raises(errors.InvalidInputError, match=match):
        call()


def test_one_forward_path(trees):
    """Every discrete forward solve, wave or heat, field or node-1 response, steps
    through `_step_field` from one entry, `discrete_wave._field`, which alone decides
    where the wall sits and how long a block must be."""
    callers = sorted(f"{stem}.{func}" for stem, tree in trees.items() for func in _callers(tree, "_step_field"))
    assert callers == ["discrete_wave._field"]
    assert list(_mentions(trees["heat"], "_step_field")) == []
    too_short = sorted(f"{stem}.{func}" for stem, tree in trees.items()
                       for func, name in _raises(tree) if name == "SpecTooShortError")
    assert too_short == ["discrete_wave._field", "discrete_wave._field"]


def test_one_boundary_condition_vocabulary(trees):
    """The boundary-condition names and their refusal are spelled in `discrete_wave`
    alone.  Elsewhere a caller that wants the Dirichlet response passes
    `bc="dirichlet"` to `response_vector`; nothing restates the semi-infinite default,
    compares against a name or keeps a table of them."""
    words = ("semi_infinite", "dirichlet", "unknown boundary condition")
    passed = {id(kw.value) for tree in trees.values() for call in ast.walk(tree)
              if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "response_vector"
              for kw in call.keywords if kw.arg == "bc"}
    spelled = {
        (stem, word) for stem, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in passed
        for word in words if word in node.value
    }
    assert spelled == {("discrete_wave", word) for word in words}
    outside = {ast.unparse(kw) for stem, tree in trees.items() if stem != "discrete_wave" for call in ast.walk(tree)
               if isinstance(call, ast.Call) for kw in call.keywords if id(kw.value) in passed}
    assert outside == {"bc='dirichlet'"}
