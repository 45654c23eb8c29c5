"""No public callable re-exposes a fixed threshold or a sampling knob.

Every numerical decision has one module constant (README, "Every
numerical decision has one fixed threshold"); a tolerance or iteration
keyword on a public function would let a caller move it.  Verdicts are
exact, so a samples or seed keyword is left only where it is listed
below with its reason.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import cframe

THRESHOLD_NAMES = {"tol", "rtol", "atol", "rank_rtol", "max_iter", "norms"}
SAMPLING_NAMES = {"samples", "seed"}
SAMPLING_ALLOWED = {
    # the benchmark passes them; the exact check reads only whether
    # samples > 0, and limiting the count is the CLI's alone
    "cframe.frames.certify(samples)",
    "cframe.frames.verify_bounds(samples)",
    "cframe.frames.verify_bounds(seed)",
}
# The only function that draws random numbers: selftest's own cases.
DRAWS_ALLOWED = {"cli._selftest_cases"}
# The only caller of the checked vector constructor in the package: the
# random vectors of the tests and of selftest.  Vectors computed from
# vectors are built by module_space._of_flat.
VECTOR_BUILDERS = {"testing.random_vector"}


def public_callables():
    for info in pkgutil.iter_modules(cframe.__path__):
        mod = importlib.import_module(f"cframe.{info.name}")
        for name, obj in vars(mod).items():
            if (name.startswith("_") or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            yield f"{mod.__name__}.{name}", obj
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and callable(member):
                        yield f"{mod.__name__}.{name}.{attr}", member


def keywords_named(names):
    """qualname(param) of every public parameter in names, and the
    number of callables whose signature was read."""
    found = []
    checked = 0
    for qualname, obj in public_callables():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # a builtin without a signature
            continue
        checked += 1
        found += [f"{qualname}({p})" for p in params if p in names]
    return found, checked


def test_public_callables_take_no_threshold_keyword():
    found, checked = keywords_named(THRESHOLD_NAMES)
    assert checked > 50
    assert found == []


def test_public_callables_take_no_sampling_keyword():
    found, checked = keywords_named(SAMPLING_NAMES)
    assert checked > 50
    assert set(found) == SAMPLING_ALLOWED


def functions_calling(name):
    """module.qualname of every function in the cframe sources that
    calls name, as a bare name or an attribute."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{prefix}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = (func.attr if isinstance(func, ast.Attribute) else
                          getattr(func, "id", None))
                if called == name:
                    found.add(prefix)
            visit(child, prefix)

    for path in Path(cframe.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_only_selftest_draws_random_numbers():
    assert functions_calling("default_rng") == DRAWS_ALLOWED


def test_only_the_cli_limits_the_sample_count():
    assert functions_calling("_require_sample_count") == {
        "cli._cmd_certify", "cli._transform", "cli._selftest_cases"}


def test_each_bound_check_has_one_name():
    import cframe.frames
    for name in ("_certify", "_verify_bounds", "_MAX_SAMPLE_ENTRIES"):
        assert not hasattr(cframe.frames, name), name


def test_loewner_margins_take_no_witness():
    from cframe.spectral import loewner_margins
    assert "witness" not in inspect.signature(loewner_margins).parameters


def test_checks_run_only_at_the_public_solvers():
    """Callers inside the package pass stacks valid by construction to
    the unchecked solvers; only the public entry points check."""
    assert functions_calling("pencil_eigh") == {"spectral.pencil_extremes"}
    assert functions_calling("_require_psd") == {
        "spectral.restricted_pencil_mins"}


def test_example_members_are_built_from_stacks():
    assert "sequence_example.build_example" not in functions_calling(
        "ModuleOperator")


def test_only_the_public_boundary_builds_checked_vectors():
    assert functions_calling("ModuleVector") == VECTOR_BUILDERS


def test_check_at_builds_no_checked_element():
    """check_at's slacks are computed here, so its report is built by
    algebra._of_values, not by the checking constructor."""
    assert "frames.check_at" not in functions_calling("AlgebraElement")
