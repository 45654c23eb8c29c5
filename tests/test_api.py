"""No public callable re-exposes a fixed threshold or a sampling knob.

Every numerical decision has one module constant (README, "Every
numerical decision has one fixed threshold"); a tolerance or iteration
keyword on a public function would let a caller move it.  Verdicts are
exact, so a samples or seed keyword is left only where it is listed
below with its reason.
"""

import importlib
import inspect
import pkgutil

import cframe

THRESHOLD_NAMES = {"tol", "rtol", "atol", "rank_rtol", "max_iter", "norms"}
SAMPLING_NAMES = {"samples", "seed"}
SAMPLING_ALLOWED = {
    # the benchmark passes them; the exact check reads neither except
    # samples=0, which skips it, and the sample-count limit
    "cframe.frames.certify(samples)",
    "cframe.frames.verify_bounds(samples)",
    "cframe.frames.verify_bounds(seed)",
    # the example still draws the vectors its identity is checked on
    "cframe.sequence_example.example_certificate(samples)",
    "cframe.sequence_example.example_certificate(seed)",
}


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
