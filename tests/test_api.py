"""No public callable re-exposes a fixed threshold as a keyword.

Every numerical decision has one module constant (README, "Every
numerical decision has one fixed threshold"); a tolerance or iteration
keyword on a public function would let a caller move it.
"""

import importlib
import inspect
import pkgutil

import cframe

THRESHOLD_NAMES = {"tol", "rtol", "atol", "rank_rtol", "max_iter", "norms"}


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


def test_public_callables_take_no_threshold_keyword():
    found = []
    checked = 0
    for qualname, obj in public_callables():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # a builtin without a signature
            continue
        checked += 1
        found += [f"{qualname}({p})" for p in params if p in THRESHOLD_NAMES]
    assert checked > 50
    assert found == []
