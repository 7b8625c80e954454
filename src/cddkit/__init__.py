"""cddkit: constraint-driven design over pure-quadratic response surfaces.

Objective constraints (z <= c) are pushed through the surfaces into a
feasible region of the design space; the solver grows certified-maximal
axis-aligned boxes from a seed point, and the ROSETTA layer reports the
objective, variable, and sensitivity pairings.  A small model-theory
kernel (parsing, Tarski satisfaction, conceptual graphs) stands beside
them; requirement sentences ("CO2 <= 30") become constraints through a
pattern match in ``designspace``, not through the kernel.
"""

import sys
from pathlib import Path

__version__ = "0.1.0"

# Public name -> the submodule that defines it (a submodule maps to itself).
# Each is imported on first access (PEP 562), so ``import cddkit`` loads no
# layer.
_EXPORTS = {
    "DesignProblem": "designspace",
    "FeasibleRegion": "designspace",
    "Interval": "surface",
    "Orthotope": "orthotope",
    "QuadraticResponseSurface": "surface",
    "SolveResult": "orthotope",
    "auto_rank": "orthotope",
    "build_report": "rosetta",
    "designspace": "designspace",
    "emit": "rosetta",
    "load_problem": "designspace",
    "modeltheory": "modeltheory",
    "orthotope": "orthotope",
    "project_orthotope": "rosetta",
    "quantify_requirement": "designspace",
    "rosetta": "rosetta",
    "solve_greedy": "orthotope",
    "surface": "surface",
    "verify_maximality": "orthotope",
}


def data_path(name: str) -> Path:
    """Path of a bundled data file, e.g. data_path('emissions.json')."""
    return Path(__file__).parent / "data" / name


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    qualified = f"{__name__}.{_EXPORTS[name]}"
    # through the import statement's machinery, which ``-X importtime`` logs;
    # ``importlib.import_module`` would load the submodule without a line
    __import__(qualified)
    module = sys.modules[qualified]
    value = module if name == _EXPORTS[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = sorted([*_EXPORTS, "data_path"])
