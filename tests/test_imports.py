"""Each command loads only the layers it runs, and none loads numpy,
``dataclasses`` or ``inspect``; each form of ``cdd logic`` loads only its
own ``modeltheory`` modules.  No module reads an environment variable.

The checks run in fresh interpreters, because this test process has
long since imported everything.
"""

import ast
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cddkit
from cddkit import data_path

README = Path(__file__).resolve().parent.parent / "README.md"
# the children import the same cddkit as this process, from any working directory
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(cddkit.__file__).resolve().parent.parent)}

_RUN_MAIN = """
import contextlib, io, json, sys
from cddkit.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


def _python(code, *args, cwd=None):
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, cwd=cwd, env=CHILD_ENV, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _modules_after(argv):
    payload = json.loads(_python(_RUN_MAIN, json.dumps(argv)))
    assert payload["code"] == 0
    return set(payload["modules"])


NUMERIC_ONLY = {"numpy", "cddkit.rosetta", "cddkit.modeltheory"}
LOGIC_ONLY = {"numpy", "cddkit.orthotope", "cddkit.designspace", "cddkit.rosetta"}
# a conceptual graph needs only the syntax; a theory check needs no graph
GRAPH_ONLY = LOGIC_ONLY | {"cddkit.modeltheory.structures", "cddkit.modeltheory.parser"}
THEORY_ONLY = LOGIC_ONLY | {"cddkit.modeltheory.graphs"}
# standard modules whose import costs a command more than the work it would do
HEAVY = {"dataclasses", "inspect"}


@pytest.fixture(scope="module")
def heavy():
    """The modules of ``HEAVY`` that a bare interpreter has not loaded already.

    A site hook may load some of them before any command runs; a command
    is not charged for those.
    """
    bare = _python("import sys; print(' '.join(sys.modules))").split()
    return HEAVY - set(bare)


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["evaluate", str(data_path("emissions.json")), "--point", "0,0,0"], NUMERIC_ONLY),
        (["quantify", str(data_path("adas.json")), "CO2 <= 30"], NUMERIC_ONLY),
        (["logic", "--graph", str(data_path("logic/cdd_graph.json"))], GRAPH_ONLY),
        (
            [
                "logic",
                "--theory", str(data_path("logic/orthogonality_theory.json")),
                "--structure", str(data_path("logic/triangle_345.json")),
            ],
            THEORY_ONLY,
        ),
    ],
    ids=["evaluate", "quantify", "logic-graph", "logic-theory"],
)
def test_command_imports_only_its_layers(argv, absent, heavy):
    assert not _modules_after(argv) & (absent | heavy)


def test_solve_pipeline_import_sets(tmp_path, heavy):
    problem = str(data_path("emissions.json"))
    solution = str(tmp_path / "emissions_solution.json")
    assert not _modules_after(["solve", problem, "--out", str(tmp_path)]) & (NUMERIC_ONLY | heavy)
    for argv in (
        ["verify", problem, solution],
        ["rosetta", problem, "--solution", solution, "--resolution", "5", "--out", str(tmp_path)],
    ):
        loaded = _modules_after(argv)
        assert "numpy" not in loaded
        assert "cddkit.modeltheory" not in loaded
        assert not loaded & heavy


_RUN_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # from here on, importing numpy raises ImportError
from cddkit.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append({"code": code, "out": out.getvalue()})
print(json.dumps(results))
"""


def test_every_command_runs_with_numpy_blocked(tmp_path):
    golden = Path(__file__).resolve().parent / "golden"
    runs = [
        ["evaluate", str(data_path("emissions.json")), "--point", "0,0,0"],
        ["quantify", str(data_path("adas.json")), "CO2 <= 30"],
        ["logic", "--graph", str(data_path("logic/cdd_graph.json"))],
        [
            "logic",
            "--theory", str(data_path("logic/orthogonality_theory.json")),
            "--structure", str(data_path("logic/triangle_345.json")),
        ],
    ]
    names = ("emissions", "adas", "adas_tall")
    for name in names:
        problem, solution = str(data_path(f"{name}.json")), str(tmp_path / f"{name}_solution.json")
        runs += [
            ["solve", problem, "--out", str(tmp_path)],
            ["verify", problem, solution, "--json"],
            ["rosetta", problem, "--solution", solution, "--out", str(tmp_path / name)],
        ]
    results = json.loads(_python(_RUN_WITHOUT_NUMPY, json.dumps(runs)))
    assert [r["code"] for r in results] == [0] * len(runs)

    verify_out = {argv[1]: r["out"] for argv, r in zip(runs, results) if argv[0] == "verify"}
    for name in names:
        solution = (tmp_path / f"{name}_solution.json").read_bytes()
        assert solution == (golden / f"{name}_solution.json").read_bytes()
        assert verify_out[str(data_path(f"{name}.json"))] == (golden / f"{name}_verify.json").read_text()
        digests = "".join(
            f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
            for path in sorted((tmp_path / name).iterdir())
        )
        assert digests == (golden / f"{name}_rosetta.sha256").read_text()


def test_import_cddkit_loads_no_numpy():
    assert _python("import sys, cddkit; print('numpy' in sys.modules)").strip() == "False"


def test_lazy_layers_are_logged_by_importtime():
    # a layer loaded on first access must show in ``-X importtime``, like one loaded by an import statement
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import cddkit; cddkit.orthotope; cddkit.build_report; cddkit.modeltheory"],
        capture_output=True, text=True, env=CHILD_ENV, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    logged = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert {"cddkit.orthotope", "cddkit.rosetta", "cddkit.modeltheory"} <= logged


def test_every_public_name_resolves():
    for name in cddkit.__all__:
        assert getattr(cddkit, name) is not None, name
    assert set(cddkit.__all__) <= set(dir(cddkit))
    assert cddkit.build_report is cddkit.rosetta.build_report
    assert cddkit.Interval is cddkit.surface.Interval
    namespace = {}
    exec("from cddkit import *", namespace)
    assert set(cddkit.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        cddkit.no_such_name


def test_readme_library_example_runs(tmp_path):
    text = README.read_text()
    section = text[text.index("## Library"):]
    example = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    _python(example, cwd=tmp_path)
    assert (tmp_path / "out" / "emissions_M.svg").is_file()


# the names through which Python code reads its process environment
ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_no_module_reads_an_environment_variable():
    # every setting is a module constant or an argument, so a run depends on its inputs alone
    package = Path(cddkit.__file__).resolve().parent
    modules = sorted(package.rglob("*.py"))
    assert len(modules) > 10
    for path in modules:
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))))
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        names |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in nodes if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert not names & ENVIRONMENT_READERS, path
