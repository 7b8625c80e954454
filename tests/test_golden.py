"""Byte-identity of the CLI outputs on the bundled problems.

The files under ``tests/golden/`` hold, for each bundled problem, the
``cdd solve`` solution JSON, the ``cdd verify --json`` output, and the
sha256 digest of every file ``cdd rosetta --solution`` writes; and, for
each bundled logic document, the ``cdd logic`` output in text and
``--json`` form (the orthogonality theory against each triangle, and
each graph translated to a sentence).  A refactor must reproduce them byte for byte; a difference is a bug in the
change, never a reason to rewrite the golden files.
"""

import hashlib
from pathlib import Path

import pytest

from cddkit import data_path
from cddkit.cli import main

GOLDEN = Path(__file__).parent / "golden"
PROBLEMS = ("emissions", "adas", "adas_tall")


def render(name: str, work: Path, capsys) -> dict[str, bytes]:
    """Run solve, verify and rosetta on one bundled problem; map golden name to bytes."""
    problem = str(data_path(f"{name}.json"))
    assert main(["solve", problem, "--out", str(work)]) == 0
    solution = work / f"{name}_solution.json"
    capsys.readouterr()

    assert main(["verify", problem, str(solution), "--json"]) == 0
    verify_out = capsys.readouterr().out.encode()

    report_dir = work / "rosetta"
    assert main(["rosetta", problem, "--solution", str(solution), "--out", str(report_dir)]) == 0
    capsys.readouterr()
    digests = "".join(
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}\n"
        for path in sorted(report_dir.iterdir())
    )
    return {
        f"{name}_solution.json": solution.read_bytes(),
        f"{name}_verify.json": verify_out,
        f"{name}_rosetta.sha256": digests.encode(),
    }


@pytest.mark.parametrize("name", PROBLEMS)
def test_cli_outputs_match_golden(name, tmp_path, capsys):
    for golden_name, produced in render(name, tmp_path, capsys).items():
        expected = (GOLDEN / golden_name).read_bytes()
        assert produced == expected, f"{golden_name} differs from its golden copy"


LOGIC = {
    "triangle_345": ["--theory", "orthogonality_theory.json", "--structure", "triangle_345.json"],
    "triangle_234": ["--theory", "orthogonality_theory.json", "--structure", "triangle_234.json"],
    "cdd_graph": ["--graph", "cdd_graph.json"],
    "ecs_graph": ["--graph", "ecs_graph.json"],
}


@pytest.mark.parametrize("name", LOGIC)
@pytest.mark.parametrize("form", ("txt", "json"))
def test_logic_output_matches_golden(name, form, capsys):
    args = [a if a.startswith("--") else str(data_path(f"logic/{a}")) for a in LOGIC[name]]
    assert main(["logic", *args, *(["--json"] if form == "json" else [])]) == 0
    produced = capsys.readouterr().out.encode()
    assert produced == (GOLDEN / f"logic_{name}.{form}").read_bytes()
