"""The exit-code contract under seeded mutations of the bundled documents (``tools/mutate.py``)."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "mutate.py"


def _mutate_module():
    spec = importlib.util.spec_from_file_location("mutate", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_mutated_documents_keep_the_exit_code_contract():
    mutate = _mutate_module()
    outcomes = mutate.run(seed=7, count=400)
    assert len(outcomes) == 400
    # every exit code is documented, no exception escapes main, and exits 2 and 3
    # print exactly one error line
    assert mutate.breaches(outcomes) == []
    codes = {code for _, code, _ in outcomes}
    assert codes <= {0, 2, 3, 4, 5} and {0, 2} <= codes
    # every command ran
    assert {job for job, _, _ in outcomes} == {f"{command} {kind}" for kind, command in mutate.JOBS}


def test_a_breach_is_reported():
    mutate = _mutate_module()
    assert mutate.breaches([("solve problem", 0, ""), ("solve problem", 2, "error: x\n")]) == []
    found = mutate.breaches([
        ("solve problem", None, "Traceback ...\nKeyError: 'x'\n"),
        ("verify solution", 1, ""),
        ("logic graph", 2, "error: a\nerror: b\n"),
        ("evaluate problem", 3, "no prefix\n"),
    ])
    assert [line.split(":")[0] for line in found] == [
        "1 solve problem", "2 verify solution", "3 logic graph", "4 evaluate problem"
    ]
