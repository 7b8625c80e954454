import json
import math
import random
import subprocess
import sys
from pathlib import Path

import pytest

from cddkit import data_path, designspace
from cddkit.cli import main
from cddkit.errors import SchemaError
from cddkit.modeltheory import RelationalStructure, load_structure
from cddkit.modeltheory.syntax import BODY_DEPTH_LIMIT, PARENTHESIS_LIMIT, SENTENCE_DEPTH_LIMIT
from cddkit.orthotope import SolveResult

from conftest import problem_document, random_problem


def run_cli(*args, capsys=None):
    code = main(list(args))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


def problem_path(name):
    return str(data_path(name))


def test_evaluate_human_output(capsys):
    code, out, _ = run_cli(
        "evaluate", problem_path("emissions.json"), "--point", "0,0,0", capsys=capsys
    )
    assert code == 0
    assert "CO2" in out and "5.97" in out
    assert "NOx" in out and "-4.01" in out
    assert "Soot" in out and "1.22" in out
    assert "feasible: yes" in out


def test_evaluate_json_output(capsys):
    code, out, _ = run_cli(
        "evaluate", problem_path("emissions.json"), "--point", "0,0,0", "--json", capsys=capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["objectives"] == {"CO2": 5.97, "NOx": -4.01, "Soot": 1.22}
    assert payload["feasible"] is True


@pytest.mark.parametrize("mode", ["text", "json"])
def test_evaluate_refuses_a_second_bound_on_one_objective(tmp_path, capsys, mode):
    doc = json.loads(data_path("emissions.json").read_text())
    doc["constraints"].append({"surface": "CO2", "op": "<=", "bound": 11.0})
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    json_flag = ["--json"] if mode == "json" else []
    code, out, err = run_cli("evaluate", str(path), "--point", "0,0,0", *json_flag, capsys=capsys)
    assert (code, out, err) == (2, "", "error: surface 'CO2' has more than one constraint\n")
    # with the one bound of 6, the slack at the seed is 0.03
    code, out, _ = run_cli("evaluate", problem_path("emissions.json"), "--point", "0,0,0", "--json", capsys=capsys)
    assert code == 0 and round(json.loads(out)["slacks"]["CO2"], 9) == 0.03


def test_evaluate_malformed_point_exits_2(capsys):
    code, _, err = run_cli(
        "evaluate", problem_path("emissions.json"), "--point", "0,zero,0", capsys=capsys
    )
    assert code == 2
    assert "error" in err


def test_solve_writes_result_and_is_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code, _, _ = run_cli(
        "solve", problem_path("emissions.json"), "--out", str(out_a), capsys=capsys
    )
    assert code == 0
    code, _, _ = run_cli(
        "solve", problem_path("emissions.json"), "--out", str(out_b), capsys=capsys
    )
    assert code == 0
    a = (out_a / "emissions_solution.json").read_bytes()
    b = (out_b / "emissions_solution.json").read_bytes()
    assert a == b


def test_solve_with_ranking_override(tmp_path, capsys):
    code, out, _ = run_cli(
        "solve",
        problem_path("emissions.json"),
        "--ranking",
        "2,0,1",
        "--out",
        str(tmp_path),
        "--json",
        capsys=capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ranking"] == [2, 0, 1]
    assert payload["certificate"]["maximal"] is True


def test_solve_then_verify_exits_zero(tmp_path, capsys):
    for name in ("emissions.json", "adas.json", "adas_tall.json"):
        code, _, _ = run_cli("solve", problem_path(name), "--out", str(tmp_path), capsys=capsys)
        assert code == 0
        stem = json.loads(data_path(name).read_text())["name"]
        code, out, _ = run_cli(
            "verify",
            problem_path(name),
            str(tmp_path / f"{stem}_solution.json"),
            capsys=capsys,
        )
        assert code == 0, out


def test_verify_flags_inflated_result(tmp_path, capsys):
    code, _, _ = run_cli(
        "solve", problem_path("emissions.json"), "--out", str(tmp_path), capsys=capsys
    )
    assert code == 0
    path = tmp_path / "emissions_solution.json"
    doc = json.loads(path.read_text())
    doc["orthotope"][0]["hi"] += 0.05
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(
        "verify", problem_path("emissions.json"), str(path), capsys=capsys
    )
    assert code == 5
    assert "FAIL" in out


def test_grid_cap_bounds_a_report_cell(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(designspace, "GRID_CAP", 1_000_000)
    # a report cell has r^2 points: 101^2 is under this cap, 1001^2 over it
    code, _, err = run_cli(
        "rosetta", problem_path("emissions.json"), "--resolution", "101", "--out", str(tmp_path), capsys=capsys
    )
    assert code == 0, err
    code, out, err = run_cli(
        "rosetta", problem_path("emissions.json"), "--resolution", "1001", "--out", str(tmp_path), capsys=capsys
    )
    assert (code, out) == (2, "")
    assert err == "error: report cell of 1002001 points exceeds cap 1000000\n"


def test_rosetta_resolution_past_the_cap_exits_before_allocating(tmp_path, capsys):
    code, out, err = run_cli(
        "rosetta", problem_path("emissions.json"), "--resolution", str(10**6), "--out", str(tmp_path), capsys=capsys
    )
    assert (code, out) == (2, "")
    assert err == "error: report cell of 1000000000000 points exceeds cap 10000000\n"
    assert list(tmp_path.iterdir()) == []


def _random_problem_file(tmp_path, dim):
    """A seeded random problem with ``dim`` variables and three constraints, as a problem document."""
    problem = random_problem(random.Random(dim), dim=dim, count=3)
    path = tmp_path / f"random{dim}.json"
    path.write_text(json.dumps({**problem_document(problem), "name": f"random{dim}"}))
    return str(path)


@pytest.mark.parametrize("dim", [4, 10, 20])
def test_verify_replays_the_steps_above_three_variables(tmp_path, capsys, dim):
    path = _random_problem_file(tmp_path, dim)
    assert run_cli("solve", path, "--out", str(tmp_path), capsys=capsys)[0] == 0
    solution = str(tmp_path / f"random{dim}_solution.json")
    code, out, _ = run_cli("verify", path, solution, "--json", capsys=capsys)
    assert code == 0
    assert json.loads(out) == {"problem": f"random{dim}", "agreement": True, "failures": []}
    assert run_cli("verify", path, solution, capsys=capsys) == (0, f"problem: random{dim}\nagreement: yes\n", "")


@pytest.mark.parametrize("dim", [4, 10])
def test_verify_refuses_a_solution_relabelled_with_the_reversed_ranking(tmp_path, capsys, dim):
    # neither the box nor its bindings say in which order the factors grew, so only a re-solve
    # in the stored order sees that the file is not the solver's
    path = _random_problem_file(tmp_path, dim)
    ranking = ",".join(str(j) for j in range(dim))
    assert run_cli("solve", path, "--ranking", ranking, "--out", str(tmp_path), capsys=capsys)[0] == 0
    solution = tmp_path / f"random{dim}_solution.json"
    doc = json.loads(solution.read_text())
    doc["ranking"].reverse()
    solution.write_text(json.dumps(doc))
    code, out, err = run_cli("verify", path, str(solution), capsys=capsys)
    assert (code, err) == (5, "")
    fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert fails and all(line.startswith(("FAIL orthotope[", "FAIL certificate.")) for line in fails)
    assert any(line.startswith("FAIL orthotope[") for line in fails)
    assert out.endswith("agreement: no\n")


def test_verify_flags_inflated_result_above_three_variables(tmp_path, capsys):
    path = _random_problem_file(tmp_path, 10)
    assert run_cli("solve", path, "--out", str(tmp_path), capsys=capsys)[0] == 0
    solution = tmp_path / "random10_solution.json"
    doc = json.loads(solution.read_text())
    # halfway from a constraint-blocked upper face to its ambient bound: the box
    # maximum only grows with the box, so the pushed face breaks that constraint
    faces = doc["certificate"]["faces"]
    face = next(f for f in faces if f["side"] == "hi" and f["blocked_by"] != "ambient")
    ambient_hi = json.loads(Path(path).read_text())["variables"][face["axis"]]["hi"]
    interval = doc["orthotope"][face["axis"]]
    interval["hi"] = (interval["hi"] + ambient_hi) / 2.0
    solution.write_text(json.dumps(doc))
    code, out, _ = run_cli("verify", path, str(solution), "--json", capsys=capsys)
    assert code == 5
    payload = json.loads(out)
    assert payload["agreement"] is False
    # the violation first, then the one field that differs from the re-solve
    assert len(payload["failures"]) == 2
    assert payload["failures"][0].startswith(f"stored box violates {face['blocked_by']} <= ")
    assert payload["failures"][1].startswith(f"orthotope[{face['axis']}].hi is {interval['hi']!r}, re-solve gives ")


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_EMISSIONS = GOLDEN / "emissions_solution.json"


def _verify_edited_golden(tmp_path, capsys, edit, name="emissions"):
    """``verify`` on a golden solution after ``edit`` (in place): exit code, FAIL lines, stderr."""
    doc = json.loads((GOLDEN / f"{name}_solution.json").read_text())
    edit(doc)
    path = tmp_path / "edited_solution.json"
    path.write_text(json.dumps(doc))
    problem = problem_path(f"{name}.json")
    code, out, err = run_cli("verify", problem, str(path), capsys=capsys)
    json_code, json_out, json_err = run_cli("verify", problem, str(path), "--json", capsys=capsys)
    fails = [line[len("FAIL "):] for line in out.splitlines() if line.startswith("FAIL ")]
    # a file refused with exit 2 prints nothing on stdout in either form
    assert (json_code, json_err) == (code, err)
    assert (json.loads(json_out)["failures"] if json_out else []) == fails
    return code, fails, err


def _refused_on_load(tmp_path, capsys, edit, name="emissions"):
    """The one ``error:`` line that ``verify``, ``verify --json`` and ``rosetta --solution`` each print for
    a golden solution after ``edit`` (in place), exiting 2 with nothing on stdout and writing no report."""
    doc = json.loads((GOLDEN / f"{name}_solution.json").read_text())
    edit(doc)
    path = tmp_path / "edited_solution.json"
    path.write_text(json.dumps(doc))
    problem, report = problem_path(f"{name}.json"), tmp_path / "report"
    results = [run_cli(*args, capsys=capsys) for args in (
        ("verify", problem, str(path)),
        ("verify", problem, str(path), "--json"),
        ("rosetta", problem, "--solution", str(path), "--out", str(report)),
    )]
    err = results[0][2]
    assert results == [(2, "", err)] * 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not report.exists()
    return err


def _face(doc, axis, side):
    return next(f for f in doc["certificate"]["faces"] if f["axis"] == axis and f["side"] == side)


def test_the_emissions_golden_verifies():
    # the cases below edit it: its ranking, bindings and face 0/hi are what they assume
    doc = json.loads(GOLDEN_EMISSIONS.read_text())
    assert doc["ranking"] == [1, 0, 2]
    assert [(d["binding"]["lo"], d["binding"]["hi"]) for d in doc["orthotope"]] == [
        ("ambient", "NOx"), ("ambient", "ambient"), ("ambient", "Soot")
    ]
    assert doc["certificate"]["epsilon"] == 1e-6 and doc["certificate"]["maximal"] is True
    face = _face(doc, 0, "hi")
    assert doc["certificate"]["faces"].index(face) == 1
    assert face["blocked_by"] == "NOx" and face["margin"] == 4.0167770332111274e-06
    assert main(["verify", problem_path("emissions.json"), str(GOLDEN_EMISSIONS)]) == 0


@pytest.mark.parametrize("name", ["emissions", "adas", "adas_tall"])
def test_verify_runs_no_grid_oracle(capsys, monkeypatch, name):
    from cddkit import orthotope

    def refuse(*args):
        raise AssertionError("verify ran the grid oracle")

    monkeypatch.setattr(orthotope, "oracle_check_steps", refuse)
    monkeypatch.setattr(orthotope, "_grid_sweep", refuse)
    result = run_cli("verify", problem_path(f"{name}.json"), str(GOLDEN / f"{name}_solution.json"), capsys=capsys)
    assert result == (0, f"problem: {name}\nagreement: yes\n", "")


@pytest.mark.parametrize(
    "edit, expected",
    [
        # the re-solve runs in the stored order, which grows factor 0 first and leaves factor 1 no room
        (lambda doc: doc.update(ranking=[0, 1, 2]), (5, [
            "orthotope[0].hi is 0.530215313509173, re-solve gives 0.923874040852056",
            "orthotope[1].hi is 1.0, re-solve gives 0.0",
            'orthotope[1].binding.hi is "ambient", re-solve gives "NOx"',
            "certificate.faces[1].margin is 4.0167770332111274e-06, re-solve gives 2.150834676584168e-06",
            'certificate.faces[3].blocked_by is "ambient", re-solve gives "NOx"',
            "certificate.faces[3].margin is 0.0, re-solve gives 2.88999828e-06",
        ], "")),
        # a ranking that is no permutation is malformed, as ``solve --ranking`` finds it
        (lambda doc: doc.update(ranking=[1, 1, 2]),
         (2, [], "error: ranking (1, 1, 2) is not a permutation of 0..2\n")),
        (lambda doc: doc.update(ranking=[1, 0, 2, 3]),
         (2, [], "error: ranking (1, 0, 2, 3) is not a permutation of 0..2\n")),
    ],
    ids=["ranking-012", "ranking-repeats", "ranking-too-long"],
)
def test_verify_re_solves_at_the_stored_ranking(tmp_path, capsys, edit, expected):
    assert _verify_edited_golden(tmp_path, capsys, edit) == expected


def _set_binding(axis, side, value):
    return lambda doc: doc["orthotope"][axis]["binding"].update({side: value})


@pytest.mark.parametrize(
    "edit, fails",
    [
        (_set_binding(0, "hi", "bogus"), ['orthotope[0].binding.hi is "bogus", re-solve gives "NOx"']),
        (_set_binding(0, "hi", "ambient"), ['orthotope[0].binding.hi is "ambient", re-solve gives "NOx"']),
        # and a constraint named on an end that sits on its ambient bound
        (_set_binding(1, "hi", "NOx"), ['orthotope[1].binding.hi is "NOx", re-solve gives "ambient"']),
        # another constraint, or "numerical" on one end of an axis that grew
        (_set_binding(0, "hi", "CO2"), ['orthotope[0].binding.hi is "CO2", re-solve gives "NOx"']),
        (_set_binding(2, "hi", "CO2"), ['orthotope[2].binding.hi is "CO2", re-solve gives "Soot"']),
        (_set_binding(0, "lo", "numerical"), ['orthotope[0].binding.lo is "numerical", re-solve gives "ambient"']),
        # a lower end is checked as an upper one is, and each end of an axis on its own
        (_set_binding(2, "lo", "Soot"), ['orthotope[2].binding.lo is "Soot", re-solve gives "ambient"']),
        (lambda doc: doc["orthotope"][0].update(binding={"lo": "NOx", "hi": "ambient"}), [
            'orthotope[0].binding.lo is "NOx", re-solve gives "ambient"',
            'orthotope[0].binding.hi is "ambient", re-solve gives "NOx"',
        ]),
    ],
    ids=["binding-bogus", "ambient-inside", "constraint-on-the-bound", "binding-swap", "binding-swap-axis-2",
         "numerical-on-one-end", "constraint-on-a-lower-end", "ends-swapped"],
)
def test_verify_checks_each_axis_s_bindings(tmp_path, capsys, edit, fails):
    assert _verify_edited_golden(tmp_path, capsys, edit) == (5, fails, "")


def _leaf_paths(node, path=()):
    """The path of every leaf of a JSON document, depth first."""
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _leaf_paths(child, (*path, key))
    else:
        yield path


def _tampered(value, names):
    """``value`` edited once: a bool flipped, an int + 1, a float one ulp toward 0 (a zero changes
    its sign), a string to the first of ``names`` that it is not."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return math.nextafter(value, 0.0) if value else -value
    return next(name for name in names if name != value)


def _leaf_edits(doc, names):
    """Each single-leaf edit of ``doc``: the leaf ``_tampered``, or set to null, to its own JSON text
    or to true, skipping an edit that leaves it as it was; one ``(path, value)`` pair each."""
    for path in _leaf_paths(doc):
        value = doc
        for key in path:
            value = value[key]
        for new in (_tampered(value, names), None, json.dumps(value), True):
            if not (type(new) is type(value) and new == value):
                yield path, new


def _set_leaf(path, value):
    def edit(doc):
        *parents, key = path
        for parent in parents:
            doc = doc[parent]
        doc[key] = value

    return edit


_LEAF_EDITS = {"emissions": 156, "adas": 109, "adas_tall": 108}


@pytest.mark.parametrize("name, count", [("emissions", 41), ("adas", 28), ("adas_tall", 28)])
def test_verify_refuses_every_single_leaf_edit_of_a_golden(tmp_path, capsys, name, count):
    # and ``rosetta --solution`` refuses, with exit 2, exactly the edited files that ``verify`` refuses so
    names = [c["surface"] for c in json.loads(data_path(f"{name}.json").read_text())["constraints"]]
    golden = json.loads((GOLDEN / f"{name}_solution.json").read_text())
    assert len(list(_leaf_paths(golden))) == count
    cases = list(_leaf_edits(golden, names))
    assert len(cases) == _LEAF_EDITS[name]
    passed, disagree = [], []
    for path, value in cases:
        code, fails, err = _verify_edited_golden(tmp_path, capsys, _set_leaf(path, value), name)
        if not (code == 5 and fails and err == "" or code == 2 and err.startswith("error: ")):
            passed.append((path, value, code))
        rosetta = run_cli("rosetta", problem_path(f"{name}.json"), "--solution", str(tmp_path / "edited_solution.json"),
                          "--resolution", "5", "--out", str(tmp_path / "report"), capsys=capsys)
        if (rosetta[0] == 2) != (code == 2) or code == 2 and rosetta != (2, "", err):
            disagree.append((path, value, code, rosetta[0]))
    assert (passed, disagree) == ([], [])


def _set_face(axis, side, key, value):
    return lambda doc: _face(doc, axis, side).update({key: value})


_FACE_0_HI_MARGIN = 4.0167770332111274e-06


@pytest.mark.parametrize(
    "edit, fails",
    [
        (lambda doc: doc["certificate"].update(epsilon=0.5), ["certificate.epsilon is 0.5, re-solve gives 1e-06"]),
        (_set_face(0, "hi", "blocked_by", "CO2"), ['certificate.faces[1].blocked_by is "CO2", re-solve gives "NOx"']),
        (_set_face(0, "hi", "margin", 123.0),
         [f"certificate.faces[1].margin is 123.0, re-solve gives {_FACE_0_HI_MARGIN!r}"]),
        # null matches only null, and a margin one ulp off is another margin
        (_set_face(0, "hi", "margin", None),
         [f"certificate.faces[1].margin is null, re-solve gives {_FACE_0_HI_MARGIN!r}"]),
        (_set_face(0, "hi", "margin", math.nextafter(_FACE_0_HI_MARGIN, 1.0)),
         [f"certificate.faces[1].margin is 4.016777033211128e-06, re-solve gives {_FACE_0_HI_MARGIN!r}"]),
        (_set_face(0, "hi", "axis", 2), ["certificate.faces[1].axis is 2, re-solve gives 0"]),
        (_set_face(0, "hi", "side", "lo"), ['certificate.faces[1].side is "lo", re-solve gives "hi"']),
        (lambda doc: doc["certificate"].update(faces=doc["certificate"]["faces"][:5]),
         ["certificate.faces has length 5, re-solve gives 6"]),
        # a box end moved 7.3e-14 inward, bindings and certificate left as they were
        (lambda doc: doc["orthotope"][0].update(hi=0.5302153135091),
         ["orthotope[0].hi is 0.5302153135091, re-solve gives 0.530215313509173"]),
        # a zero of the other sign, and an end one ulp outward that stays inside every bound
        (lambda doc: doc["orthotope"][1].update(lo=-0.0), ["orthotope[1].lo is -0.0, re-solve gives 0.0"]),
        (lambda doc: doc["orthotope"][2].update(hi=0.9479696304861929),
         ["orthotope[2].hi is 0.9479696304861929, re-solve gives 0.9479696304861928"]),
    ],
    ids=["epsilon", "blocked-by", "margin", "null-margin", "margin-ulp", "axis", "side", "face-count",
         "box-end-moved-inward", "box-end-signed-zero", "box-end-one-ulp-outward"],
)
def test_verify_compares_the_stored_certificate_with_the_recomputed_one(tmp_path, capsys, edit, fails):
    assert _verify_edited_golden(tmp_path, capsys, edit) == (5, fails, "")


@pytest.mark.parametrize(
    "edit, line",
    [
        # writing back what each field reads as does not give it again, so the file does not load
        (lambda doc: doc["certificate"].update(maximal=False),
         "certificate.maximal is false, reading it back gives true"),
        (lambda doc: doc["certificate"].update(epsilon="1e-06"),
         'certificate.epsilon is "1e-06", reading it back gives 1e-06'),
        # NaN equals no number, itself included
        (lambda doc: doc["certificate"].update(epsilon=float("nan")),
         "certificate.epsilon is NaN, reading it back gives NaN"),
        (lambda doc: doc["certificate"].pop("maximal"), "certificate.maximal is missing, reading it back gives true"),
        (lambda doc: doc["certificate"].update(maximal=1), "certificate.maximal is 1, reading it back gives true"),
        (lambda doc: doc["certificate"].update(faces={}), "certificate.faces is {}, reading it back gives []"),
        (lambda doc: doc["certificate"].update(faces=""), 'certificate.faces is "", reading it back gives []'),
        (_set_face(0, "hi", "axis", "0"), 'certificate.faces[1].axis is "0", reading it back gives 0'),
        (_set_face(0, "hi", "blocked_by", ["NOx"]),
         'certificate.faces[1].blocked_by is ["NOx"], reading it back gives "[\'NOx\']"'),
        (_set_face(0, "hi", "blocked_by", {"NOx": None}),
         'certificate.faces[1].blocked_by is {"NOx": null}, reading it back gives "{\'NOx\': None}"'),
        (_set_face(0, "hi", "margin", "nan"), 'certificate.faces[1].margin is "nan", reading it back gives null'),
        (_set_face(0, "hi", "margin", float("inf")),
         "certificate.faces[1].margin is Infinity, reading it back gives null"),
        (_set_face(0, "hi", "margin", True), "certificate.faces[1].margin is true, reading it back gives 1.0"),
    ],
    ids=["maximal", "epsilon-text", "epsilon-nan", "maximal-missing", "maximal-1", "faces-object", "faces-text",
         "axis-text", "blocked-by-array", "blocked-by-object", "margin-text", "margin-infinity", "margin-true"],
)
def test_a_certificate_that_does_not_read_back_as_written_is_malformed(tmp_path, capsys, edit, line):
    assert _refused_on_load(tmp_path, capsys, edit) == f"error: malformed solve result: {line}\n"


@pytest.mark.parametrize(
    "edit, message",
    [
        # ``rosetta --solution`` once drew this file, which ``verify`` refused
        (lambda doc: (doc.update(ranking=[7, 7]), doc["orthotope"][0].update(binding={"lo": None, "hi": 5})),
         "ranking (7, 7) is not a permutation of 0..2"),
        (_set_binding(0, "hi", None),
         'malformed solve result: orthotope[0].binding.hi is null, reading it back gives "None"'),
        (_set_binding(0, "lo", 5), 'malformed solve result: orthotope[0].binding.lo is 5, reading it back gives "5"'),
        (lambda doc: doc["orthotope"][0].update(lo="0.0"),
         'malformed solve result: orthotope[0].lo is "0.0", reading it back gives 0.0'),
        # a free face under a certificate that says maximal
        (_set_face(0, "hi", "blocked_by", None),
         "malformed solve result: certificate.maximal is true, reading it back gives false"),
        # an integer past the float range reads back as itself, yet has no value to compare as a number
        (_set_face(0, "hi", "axis", 10**400), "malformed solve result: int too large to convert to float"),
        (lambda doc: doc["orthotope"][0].update(lo=10**400),
         "malformed solve result: int too large to convert to float"),
    ],
    ids=["ranking-and-bindings", "binding-null", "binding-number", "end-as-text", "maximal-with-a-free-face",
         "axis-past-the-float-range", "end-past-the-float-range"],
)
def test_verify_and_rosetta_refuse_a_file_that_does_not_read_back_as_written(tmp_path, capsys, edit, message):
    assert _refused_on_load(tmp_path, capsys, edit) == f"error: {message}\n"


def test_an_infeasible_box_still_has_its_epsilon_and_bindings_checked(tmp_path, capsys):
    def edit(doc):
        doc["orthotope"][0]["hi"] = 0.6
        doc["orthotope"][2]["binding"]["hi"] = "CO2"
        doc["certificate"]["epsilon"] = 0.5

    code, fails, err = _verify_edited_golden(tmp_path, capsys, edit)
    assert (code, err) == (5, "")
    assert fails[0].startswith("stored box violates NOx <= ")
    assert fails[1:] == [
        "orthotope[0].hi is 0.6, re-solve gives 0.530215313509173",
        'orthotope[2].binding.hi is "CO2", re-solve gives "Soot"',
        "certificate.epsilon is 0.5, re-solve gives 1e-06",
    ]


def test_a_solve_whose_ladder_gives_up_is_not_maximal_and_does_not_verify(tmp_path, capsys):
    # every try of x on [1e6, 2e6] fails the roundoff check, so the step keeps the seed point; this pins
    # that such a box is never called maximal, not that the box is right
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps({
        "name": "ladder", "variables": [{"name": "x", "lo": 1e6, "hi": 2e6}],
        "surfaces": [{"name": "z", "beta0": 0.0, "linear": [0.0], "quadratic": [5e-13]}],
        "constraints": [{"surface": "z", "bound": 1.5}], "seed": [1.5e6],
    }))
    code, out, err = run_cli("solve", str(path), "--out", str(tmp_path), "--json", capsys=capsys)
    assert (code, err) == (4, "certification failed: some face is not blocked\n")
    doc = json.loads(out)
    assert doc["orthotope"] == [{"lo": 1.5e6, "hi": 1.5e6, "binding": {"lo": "numerical", "hi": "numerical"}}]
    assert doc["certificate"]["maximal"] is False
    assert [f["blocked_by"] for f in doc["certificate"]["faces"]] == [None, None]
    # the file is what the solver writes, so only the free faces are refused
    code, out, err = run_cli("verify", str(path), str(tmp_path / "ladder_solution.json"), capsys=capsys)
    assert (code, out, err) == (
        5, "problem: ladder\nFAIL face 0/lo can still expand\nFAIL face 0/hi can still expand\nagreement: no\n", ""
    )


def _strict_json(text):
    """Parse ``text`` as JSON proper: ``Infinity``, ``-Infinity`` and ``NaN`` are refused."""

    def refuse(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def test_every_json_output_is_strict_with_an_infinite_bound(tmp_path, capsys):
    def unbound_nox(doc):
        doc["constraints"][1]["bound"] = float("inf")  # written as Infinity, which the format allows

    path = _edited_problem(tmp_path, unbound_nox)
    code, out, _ = run_cli("evaluate", path, "--point", "0,0,0", "--json", capsys=capsys)
    assert code == 0
    assert _strict_json(out)["slacks"]["NOx"] is None
    code, out, _ = run_cli("quantify", path, "NOx <= 1e999", "--json", capsys=capsys)
    assert code == 0
    assert _strict_json(out) == {"surface": "NOx", "op": "<=", "bound": None}
    code, out, _ = run_cli("solve", path, "--out", str(tmp_path), "--json", capsys=capsys)
    assert code == 0
    solution = tmp_path / "emissions_solution.json"
    assert _strict_json(out) == _strict_json(solution.read_text())
    code, out, _ = run_cli("verify", path, str(solution), "--json", capsys=capsys)
    assert code == 0
    assert _strict_json(out)["agreement"] is True


def test_quantify_minus_infinite_bound_exits_2(capsys):
    code, out, err = run_cli(
        "quantify", problem_path("emissions.json"), "NOx <= -1e999", "--json", capsys=capsys
    )
    assert code == 2
    assert out == ""
    assert "-inf" in err


def test_overflowing_face_margin_is_written_as_null(tmp_path, capsys):
    # pushing either face by 0.1 * 20 takes 1.7e308 * x**2 past the float range,
    # so both faces are blocked with an infinite margin
    doc = {
        "name": "huge",
        "variables": [{"name": "x", "lo": -10.0, "hi": 10.0}],
        "surfaces": [{"name": "z", "beta0": 0.0, "linear": [0.0], "quadratic": [1.7e308]}],
        "constraints": [{"surface": "z", "bound": 1.7e308}],
        "seed": [0.0],
        "tolerance": 0.1,
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("solve", str(path), "--out", str(tmp_path), "--json", capsys=capsys)
    assert code == 0
    faces = _strict_json(out)["certificate"]["faces"]
    assert [(f["blocked_by"], f["margin"]) for f in faces] == [("z", None), ("z", None)]
    solution = tmp_path / "huge_solution.json"
    stored = SolveResult.from_json(_strict_json(solution.read_text()))
    assert [f.margin for f in stored.certificate.faces] == [math.inf, math.inf]
    code, out, _ = run_cli("verify", str(path), str(solution), "--json", capsys=capsys)
    assert code == 0
    assert _strict_json(out)["agreement"] is True


def test_infeasible_seed_exits_3(tmp_path, capsys):
    doc = json.loads(data_path("emissions.json").read_text())
    doc["seed"] = [1.0, 0.84, 0.0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli("solve", str(bad), capsys=capsys)
    assert code == 3
    assert "seed" in err


def test_seed_slack_below_the_tolerance_exits_3(tmp_path, capsys):
    # the bundled seed has slack 0.03 on CO2 <= 6.0, which a tolerance of 1 refuses
    path = _edited_problem(tmp_path, lambda doc: doc.update(tolerance=1.0))
    code, out, err = run_cli("solve", path, "--out", str(tmp_path), capsys=capsys)
    assert (code, out) == (3, "")
    assert "seed slack 0.03 on CO2 <= 6.0 is below the tolerance 1\n" in err and "violates" not in err


def test_rosetta_formats(tmp_path, capsys):
    code, out, _ = run_cli(
        "rosetta",
        problem_path("emissions.json"),
        "--resolution",
        "5",
        "--csv",
        "--out",
        str(tmp_path),
        capsys=capsys,
    )
    assert code == 0
    names = {p.strip().split("/")[-1] for p in out.splitlines()}
    assert names == {"emissions_Q.csv", "emissions_M.csv", "emissions_N.csv"}
    code, out, _ = run_cli(
        "rosetta",
        problem_path("emissions.json"),
        "--resolution",
        "5",
        "--svg",
        "--out",
        str(tmp_path),
        capsys=capsys,
    )
    assert code == 0
    assert (tmp_path / "emissions_M.svg").exists()
    assert (tmp_path / "emissions_N.svg").exists()
    assert (tmp_path / "emissions_Q.svg").exists()


def test_logic_theory_verdicts(capsys):
    code, out, _ = run_cli(
        "logic",
        "--theory",
        str(data_path("logic/orthogonality_theory.json")),
        "--structure",
        str(data_path("logic/triangle_345.json")),
        capsys=capsys,
    )
    assert code == 0
    assert "model: yes" in out
    code, out, _ = run_cli(
        "logic",
        "--theory",
        str(data_path("logic/orthogonality_theory.json")),
        "--structure",
        str(data_path("logic/triangle_234.json")),
        capsys=capsys,
    )
    assert code == 0
    assert "model: no" in out


def test_logic_graph_translation(capsys):
    code, out, _ = run_cli(
        "logic", "--graph", str(data_path("logic/ecs_graph.json")), capsys=capsys
    )
    assert code == 0
    assert out.strip() == (
        "exists v1. exists v2. exists v3. ECS(v1) and Emissions(v2) and Engine(v3) "
        "and Controls(v1, v2) and Provides_Calibrations(v1, v3)"
    )


def test_logic_without_inputs_exits_2(capsys):
    code, _, err = run_cli("logic", capsys=capsys)
    assert code == 2


@pytest.mark.parametrize("given", ["--theory", "--structure"])
def test_logic_with_one_of_theory_and_structure_exits_2_with_one_error_line(capsys, given):
    path = str(data_path("logic/orthogonality_theory.json" if given == "--theory" else "logic/triangle_345.json"))
    code, out, err = run_cli("logic", given, path, capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "error: logic needs --theory and --structure, or --graph\n"


def test_quantify(capsys):
    code, out, _ = run_cli(
        "quantify", problem_path("adas.json"), "CO2 <= 30", capsys=capsys
    )
    assert code == 0
    assert out.strip() == "CO2 <= 30.0"
    code, _, err = run_cli(
        "quantify", problem_path("adas.json"), "CO2 >= 30", capsys=capsys
    )
    assert code == 2


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "cddkit.cli", "evaluate", problem_path("adas.json"),
         "--point", "1800,142", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["feasible"] is True


def _edited_problem(tmp_path, edit):
    doc = json.loads(data_path("emissions.json").read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_solve_nan_tolerance_exits_2(tmp_path, capsys):
    path = _edited_problem(tmp_path, lambda doc: doc.update(tolerance=float("nan")))
    code, _, err = run_cli("solve", path, "--out", str(tmp_path), capsys=capsys)
    assert code == 2
    assert "tolerance" in err


def test_solve_nan_bound_exits_2(tmp_path, capsys):
    path = _edited_problem(tmp_path, lambda doc: doc["constraints"][1].update(bound=float("nan")))
    code, _, err = run_cli("solve", path, "--out", str(tmp_path), capsys=capsys)
    assert code == 2
    assert "bound" in err and "NOx" in err


def test_solve_infinite_bound_means_unconstrained(tmp_path, capsys):
    path = _edited_problem(tmp_path, lambda doc: doc["constraints"][1].update(bound=float("inf")))
    code, out, _ = run_cli("solve", path, "--out", str(tmp_path), "--json", capsys=capsys)
    assert code == 0
    assert json.loads(out)["certificate"]["maximal"] is True


@pytest.mark.parametrize(
    "command, option",
    [
        ("solve", "--epsilon=1e-6"),
        ("verify", "--epsilon=1e-6"),
        ("verify", "--resolution=201"),
        ("solve", "--epsilon nan"),
        ("solve", "--epsilon -1"),
        ("verify", "--resolution 500"),
        ("verify", "--resolution 1"),
    ],
)
def test_the_certificate_epsilon_and_the_replay_resolution_are_not_options(tmp_path, capsys, command, option):
    # solve certifies at the problem's tolerance, and verify re-solves as solve does;
    # a value given apart from the option is refused with it
    files = [problem_path("emissions.json"), str(tmp_path / "missing.json")] if command == "verify" else [
        problem_path("emissions.json"), "--out", str(tmp_path)]
    with pytest.raises(SystemExit) as refused:
        main([command, *files, *option.split(" ")])
    out, err = capsys.readouterr()
    assert (refused.value.code, out) == (2, "")
    assert err.endswith(f"error: unrecognized arguments: {option}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["emissions.json", "adas.json", "adas_tall.json"])
def test_verify_text_output_names_only_the_problem(tmp_path, capsys, name):
    stem = json.loads(data_path(name).read_text())["name"]
    run_cli("solve", problem_path(name), "--out", str(tmp_path), capsys=capsys)
    code, out, _ = run_cli("verify", problem_path(name), str(tmp_path / f"{stem}_solution.json"), capsys=capsys)
    assert (code, out) == (0, f"problem: {stem}\nagreement: yes\n")


@pytest.mark.parametrize("tolerance", [-1.0, 0.0, -0.0])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_a_tolerance_that_is_not_positive_exits_2(tmp_path, capsys, command, tolerance):
    # the certificate is computed at the problem's tolerance, so the problem file refuses a bad one
    run_cli("solve", problem_path("emissions.json"), "--out", str(tmp_path), capsys=capsys)
    path = _edited_problem(tmp_path, lambda doc: doc.update(tolerance=tolerance))
    args = [str(tmp_path / "emissions_solution.json")] if command == "verify" else ["--out", str(tmp_path / "out")]
    code, out, err = run_cli(command, path, *args, capsys=capsys)
    assert (code, out) == (2, "")
    assert err == f"error: tolerance must be positive and finite, got {tolerance!r}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("resolution", ["x", "", "21.0", "1e3", "None", "5,5", "-"])
def test_a_resolution_that_is_not_an_integer_exits_2_with_one_error_line(tmp_path, capsys, resolution):
    # the text is read before any file, so a missing problem does not come first
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli("rosetta", missing, "--out", str(tmp_path), f"--resolution={resolution}", capsys=capsys)
    assert (code, out) == (2, "")
    reason = f"invalid literal for int() with base 10: {resolution!r}"
    assert err == f"error: malformed resolution {resolution!r}: {reason}\n"


def test_an_empty_ranking_exits_2_with_one_error_line(tmp_path, capsys):
    # an empty text is a given ranking, not an absent one; it is read before the problem file
    code, out, err = run_cli("solve", problem_path("emissions.json"), "--ranking=", "--out", str(tmp_path),
                             capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "error: malformed ranking '': invalid literal for int() with base 10: ''\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "ranking, piece",
    [("x", "x"), ("0,,1", ""), ("2,0,1,", ""), ("1.0,0,2", "1.0"), ("0;1;2", "0;1;2"), ("None", "None")],
)
def test_a_ranking_that_is_not_integers_exits_2_with_one_error_line(tmp_path, capsys, ranking, piece):
    # the text is read before any file, so a missing problem does not come first
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli("solve", missing, f"--ranking={ranking}", "--out", str(tmp_path / "out"), capsys=capsys)
    assert (code, out) == (2, "")
    assert err == f"error: malformed ranking {ranking!r}: invalid literal for int() with base 10: {piece!r}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("ranking", ["0,1", "0,1,2,3", "0,0,1", "3,0,1", "-1,0,1"])
def test_a_ranking_that_is_not_a_permutation_exits_2(tmp_path, capsys, ranking):
    code, out, err = run_cli(
        "solve", problem_path("emissions.json"), f"--ranking={ranking}", "--out", str(tmp_path / "out"),
        capsys=capsys,
    )
    order = tuple(int(v) for v in ranking.split(","))
    assert (code, out) == (2, "")
    assert err == f"error: ranking {order} is not a permutation of 0..2\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("ranking", [" 2, 0 ,1 ", "+2,0,1", "2,00,1", "2,0,0_1"])
def test_solve_reads_a_ranking_as_int_does(tmp_path, capsys, ranking):
    def solution(out, text):
        code, _, _ = run_cli("solve", problem_path("emissions.json"), f"--ranking={text}", "--out", str(out),
                             capsys=capsys)
        assert code == 0
        return (out / "emissions_solution.json").read_bytes()

    text = solution(tmp_path / "text", ranking)
    assert json.loads(text)["ranking"] == [2, 0, 1]
    assert text == solution(tmp_path / "int", "2,0,1")


@pytest.mark.parametrize("resolution, same_as", [(None, "21"), (" 5", "5"), ("+05", "5")])
def test_rosetta_reads_a_resolution_as_int_does(tmp_path, capsys, resolution, same_as):
    def n_matrix(out, *option):
        args = [problem_path("emissions.json"), *option, "--csv", "--out", str(out)]
        code, _, _ = run_cli("rosetta", *args, capsys=capsys)
        assert code == 0
        return (out / "emissions_N.csv").read_text()

    option = [] if resolution is None else [f"--resolution={resolution}"]
    assert n_matrix(tmp_path / "text", *option) == n_matrix(tmp_path / "int", "--resolution", same_as)


def test_a_negative_point_is_given_with_an_equals_sign(capsys):
    # "--point -0.5,0,0" reads as an option to argparse; the "=" form takes the value as it is
    code, out, _ = run_cli("evaluate", problem_path("emissions.json"), "--point=-0.5,0,0", "--json", capsys=capsys)
    assert code == 0
    assert json.loads(out)["point"] == [-0.5, 0.0, 0.0]


def test_solve_epsilon_whose_push_overflows_blocks_every_face_at_ambient(tmp_path, capsys):
    # the box stops inside [-1, 1] at z = 1.5e308, but the push, tolerance * width = 1e308 * 2,
    # is past every float, so it overshoots the room left to each ambient bound
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({
        "name": "overflow",
        "variables": [{"name": "x", "lo": -1.0, "hi": 1.0}],
        "surfaces": [{"name": "z", "beta0": 0.0, "linear": [0.0], "quadratic": [1.7e308]}],
        "constraints": [{"surface": "z", "op": "<=", "bound": 1.5e308}],
        "seed": [0.0],
        "tolerance": 1e308,
    }))
    code, out, _ = run_cli("solve", str(path), "--out", str(tmp_path), "--json", capsys=capsys)
    assert code == 0
    doc = json.loads(out)
    (interval,) = doc["orthotope"]
    assert -1.0 < interval["lo"] < -0.9 and 0.9 < interval["hi"] < 1.0
    assert doc["certificate"]["epsilon"] == 1e308
    faces = doc["certificate"]["faces"]
    assert [f["blocked_by"] for f in faces] == ["ambient"] * 2
    assert [f["margin"] for f in faces] == [interval["lo"] + 1.0, 1.0 - interval["hi"]]


def _break_missing_binding(doc):
    del doc["orthotope"][0]["binding"]
    return doc


def _break_top_level_list(doc):
    return [doc]


def _break_interval_order(doc):
    doc["orthotope"][0]["lo"] = doc["orthotope"][0]["hi"] + 1.0
    return doc


def _break_binding_not_an_object(doc):
    doc["orthotope"][0]["binding"] = "NOx"
    return doc


def _break_binding_missing_an_end(doc):
    del doc["orthotope"][0]["binding"]["hi"]
    return doc


def _break_axis_dropped(doc):
    doc["orthotope"].pop()
    return doc


def _break_orthotope_object(doc):
    doc["orthotope"] = {}
    return doc


@pytest.mark.parametrize(
    "edit",
    [_break_missing_binding, _break_top_level_list, _break_interval_order, _break_binding_not_an_object,
     _break_binding_missing_an_end, _break_axis_dropped, _break_orthotope_object],
)
def test_malformed_stored_result_exits_2(tmp_path, capsys, edit):
    run_cli("solve", problem_path("emissions.json"), "--out", str(tmp_path), capsys=capsys)
    path = tmp_path / "emissions_solution.json"
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    code, _, err = run_cli("verify", problem_path("emissions.json"), str(path), capsys=capsys)
    assert code == 2 and "error" in err
    code, _, err = run_cli(
        "rosetta", problem_path("emissions.json"), "--solution", str(path),
        "--resolution", "5", "--out", str(tmp_path), capsys=capsys,
    )
    assert code == 2 and "error" in err


def _with_a_step_log(doc):
    """The emissions solution as the format before each binding moved onto its axis wrote it."""
    seed = json.loads(data_path("emissions.json").read_text())["seed"]
    steps = []
    for j in doc["ranking"]:
        axis = doc["orthotope"][j]
        steps.append({"factor": j, "before": {"lo": float(seed[j]), "hi": float(seed[j])},
                      "after": {"lo": axis["lo"], "hi": axis["hi"]}, "binding": axis.pop("binding")})
    return {"orthotope": doc["orthotope"], "ranking": doc["ranking"], "steps": steps,
            "certificate": doc["certificate"]}


@pytest.mark.parametrize(
    "edit",
    # any "steps" key is refused before the rest of the document is read
    [_with_a_step_log, lambda doc: {**doc, "steps": []}, lambda doc: {**doc, "steps": None},
     lambda doc: {"steps": []}],
    ids=["old-form", "steps-key-added", "steps-null", "steps-only"],
)
def test_a_solution_with_a_step_log_is_refused_and_must_be_solved_again(tmp_path, capsys, edit):
    path = tmp_path / "old_solution.json"
    path.write_text(json.dumps(edit(json.loads(GOLDEN_EMISSIONS.read_text()))))
    message = "error: solve result has a 'steps' key: the file predates this format; solve the problem again\n"
    for args in (
        ("verify", problem_path("emissions.json"), str(path)),
        ("verify", problem_path("emissions.json"), str(path), "--json"),
        ("rosetta", problem_path("emissions.json"), "--solution", str(path), "--out", str(tmp_path / "report")),
    ):
        assert run_cli(*args, capsys=capsys) == (2, "", message)
    assert not (tmp_path / "report").exists()


@pytest.mark.parametrize(
    "dim, axis, side",
    [(3, 0, "hi"), (3, 1, "hi"), (3, 2, "hi"), (4, 3, "hi"), (3, 0, "lo"), (4, 3, "lo")],
    ids=["first-axis", "middle-axis", "last-axis", "four-variables", "first-axis-lo", "four-variables-lo"],
)
def test_stored_interval_outside_the_ambient_box_exits_2(tmp_path, capsys, dim, axis, side):
    # refused before any compare, at every N: verify once exited 2 only where a later
    # sweep met the interval, 5 on the last step and 0 where no replay ran, and rosetta 0
    path = problem_path("emissions.json") if dim == 3 else _random_problem_file(tmp_path, dim)
    stem = json.loads(Path(path).read_text())["name"]
    assert run_cli("solve", path, "--out", str(tmp_path), capsys=capsys)[0] == 0
    solution = tmp_path / f"{stem}_solution.json"
    doc = json.loads(solution.read_text())
    interval = doc["orthotope"][axis]
    interval[side] = 1e9 if side == "hi" else -1e9
    solution.write_text(json.dumps(doc))
    var = json.loads(Path(path).read_text())["variables"][axis]
    message = (
        f"error: interval [{float(interval['lo'])!r}, {float(interval['hi'])!r}] of {var['name']!r} "
        f"outside ambient [{float(var['lo'])!r}, {float(var['hi'])!r}]\n"
    )
    for args in (
        ("verify", path, str(solution)),
        ("rosetta", path, "--solution", str(solution), "--resolution", "5", "--out", str(tmp_path / "report")),
    ):
        assert run_cli(*args, capsys=capsys) == (2, "", message)


def test_ambient_width_that_overflows_exits_2(tmp_path, capsys):
    # x on [-1e308, 1e308] under z = x <= 1 once solved to [-1e308, 1.0] with both faces "ambient",
    # and verify passed its step check on a lattice of NaN and inf points
    doc = {
        "name": "wide",
        "variables": [{"name": "x", "lo": -5.0, "hi": 5.0}],
        "surfaces": [{"name": "z", "beta0": 0.0, "linear": [1.0], "quadratic": [0.0]}],
        "constraints": [{"surface": "z", "bound": 1.0}],
        "seed": [0.0],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert run_cli("solve", str(path), "--out", str(tmp_path), capsys=capsys)[0] == 0
    doc["variables"][0].update(lo=-1e308, hi=1e308)
    path.write_text(json.dumps(doc))
    message = (
        "error: malformed variable entry: variable 'x' has ambient bounds [-1e+308, 1e+308] "
        "whose width overflows\n"
    )
    solution = str(tmp_path / "wide_solution.json")
    for args in (
        ("evaluate", str(path), "--point", "0"),
        ("solve", str(path), "--out", str(tmp_path / "again")),
        ("verify", str(path), solution),
        ("rosetta", str(path), "--solution", solution, "--resolution", "5", "--out", str(tmp_path / "report")),
    ):
        assert run_cli(*args, capsys=capsys) == (2, "", message), args
    assert not (tmp_path / "again").exists() and not (tmp_path / "report").exists()


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["variables"][0].update(hi=doc["variables"][0]["lo"]),
        lambda doc: doc["variables"][0].update(lo="low"),
        lambda doc: doc.update(ranking=[1, "x", 2]),
    ],
    ids=["lo-equals-hi", "non-numeric-lo", "non-integer-ranking"],
)
def test_solve_bad_problem_entry_exits_2(tmp_path, capsys, edit):
    path = _edited_problem(tmp_path, edit)
    code, _, err = run_cli("solve", path, "--out", str(tmp_path), capsys=capsys)
    assert code == 2
    assert "error" in err


def test_rosetta_without_surfaces_writes_six_files(tmp_path, capsys):
    path = _edited_problem(tmp_path, lambda doc: doc.update(surfaces=[], constraints=[]))
    out = tmp_path / "report"
    code, stdout, err = run_cli("rosetta", path, "--resolution", "5", "--out", str(out), capsys=capsys)
    assert code == 0, err
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(f"emissions_{m}.{ext}" for m in "MNQ" for ext in ("csv", "svg"))
    assert sorted(Path(line).name for line in stdout.split()) == written


@pytest.mark.parametrize("key", ["variables", "surfaces", "constraints", "seed"])
def test_solve_non_array_problem_key_exits_2(tmp_path, capsys, key):
    # a number or null is not iterable, and a string iterates by character
    for value in (5, None, "000"):
        path = _edited_problem(tmp_path, lambda doc: doc.update({key: value}))
        code, out, err = run_cli("solve", path, "--out", str(tmp_path), capsys=capsys)
        assert code == 2, value
        assert out == ""
        assert key in err and "JSON array" in err


@pytest.mark.parametrize("point", ["nan,0,0", "0,inf,0", "0,0,-inf", "1e400,0,0"])
def test_evaluate_non_finite_point_exits_2(capsys, point):
    code, out, err = run_cli(
        "evaluate", problem_path("emissions.json"), "--point", point, "--json", capsys=capsys
    )
    assert code == 2
    assert out == ""
    assert "point coordinate" in err


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda doc: doc.update(seed=[float("nan"), 0.0, 0.0]), "seed"),
        (lambda doc: doc.update(seed=[0.0, float("-inf"), 0.0]), "seed"),
        (lambda doc: doc.update(tolerance=float("inf")), "tolerance"),
    ],
    ids=["nan-seed", "infinite-seed", "infinite-tolerance"],
)
def test_solve_non_finite_seed_or_tolerance_exits_2(tmp_path, capsys, edit, field):
    path = _edited_problem(tmp_path, edit)
    code, _, err = run_cli("solve", path, "--out", str(tmp_path), capsys=capsys)
    assert code == 2
    assert field in err


def test_finite_seed_outside_ambient_still_exits_3(tmp_path, capsys):
    path = _edited_problem(tmp_path, lambda doc: doc.update(seed=[1.5, 0.0, 0.0]))
    code, _, err = run_cli("solve", path, "--out", str(tmp_path), capsys=capsys)
    assert code == 3
    assert "ambient" in err


def _one_variable_problem(tmp_path, linear, quadratic, seed):
    """z = linear*x + quadratic*x**2 on [0, 20] with bound 1."""
    doc = {
        "name": "overflow",
        "variables": [{"name": "x", "lo": 0.0, "hi": 20.0}],
        "surfaces": [{"name": "z", "beta0": 0.0, "linear": [linear], "quadratic": [quadratic]}],
        "constraints": [{"surface": "z", "bound": 1.0}],
        "seed": [seed],
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "linear, quadratic, shown", [(1e308, -1e308, "nan"), (0.0, 1e308, "inf"), (0.0, -1e308, "-inf")]
)
@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_evaluate_non_finite_objective_exits_2(tmp_path, capsys, linear, quadratic, shown, mode):
    path = _one_variable_problem(tmp_path, linear, quadratic, seed=0.0)
    assert run_cli("evaluate", path, "--point", "1e-300", *mode, capsys=capsys)[0] == 0
    code, out, err = run_cli("evaluate", path, "--point", "10", *mode, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and f"'z' is {shown} " in err


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_evaluate_overflowing_slack_exits_2(tmp_path, capsys, mode):
    # z = 1e308*x0 + 1e308*x1 overflows to -inf at the seed, so the seed's slack is +inf and the problem loads
    doc = {
        "name": "overflow",
        "variables": [{"name": "x0", "lo": -1.0, "hi": 1.0}, {"name": "x1", "lo": -1.0, "hi": 1.0}],
        "surfaces": [{"name": "z", "beta0": 0.0, "linear": [1e308, 1e308], "quadratic": [0.0, 0.0]}],
        "constraints": [{"surface": "z", "bound": -1.7e308}],
        "seed": [-1.0, -1.0],
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    assert run_cli("evaluate", str(path), "--point", "0,0", *mode, capsys=capsys)[0] == 0
    # z = 1.7e308 is finite, but bound - z overflows to -inf
    code, out, err = run_cli("evaluate", str(path), "--point", "1.0,0.7", *mode, capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "error: slack of constraint 'z <= -1.7e+308' is -inf at the point: it overflows there\n"


@pytest.mark.parametrize(
    "command, extra",
    [
        ("solve", ["--out", "OUT"]),
        ("verify", ["RESULT"]),
        ("evaluate", ["--point", "0"]),
        ("quantify", ["z <= 1"]),
        ("rosetta", ["--resolution", "5", "--out", "OUT"]),
    ],
)
def test_nan_seed_slack_exits_3(tmp_path, capsys, command, extra):
    # 1e308*x - 1e308*x**2 is inf - inf at the seed, so the seed's slack is NaN
    path = _one_variable_problem(tmp_path, 1e308, -1e308, seed=10.0)
    result = tmp_path / "result.json"
    result.write_text(json.dumps({
        "orthotope": [{"lo": 10.0, "hi": 10.0, "binding": {"lo": "ambient", "hi": "ambient"}}],
        "ranking": [0],
        "certificate": {"epsilon": 1e-6, "faces": []},
    }))
    paths = {"RESULT": str(result), "OUT": str(tmp_path / "out")}
    code, out, err = run_cli(command, path, *(paths.get(arg, arg) for arg in extra), capsys=capsys)
    assert code == 3
    assert out == ""
    assert "seed violates z <= 1.0 (slack nan)" in err


@pytest.mark.parametrize("name", ["../escaped", "sub/escaped", "sub\\escaped", "nul\0name", "..", ".", ""])
@pytest.mark.parametrize("command", ["solve", "rosetta"])
def test_problem_name_cannot_leave_out_dir(tmp_path, capsys, name, command):
    work = tmp_path / "work"
    work.mkdir()
    path = _edited_problem(work, lambda doc: doc.update(name=name))
    out = work / "D"
    extra = ["--resolution", "5"] if command == "rosetta" else []
    code, _, err = run_cli(command, path, *extra, "--out", str(out), capsys=capsys)
    assert code == 2
    assert "name" in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["edited.json", "work"]


# --- malformed JSON ---------------------------------------------------------------

_MALFORMED_JSON = {
    "nested-too-deep": "[" * 100_000 + "]" * 100_000,
    "int-past-digit-limit": '{"seed": [' + "9" * 5000 + "]}",
    "truncated": '{"name": ',
    "not-utf8": b'{"name": "\xff"}',
}


@pytest.mark.parametrize("text", _MALFORMED_JSON.values(), ids=_MALFORMED_JSON)
@pytest.mark.parametrize(
    "command, args",
    [
        ("solve", ["BAD", "--out", "OUT"]),
        ("verify", ["BAD", "SOLUTION"]),
        ("verify", ["PROBLEM", "BAD"]),
        ("rosetta", ["BAD", "--out", "OUT"]),
        ("rosetta", ["PROBLEM", "--solution", "BAD", "--out", "OUT"]),
        ("evaluate", ["BAD", "--point", "0,0,0"]),
        ("logic", ["--graph", "BAD"]),
        ("logic", ["--theory", "BAD", "--structure", "STRUCTURE"]),
        ("logic", ["--theory", "THEORY", "--structure", "BAD"]),
    ],
    ids=["solve", "verify-problem", "verify-result", "rosetta-problem", "rosetta-solution", "evaluate",
         "logic-graph", "logic-theory", "logic-structure"],
)
def test_malformed_json_exits_2(tmp_path, capsys, command, args, text):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text.encode() if isinstance(text, str) else text)
    run_cli("solve", problem_path("emissions.json"), "--out", str(tmp_path), capsys=capsys)
    (tmp_path / "structure.json").write_text(_STRUCTURE)
    (tmp_path / "theory.json").write_text(_THEORY)
    paths = {
        "BAD": str(bad),
        "OUT": str(tmp_path / "out"),
        "PROBLEM": problem_path("emissions.json"),
        "SOLUTION": str(tmp_path / "emissions_solution.json"),
        "STRUCTURE": str(tmp_path / "structure.json"),
        "THEORY": str(tmp_path / "theory.json"),
    }
    code, out, err = run_cli(command, *(paths.get(arg, arg) for arg in args), capsys=capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1


_HUGE = int("9" * 400)  # an exact integer past the float range


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: doc["constraints"][0].update(bound=_HUGE),
        lambda doc: doc["surfaces"][0].update(beta0=_HUGE),
        lambda doc: doc["variables"][0].update(hi=_HUGE),
        lambda doc: doc.update(seed=[_HUGE, 0, 0]),
        lambda doc: doc.update(tolerance=_HUGE),
    ],
    ids=["bound", "beta0", "hi", "seed", "tolerance"],
)
def test_problem_integer_past_the_float_range_exits_2(tmp_path, capsys, edit):
    code, out, err = run_cli("solve", _edited_problem(tmp_path, edit), "--out", str(tmp_path), capsys=capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed ") and "int too large to convert to float" in err


def test_result_integer_past_the_float_range_exits_2(tmp_path, capsys):
    run_cli("solve", problem_path("emissions.json"), "--out", str(tmp_path), capsys=capsys)
    path = tmp_path / "emissions_solution.json"
    doc = json.loads(path.read_text())
    doc["orthotope"][0]["hi"] = _HUGE
    path.write_text(json.dumps(doc))
    code, out, err = run_cli("verify", problem_path("emissions.json"), str(path), capsys=capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed solve result: ")


# --- malformed logic documents ------------------------------------------------------

_SIGNATURE = '{"predicates": [["R", 2]], "functions": []}'
_STRUCTURE = '{"domain": [1], "relations": {"R": [[1, 1]]}}'
_THEORY = '{"signature": %s, "sentences": ["forall x. R(x, x)"]}' % _SIGNATURE


def _logic_exits_2(tmp_path, capsys, kind, text):
    docs = {"structure": _STRUCTURE, "theory": _THEORY, kind: text}
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(doc)
    if kind == "graph":
        args = ["--graph", str(paths["graph"])]
    else:
        args = ["--theory", str(paths["theory"]), "--structure", str(paths["structure"])]
    code, out, err = run_cli("logic", *args, capsys=capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    return err


def test_logic_well_formed_documents_exit_0(tmp_path, capsys):
    (tmp_path / "structure.json").write_text(_STRUCTURE)
    (tmp_path / "theory.json").write_text(_THEORY)
    code, out, _ = run_cli(
        "logic", "--theory", str(tmp_path / "theory.json"),
        "--structure", str(tmp_path / "structure.json"), capsys=capsys,
    )
    assert code == 0
    assert "model: yes" in out


@pytest.mark.parametrize(
    "text",
    [
        '{"domain": [3, NaN]}',
        '{"domain": [3, Infinity]}',
        '{"domain": [3, 1e400]}',
        '{"domain": 5}',
        '{"domain": [1], "relations": {"R": 5}}',
        '{"domain": [1], "relations": {"R": [5]}}',
        '{"domain": [1], "functions": {"f": {"table": 5}}}',
        '{"domain": [1], "functions": {"f": {"params": 5}}}',
        '{"domain": [1], "functions": {"f": {"table": [[[[1]], 1]]}}}',
    ],
    ids=["nan", "infinity", "1e400", "domain-5", "relation-5", "tuple-5", "table-5", "params-5",
         "table-args-nested"],
)
def test_logic_malformed_structure_exits_2(tmp_path, capsys, text):
    _logic_exits_2(tmp_path, capsys, "structure", text)


def test_logic_structure_repeating_a_domain_value_exits_2(tmp_path, capsys):
    # 1 and "1" are the same rational; the table is total over {1, 2}
    doc = {"domain": [1, "1", 2], "functions": {"f": {"table": [[[1], 2], [[2], 1]]}}}
    message = "domain repeats the value Fraction(1, 1)"
    with pytest.raises(SchemaError) as info:
        load_structure(doc)
    assert str(info.value) == message
    with pytest.raises(SchemaError) as info:
        RelationalStructure(domain=(1, "1"))
    assert str(info.value) == message
    assert _logic_exits_2(tmp_path, capsys, "structure", json.dumps(doc)) == f"error: {message}\n"


_DEEP_SENTENCES = {
    "parentheses": "(" * 200 + "R(x, x)" + ")" * 200,
    "not": "not " * 1000 + "R(x, x)",
    "and": " and ".join(["R(x, x)"] * 1000),
    "or": " or ".join(["R(x, x)"] * 1000),
    "->": " -> ".join(["R(x, x)"] * 1000),
}


@pytest.mark.parametrize("shape", _DEEP_SENTENCES)
def test_logic_deeply_nested_sentence_exits_2(tmp_path, capsys, shape):
    theory = {"signature": json.loads(_SIGNATURE), "sentences": ["forall x. " + _DEEP_SENTENCES[shape]]}
    err = _logic_exits_2(tmp_path, capsys, "theory", json.dumps(theory))
    if shape == "parentheses":
        # the 101st parenthesis, after "forall x. "
        assert err == f"error: parentheses nested more than {PARENTHESIS_LIMIT} deep at offset 110\n"
    else:
        assert err == f"error: syntax tree more than {SENTENCE_DEPTH_LIMIT} levels deep at offset 0\n"


def _nested_sum(levels):
    """x + x + ... as a builtin body ``levels`` deep: its lists, then the leaves."""
    body = "x"
    for _ in range(levels - 1):
        body = ["+", body, "x"]
    return body


def _run_logic(tmp_path, capsys, theory, structure):
    paths = {}
    for name, doc in (("theory", theory), ("structure", structure)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return run_cli("logic", "--theory", str(paths["theory"]), "--structure", str(paths["structure"]),
                   capsys=capsys)


def test_logic_deeply_nested_builtin_body_exits_2(tmp_path, capsys):
    structure = {"domain": [0, 1], "functions": {"sq": {"params": ["x"], "body": _nested_sum(600)}}}
    theory = {"signature": {"functions": [["sq", 1]]}, "sentences": ["forall x. sq(x) = sq(x)"]}
    code, out, err = _run_logic(tmp_path, capsys, theory, structure)
    assert (code, out, err) == (2, "", f"error: function body more than {BODY_DEPTH_LIMIT} levels deep\n")


def test_logic_sentence_and_body_at_their_limits_evaluate(tmp_path, capsys):
    """The deepest evaluation the limits allow: the first conjunct of a chain
    as high as a sentence may be applies a builtin as deep as a body may be."""
    structure = {"domain": [0, 1], "functions": {"sq": {"params": ["x"], "body": _nested_sum(BODY_DEPTH_LIMIT)}}}
    # forall, k - 1 ands, the equation, sq(...) and x: k + 3 levels
    chain = " and ".join(["sq(x) = sq(x)"] * (SENTENCE_DEPTH_LIMIT - 3))
    theory = {"signature": {"functions": [["sq", 1]]}, "sentences": ["forall x. " + chain]}
    code, out, err = _run_logic(tmp_path, capsys, theory, structure)
    assert (code, out.splitlines()[-1], err) == (0, "model: yes", "")


@pytest.mark.parametrize("concepts", [50, (SENTENCE_DEPTH_LIMIT - 1) // 2, (SENTENCE_DEPTH_LIMIT + 1) // 2, 1000])
def test_logic_graph_sentence_reads_back_within_the_depth_limit(tmp_path, capsys, concepts):
    # k concepts without referents: k exists, k - 1 ands, an atom and a variable
    graph = {"concepts": [{"id": f"c{i}", "type": "T"} for i in range(concepts)], "relations": []}
    (tmp_path / "graph.json").write_text(json.dumps(graph))
    code, out, err = run_cli("logic", "--graph", str(tmp_path / "graph.json"), "--json", capsys=capsys)
    if 2 * concepts + 1 > SENTENCE_DEPTH_LIMIT:
        # cdd never prints a sentence its own parser refuses
        message = f"error: the graph's sentence is more than {SENTENCE_DEPTH_LIMIT} levels deep\n"
        assert (code, out, err) == (2, "", message)
        return
    assert code == 0
    doc = json.loads(out)
    theory = {"signature": doc["signature"], "sentences": [doc["sentence"]]}
    code, out, err = _run_logic(tmp_path, capsys, theory, {"domain": [0], "relations": {"T": [[0]]}})
    assert (code, out.splitlines()[-1], err) == (0, "model: yes", "")


_ZERO_DENOMINATOR = "error: literal '1/0' has a zero denominator"
_CONSTANT_THEORY = {"signature": {"predicates": [["P", 1]], "functions": [["a", 0]]}, "sentences": ["P(a)"]}
_SQUARE_THEORY = {"signature": {"functions": [["sq", 1]]}, "sentences": ["forall x. sq(x) = sq(x)"]}


@pytest.mark.parametrize(
    "theory, structure, message",
    [
        (_CONSTANT_THEORY, {"domain": ["1/0"], "functions": {"a": "1/0"}}, _ZERO_DENOMINATOR),
        (_CONSTANT_THEORY, {"domain": [0], "relations": {"P": [["1/0"]]}, "functions": {"a": 0}},
         _ZERO_DENOMINATOR),
        (_CONSTANT_THEORY, {"domain": [0], "relations": {"P": [[0]]}, "functions": {"a": "1/0"}},
         _ZERO_DENOMINATOR),
        (_SQUARE_THEORY, {"domain": [0, 1], "functions": {"sq": {"params": ["x"], "body": ["+", "x", "1/0"]}}},
         _ZERO_DENOMINATOR),
        # at the literal's own offset
        ({**_CONSTANT_THEORY, "sentences": ["P(a) and a = 1/0"]},
         {"domain": [0], "relations": {"P": [[0]]}, "functions": {"a": 0}}, _ZERO_DENOMINATOR + " at offset 13"),
    ],
    ids=["domain-value", "relation-entry", "function-constant", "builtin-body", "sentence"],
)
def test_logic_zero_denominator_exits_2(tmp_path, capsys, theory, structure, message):
    assert _run_logic(tmp_path, capsys, theory, structure) == (2, "", message + "\n")


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_logic_graph_zero_denominator_referent_exits_2(tmp_path, capsys, mode):
    (tmp_path / "graph.json").write_text(json.dumps({"concepts": [{"id": "c", "type": "T", "referent": "1/0"}]}))
    code, out, err = run_cli("logic", "--graph", str(tmp_path / "graph.json"), *mode, capsys=capsys)
    assert (code, out, err) == (2, "", "error: referent of concept 'c': literal '1/0' has a zero denominator\n")


@pytest.mark.parametrize(
    "table, repeat",
    [
        ([[[1], 2], [[1], 1], [[2], 1]], "[1]"),  # in the document
        ([[[1], 2], [["1"], 1], [[2], 1]], "(Fraction(1, 1),)"),  # after coercion
    ],
    ids=["as-written", "after-coercion"],
)
def test_logic_structure_repeating_a_function_argument_exits_2(tmp_path, capsys, table, repeat):
    doc = {"domain": [1, 2], "functions": {"f": {"table": table}}}
    message = f"function 'f' table repeats the arguments {repeat}"
    with pytest.raises(SchemaError) as info:
        load_structure(doc)
    assert str(info.value) == message
    assert _logic_exits_2(tmp_path, capsys, "structure", json.dumps(doc)) == f"error: {message}\n"


def test_structure_repeating_a_function_argument_after_coercion_is_refused():
    with pytest.raises(SchemaError) as info:
        RelationalStructure(domain=(1, 2), functions={"f": {(1,): 2, ("1",): 1, (2,): 1}})
    assert str(info.value) == "function 'f' table repeats the arguments (Fraction(1, 1),)"


@pytest.mark.parametrize(
    "text",
    [
        '{"signature": %s, "sentences": [5]}' % _SIGNATURE,
        '{"signature": %s, "sentences": "forall x. x = x"}' % _SIGNATURE,
        '{"signature": [], "sentences": []}',
        '{"signature": {"predicates": 7}, "sentences": []}',
        '{"signature": {"predicates": [["R", "a"]]}, "sentences": []}',
        '{"signature": {"predicates": [["R", 0]]}, "sentences": []}',
        '{"signature": {"predicates": [["R", 1]], "functions": [["R", 0]]}, "sentences": []}',
        '{"signature": {"predicates": [["or", 1]]}, "sentences": []}',
        '{"signature": {"functions": [["a b", 0]]}, "sentences": []}',
    ],
    ids=["sentence-5", "sentences-string", "signature-array", "predicates-7",
         "arity-text", "arity-0", "duplicate-name", "keyword-name", "name-with-space"],
)
def test_logic_malformed_theory_exits_2(tmp_path, capsys, text):
    _logic_exits_2(tmp_path, capsys, "theory", text)


@pytest.mark.parametrize(
    "text",
    [
        '{"concepts": [5]}',
        '{"concepts": [{"id": "a", "type": "T"}], "relations": 5}',
        '{"concepts": []}',
        '{"concepts": [{"id": "a", "type": "T"}], "relations": [{"name": "R", "args": 5}]}',
        '{"concepts": [{"id": "a", "type": "T", "referent": NaN}]}',
        '{"concepts": [{"id": "a", "type": "T", "referent": Infinity}]}',
        '{"concepts": [{"id": "a", "type": "T", "referent": -Infinity}]}',
        '{"concepts": [{"id": "a", "type": "T", "referent": 1e400}]}',
        '{"concepts": [{"id": "a", "type": "T", "referent": true}]}',
        '{"concepts": [{"id": "a", "type": "T", "referent": false}]}',
        '{"concepts": [{"id": "a", "type": "T", "referent": [1]}]}',
        '{"concepts": [{"id": "a", "type": "T", "referent": {"n": 1}}]}',
    ],
    ids=["concept-5", "relations-5", "no-concepts", "args-5", "referent-nan", "referent-infinity",
         "referent-minus-infinity", "referent-1e400", "referent-true", "referent-false",
         "referent-array", "referent-object"],
)
def test_logic_malformed_graph_exits_2(tmp_path, capsys, text):
    _logic_exits_2(tmp_path, capsys, "graph", text)


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_logic_graph_with_a_keyword_type_exits_2(tmp_path, capsys, mode):
    # `exists v1. not(v1)` would not parse back: the graph's signature refuses the name
    (tmp_path / "graph.json").write_text(json.dumps({"concepts": [{"id": "c", "type": "not"}]}))
    code, out, err = run_cli("logic", "--graph", str(tmp_path / "graph.json"), *mode, capsys=capsys)
    assert (code, out, err) == (2, "", "error: predicate symbol 'not' is a keyword\n")


def test_logic_graph_variables_skip_declared_names(tmp_path, capsys):
    # the constant v1 and the types v2 and v4 are declared, so the variables are v3 and v5
    graph = {
        "concepts": [{"id": "c", "type": "v2"}, {"id": "d", "type": "U", "referent": "v1"},
                     {"id": "e", "type": "v4"}],
        "relations": [{"name": "R", "args": ["c", "d", "e"]}],
    }
    (tmp_path / "graph.json").write_text(json.dumps(graph))
    code, out, err = run_cli("logic", "--graph", str(tmp_path / "graph.json"), "--json", capsys=capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["sentence"] == "exists v3. exists v5. v2(v3) and U(v1) and v4(v5) and R(v3, v1, v5)"
    theory = {"signature": doc["signature"], "sentences": [doc["sentence"]]}
    structure = {"domain": [0], "relations": {"v2": [[0]], "U": [[0]], "v4": [[0]], "R": [[0, 0, 0]]},
                 "functions": {"v1": 0}}
    code, out, err = _run_logic(tmp_path, capsys, theory, structure)
    assert (code, out.splitlines()[-1], err) == (0, "model: yes", "")


def test_logic_graph_number_referents_are_exact_rationals(tmp_path, capsys):
    referents = [1e-7, 3, 2.5, -0.0, "7/3", "0.125", "unit_1"]
    doc = {"concepts": [{"id": f"c{i}", "type": "T", "referent": r} for i, r in enumerate(referents)]}
    (tmp_path / "graph.json").write_text(json.dumps(doc))
    code, out, err = run_cli("logic", "--graph", str(tmp_path / "graph.json"), capsys=capsys)
    assert (code, err) == (0, "")
    assert out.strip() == "T(1/10000000) and T(3) and T(5/2) and T(0) and T(7/3) and T(1/8) and T(unit_1)"
