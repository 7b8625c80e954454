"""Seeded mutation run of the command-line exit-code contract.

Mutates the bundled problem, solution, structure, theory and graph
documents, and the ``--point``, ``--ranking`` and ``--resolution``
texts, and runs each mutant through ``cddkit.cli.main`` in process.  A
mutation deletes a key or a list entry (the whole document too, which
leaves an empty file), duplicates an entry, or sets a value to one of
``SPECIALS``; an input takes one or two.  A problem goes to
``evaluate`` (at its seed), ``quantify``, ``solve``, ``verify`` (against
its own solution) or ``rosetta``; a solution to ``verify`` or ``rosetta
--solution``; a theory or a structure to ``logic --theory --structure``;
a graph to ``logic --graph``, with or without ``--json``.  A text is
mutated as the list of its comma-separated items (a problem's seed, its
solution's ranking, or the report's grid resolution alone) and written
back with ``str``, so a special becomes ``None``, ``[]``, ``1e+308`` and
so on: the point goes to ``evaluate``, the ranking to ``solve`` and the
resolution to ``rosetta``, each with its unmutated problem.  ``verify``
has no option text.  The only
specials that read as an integer, 0, 2**70 and 10**400 (past the float
range), are refused before a grid is made, so every run stays small.

The contract: every exit code is 0, 2, 3, 4 or 5, no exception escapes
``main``, and an exit 2 or 3 prints exactly one line to stderr, which
starts ``error: ``.  The script prints how often each exit code came up
and a digest of the (command, exit code, stderr) of every input, with the
temporary directory masked, so two checkouts that print the same digest
gave every input the same exit code and the same error text.  Every
message names what it finds in the order the document gives it, so the
digest does not depend on ``PYTHONHASHSEED``.  An argparse refusal counts
as its exit code and its usage text.  The script exits 1 and lists the
breaches when the contract does not hold:

    PYTHONPATH=src python tools/mutate.py [--seed 1] [--count 2000]
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import io
import json
import random
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from cddkit import data_path
from cddkit.cli import main as cli_main
from cddkit.designspace import load_problem
from cddkit.orthotope import solve_greedy

PROBLEMS = ("emissions", "adas", "adas_tall")
STRUCTURES = ("triangle_345", "triangle_234")
THEORY = "orthogonality_theory"
GRAPHS = ("cdd_graph", "ecs_graph")
SPECIALS = (0, -0.0, 1e308, -1e308, 5e-324, 2**70, 10**400, "", None, True, [], {}, "1/0", "nan")
# (mutated kind, command): each input draws one, then a bundled document or text of that kind
JOBS = (
    ("problem", "evaluate"),
    ("problem", "quantify"),
    ("problem", "solve"),
    ("problem", "verify"),
    ("problem", "rosetta"),
    ("solution", "verify"),
    ("solution", "rosetta"),
    ("structure", "logic"),
    ("theory", "logic"),
    ("graph", "logic"),
    ("point", "evaluate"),
    ("ranking", "solve"),
    ("resolution", "rosetta"),
)
# the option that takes each kind of text
TEXT_OPTIONS = {"point": "--point", "ranking": "--ranking", "resolution": "--resolution"}
CONTRACT_CODES = (0, 2, 3, 4, 5)
# a small grid: the run checks exit codes and messages, not the report's reach
ROSETTA_RESOLUTION = "5"


def _read(name: str):
    return json.loads(data_path(name).read_text())


def bundled_documents() -> dict:
    """Every bundled document and option text by kind and name; a problem's solution is its solve result."""
    problems = {name: _read(f"{name}.json") for name in PROBLEMS}
    solutions = {name: solve_greedy(load_problem(doc)).to_json() for name, doc in problems.items()}
    return {
        "problem": problems,
        "solution": solutions,
        "structure": {name: _read(f"logic/{name}.json") for name in STRUCTURES},
        "theory": {THEORY: _read(f"logic/{THEORY}.json")},
        "graph": {name: _read(f"logic/{name}.json") for name in GRAPHS},
        # each text as the list of its items
        "point": {name: doc["seed"] for name, doc in problems.items()},
        "ranking": {name: solution["ranking"] for name, solution in solutions.items()},
        "resolution": {name: [int(ROSETTA_RESOLUTION)] for name in problems},
    }


def _positions(holder: list) -> list:
    """(container, key) of every entry of the document in ``holder[0]``, the document itself first."""
    found, stack = [], [(holder, 0)]
    while stack:
        container, key = stack.pop()
        found.append((container, key))
        value = container[key]
        if isinstance(value, dict):
            stack += [(value, k) for k in value]
        elif isinstance(value, list):
            stack += [(value, i) for i in range(len(value))]
    return found


def mutate(rng: random.Random, doc, as_text: bool = False) -> str:
    """The JSON text, or with ``as_text`` the option text, of a mutated deep copy of ``doc``.

    It takes one or two deletions, duplications or special values.  An
    option text joins a list's items with commas.
    """
    holder = [copy.deepcopy(doc)]
    for _ in range(1 + (rng.random() < 0.3)):
        if not holder:
            break
        container, key = rng.choice(_positions(holder))
        action = rng.choice(("delete", "duplicate", "set"))
        if action == "delete":
            del container[key]
        elif action == "duplicate" and isinstance(container, list) and container is not holder:
            container.insert(key, copy.deepcopy(container[key]))
        elif action == "duplicate" and isinstance(container, dict) and len(container) > 1:
            # another key of the same object takes a copy of this entry's value
            container[rng.choice([k for k in container if k != key])] = copy.deepcopy(container[key])
        else:
            container[key] = copy.deepcopy(rng.choice(SPECIALS))
    if not holder:
        return ""
    if not as_text:
        return json.dumps(holder[0])
    return ",".join(map(str, holder[0])) if isinstance(holder[0], list) else str(holder[0])


def _argv(kind: str, command: str, name: str, docs: dict, tmp: Path, rng: random.Random, text: str) -> list[str]:
    """The command line that runs the mutant, beside unmutated companions.

    A mutated document is in ``tmp/mutant.json``; a mutated option text is
    ``text``, given as ``--option=text`` so that argparse takes one that
    starts with ``-`` as the value, and last, so that a mutated resolution
    replaces the fixed one.
    """
    mutant = str(tmp / "mutant.json")
    options = [f"{TEXT_OPTIONS[kind]}={text}"] if kind in TEXT_OPTIONS else []

    def companion(kind, name):
        path = tmp / f"{kind}-{name}.json"
        path.write_text(json.dumps(docs[kind][name]))
        return str(path)

    out = str(tmp / "out")
    if kind == "graph":
        return ["logic", "--graph", mutant] + (["--json"] if rng.random() < 0.5 else [])
    if kind == "structure":
        return ["logic", "--theory", companion("theory", THEORY), "--structure", mutant]
    if kind == "theory":
        return ["logic", "--theory", mutant, "--structure", companion("structure", rng.choice(STRUCTURES))]
    problem = mutant if kind == "problem" else companion("problem", name)
    if command == "evaluate":
        return ["evaluate", problem, *(options or ["--point", ",".join(map(repr, docs["problem"][name]["seed"]))])]
    if command == "quantify":
        return ["quantify", problem, f"{docs['problem'][name]['surfaces'][0]['name']} <= 1"]
    if command == "solve":
        return ["solve", problem, *options, "--out", out, "--json"]
    solution = mutant if kind == "solution" else companion("solution", name)
    if command == "verify":
        return ["verify", problem, solution]
    return ["rosetta", problem, "--solution", solution, "--resolution", ROSETTA_RESOLUTION, "--out", out, *options]


def run(seed: int, count: int) -> list[tuple[str, int | None, str]]:
    """(command, exit code, stderr) of ``count`` mutated inputs; the code is None when ``main`` raised."""
    rng = random.Random(seed)
    docs = bundled_documents()
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp_name:
        tmp = Path(tmp_name)
        for _ in range(count):
            kind, command = rng.choice(JOBS)
            name = rng.choice(sorted(docs[kind]))
            mutant = mutate(rng, docs[kind][name], as_text=kind in TEXT_OPTIONS)
            if kind not in TEXT_OPTIONS:
                (tmp / "mutant.json").write_text(mutant)
            argv = _argv(kind, command, name, docs, tmp, rng, mutant)
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                try:
                    code = cli_main(argv)
                except SystemExit as exc:  # argparse refused the command line
                    code = exc.code
                except Exception:
                    code = None
                    err.write(traceback.format_exc())
            outcomes.append((f"{command} {kind}", code, err.getvalue().replace(tmp_name, "<tmp>")))
    return outcomes


def breaches(outcomes) -> list[str]:
    """Each input that breaks the contract, as a line that says how."""
    found = []
    for index, (job, code, err) in enumerate(outcomes, 1):
        if code is None:
            found.append(f"{index} {job}: an exception escaped main: {err.splitlines()[-1]}")
        elif code not in CONTRACT_CODES:
            found.append(f"{index} {job}: exit {code}")
        elif code in (2, 3) and not (err.count("\n") == 1 and err.startswith("error: ")):
            found.append(f"{index} {job}: exit {code} without exactly one 'error:' line: {err!r}")
    return found


def digest(outcomes) -> str:
    total = hashlib.sha256()
    for index, (job, code, err) in enumerate(outcomes, 1):
        blob = err.encode()
        total.update(f"{index}:{job}:{code}:{len(blob)}:".encode() + blob)
    return total.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--count", type=int, default=2000)
    args = parser.parse_args(argv)

    outcomes = run(args.seed, args.count)
    print(f"inputs: {len(outcomes)}")
    codes = [code for _, code, _ in outcomes]
    for code in sorted(set(codes), key=lambda c: (c is None, c)):
        print(f"exit {'raised' if code is None else code:<8} {codes.count(code):>5}")
    print(f"{'all':<13} {digest(outcomes)}")
    found = breaches(outcomes)
    for line in found:
        print(f"BREACH {line}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
