"""Golden outputs: at fixed seeds the CLI must reproduce the files under
``tests/golden/`` byte for byte, apart from the CSV's ``wall_seconds`` column.

Regenerate them, only for a change that is meant to move the numbers, with
``PYTHONPATH=src python tests/test_golden.py``; it prints, per file, whether
it changed, the largest relative move of any number in it, and the JSON keys
or CSV columns whose values moved.
"""
import csv
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest

from infmc.cli import main

GOLDEN = Path(__file__).parent / "golden"

GAUSS = ["--seed", "42", "--budgets", "200,2000", "--replications", "5"]
DMM = ["--seed", "42", "--budgets", "40", "--replications", "2", "--generations", "2", "--data-count", "20"]
# five generations: four of them draw through the informed assignment proposal and the kernels
DMM_G5 = ["--seed", "42", "--budgets", "200", "--replications", "2", "--generations", "5", "--data-count", "40"]
CASES = {
    "gauss-centered": ["gauss", "--experiment", "gauss-centered", *GAUSS],
    "gauss-offcenter": ["gauss", "--experiment", "gauss-offcenter", *GAUSS],
    "dmm-gauss": ["dmm", "--experiment", "dmm-gauss", *DMM],
    "dmm-t": ["dmm", "--experiment", "dmm-t", *DMM],
    "dmm-gauss-g5": ["dmm", "--experiment", "dmm-gauss", *DMM_G5],
    "dmm-t-g5": ["dmm", "--experiment", "dmm-t", *DMM_G5],
    "theorems": ["theorems", "--seed", "3", "--instances", "20"],
}


def _without_wall_seconds(csv_text: str) -> str:
    rows = [line.split(",") for line in csv_text.splitlines()]
    column = rows[0].index("wall_seconds")
    return "".join(",".join(row[:column] + row[column + 1:]) + "\n" for row in rows)


def _outputs(name: str, directory: Path) -> dict[str, str]:
    """Run one case through the CLI and return its files by name."""
    suffix = ".json" if CASES[name][0] == "theorems" else ".csv"
    argv = [*CASES[name], "--output", str(directory / (name + suffix))]
    if argv[0] == "dmm":
        argv += ["--traces", str(directory / f"{name}.traces.json")]
    assert main(argv) == 0
    files = {path.name: path.read_text() for path in directory.iterdir()}
    return {
        filename: _without_wall_seconds(text) if filename.endswith(".csv") else text
        for filename, text in files.items()
    }


# a number in a CSV or JSON golden: a decimal literal, or NaN and infinities as Python and json write them
_NUMBER = re.compile(r"(?<![\w.])-?(?:\d+(?:\.\d*)?(?:[eE][-+]?\d+)?|inf|Infinity)|\bnan\b|\bNaN\b")


def _largest_relative_move(old: str, new: str) -> float | None:
    """The largest ``|a - b| / max(|a|, |b|)`` over the numbers of two
    versions of a file, paired in order (infinite where a NaN or an infinity
    moved); None when the text around the numbers differs too."""
    if _NUMBER.sub("#", old) != _NUMBER.sub("#", new):
        return None
    move = 0.0
    for a, b in zip(map(float, _NUMBER.findall(old)), map(float, _NUMBER.findall(new))):
        if a != b and not (math.isnan(a) and math.isnan(b)):
            relative = abs(a - b) / max(abs(a), abs(b))
            move = max(move, relative if math.isfinite(relative) else math.inf)  # a NaN or infinity that moved
    return move


def _moved_names(filename: str, old: str, new: str) -> list[str]:
    """The CSV columns, or the JSON keys as dotted paths without list
    indices, whose values differ between two versions of a file."""
    moved = set()
    if filename.endswith(".csv"):
        for a, b in zip(*(csv.DictReader(io.StringIO(text)) for text in (old, new))):
            moved |= {column for column in a.keys() | b.keys() if a.get(column) != b.get(column)}
        return sorted(moved)

    def walk(a, b, path):
        if isinstance(a, dict) and isinstance(b, dict):
            for key in a.keys() | b.keys():
                walk(a.get(key), b.get(key), f"{path}.{key}" if path else key)
        elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
            for x, y in zip(a, b):
                walk(x, y, path)
        elif repr(a) != repr(b):  # repr: nan equals nan
            moved.add(path or "(whole file)")

    walk(json.loads(old), json.loads(new), "")
    return sorted(moved)


def _move_report(filename: str, old: str | None, new: str) -> str:
    if old is None:
        return f"{filename}: new file"
    if old == new:
        return f"{filename}: unchanged"
    move = _largest_relative_move(old, new)
    moved = f"; moved: {', '.join(_moved_names(filename, old, new))}"
    if move is None:
        return f"{filename}: changed beyond its numbers{moved}"
    return f"{filename}: changed, largest relative move {move:.2g}{moved}"


@pytest.mark.parametrize("name", CASES)
def test_cli_output_matches_golden(name, tmp_path):
    outputs = _outputs(name, tmp_path)
    assert outputs
    for filename, text in outputs.items():
        assert text == (GOLDEN / filename).read_text(), filename


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            for filename, text in _outputs(name, Path(tmp)).items():
                golden = GOLDEN / filename
                print(_move_report(filename, golden.read_text() if golden.exists() else None, text))
                golden.write_text(text)
