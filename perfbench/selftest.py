"""Self-test of the benchmark's own checks; needs no program run.

    python3 perfbench/selftest.py

- Each committed reference matches itself, and perturbing any single
  compared value of any grid point makes exactly that point fail.
- A call that produced no result fails every point of the workload.
- ``BENCHMARK.json`` names exactly the metrics ``run.py`` reports, with
  the same units.

Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from check import failed_points  # noqa: E402
from layers import METRICS as LAYER_METRICS  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402


def expect(condition: bool, *what) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {what}")


def leaves(value, path=()):
    """Paths of every scalar inside nested dicts and lists."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from leaves(item, path + (index,))
    else:
        yield path


def perturbed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value * (1 + 1e-12) + 1e-300
    if value is None:
        return 0.0
    return f"{value}~"


def check_reference(path: Path) -> int:
    reference = json.loads(path.read_text())
    expect(failed_points(copy.deepcopy(reference), reference) == [], path)
    expect(len(failed_points(None, reference)) == len(reference), path)
    cases = 0
    for index, point in enumerate(reference):
        for leaf in leaves(point):
            run = copy.deepcopy(reference)
            holder = run[index]
            for key in leaf[:-1]:
                holder = holder[key]
            holder[leaf[-1]] = perturbed(holder[leaf[-1]])
            failures = failed_points(run, reference)
            expect(
                len(failures) == 1 and failures[0].startswith(f"point {index}."),
                path.name, leaf, failures,
            )
            cases += 1
    return cases


def check_benchmark_json() -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workloads")
    expect(
        {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
        "end_to_end",
    )
    expect(
        {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
        == {name: entry[:2] for name, entry in LAYER_METRICS.items()},
        "per_layer",
    )


def main() -> int:
    references = sorted((HERE / "reference").glob("*.json"))
    expect(
        {path.name.split("-seed")[0] for path in references} == set(WORKLOADS),
        "references",
    )
    for path in references:
        print(f"{path.name}: {check_reference(path)} perturbations, each caught")
    check_benchmark_json()
    print("BENCHMARK.json matches the reported metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
