"""Output checks: a run's grid-point values against the reference's.

Values are the JSON form of :func:`workloads.point_values` and must be
identical — the same bar as the cluster smokes, value-identical to the
serial in-process ``Runner``.  Standard library only, so ``run.py`` and
the self-test use it without importing the program.
"""

from __future__ import annotations

from typing import Any, List, Optional


def first_difference(got: Any, want: Any, path: str = "") -> Optional[str]:
    """Path and values of the first leaf where ``got`` differs, or None."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            if key not in got or key not in want:
                return f"{path}.{key}: present on one side only"
            found = first_difference(got[key], want[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return f"{path}: {len(got)} entries, reference has {len(want)}"
        for index, (a, b) in enumerate(zip(got, want)):
            found = first_difference(a, b, f"{path}[{index}]")
            if found:
                return found
        return None
    if type(got) is not type(want) or got != want:
        return f"{path}: {got!r} != reference {want!r}"
    return None


def failed_points(got: Optional[List[Any]], want: List[Any]) -> List[str]:
    """One message per reference grid point the run did not reproduce.

    ``got`` is ``None`` when the run raised or timed out: every point of
    the workload then counts as failed.
    """
    if got is None:
        return [f"point {index}: no result" for index in range(len(want))]
    if len(got) != len(want):
        return [
            f"point {index}: run returned {len(got)} points, reference has {len(want)}"
            for index in range(len(want))
        ]
    messages = []
    for index, (a, b) in enumerate(zip(got, want)):
        found = first_difference(a, b)
        if found:
            messages.append(f"point {index}{found}")
    return messages
