"""Output checks.  Each raises :class:`CheckFailed` naming the check.

The checks compare the program's outputs with what the benchmark
computed on its own (from the schedule it generated and the frames it
saw), or with a property the method must have.  None compares with a
recorded copy of an earlier run's output.
"""

from __future__ import annotations

from typing import Dict, Iterable, List


class CheckFailed(AssertionError):
    """An output check failed; ``name`` says which."""

    def __init__(self, name: str, detail: str) -> None:
        super().__init__(f"check {name} failed: {detail}")
        self.name = name


def check(name: str, ok: bool, detail: str) -> None:
    if not ok:
        raise CheckFailed(name, detail)


def check_exactly_once(name: str, duplicates: int) -> None:
    check(name, duplicates == 0, f"{duplicates} operations completed twice")


def check_floor(name: str, values: Iterable[float], floor: float) -> None:
    """No value may be below *floor* (e.g. the propagation along a path)."""
    low = min(values, default=floor)
    check(name, low >= floor, f"minimum {low} is below the floor {floor}")


def check_counters_equal(
    name: str, observed: Dict[int, int], expected: Dict[int, int]
) -> None:
    wrong: List[str] = [
        f"[{index}] {observed.get(index)} != {expected.get(index)}"
        for index in sorted(set(observed) | set(expected))
        if observed.get(index) != expected.get(index)
    ]
    check(name, not wrong, f"{len(wrong)} counters differ: {', '.join(wrong[:5])}")


def check_rounds_repeat(name: str, first: dict, other: dict) -> None:
    """Every round of a run uses the same seed, so it must model the same."""
    check(name, first == other, "a later round modelled different results")
