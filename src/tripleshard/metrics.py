"""Timing and trend helpers shared by the pipeline and its tests."""

from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager
from typing import Sequence


class StageTimer:
    """Collects the CPU time each named stage takes, in milliseconds.

    CPU time of this process, not wall-clock time, so that time the machine
    spends on other processes does not count against a stage. As in
    ``timeit``, the cyclic garbage collector is paused inside a stage, so a
    stage's time does not depend on how many unrelated objects the process
    holds.
    """

    def __init__(self):
        self.stages_ms: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str):
        collecting = gc.isenabled()
        gc.disable()
        start = time.process_time()
        try:
            yield
        finally:
            elapsed = time.process_time() - start
            if collecting:
                gc.enable()
            self.stages_ms[name] = self.stages_ms.get(name, 0.0) + elapsed * 1000.0


def linear_fit_r2(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares line through (xs, ys); returns (slope, intercept, r_squared).

    For a least-squares line r_squared is the squared correlation of xs and
    ys. A constant series fits its own flat line perfectly, so r_squared is
    1.0 when the y values carry no variance.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two points to fit a line")
    slope, intercept = statistics.linear_regression(xs, ys)
    if len(set(ys)) == 1:
        return slope, intercept, 1.0
    return slope, intercept, statistics.correlation(xs, ys) ** 2
