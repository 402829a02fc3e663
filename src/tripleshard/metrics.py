"""Stage timing shared by the pipeline and its tests."""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager


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
