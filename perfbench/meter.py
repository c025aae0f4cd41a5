"""Operation times that stay comparable while the machine's speed swings.

On the shared 2-CPU host this benchmark was built on, one-second averages
of the same fixed Python loop range from 1.2 to 1.9 times its best CPU
time, in phases that last from seconds to minutes, and wall time adds
preemption and hypervisor steal.  So each operation is timed in the CPU
time of the calling thread, and after every ``WINDOW_NS`` of operations the
meter runs a fixed reference computation: the workload's own pure-Python
checks on fixed inputs, work of the same kind as lgraph's.  The operations
in a window are rescaled by ``NOMINAL_NS`` over the median reference time
around the window.  A reported millisecond is thus a millisecond on this
host in the state where the reference takes ``NOMINAL_NS``.  The reference
is benchmark code, so it is the same on every commit compared.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

# A reference pass takes about this long on the quiet host (Python 3.11.7).
NOMINAL_NS = 1_000_000
# Operation CPU time between two runs of the reference.
WINDOW_NS = 20_000_000


class Reference:
    """Fixed, seed-independent work of the same kind as the workload's: the
    workload's own checks on inputs built from a constant seed."""

    def __init__(self, workload):
        self.work = workload.reference_work(random.Random("reference"))

    def run_ns(self) -> int:
        """CPU time of one pass, with the collector off so that the
        program's heap cannot slow it."""
        enabled = gc.isenabled()
        gc.disable()
        start = time.thread_time_ns()
        self.work()
        elapsed = time.thread_time_ns() - start
        if enabled:
            gc.enable()
        return elapsed


class Meter:
    """Rescales raw operation times by the reference measured around them.

    The reference runs once per window of ``WINDOW_NS`` operation time.  A
    window's scale uses the median of the ``CONTEXT`` reference times on
    each side of it, so that one disturbed reference run moves nothing.
    """

    CONTEXT = 3

    def __init__(self, reference: Reference):
        self.reference = reference
        self.references: list[int] = [reference.run_ns()]
        self.windows: list[list[tuple[int, tuple[list, ...]]]] = [[]]
        self.done = 0
        self.since = 0

    def add(self, raw_ns: int, *buckets: list) -> None:
        """Record a raw CPU time; its scaled value lands in every bucket
        once enough references around it have been measured."""
        self.windows[-1].append((raw_ns, buckets))
        self.since += raw_ns
        if self.since >= WINDOW_NS:
            self.close_window()

    def close_window(self) -> None:
        if not self.windows[-1]:
            return
        self.references.append(self.reference.run_ns())
        self.windows.append([])
        self.since = 0
        self._settle(len(self.windows) - 1 - self.CONTEXT)

    def drain(self) -> None:
        """Close the open window, measure the references that follow it,
        and scale everything still pending."""
        self.close_window()
        for _ in range(self.CONTEXT - 1):
            self.references.append(self.reference.run_ns())
        self._settle(len(self.windows) - 1)

    def _settle(self, upto: int) -> None:
        # Window k lies between references k and k + 1.
        refs = self.references
        while self.done < upto:
            k = self.done
            around = refs[max(0, k + 1 - self.CONTEXT):k + 1 + self.CONTEXT]
            scale = NOMINAL_NS / statistics.median(around)
            for raw, buckets in self.windows[k]:
                for bucket in buckets:
                    bucket.append(raw * scale)
            self.windows[k] = []
            self.done += 1
