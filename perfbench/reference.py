"""A fixed pure-Python job that reads the host's speed of the moment.

On a shared machine the same code read 53 µs of CPU per capture in one
minute and 65–105 µs in another.  This job's time moves with it, so a
pass's CPU time divided by the job's, timed where the program's CPU
runs, leaves the program's own cost.  Dividing by the job's time and
multiplying by :data:`REFERENCE_S` expresses a CPU time at the speed of
a quiet host.
"""

from __future__ import annotations

import time

#: CPU seconds of one :func:`reference_job` on the machine the benchmark
#: was sized on (2 vCPUs, Python 3.11.7) in a quiet hour.
REFERENCE_S = 0.0007


class _Link:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, next_link) -> None:
        self.key = key
        self.value = value
        self.next = next_link


def reference_job(links: int = 3000) -> float:
    """Process CPU seconds of one round of the job.

    Objects, tuple-keyed dicts, attribute reads and a sort: the kind of
    work the program does.
    """
    started = time.process_time()
    table = {}
    head = None
    for index in range(links):
        head = _Link(("k", index), index * 0.5, head)
        table[head.key] = head
    total = 0.0
    for key in sorted(table, key=lambda key: -key[1]):
        total += table[key].value
    return time.process_time() - started


def hot_reference(rounds: int = 7, tries: int = 3) -> float:
    """Seconds per round of the job run back to back; the fastest try.

    Timed just before a pass that keeps the CPU busy from start to end.
    The fastest of a few tries ignores a stall shorter than a try.
    """
    return min(
        sum(reference_job() for _ in range(rounds)) / rounds for _ in range(tries)
    )
