"""Machine-speed sampling, so timings on a shared host can be compared.

On a shared 2-vCPU virtual machine the same pure-Python loop runs up to 1.5x
slower for tens of seconds at a time while neighbours are busy; process CPU
time slows exactly as much as wall time, so neither is steady on its own. A
background thread in the measured process therefore times a fixed probe
(integer and dict work, like the code under test) every 10 ms on the same
CPU. An interval of wall time is converted to reference seconds by
dividing it by the probe's slowdown against REFERENCE_PROBE_S, after removing
the time the probes themselves took.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

# Probe duration that defines the reference speed: about what a sampled probe
# takes on a quiet host (Python 3.11, x86-64), so that reference seconds are
# close to wall seconds there.
REFERENCE_PROBE_S = 9e-5
PERIOD_S = 0.01


def probe() -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(400):
        m = (i * 2654435761) & 0xFFFFFF
        acc += (m | i).bit_count()
        table[m & 255] = acc
    return acc


class SpeedSampler:
    """Times `probe` every PERIOD_S on a daemon thread until `stop`."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-sampler", daemon=True)

    def _run(self) -> None:
        clock = time.perf_counter
        while not self._stop.is_set():
            start = clock()
            probe()
            self.durations.append(clock() - start)
            self.starts.append(start)
            time.sleep(PERIOD_S)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        while not self.starts:
            time.sleep(PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("speed sampler did not stop")

    def reference_seconds(self, start: float, end: float) -> float:
        """Wall interval [start, end] in reference seconds."""
        starts, durations = self.starts[:], self.durations[:len(self.starts)]
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_left(starts, end)
        probe_time = sum(durations[lo:hi])
        # Probes inside the interval, or the nearest ones when it is short.
        nearby = durations[max(lo - 1, 0):hi + 1] or durations[-1:]
        slowdown = statistics.fmean(nearby) / REFERENCE_PROBE_S
        return (end - start - probe_time) / slowdown
