"""Machine-speed correction: wall-clock intervals to reference seconds.

On a shared host the same interpreter work runs at two or more speeds that
switch every few seconds: on a 2-vCPU KVM guest of a 4th-generation Xeon a
steady loop alternated between 1.0x and 1.75x its fastest time.  A 30 s
run then reads anywhere in a +-20 % band.  So the benchmark times a fixed
pure-Python kernel alongside the program, every PERIOD_S on a thread of the
measured process, and integrates the program's intervals against the speed
that kernel saw: one reference second is the time in which the kernel runs
REFERENCE_S / KERNEL_S times, that is, a wall second at the speed where one
kernel run takes REFERENCE_S.  The kernel's time is lost to the program
(about 1 %), the same on every commit.  Callers pin the process to one CPU,
so that the probe sees the CPU the program runs on.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

REFERENCE_S = 0.00042  # the kernel's time at full speed on the Xeon above
PERIOD_S = 0.05
SMOOTH = 5  # probes per rolling median: one slow probe is noise, a run of them is a speed change


def kernel():
    d = {}
    for i in range(2500):
        key = (i & 63, i & 7)
        d[key] = d.get(key, 0) + i
    return d


def probe():
    t0 = time.perf_counter()
    kernel()
    return t0, time.perf_counter() - t0


def pin_to_one_cpu():
    import os

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class SpeedProbe:
    """Probes on a background thread between start() and stop()."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(PERIOD_S):
            self.samples.append(probe())

    def start(self):
        kernel()  # the interpreter specialises the kernel's bytecode on first runs
        kernel()
        self.samples.append(probe())
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join()
        self.samples.append(probe())
        self._build()

    def _build(self):
        self.samples.sort()
        self._times = [t for t, _ in self.samples]
        raw = [p for _, p in self.samples]
        half = SMOOTH // 2
        self._rate = [REFERENCE_S / statistics.median(raw[max(0, i - half):i + half + 1])
                      for i in range(len(raw))]
        # _cum[i]: reference seconds from the first probe to probe i
        self._cum = [0.0]
        for i in range(1, len(self._times)):
            dt = self._times[i] - self._times[i - 1]
            self._cum.append(self._cum[-1] + dt * self._rate[i - 1])

    def _at(self, t):
        i = max(0, bisect.bisect_right(self._times, t) - 1)
        return self._cum[i] + (t - self._times[i]) * self._rate[i]

    def reference_seconds(self, a, b):
        """The wall-clock interval [a, b] in reference seconds."""
        return self._at(b) - self._at(a)
