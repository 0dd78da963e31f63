"""Host-speed sampler: times a fixed kernel while the measured code runs.

The benchmark's machine is a few vCPUs of a shared host, and its speed
switches between two states about 1.7x apart, for a second or so at a time
and, in long stretches, for minutes.  Every kind of code slows down in the
slow state, pure Python included, and CPU time inflates with wall time.  A
suite call of a few seconds mixes the two states, so its wall time says as
much about the host as about the program.

While the sampler runs, SIGALRM fires every INTERVAL_S and its handler
times one run of a tiny pure-Python kernel (~0.2 ms).  The median of those
times is the host's speed during the measured interval, sampled all
through it rather than next to it.  `at_nominal` turns an interval's wall
time into the time it would have taken at the kernel speed NOMINAL_S: the
kernel's time, measured in the fast state of a 2-vCPU Intel Xeon at
2.1 GHz.  The kernel is the benchmark's own code and touches only a few
small ints, so nothing the program does can make it faster or slower,
except the host.

The handler runs between Python bytecodes, so a long C call (a dense
`eigh`, say) delays it.  Python-level code, which is what the kernel
resembles, is sampled densely.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
NOMINAL_S = 0.18e-3


def _kernel() -> int:
    total = 0
    for i in range(3000):
        total += i * i % 7
    return total


class Sampler:
    """Times _kernel on every SIGALRM between start() and stop()."""

    def __init__(self):
        self._times = []

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        _kernel()
        self._times.append(time.perf_counter() - start)

    def start(self) -> None:
        _kernel()  # warm
        self._times = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> dict:
        """Stops sampling; the samples taken since start()."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        times, self._times = self._times, []
        return {"kernel_s": sum(times), "samples": len(times),
                "kernel_median_s": statistics.median(times) if times
                else None}


def at_nominal(elapsed_s: float, window: dict,
               exponent: float = 1.0) -> float:
    """Wall time of an interval, less the sampler's own time, scaled to the
    nominal kernel speed.  `exponent` is how strongly the measured code
    follows the kernel: the slope of log(wall time) on log(kernel time)
    over calls of the same work, 1 for code that slows as Python does."""
    if not window["samples"]:
        raise ValueError(f"no speed samples in {elapsed_s:.3f} s")
    return ((elapsed_s - window["kernel_s"])
            * (NOMINAL_S / window["kernel_median_s"]) ** exponent)
