"""Host-speed calibration: scale measured times to a reference host speed.

The benchmark runs on shared machines whose speed drifts, by up to 2x over
minutes, while one process tends to stay in one regime for its whole run.
Fixed calibration kernels run between the timed units.  Each measured time
is multiplied by ``reference / kernel time`` (rates are divided by it),
with the kernel time averaged over the samples taken just before and just
after the measurement.  The kernels use nothing from ``repro``, so a change
to the program never changes them.

* ``python`` — heap pushes and pops, dict stores, float arithmetic: the
  interpreter work of the serial event loop;
* ``numpy`` — partition, concatenate, cumsum and argsort over a few MB:
  the array work of the batch and round engines;
* ``memory`` — fresh 32 MB arrays filled and updated: the page faults and
  memory traffic of the engines' large temporaries.

A workload names the kernels that match its work.  With several, the scale
is their geometric mean.  Which kernels track which workload was measured
(``README.md`` has the tables): the python kernel alone tracks the serial
loop, numpy and memory the round engine, and all three the batch engine,
whose batches are about half interpreter work.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import Callable, Dict, List, Sequence

#: nominal kernel times: scaled figures are for a host on which each kernel
#: takes this long (about its time on a 2-vCPU cloud VM).
REFERENCE_S = {"python": 0.030, "numpy": 0.020, "memory": 0.040}
#: samples of each kernel taken when a run starts.
WARM_SAMPLES = 3


def _python_kernel() -> None:
    heap: list = []
    table: dict = {}
    acc = 0.0
    for i in range(20000):
        heapq.heappush(heap, (i * 7919 % 20011, i))
        table[i & 255] = acc
        acc += (i * 0.5) / (1 + (i & 7))
    while heap:
        heapq.heappop(heap)


def _numpy_kernel_factory() -> Callable[[], None]:
    import numpy as np

    base = np.random.default_rng(12345).random((256, 2048))

    def kernel() -> None:
        for row in range(8):
            part = np.partition(base, 64, axis=1)[:, :65]
            joined = np.concatenate([part, base[:, :256]], axis=1)
            np.cumsum(joined, axis=1)
            np.argsort(base[row], kind="stable")

    return kernel


def _memory_kernel_factory() -> Callable[[], None]:
    import numpy as np

    def kernel() -> None:
        for _ in range(4):
            block = np.ones(4_000_000)
            block += 1.0

    return kernel


_FACTORIES = {"python": lambda: _python_kernel,
              "numpy": _numpy_kernel_factory,
              "memory": _memory_kernel_factory}


def _timed(kernel: Callable[[], None]) -> float:
    """Seconds for one kernel call, with the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    kernel()
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class HostSpeed:
    """Kernel samples taken through one run."""

    def __init__(self, kernels: Sequence[str]):
        self.kernels: Dict[str, Callable[[], None]] = {}
        for name in kernels:
            self.kernels[name] = _FACTORIES[name]()
        self.samples: Dict[str, List[float]] = {name: [] for name in kernels}
        for _ in range(WARM_SAMPLES):
            self.sample()

    def sample(self) -> int:
        """Time every kernel once; returns the index of the new sample."""
        for name, kernel in self.kernels.items():
            self.samples[name].append(_timed(kernel))
        return len(next(iter(self.samples.values()))) - 1

    def _scale(self, kernel_times: Dict[str, float]) -> float:
        product = 1.0
        for name, seconds in kernel_times.items():
            product *= REFERENCE_S[name] / seconds
        return product ** (1.0 / len(kernel_times))

    def scale_after(self, index: int) -> float:
        """Scale for a measurement taken between samples ``index`` and
        ``index + 1``: multiply its seconds by this, divide its rates."""
        return self._scale({name: (samples[index] + samples[index + 1]) / 2
                            for name, samples in self.samples.items()})

    @property
    def scale(self) -> float:
        """Scale from the median of every sample of the run."""
        return self._scale({name: statistics.median(samples)
                            for name, samples in self.samples.items()})

    def describe(self) -> str:
        return ", ".join(f"{name} kernel median "
                         f"{statistics.median(samples) * 1e3:.2f} ms "
                         f"({len(samples)} samples)"
                         for name, samples in self.samples.items())
