"""Machine-speed calibration.

On a shared VM the CPU speed available to one process drifts by 30% or
more within a minute, and the drift moves every op of a run together. A
fixed kernel timed next to each op slows down with it. Scaling each op's
time by `reference_s` / (kernel time now) reports it at a fixed reference
speed: the speed at which the kernel takes `reference_s`. No kernel touches
`resonet` code, so a change to the program cannot move the scale.

Each workload uses the kernel shaped like its ops: `LapackKernel` for the
in-process solves of `tune` and `sweep`, `ImportKernel` for the `cli`
child processes, which spend most of their time starting and importing.
Set-up is also mostly the import of numpy and scipy in a fresh interpreter;
`import_time` times that import on its own, in a child process, and set-up
times are scaled by IMPORT_REFERENCE_S over it.
"""

import subprocess
import sys
import time

import numpy as np

# About import_time() on a 2-core x86-64 VM (Python 3.11, numpy 2.4,
# scipy 1.17) at its usual speed.
IMPORT_REFERENCE_S = 1.2
_IMPORT = (
    "import time; t = time.perf_counter(); import numpy, scipy.linalg, scipy.signal; "
    "print(time.perf_counter() - t)"
)


def import_time() -> float:
    """Seconds a fresh interpreter takes to import numpy, scipy.linalg and
    scipy.signal, the libraries `resonet` imports."""
    done = subprocess.run([sys.executable, "-c", _IMPORT], capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


class Calibrator:
    # About the kernel's time on the machine above, at its usual speed; it
    # only sets the scale of the reported figures.
    reference_s: float
    samples = 3  # kernel runs per scale sample; the median is used
    every = 1  # ops between two scale samples

    def __call__(self) -> float:
        """Seconds the kernel takes now."""
        raise NotImplementedError

    def scale(self) -> float:
        """reference_s over the median of `samples` kernel times."""
        return self.reference_s / sorted(self() for _ in range(self.samples))[self.samples // 2]


class LapackKernel(Calibrator):
    """Small-matrix LAPACK calls through Python (the shape of the
    optimizer's cost) plus one batched solve (the shape of a sweep)."""

    reference_s = 0.012

    def __init__(self):
        rng = np.random.default_rng(0)
        eye = 8.0 * np.eye(8)
        self.small = rng.standard_normal((200, 8, 8)) + 1j * rng.standard_normal((200, 8, 8)) + eye
        self.batch = rng.standard_normal((4000, 8, 8)) + 1j * rng.standard_normal((4000, 8, 8)) + eye
        self.rhs = np.ones((8, 2), dtype=complex)
        self()  # load the code paths once

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for a in self.small:
            np.linalg.cond(a)
            np.linalg.solve(a, self.rhs)
        np.linalg.solve(self.batch, np.broadcast_to(self.rhs, (len(self.batch), 8, 2)))
        return time.perf_counter() - t0


class ImportKernel(Calibrator):
    """`import_time`: a fresh interpreter importing numpy and scipy, the
    bulk of every `cli` op. At about 1.2 s a sample, it runs once per
    sample and once every four ops."""

    reference_s = IMPORT_REFERENCE_S
    samples = 1
    every = 4

    def __call__(self) -> float:
        return import_time()
