"""Host speed, measured with fixed reference jobs timed between requests.

The host's speed drifts by up to 1.9x over seconds to minutes while the
process stays on the CPU: a fixed job timed in a loop for three minutes
ran at 11.8-17.2 ms per 10-second window, with CPU/wall near 0.99 and few
steal ticks.  A reference job timed next to each request slows with the
host, so the worker scales each request's wall time by the speed factor
of ``speed_factors``.
"""

import time

import numpy as np

# Host drift does not slow all code alike: on a 2-vCPU VM, pure-Python
# series code slowed by the power 1.1-1.5 of the slow-down of small LAPACK
# calls, and the portrait's 96-160 wide SVDs by the power 0.5-0.8 of it.
# So each workload is timed against jobs of the kind it spends its time
# in; measured per pass, these tracked the workload's drift to within
# 2-4 %.  Each job calls the original numpy functions, so the tracer
# neither wraps nor counts it.
_ref_rng = np.random.default_rng(0)
_svd, _eigvals = np.linalg.svd, np.linalg.eigvals
SMALL_MATRICES = tuple(_ref_rng.normal(size=(2, 24, 24)))
BIG_MATRIX = _ref_rng.normal(size=(128, 128)) + 1j * _ref_rng.normal(size=(128, 128))
FLOATS = tuple(float(x) for x in _ref_rng.normal(size=200))


class _RefQuat:
    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w, x, y, z):
        self.w, self.x, self.y, self.z = w, x, y, z

    def __mul__(a, b):
        return _RefQuat(a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
                        a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
                        a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
                        a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w)

    def __add__(a, b):
        return _RefQuat(a.w + b.w, a.x + b.x, a.y + b.y, a.z + b.z)


QUATS = tuple(_RefQuat(*q) for q in _ref_rng.normal(size=(64, 4)) / 2)


def _small_lapack():
    for m in SMALL_MATRICES:
        _svd(m, compute_uv=False)
        _eigvals(m)


def _big_lapack():
    _svd(BIG_MATRIX, compute_uv=False)


def _objects():
    for _ in range(3):
        acc, total = _RefQuat(1.0, 0.0, 0.0, 0.0), _RefQuat(0.0, 0.0, 0.0, 0.0)
        for q in QUATS:
            acc = acc * q
            total = total + acc


def _text():
    text = ",".join(repr(x) for x in FLOATS)
    {str(k): float(v) for k, v in enumerate(text.split(","))}


# Per workload: its reference jobs, and their summed wall seconds on an
# uncontended 2.1 GHz Xeon vCPU (near the fastest times seen there), so a
# scaled time is the wall time that host would take at its best.
REFERENCES = {
    "matrix": ((_small_lapack, _objects, _text), 0.9e-3),
    "portrait": ((_big_lapack,), 1.8e-3),
    "series": ((_objects, _text), 0.6e-3),
    "suites": ((_small_lapack, _objects, _text), 0.9e-3),
}
# A request's speed is the median of this many reference times centred on
# it.  Replayed on recorded runs, windows of 3 to 41 did about as well, and
# a single reference time did worse.
SPEED_WINDOW = 7


def reference(jobs) -> float:
    """Wall seconds of one run of the reference jobs."""
    t = time.perf_counter()
    for job in jobs:
        job()
    return time.perf_counter() - t


def speed_factors(refs: list[float], nominal: float) -> np.ndarray:
    """Per request, ``nominal`` / the median reference time of the
    SPEED_WINDOW requests centred on it (edges repeat the end values)."""
    half = SPEED_WINDOW // 2
    padded = np.pad(np.asarray(refs), half, mode="edge")
    windows = np.lib.stride_tricks.sliding_window_view(padded, SPEED_WINDOW)
    return nominal / np.median(windows, axis=1)
