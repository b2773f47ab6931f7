"""A reading of the host's CPU speed, taken beside the work it scales.

On a shared host the speed of one vCPU changes by up to about 2x, and a
fast or slow spell lasts from seconds to minutes.  A CPU time read alone
moves with it, so two runs of the same code can differ by more than any
regression bound.  :class:`HostClock` runs a fixed reference piece of
pure-Python and NumPy work every ``PERIOD_S`` seconds in a background
thread, for the whole run, on the one vCPU the benchmark is pinned to
(:func:`pin_to_one_cpu`; child processes inherit the pin).  Each piece's
own CPU time is a sample of the host's speed at that moment.

A time measured over ``[start, end]`` is reported as the time it would
take on a host where the piece takes ``NOMINAL_PIECE_S``::

    scaled = measured * NOMINAL_PIECE_S / mean(piece times in [start, end])

The samples are spread over the same interval as the work and come from
the same vCPU, so a slow spell raises both and cancels in the ratio.
"""

from __future__ import annotations

import array
import os
import threading
import time

import numpy as np

#: Seconds between two reference pieces.
PERIOD_S = 0.04
#: About the piece's CPU time on an unloaded Intel Xeon vCPU with Python
#: 3.11.  Scaled times are in seconds of a host where it takes this long.
NOMINAL_PIECE_S = 0.0007
#: An interval with fewer pieces than this borrows the nearest ones.
MIN_PIECES = 8

_rng = np.random.default_rng(0)
_A = _rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
_B = _rng.integers(0, 256, size=(64, 64), dtype=np.uint8)
_BIG_A = _rng.integers(0, 256, size=1 << 22, dtype=np.uint8)
_BIG_B = _rng.integers(0, 256, size=1 << 22, dtype=np.uint8)
_LINES = [int(i) * 64 for i in _rng.integers(0, (1 << 22) // 64, size=150)]


def reference_piece() -> int:
    """Fixed work shaped like the simulator's: about a third is NumPy bit
    operations on small arrays and a dict-heavy Python loop, which stay in
    the L1 cache, and two thirds NumPy bit operations on 64-byte lines
    scattered over 4 MB, which miss it.  A slow spell slows the first kind
    by less than it slows the simulator and the second by a little more,
    so the mix follows the simulator.  It never changes and uses nothing
    from the simulator, so a faster simulator does not make it faster."""
    flips = 0
    for _ in range(4):
        flips += int(np.unpackbits(_A ^ _B).sum())
    counts: dict[int, int] = {}
    for i in range(1500):
        k = i & 255
        counts[k] = counts.get(k, 0) + (i ^ k)
    for o in _LINES:
        flips += int(np.unpackbits(_BIG_A[o:o + 64] ^ _BIG_B[o:o + 64]).sum())
    return flips + len(counts)


def pin_to_one_cpu() -> int:
    """Pin this process (and the threads and children it starts later) to
    the highest-numbered vCPU it may use; returns that vCPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def mean_piece_s(ends, durations, start: float, end: float) -> float:
    """Mean duration of the pieces that ended within ``[start, end]``.

    With fewer than ``MIN_PIECES`` there, the ``MIN_PIECES`` pieces that
    ended nearest the interval's middle are used instead.
    """
    ends = np.asarray(ends, dtype=float)
    durations = np.asarray(durations, dtype=float)
    if len(ends) < MIN_PIECES:
        raise RuntimeError(f"only {len(ends)} host-speed samples")
    inside = (ends >= start) & (ends <= end)
    if inside.sum() >= MIN_PIECES:
        return float(durations[inside].mean())
    nearest = np.argsort(np.abs(ends - (start + end) / 2))[:MIN_PIECES]
    return float(durations[nearest].mean())


class HostClock:
    """Samples the reference piece in a background thread until closed.

    Use as a context manager.  Intervals are in ``time.perf_counter``
    seconds, which all processes on the host share; ask for one after it
    has ended, so that its samples have been taken.
    """

    def __init__(self) -> None:
        self._ends = array.array("d")
        self._durations = array.array("d")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="hostclock", daemon=True)

    def __enter__(self) -> "HostClock":
        """Start sampling, and return once ``MIN_PIECES`` samples exist, so
        that even the first short interval can be scaled."""
        self._thread.start()
        deadline = time.monotonic() + 60.0
        while len(self._ends) < MIN_PIECES:
            if time.monotonic() > deadline:
                raise RuntimeError("the host clock took no samples")
            time.sleep(PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(PERIOD_S):
            t0 = time.thread_time()
            reference_piece()
            self._durations.append(time.thread_time() - t0)
            self._ends.append(time.perf_counter())

    def piece_s(self, start: float, end: float) -> float:
        """Mean CPU seconds of a reference piece over ``[start, end]``."""
        n = len(self._ends)
        return mean_piece_s(self._ends[:n], self._durations[:n], start, end)

    def scale(self, start: float, end: float) -> float:
        """The factor that turns a time measured over ``[start, end]`` into
        seconds of the nominal host."""
        return NOMINAL_PIECE_S / self.piece_s(start, end)
