"""CPU time in reference seconds.

A shared host's speed switches between a fast and a slow state every
second or so, and the share of slow time drifts over minutes: on the
2-vCPU Xeon host the ladders were tuned on, the same n=200 colouring took
106-187 ms of CPU time within one minute, and wall time drifts the same
way. The benchmark therefore samples the host's speed while the work runs
and reads the work's CPU time in reference seconds: ``cpu * REF_SECONDS /
c``, with ``c`` the mean time of a fixed calibration routine over the
samples taken during and next to that work. A reading is what the work
would take on a host that runs the routine in ``REF_SECONDS``.

``RefClock.start`` arms a ``SIGVTALRM`` timer: every ``SAMPLE_EVERY_S`` of
user CPU time the handler runs the routine once. Its time is taken out of
every reading, so the work is read as if no sample had run.

The routine is interpreter work like the program's (grouping into dicts of
lists, frozenset blocks and their intersections, a keyed sort); a tight
loop over a small dict tracked the program's slowdowns less well. It runs
with the garbage collector off, so the size of the program's heap does not
change its cost.

The clock is the thread's CPU time: the process clock reads in whole
scheduler ticks while a process CPU timer is armed, and the benchmark runs
in one thread.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

# The reference: a fixed routine time, below the 0.9-1.5 ms it took on the
# tuning host, so readings are a little under that host's CPU times.
REF_SECONDS = 0.0008
# User CPU seconds between samples; samples that each reading averages.
SAMPLE_EVERY_S = 0.04
NEAREST = 6
# Runs of the routine in a burst, the samples around a child process.
BURST = 5

_N = 1000
_PAIRS = tuple(((i * 7919) % _N, (i * 104729) % 97) for i in range(_N))


def reference_work() -> int:
    """Group, block, intersect, sort and dedupe, as the program's
    colouring and hypergraph layers do."""
    groups: dict[int, list[int]] = {}
    for v, c in _PAIRS:
        groups.setdefault(c, []).append(v)
    blocks = [frozenset(vs) for vs in groups.values()]
    acc = 0
    for i, a in enumerate(blocks):
        for b in blocks[i + 1 : i + 6]:
            acc += len(a & b) + len(a | b)
    seen: set[int] = set()
    for v, c in sorted(_PAIRS, key=lambda p: (p[1], -p[0])):
        seen.add(v ^ c)
    return acc + len(seen)


def calibration() -> float:
    """CPU seconds of one run of the routine."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.thread_time()
        reference_work()
        return time.thread_time() - t0
    finally:
        if enabled:
            gc.enable()


def burst() -> float:
    """Mean CPU seconds of BURST runs of the routine."""
    return statistics.fmean(calibration() for _ in range(BURST))


def to_ref(cpu_s: float, routine_s: float) -> float:
    """Reference seconds of `cpu_s` CPU seconds of work done while the
    routine took `routine_s`."""
    return cpu_s * REF_SECONDS / routine_s


def _at(sample: tuple[float, float]) -> float:
    return sample[0]


class RefClock:
    def __init__(self):
        # (work CPU time, the routine's CPU seconds) of each sample
        self._samples: list[tuple[float, float]] = []
        self._spent = 0.0  # CPU seconds inside the handler
        self._previous = None
        self._sample()

    def cpu(self) -> float:
        """CPU seconds of work so far, the samples' own time left out."""
        while True:  # read again if a sample ran between the two reads
            spent = self._spent
            now = time.thread_time()
            if spent == self._spent:
                return now - spent

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.thread_time()
        try:
            self._samples.append((t0 - self._spent, calibration()))
        finally:  # also when a time limit interrupts the routine
            self._spent += time.thread_time() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGVTALRM, self._previous)
            self._previous = None

    @property
    def samples(self) -> int:
        return len(self._samples)

    def routine(self, a: float, b: float) -> float:
        """Mean routine time over the samples taken while the work CPU
        clock ran from `a` to `b`, or the NEAREST samples to that stretch
        when fewer fell inside it."""
        samples = self._samples
        lo = bisect.bisect_left(samples, a, key=_at)
        hi = bisect.bisect_right(samples, b, key=_at)
        while hi - lo < min(NEAREST, len(samples)):
            left = a - samples[lo - 1][0] if lo > 0 else float("inf")
            right = samples[hi][0] - b if hi < len(samples) else float("inf")
            if left <= right:
                lo -= 1
            else:
                hi += 1
        return statistics.fmean(took for _, took in samples[lo:hi])

    def to_ref(self, a: float, b: float) -> float:
        """Reference seconds of the work between CPU readings `a` and `b`."""
        return to_ref(b - a, self.routine(a, b))

    def cpu_budget(self, ref_s: float) -> float:
        """CPU seconds that read as `ref_s` reference seconds at the speed of
        the latest samples."""
        return ref_s * statistics.fmean(took for _, took in self._samples[-NEAREST:]) / REF_SECONDS
