"""Operation timing normalized against a fixed reference loop.

The 2-core host this benchmark was written on changes speed by up to 1.8x in
phases of 50-500 ms (a fixed dict loop alternated between about 300 and
530 us per call), so raw wall time cannot be steady.  The Clock therefore
samples the speed of a fixed loop that imports nothing from fptlib: once
right before and once right after every operation, and every TICK_S
seconds while an operation runs (from a SIGALRM handler, so no thread and
no change to the code under test).  Time spent in those samples is
subtracted from the operation.

An operation's normalized time is its work expressed in nominal seconds:
pure_time * REF_NOMINAL_S * mean(1 / sample_duration) over its samples.  The
mean of rates (not of durations) is the right average because the samples
are spread evenly over wall time.
"""

from __future__ import annotations

import signal
import time

REF_NOMINAL_S = 1.2e-4      # one reference loop, in nominal seconds
TICK_S = 0.01               # sampling period while an operation runs
_WARMUP_LOOPS = 200


def reference_loop() -> int:
    """The fixed stdlib-only work the machine's speed is measured with: a
    truncated sparse product on int-keyed dicts and a dense polynomial
    product and remainder on lists, modulo 7.  The mix matters: between the
    host's fast and slow phases a plain dict loop slowed 1.45x where fptlib
    code slowed 1.25-1.31x and this mix 1.32x."""
    p = 7
    acc = 0
    for r in range(2):
        A = {i: (i * 3 + r + 1) % p for i in range(12)}
        B = {i: (i * 5 + 2) % p for i in range(10)}
        out: dict = {}
        for a, ca in A.items():
            for b, cb in B.items():
                s = a + b
                if s > 15:
                    continue
                v = (out.get(s, 0) + ca * cb) % p
                if v:
                    out[s] = v
                else:
                    out.pop(s, None)
        acc += len(out)
        u = [(i * 3 + r) % p for i in range(9)]
        w = [(i * 5 + 1) % p for i in range(8)]
        prod = [0] * (len(u) + len(w) - 1)
        for i, ui in enumerate(u):
            if ui:
                for j, wj in enumerate(w):
                    prod[i + j] = (prod[i + j] + ui * wj) % p
        m = (3, 1, 0, 1)
        while len(prod) >= len(m):
            c = prod[-1]
            if c:
                off = len(prod) - len(m)
                for t in range(len(m)):
                    prod[off + t] = (prod[off + t] - c * m[t]) % p
            prod.pop()
        acc += sum(prod)
    return acc


class Clock:
    """Times operations in pure seconds (reference samples removed) and in
    normalized seconds; records every reference sample for the report."""

    def __init__(self):
        self.samples: list[float] = []      # reference loop durations, seconds
        self.sample_total = 0.0             # wall time spent sampling
        self._old_handler = None

    def _sample(self) -> None:
        t = time.perf_counter()
        reference_loop()
        d = time.perf_counter() - t
        self.samples.append(d)
        self.sample_total += d

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def __enter__(self) -> "Clock":
        for _ in range(_WARMUP_LOOPS):
            reference_loop()
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def now(self) -> float:
        """perf_counter minus the time spent in reference samples."""
        while True:
            before = self.sample_total
            t = time.perf_counter()
            if self.sample_total == before:
                return t - before

    def factor(self, first: int, last: int) -> float:
        """Nominal seconds per pure second over samples[first:last]."""
        window = self.samples[first:last]
        return REF_NOMINAL_S * sum(1.0 / d for d in window) / len(window)

    def run(self, fn, *args):
        """Call fn(*args) between two reference samples.

        Returns (result, error, pure_s, norm_s); error is the exception fn
        raised, or None."""
        self._sample()
        first = len(self.samples) - 1
        result, error = None, None
        t0 = self.now()
        try:
            result = fn(*args)
        except Exception as exc:  # an operation that raises counts as failed
            error = exc
        pure = self.now() - t0
        self._sample()
        return result, error, pure, pure * self.factor(first, len(self.samples))

    def speed_summary(self) -> dict:
        """Reference loop durations seen, in microseconds."""
        s = sorted(self.samples)
        at = lambda share: round(s[min(len(s) - 1, int(share * len(s)))] * 1e6, 2)
        return {"samples": len(s), "ref_us_min": at(0), "ref_us_p25": at(0.25),
                "ref_us_p50": at(0.5), "ref_us_p75": at(0.75), "ref_us_max": at(1)}
