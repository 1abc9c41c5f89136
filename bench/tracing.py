"""Spans, counters and the speed clock of the benchmark.

The benchmark records a span around each of its own calls into a
deltiling module (name, start, end, parent span, and an optional size).
Those spans cost a few clock reads per call and are always on; they give
the stage times of a round.

A traced run additionally installs `Instrumentation` for the length of
its traced phase: wrappers on public `Elem` methods (call counts and
rescaled busy time) and on the module-level `match_triangles` and
`find_flippable` names (spans).  Nothing is wrapped in an untraced run,
and the program's own files are never edited.

`SpeedClock` rescales wall-clock intervals to a fixed machine speed (see
its docstring); every reported time goes through it.
"""

from __future__ import annotations

import bisect
import json
import math
import signal
import statistics
import time
from collections import Counter

perf = time.perf_counter

# One pass of reference_loop() on the reference machine (2-core sandbox,
# Python 3.11) when nothing else slows it: the unit that rescaled times
# are expressed in, so that they read as seconds on that machine.
REFERENCE_PASS_S = 0.0032
_A = tuple(range(-11, 13))
_B = tuple(range(13, -11, -1))


def reference_loop(n=60):
    """Fixed pure-Python work like the engine's inner loops.

    Integer convolutions of coefficient vectors, tuple keys, a dict and
    gcds, as in exact field multiplication; it calls no deltiling code, so
    a change to the program cannot change its speed.
    """
    table = {}
    for k in range(n):
        conv = [0] * 47
        for i, x in enumerate(_A):
            for j, y in enumerate(_B):
                conv[i + j] += x * y + k
        key = tuple(conv[:24])
        table[key] = math.gcd(*key)
    return table


class SpeedClock:
    """Wall time rescaled to the speed of the reference machine.

    The shared host this benchmark runs on changes speed by up to 1.6x
    for seconds at a time, far more than the differences the benchmark
    must resolve.  While the clock runs, SIGALRM interrupts the run every
    `period` seconds and times one pass of `reference_loop`.  A
    wall-clock interval then counts each stretch between two passes at
    REFERENCE_PASS_S / (median duration of the two passes before and the
    two after it) seconds per second; the passes themselves are left
    out.  The signal handler runs between bytecodes of the main thread
    and touches only the clock's own data.
    """

    def __init__(self, period=0.2):
        self.period = period
        self.passes = []  # (start, end) of each pass, in order
        self._gaps = None
        self.weight = 1.0  # rescaling weight of the latest passes

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        self._sample()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        return False

    def _sample(self, *_):
        t0 = perf()
        reference_loop()
        self.passes.append((t0, perf()))
        self._gaps = None
        self.weight = REFERENCE_PASS_S / statistics.median(
            [e - s for s, e in self.passes[-4:]])

    def gaps(self):
        """(start, end, weight) of the stretches before, between and after
        the passes."""
        if self._gaps is None:
            if len(self.passes) < 2:
                raise RuntimeError("the speed clock has fewer than two passes")
            durs = [e - s for s, e in self.passes]
            bounds = [-math.inf, *(t for p in self.passes for t in p), math.inf]
            # gap k lies between passes k - 1 and k
            weights = [REFERENCE_PASS_S
                       / statistics.median(durs[max(0, k - 2):k + 2])
                       for k in range(len(self.passes) + 1)]
            self._gaps = list(zip(bounds[::2], bounds[1::2], weights))
        return self._gaps

    def scaled(self, t0, t1):
        """Seconds that the interval [t0, t1] would take at reference speed."""
        gaps = self.gaps()
        k = max(0, bisect.bisect_right(gaps, (t0, math.inf)) - 1)
        total = 0.0
        for lo, hi, weight in gaps[k:]:
            if lo >= t1:
                break
            total += max(0.0, min(hi, t1) - max(lo, t0)) * weight
        return total


class Tracer:
    """In-memory spans plus integer counters and busy-time totals."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []   # [name, start, end, parent index, size]
        self._stack = []
        self.calls = Counter()
        self.busy = Counter()

    def call(self, name, fn, *args, size=None, **kwargs):
        """fn(*args, **kwargs) inside a span called `name`.

        `size` is a number stored on the span (tiles in, bytes out, ...);
        pass a callable to compute it from the result.
        """
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        span = [name, 0.0, 0.0, parent, None]
        self.spans.append(span)
        self._stack.append(idx)
        span[1] = perf()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = perf()
            self._stack.pop()
        span[4] = size(out) if callable(size) else size
        return out

    def mark(self):
        """Position of the next span, to delimit the spans of one phase."""
        return len(self.spans)

    def since(self, mark, name, stop=None):
        """Spans called `name` recorded from `mark` up to `stop`."""
        return [s for s in self.spans[mark:stop] if s[0] == name]

    def duration(self, span):
        """Rescaled duration of one span."""
        return self.clock.scaled(span[1], span[2])

    def seconds(self, name, mark=0, stop=None):
        """Rescaled total duration of the `name` spans in [mark, stop)."""
        return sum(map(self.duration, self.since(mark, name, stop)))

    def inside(self, span_index, ancestor):
        """True when span `span_index` is nested in a span called `ancestor`."""
        p = self.spans[span_index][3]
        while p >= 0:
            if self.spans[p][0] == ancestor:
                return True
            p = self.spans[p][3]
        return False

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "calls": dict(self.calls),
                       "busy_s": dict(self.busy)}, fh)


# Elem methods counted in a traced run: attribute -> counter name.
ELEM_METHODS = {"__mul__": "mul", "__rmul__": "mul", "mul_zeta": "mul_zeta",
                "inv": "inv", "real_sign": "real_sign", "mpc": "mpc"}


class Instrumentation:
    """Context manager that wraps program entry points for one phase.

    Counters go to `tracer.calls` / `tracer.busy`; the wrapped module-level
    functions also record spans, so their calls nest under the benchmark's
    own spans.  Everything is restored on exit.
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _counted(self, fn, key):
        tracer = self.tracer
        calls, busy, clock = tracer.calls, tracer.busy, tracer.clock

        def wrapper(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                # rescaled by the speed of the latest passes (see SpeedClock)
                busy[key] += (perf() - t0) * clock.weight
                calls[key] += 1
        return wrapper

    def _spanned(self, fn, name, size=None):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            return tracer.call(name, fn, *args,
                               size=size(*args) if size else None, **kwargs)
        return wrapper

    def __enter__(self):
        from deltiling import field, random, substitution
        for attr, key in ELEM_METHODS.items():
            self._patch(field.Elem, attr,
                        self._counted(field.Elem.__dict__[attr], key))
        match = self._spanned(substitution.match_triangles,
                              "substitution.match_triangles")
        for mod in (substitution, random):
            self._patch(mod, "match_triangles", match)
        self._patch(random, "find_flippable",
                    self._spanned(random.find_flippable,
                                  "random.find_flippable",
                                  size=lambda patch, *a, **k: len(patch)))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False
