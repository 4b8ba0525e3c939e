"""Host speed, measured with a fixed reference kernel.

The benchmark host is a share of a larger machine, and its speed drifts by
tens of percent over minutes, also in process CPU time, so the drift is
not only preemption.  Every timed step of a run is therefore bracketed by
reference points taken on the same CPU, and its wall time is scaled by
the reference time on the reference host over the reference time now:
timings are reported in reference-host seconds.

A reference point times many short calls of one kernel that mixes the
kinds of work hbayes does (small matrix inverses in a Python loop, an
(N, d, d) outer-product tensor, JSON text and plain interpreter work) and
uses nothing from hbayes, so a change to hbayes never moves it.  Two
figures come from one point:

- ``mean``: the mean call time, which slows with the share of the CPU the
  host gives; it scales steps of a second or more (train, server start)
  and the 95th-percentile latency, which lies among the long requests;
- ``median``: the median call time, which a short descheduling of the CPU
  misses just as most short requests miss it; it scales the median
  request latency.

Where the host slows every instruction alike, the two move together.
Warm-up calls come first: a cold first call after the CPU idled or ran
another process reads slower by up to half.
"""

import json
import statistics
import time

import numpy as np

# Mean and median seconds of one reference call on the reference host (see
# README.md); they only set the scale of the reported timings.
REF_MEAN_S = 0.000620
REF_MEDIAN_S = 0.000615
WARM_CALLS = 10
TIMED_CALLS = 150

_rng = np.random.default_rng(20190820)
_a = _rng.standard_normal((12, 8, 8))
_SPD = _a @ _a.transpose(0, 2, 1) + 8.0 * np.eye(8)
_X = _rng.standard_normal((300, 20))
_RECORDS = [{"brand": f"b{i % 97}", "user": f"u{i}", "x": [float(v) for v in _X[i, :8]]}
            for i in range(30)]


def _kernel():
    acc = 0.0
    for m in _SPD:
        acc += np.linalg.inv(m)[0, 0]
    acc += np.einsum("ni,nj->nij", _X, _X).sum()
    acc += len(json.loads(json.dumps(_RECORDS)))
    total = 0
    for i in range(3_000):
        total += i * i % 7
    return acc + total


class Point:
    """One reference point: mean and median seconds of a kernel call now."""

    def __init__(self):
        for _ in range(WARM_CALLS):
            _kernel()
        times = []
        for _ in range(TIMED_CALLS):
            start = time.perf_counter()
            _kernel()
            times.append(time.perf_counter() - start)
        self.mean = statistics.fmean(times)
        self.median = statistics.median(times)


def step_scale(before, after):
    """Wall seconds to reference-host seconds, for a step of a second or
    more that ran between two reference points."""
    return REF_MEAN_S / (0.5 * (before.mean + after.mean))


def latency_scale(before, after):
    """The same for the median latency of requests made between two points."""
    return REF_MEDIAN_S / (0.5 * (before.median + after.median))
