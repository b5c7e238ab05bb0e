"""Measurement helpers for the XMark repository benchmark.

Everything here observes the program from the outside: wall-clock
timing of public calls, registry snapshot deltas, span self times from
the existing tracer, profiler sample shares, and process counters read
from ``/proc``.  Nothing in this module changes how ``repro`` runs.
"""

from __future__ import annotations

import bisect
import gc
import math
import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence
from xml.dom import minidom

#: Minimum number of samples a percentile must have beyond it.
MIN_BEYOND = 10

#: Profiler attribution buckets: ``repro`` sub-package -> layer name.
LAYER_PACKAGES = {
    "xmlmodel": "xmlmodel",
    "schemes": "schemes",
    "labels": "labels_encoding",
    "encoding": "labels_encoding",
    "updates": "updates",
    "durability": "durability",
    "axes": "axes",
    "store": "store",
    "ulang": "ulang",
}
SAMPLE_LAYERS = sorted(set(LAYER_PACKAGES.values()))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]) of a non-empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie beyond the ``q`` percentile."""
    return count - max(1, math.ceil(q * count))


def reference_text() -> str:
    """The fixed input of :class:`SpeedProbe`: 3,001 elements.

    It is built here, not by the program's XMark generator, so that no
    change to the program can change what the probe measures.
    """
    parts = ["<site>"]
    for i in range(600):
        parts.append(
            f'<item id="item{i}"><name>item {i}</name><description>'
            f'<parlist><listitem>word {i % 7}</listitem></parlist>'
            f'</description></item>'
        )
    parts.append("</site>")
    return "".join(parts)


class SpeedProbe:
    """How fast this machine is running right now, from a fixed task.

    The host is shared: the speed of its cores drifts by up to a factor
    of two, within seconds and over minutes, and every timing of a run
    moves with it.  The
    probe times a reference task that uses the standard library only
    (``xml.dom.minidom`` builds and walks a tree of Python objects, much
    as the program does): at most every ``EVERY_S`` seconds of a timed
    loop, between operations, and before each set-up.  A factor is a
    probe time over ``NOMINAL_MS``; above 1 the machine ran slower than
    nominal.  Dividing a timing by the factor states it in
    milliseconds at the nominal speed.  The probe runs with the
    collector off, so the program's heap does not change its cost.
    """

    #: About the median probe time on an unloaded core of the reference
    #: host (Intel Xeon, 2.1 GHz).  A constant, so that it cancels
    #: between runs and commits.
    NOMINAL_MS = 10.0
    #: Least time between two probes in a timed loop.
    EVERY_S = 0.05

    def __init__(self) -> None:
        self.text = reference_text()
        self.times: List[float] = []
        self.samples: List[float] = []
        self.last = -math.inf

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            dom = minidom.parseString(self.text)
            dom.getElementsByTagName("*")
            self.times.append(start)
            self.samples.append(time.perf_counter() - start)
            dom.unlink()
        finally:
            if enabled:
                gc.enable()
        self.last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self.last >= self.EVERY_S

    def factor(self) -> float:
        """The median factor of the whole run."""
        return statistics.median(self.samples) * 1e3 / self.NOMINAL_MS

    def factor_at(self, when: float) -> float:
        """The mean factor of the last probe before ``when`` and the next.

        Probes run between operations, so for an operation that starts
        at ``when`` the two bracket it.
        """
        after = bisect.bisect_left(self.times, when)
        around = self.samples[max(after - 1, 0):after + 1]
        return statistics.fmean(around) * 1e3 / self.NOMINAL_MS


class Recorder:
    """Per-operation-class latency samples for one closed-loop pass.

    ``op(cls)`` times one public call and files the duration under its
    class; percentiles are only ever taken within one class.  Time spent
    in correctness checks between operations, and in the speed probe, is
    accumulated in ``paused_s`` so that the loop's throughput excludes
    it.
    """

    def __init__(self, probe: Optional[SpeedProbe] = None) -> None:
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.starts: Dict[str, List[float]] = defaultdict(list)
        self.attempted = 0
        self.completed = 0
        self.failed = 0
        self.paused_s = 0.0
        self.probe = probe

    @contextmanager
    def op(self, cls: str):
        """Time one public call; a call that raises counts as failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            yield
        except Exception:
            self.failed += 1
            raise
        self.samples[cls].append(time.perf_counter() - start)
        self.starts[cls].append(start)
        self.completed += 1
        if self.probe is not None and self.probe.due():
            with self.paused():
                self.probe.sample()

    def record(self, cls: str, seconds: float) -> None:
        """File a duration measured by the caller (sub-steps of an op)."""
        self.samples[cls].append(seconds)

    @contextmanager
    def paused(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - start

    def count(self, cls: str) -> int:
        return len(self.samples.get(cls, ()))

    def ms(self, cls: str, q: float) -> float:
        """The ``q`` percentile of one class, in milliseconds (0 if unused)."""
        values = self.samples.get(cls)
        return percentile(values, q) * 1e3 if values else 0.0

    def nominal_ms(self, cls: str, q: float) -> float:
        """Like :meth:`ms`, at the nominal speed of the probe.

        Each sample of the class (timed by :meth:`op`) is divided by the
        factor of the probes taken around it before the percentile is
        taken, so a stretch of slow machine scales only its own samples.
        """
        values = [seconds / self.probe.factor_at(start) for start, seconds
                  in zip(self.starts[cls], self.samples[cls], strict=True)]
        return percentile(values, q) * 1e3 if values else 0.0

    def nominal_wall(self, wall: float) -> float:
        """The loop's ``wall`` seconds, at the nominal speed.

        Each call's time is divided by the factor of the probes around
        it, as in :meth:`nominal_ms`; the loop's time between calls by
        the factor of the whole run.
        """
        busy = nominal = 0.0
        for cls, starts in self.starts.items():
            for start, seconds in zip(starts, self.samples[cls], strict=True):
                busy += seconds
                nominal += seconds / self.probe.factor_at(start)
        return nominal + (wall - busy) / self.probe.factor()


#: The collapsed-stack frame of :meth:`SpeedProbe.sample`.
PROBE_FRAME = f"{__name__}:{SpeedProbe.sample.__name__}"


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_chars() -> int:
    """Bytes this process has passed to write syscalls (``wchar``)."""
    try:
        with open("/proc/self/io", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def registry_delta(before: Dict[str, float],
                   after: Dict[str, float]) -> Dict[str, float]:
    return {name: value - before.get(name, 0) for name, value in after.items()}


# ----------------------------------------------------------------------
# Traced-run analysis
# ----------------------------------------------------------------------

def span_self_ms(spans: Iterable, name: str) -> float:
    """Mean self time (ms) of the spans called ``name``; 0 if none ran."""
    selves = [span.self_s for span in spans if span.name == name]
    return sum(selves) / len(selves) * 1e3 if selves else 0.0


def covered_s(spans: Iterable, start: float, end: float) -> float:
    """Seconds of ``[start, end]`` covered by root spans opened inside it."""
    return sum(
        span.duration_s for span in spans
        if span.parent is None and start <= span.start_s <= end
    )


def sample_shares(collapsed: Dict[str, int]) -> Dict[str, float]:
    """Share of samples whose innermost ``repro`` frame is in each layer.

    Samples taken while the speed probe runs are left out: the probe's
    time is paused out of the loop, so it is no part of the program's.
    """
    counts = dict.fromkeys(SAMPLE_LAYERS, 0)
    total = 0
    for stack, count in collapsed.items():
        if PROBE_FRAME in stack.split(";"):
            continue
        total += count
        for frame in reversed(stack.split(";")):
            module = frame.split(":", 1)[0]
            if module.startswith("repro."):
                layer = LAYER_PACKAGES.get(module.split(".")[1])
                if layer is not None:
                    counts[layer] += count
                break
    return {layer: (count / total if total else 0.0)
            for layer, count in counts.items()}


def rows_examined_per_result(plans: Sequence) -> float:
    """Axis candidates examined over results, summed over analyzed plans."""
    examined = results = 0
    for plan in plans:
        for step in plan.steps:
            rows = step.axis_rows if step.axis_rows is not None else step.actual_rows
            examined += rows or 0
        results += plan.result_count or 0
    return examined / results if results else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0

