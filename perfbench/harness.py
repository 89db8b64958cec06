"""Shared plumbing for the workloads: statistics, correctness checks,
the protocol record and the result line.

Every workload returns an :class:`Outcome`; :func:`emit` checks its
metric names against ``BENCHMARK.json`` (the single source of names and
units), prints a human-readable table and then, as the last line of
standard output, the JSON result object.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: repository root of the checkout the benchmark runs in
ROOT = Path(__file__).resolve().parent.parent

#: a tail percentile needs at least this many samples beyond it
TAIL_MIN_BEYOND = 10

#: precision of an exact match (float64 mantissa), so the metric stays finite
MAX_PRECISION_BITS = 52.0


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def tail_percentile(samples) -> tuple:
    """Highest nearest-rank percentile with ``TAIL_MIN_BEYOND`` samples above it.

    Returns ``(percentile, value, samples_beyond)``.  The rank is
    ``n - TAIL_MIN_BEYOND``, but never below the upper median: with fewer
    than about ``2 * TAIL_MIN_BEYOND`` samples there is no tail to speak
    of, and ``samples_beyond`` says how thin it is.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    rank = max(n - TAIL_MIN_BEYOND, n // 2 + 1)
    return 100.0 * rank / n, xs[rank - 1], n - rank


def room_for_another(t_start: float, seconds: float, last: float) -> bool:
    """Whether one more unit of work, as long as the last, ends within the run."""
    return time.perf_counter() - t_start + last <= seconds


def repeat_setup(reps: int, build, release=None) -> tuple:
    """Set up ``reps`` times, keeping only the last build.

    Returns ``(last build, median setup_s)``; ``release`` tears a
    superseded build down before the next one.
    """
    setup_s, last = [], None
    for _ in range(reps):
        if last is not None and release is not None:
            release(last)
        last = None  # drop the previous build before making the next
        last = build()
        setup_s.append(last["setup_s"])
    return last, median(setup_s)


def median(samples) -> float:
    return float(statistics.median(samples))


def precision_bits(got, ref) -> float:
    """-log2(max|got - ref| / max|ref|), capped at float64 precision."""
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    err = float(np.max(np.abs(got - ref)))
    scale = float(np.max(np.abs(ref)))
    if err == 0.0 or scale == 0.0:
        return MAX_PRECISION_BITS
    return min(MAX_PRECISION_BITS, -math.log2(err / scale))


def plaintext_in_domain(model, x) -> tuple:
    """Plaintext logits of ``model(x)`` and the largest PAF domain ratio.

    The ratio is max |PAF input| / static scale over every PAF call.
    Static Scaling freezes each scale at the calibration set's maximum,
    so the polynomials approximate sign only while the ratio is at most
    1; past it the PAF leaves its domain and the decrypted logits drift
    from the plaintext ones by more than the pinned tolerance (request 1
    of ``resnet_infer`` seed 1247872090 had ratio 1.14 and |err| 2.4e-2).
    Returns ``(logits, ratio)``.
    """
    from repro.core import replaced_layers
    from repro.nn.tensor import Tensor, no_grad

    ratios = []

    def recording(scale_of):
        def wrapped(values, slot=0):
            scale = scale_of(values, slot)
            ratios.append(float(np.max(np.abs(values))) / scale)
            return scale

        return wrapped

    layers = [m for _, m in replaced_layers(model)]
    for layer in layers:
        layer._scale_of = recording(layer._scale_of)
    try:
        with no_grad():
            out = model(Tensor(np.asarray(x))).data
    finally:
        for layer in layers:
            del layer._scale_of  # back to the class's method
    return out, max(ratios, default=0.0)


def check_logits(got, ref, rtol: float, atol: float) -> str | None:
    """Why ``got`` is not an acceptable answer for ``ref``, or ``None``.

    Beyond ``np.allclose`` at the pinned tolerance, the argmax must agree
    wherever the plaintext top-two margin exceeds the tolerance (below it
    the predicted class is not decidable at that precision).
    """
    got = np.asarray(got, dtype=np.float64).ravel()
    ref = np.asarray(ref, dtype=np.float64).ravel()
    if got.shape != ref.shape:
        return f"shape {got.shape} != {ref.shape}"
    if not np.all(np.isfinite(got)):
        return "non-finite logits"
    if not np.allclose(got, ref, rtol=rtol, atol=atol):
        return f"max |err| {float(np.max(np.abs(got - ref))):.3g} beyond rtol={rtol} atol={atol}"
    top2 = np.sort(ref)[-2:]
    margin = float(top2[1] - top2[0]) if ref.size > 1 else math.inf
    if margin > atol + rtol * float(np.max(np.abs(ref))):
        if int(np.argmax(got)) != int(np.argmax(ref)):
            return "argmax disagrees with the plaintext model"
    return None


class Tally:
    """Attempted, failed and in-limit counts plus per-answer samples.

    A wrong answer (beyond tolerance, argmax disagreement) or a crash
    makes the run incorrect; a timeout or shed request is only failed.
    """

    def __init__(self, limit_s: float):
        self.limit_s = limit_s
        self.attempted = self.failed = self.good = 0
        self.wrong = False
        self.latencies: list = []
        self.precisions: list = []
        self.notes: list = []

    def error(self, what: str, wrong: bool = True) -> None:
        self.attempted += 1
        self.failed += 1
        self.wrong |= wrong
        self.notes.append(f"request {self.attempted}: {what}")

    def answer(self, got, ref, latency: float, rtol: float, atol: float) -> bool:
        """Book one answer; returns whether it was correct."""
        self.attempted += 1
        self.latencies.append(latency)
        self.precisions.append(precision_bits(got, ref))
        why = check_logits(got, ref, rtol, atol)
        if why is not None:
            self.failed += 1
            self.wrong = True
            self.notes.append(f"request {self.attempted}: {why}")
            return False
        if latency <= self.limit_s:
            self.good += 1
        return True


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# protocol record
# ----------------------------------------------------------------------
def ctx_record(name: str, ctx) -> dict:
    """Backend and parameters of one context; asserts the vectorized kernels."""
    from repro.ckks.backend import VectorizedBackend

    backend = ctx.backend
    if backend.name != "vectorized" or not isinstance(backend, VectorizedBackend):
        raise RuntimeError(f"{name}: backend {backend.name!r} is not the vectorized backend")
    p = ctx.params
    return {
        "model": name,
        "backend": backend.name,
        "backend_class": type(backend).__name__,
        "n": p.n,
        "depth": p.depth,
        "scale_bits": p.scale_bits,
        "scale_tracking": p.scale_tracking,
    }


def protocol(workload: str, seed: int, seconds: int, trace: int, threads: int, contexts=()) -> dict:
    cores = os.cpu_count() or 1
    if threads > cores:
        raise RuntimeError(f"{threads} load threads on {cores} cores")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": cores,
        "load_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "contexts": [ctx_record(name, ctx) for name, ctx in contexts],
    }


# ----------------------------------------------------------------------
# outcome and result line
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int
    failed: int
    correct: bool
    metrics: dict
    protocol: dict
    #: free-form lines printed above the result (tables, checks, failures)
    notes: list = field(default_factory=list)


def declared() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def result_metrics(outcome: Outcome, trace: int, spec: dict) -> dict:
    """The declared metric set for this mode, with units from ``spec``.

    End-to-end metrics must all be measured.  A per-layer metric a
    workload never exercises (a serving counter on the fitting job, say)
    reads 0.  A measured name that is not declared is an error.
    """
    group = spec["per_layer"] if trace else spec["end_to_end"]
    names = {m["name"] for m in group}
    unknown = sorted(set(outcome.metrics) - names)
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    out = {}
    for m in group:
        value = outcome.metrics.get(m["name"])
        if value is None:
            if not trace:
                raise KeyError(f"end-to-end metric {m['name']!r} was not measured")
            value = 0.0
        out[m["name"]] = {"value": float(value), "unit": m["unit"]}
    return out


def emit(outcome: Outcome, trace: int, spec: dict) -> dict:
    metrics = result_metrics(outcome, trace, spec)
    print("protocol: " + json.dumps(outcome.protocol, sort_keys=True))
    for line in outcome.notes:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    line = {
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    print(json.dumps(line), flush=True)
    return line
