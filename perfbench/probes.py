"""Measurement points installed from outside the library for traced runs.

Nothing here changes ``repro``:

* kernel time: :class:`TimedVectorizedBackend`, a ``VectorizedBackend``
  subclass registered through ``register_backend`` (see
  :func:`install_timed_backend`) that times each kernel call and
  inherits all arithmetic unchanged;
* evaluator time: :class:`TimingEvaluator`, a proxy passed as ``ev=``;
* layer spans: ``repro.obs.TracingEvaluator`` (wrapped around the proxy);
* serving and fitting boundaries: :func:`patched` swaps a public
  function or method for a timing wrapper while a traced run lasts.

Kernel ``busy_s`` is self time (a kernel called from another kernel,
e.g. the NTTs inside ``hoist_decompose``, is booked to the inner one
only).  Evaluator ``busy_s`` is the wall time of the call, kernels
included.  ``bytes`` is computed from array shapes (inputs plus
outputs), not measured traffic.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager

import numpy as np

from repro.ckks.backend import VectorizedBackend, register_backend

#: registry name of the timed backend
TIMED_BACKEND = "vectorized-timed"

KERNELS = (
    "ntt_forward",
    "ntt_inverse",
    "modmul",
    "modadd",
    "rescale",
    "hoist_decompose",
    "apply_keyswitch",
    "reduce_coeffs",
)

#: evaluator method -> reported op (composites fold into their main op)
EVALUATOR_OPS = {
    "encrypt": "encrypt",
    "decrypt": "decrypt",
    "mul": "mul",
    "square": "mul",
    "mul_rescale": "mul",
    "mul_plain": "mul_plain",
    "mul_plain_rescale": "mul_plain",
    "rescale": "rescale",
    "rotate": "rotate",
    "conjugate": "rotate",
    "rotate_many": "rotate_many",
    "align_to": "align_to",
    "mod_switch_to": "align_to",
    "add": "add",
    "sub": "add",
    "negate": "add",
    "add_plain": "add",
}
OPS = ("encrypt", "decrypt", "mul", "mul_plain", "rescale", "rotate", "rotate_many", "align_to", "add")


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    return 0


class KernelMeter:
    """Calls, self time and computed bytes per kernel, across threads."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls = Counter()
            self.busy = defaultdict(float)
            self.bytes = Counter()

    def timed(self, name: str, thunk, inputs):
        stack = self._local.__dict__.setdefault("stack", [])
        stack.append(0.0)  # time spent in nested kernels
        t0 = time.perf_counter()
        try:
            out = thunk()
        finally:
            elapsed = time.perf_counter() - t0
            nested = stack.pop()
            if stack:
                stack[-1] += elapsed
        moved = _nbytes(inputs) + _nbytes(out)
        with self._lock:
            self.calls[name] += 1
            self.busy[name] += elapsed - nested
            self.bytes[name] += moved
        return out

    def snapshot(self) -> dict:
        with self._lock:
            return {k: (self.calls[k], self.busy[k], self.bytes[k]) for k in KERNELS}


class TimedVectorizedBackend(VectorizedBackend):
    """The vectorized kernels, each call timed by the instance's ``meter``.

    Only timing is added; every result comes from the parent class, so
    ciphertexts stay bit-identical (checked by the traced ResNet run).
    """

    def __init__(self, ctx):
        super().__init__(ctx)
        self.meter = KernelMeter()

    def ntt_forward(self, rows, prime_indices):
        parent = super().ntt_forward
        return self.meter.timed("ntt_forward", lambda: parent(rows, prime_indices), rows)

    def ntt_inverse(self, rows, prime_indices):
        parent = super().ntt_inverse
        return self.meter.timed("ntt_inverse", lambda: parent(rows, prime_indices), rows)

    def modmul(self, a, b, prime_indices):
        parent = super().modmul
        return self.meter.timed("modmul", lambda: parent(a, b, prime_indices), (a, b))

    def modadd(self, a, b, prime_indices):
        parent = super().modadd
        return self.meter.timed("modadd", lambda: parent(a, b, prime_indices), (a, b))

    def rescale(self, rows, level):
        parent = super().rescale
        return self.meter.timed("rescale", lambda: parent(rows, level), rows)

    def hoist_decompose(self, rows, level):
        parent = super().hoist_decompose
        return self.meter.timed("hoist_decompose", lambda: parent(rows, level), rows)

    def apply_keyswitch(self, digits, key_b, key_a, level, perm=None):
        parent = super().apply_keyswitch
        return self.meter.timed(
            "apply_keyswitch",
            lambda: parent(digits, key_b, key_a, level, perm=perm),
            (digits, key_b, key_a),
        )

    def reduce_coeffs(self, coeffs, prime_indices):
        parent = super().reduce_coeffs
        return self.meter.timed("reduce_coeffs", lambda: parent(coeffs, prime_indices), coeffs)


def install_timed_backend(ctx) -> TimedVectorizedBackend:
    """Register the timed backend and switch ``ctx`` to it (keys unchanged)."""
    register_backend(TIMED_BACKEND, TimedVectorizedBackend)
    return ctx.set_backend(TIMED_BACKEND)


class EvaluatorMeter:
    """Calls and wall time per evaluator op, plus the high-level share."""

    def __init__(self):
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.calls = Counter()
            self.busy = defaultdict(float)
            self.high_busy = 0.0

    def record(self, op: str, elapsed: float, high: bool) -> None:
        with self._lock:
            self.calls[op] += 1
            self.busy[op] += elapsed
            if high:
                self.high_busy += elapsed

    def high_level_share(self) -> float:
        total = sum(self.busy.values())
        return self.high_busy / total if total > 0 else 0.0


class TimingEvaluator:
    """Evaluator proxy timing every op it forwards.

    Methods the wrapped evaluator calls on itself (``mul_rescale`` ->
    ``mul``) are not re-entered, so each op is booked once, under the
    name the executor called.  An op counts as high-level when its first
    ciphertext sits above half the chain (fresh encryptions always do).
    """

    def __init__(self, inner, meter: EvaluatorMeter):
        self._inner = inner
        self._meter = meter
        self._half = inner.ctx.max_level / 2

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        op = EVALUATOR_OPS.get(name)
        if op is None or not callable(attr):
            return attr
        meter, half = self._meter, self._half

        def timed(*args, **kwargs):
            first = args[0] if args else None
            level = getattr(first, "level", None)
            high = level is None or level > half
            t0 = time.perf_counter()
            try:
                return attr(*args, **kwargs)
            finally:
                meter.record(op, time.perf_counter() - t0, high)

        return timed


# ----------------------------------------------------------------------
# spans recorded by the benchmark
# ----------------------------------------------------------------------
class SpanLog:
    """In-memory spans at the layer boundaries the benchmark wraps.

    Each span has a name, start, end, parent span and a request id shared
    by the spans of one request; spans are written out once, at exit.
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._t0 = time.perf_counter()
        self.spans: list = []

    @contextmanager
    def span(self, name: str, request=None):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent["request"]
        rec = {
            "name": name,
            "parent": None if parent is None else parent["id"],
            "request": request,
            "thread": threading.get_ident(),
            "start_s": time.perf_counter() - self._t0,
            "end_s": None,
        }
        with self._lock:
            rec["id"] = len(self.spans)
            self.spans.append(rec)
        stack.append(rec)
        try:
            yield rec
        finally:
            rec["end_s"] = time.perf_counter() - self._t0
            stack.pop()

    def add_closed(self, name: str, start_s: float, duration_s: float, parent: dict) -> None:
        """Record an already-finished child span (e.g. a repro.obs layer span)."""
        rec = {
            "name": name,
            "parent": parent["id"],
            "request": parent["request"],
            "thread": parent["thread"],
            "start_s": start_s,
            "end_s": start_s + duration_s,
        }
        with self._lock:
            rec["id"] = len(self.spans)
            self.spans.append(rec)

    def durations(self, name: str) -> list:
        return [s["end_s"] - s["start_s"] for s in self.spans if s["name"] == name and s["end_s"] is not None]

    def self_times(self) -> dict:
        """Total self time per span name: duration minus direct children."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None and s["end_s"] is not None:
                child[s["parent"]] += s["end_s"] - s["start_s"]
        out = defaultdict(float)
        for s in self.spans:
            if s["end_s"] is not None:
                out[s["name"]] += s["end_s"] - s["start_s"] - child[s["id"]]
        return dict(out)


@contextmanager
def patched(owner, attr: str, make_wrapper):
    """Replace ``owner.attr`` with ``make_wrapper(original)`` for a block."""
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def span_wrapper(log: SpanLog, name: str, keep: list | None = None):
    """``make_wrapper`` for :func:`patched`: time each call as a span.

    Return values are appended to ``keep`` when one is given (how set-up
    gets at the dataset a shared toy builder trains on).
    """

    def make(original):
        def wrapper(*args, **kwargs):
            with log.span(name):
                out = original(*args, **kwargs)
            if keep is not None:
                keep.append(out)
            return out

        return wrapper

    return make


@contextmanager
def spans_around(log: SpanLog, wraps, keep: dict | None = None):
    """Time every ``(owner, attr, span name)`` in ``wraps`` for a block.

    ``keep`` maps a span name to the list its calls' return values go to.
    """
    keep = keep or {}
    with ExitStack() as stack:
        for owner, attr, name in wraps:
            stack.enter_context(patched(owner, attr, span_wrapper(log, name, keep.get(name))))
        yield


def traced_setup(build):
    """One set-up with ``Tensor.backward`` timed; returns (build, set-up spans)."""
    from repro.nn.tensor import Tensor

    log = SpanLog()
    with patched(Tensor, "backward", span_wrapper(log, "nn.backward")):
        return build(log=log), log


def kernel_metrics(backends, per: int) -> dict:
    """``ckks.backend.*`` metrics summed over timed backends, per unit of work."""
    snapshots = [b.meter.snapshot() for b in backends]
    out = {}
    for name in KERNELS:
        calls, busy, moved = (sum(s[name][k] for s in snapshots) for k in range(3))
        out[f"ckks.backend.{name}.calls"] = calls / per
        out[f"ckks.backend.{name}.busy_s"] = busy / per
        out[f"ckks.backend.{name}.bytes"] = moved / per
    return out


def evaluator_metrics(meter: EvaluatorMeter, per: int) -> dict:
    """``ckks.evaluator.<op>.*`` metrics from ``meter``, per unit of work."""
    out = {}
    for op in OPS:
        out[f"ckks.evaluator.{op}.calls"] = meter.calls[op] / per
        out[f"ckks.evaluator.{op}.busy_s"] = meter.busy[op] / per
    out["ckks.evaluator.high_level_share"] = meter.high_level_share()
    return out


def core_metrics(log: SpanLog, per: int) -> dict:
    """Fitting-side layers (per fit on smartpaf_fit, per set-up elsewhere)."""

    def total(name):
        return sum(log.durations(name)) / per

    def calls(name):
        return len(log.durations(name)) / per

    return {
        "core.ct.busy_s": total("core.ct"),
        "core.group.calls": calls("core.group"),
        "core.group.busy_s": total("core.group"),
        "core.epoch.calls": calls("core.epoch"),
        "core.eval.busy_s": total("core.eval"),
        "core.ss.busy_s": total("core.ss"),
        "nn.backward.calls": calls("nn.backward"),
        "nn.backward.busy_s": total("nn.backward"),
    }


def format_self_times(log: SpanLog, per: int, label: str) -> list:
    """Self time per span name, divided over ``per`` units of work."""
    rows = sorted(log.self_times().items(), key=lambda kv: -kv[1])
    lines = [f"self time per {label} (n={per}), from the benchmark's spans:"]
    for name, total in rows:
        lines.append(f"  {name:<28} {total / max(per, 1):10.4f} s")
    return lines


def write_spans(path, setup_log: SpanLog, run_log: SpanLog, extra: dict) -> None:
    """Write both span logs (set-up and measured work) to one file, at exit."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "format": "perfbench-spans-v1",
        "setup_spans": setup_log.spans,
        "spans": run_log.spans,
        **extra,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
