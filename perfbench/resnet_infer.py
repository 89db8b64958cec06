"""``resnet_infer``: one closed-loop client on the sharded toy ResNet.

Set-up builds the shared toy ResNet (``repro.fhe.toy.compiled_toy_resnet``:
2 BasicBlocks trained, ReLUs swapped for the f1∘g2 PAF, static scales
calibrated, compiled with 2 channel shards on the 31-level
scale-tracking chain at n=512) on the vectorized kernels and serves one
warm-up request, which also generates the Galois keys.  The
client then sends seeded inputs one at a time:
``encrypt_batch_shards`` -> ``forward_shards`` -> ``decrypt_logits``.
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np

from perfbench import harness, probes

NUM_CLASSES = 3
#: a request slower than this misses the goodput limit
LATENCY_LIMIT_S = 15.0
#: tolerance pinned by the toy ResNet's differential tests
RTOL, ATOL = 1e-3, 1e-4
#: input jitter around dataset images, so every request is distinct
JITTER = 0.05
#: one set-up (~10 s, mostly lazy Galois keygen in the warm-up forward) is
#: already a third of a run; more would not fit the benchmark's time budget
SETUP_REPS = 1
BACKEND = "vectorized"


def setup(log: probes.SpanLog | None = None) -> dict:
    """Build the shared toy ResNet, warm it; returns the parts and phase times.

    ``compiled_toy_resnet`` trains, swaps PAFs in, calibrates and compiles;
    spans around the functions it calls split its time into phases and
    hand over the dataset it trains on.
    """
    import repro.core
    import repro.fhe.cnn
    import repro.fhe.toy as toy

    log = log or probes.SpanLog()
    trained: list = []
    wraps = [
        (toy, "toy_resnet_model", "setup.train"),
        (repro.core, "calibrate_static_scales", "core.ss"),
        (repro.fhe.cnn, "compile_resnet", "setup.compile"),
    ]
    params = dataclasses.replace(toy.TOY_RESNET_PARAMS, backend=BACKEND)
    t0 = time.perf_counter()
    with log.span("setup.build"), probes.spans_around(log, wraps, keep={"setup.train": trained}):
        model, enc = toy.compiled_toy_resnet(with_model=True, params=params)
    t1 = time.perf_counter()
    with log.span("setup.warm"):
        dim = sum(enc.input_splits)
        out = enc.forward_shards(enc.encrypt_batch_shards([np.zeros(dim)]))
        enc.decrypt_logits(out[0], NUM_CLASSES)
    t2 = time.perf_counter()
    compile_s = sum(log.durations("setup.compile"))
    return {
        "model": model,
        "data": trained[0][1],
        "enc": enc,
        "train_s": t1 - t0 - compile_s,
        "compile_s": compile_s,
        "warm_s": t2 - t1,
        "setup_s": t2 - t0,
    }


class Inputs:
    """Seeded request inputs: dataset images plus a little Gaussian jitter.

    Only inputs inside the model's calibrated PAF domain are sent; about
    one draw in twenty (a sixth of the validation images) leaves it and
    is drawn again, and ``redrawn`` counts those.
    """

    def __init__(self, seed: int, model, data):
        self._rng = np.random.default_rng([seed, 11])
        self._pool = np.concatenate([data.x_train, data.x_val])
        self._model = model
        self.redrawn = 0

    def next(self) -> tuple:
        while True:
            img = self._pool[self._rng.integers(len(self._pool))]
            x = img + self._rng.normal(0.0, JITTER, size=img.shape)
            ref, ratio = harness.plaintext_in_domain(self._model, x[None])
            if ratio <= 1.0:
                return x.ravel(), ref.ravel()
            self.redrawn += 1

    def note(self) -> str:
        return f"{self.redrawn} drawn inputs left the calibrated PAF domain and were drawn again"


def request(enc, x, ev=None, log: probes.SpanLog | None = None, rid=None):
    """One client round trip; returns the decrypted logits."""
    log = log or probes.SpanLog()
    with log.span("request", request=rid):
        with log.span("encrypt"):
            cts = enc.encrypt_batch_shards([x], ev=ev)
        with log.span("forward") as fwd:
            out = enc.forward_shards(cts, ev=ev)
        if ev is not None and getattr(ev, "tracer", None) is not None:
            # repro.obs times spans from its own epoch: re-base on the forward root
            base = fwd["start_s"] - ev.tracer.roots[-1].start_s
            for sp in ev.tracer.layer_spans():
                log.add_closed(sp.name, base + sp.start_s, sp.duration_s, fwd)
        with log.span("decrypt"):
            return enc.decrypt_logits(out[0], NUM_CLASSES, ev=ev)


def _baseline_counts() -> dict:
    with open(harness.ROOT / "benchmarks" / "opcount_baseline.json") as fh:
        return json.load(fh)["models"]["toy_resnet"]


def run(seed: int, seconds: int, trace: int) -> harness.Outcome:
    return run_traced(seed, seconds) if trace else run_timed(seed, seconds)


def run_timed(seed: int, seconds: int) -> harness.Outcome:
    from repro.core.trainer import evaluate_accuracy

    s, setup_s = harness.repeat_setup(SETUP_REPS, setup)
    enc, model = s["enc"], s["model"]
    inputs = Inputs(seed, model, s["data"])
    tally = harness.Tally(LATENCY_LIMIT_S)
    t_start = time.perf_counter()
    while True:
        x, ref = inputs.next()
        t0 = time.perf_counter()
        try:
            got = request(enc, x)
        except Exception as exc:  # a crashed request is a failed one
            tally.error(f"{type(exc).__name__}: {exc}")
            break
        latency = time.perf_counter() - t0
        tally.answer(got, ref, latency, RTOL, ATOL)
        if not harness.room_for_another(t_start, seconds, latency):
            break
    elapsed = time.perf_counter() - t_start
    latencies = tally.latencies or [elapsed]
    pct, tail, beyond = harness.tail_percentile(latencies)
    tally.notes.append(f"latency tail = p{pct:.1f} over {len(latencies)} requests ({beyond} beyond it)")
    tally.notes.append(inputs.note())
    metrics = {
        "setup_s": setup_s,
        "latency_p50_s": harness.median(latencies),
        "latency_tail_s": tail,
        "throughput_rps": len(tally.latencies) / elapsed,
        "goodput_rps": tally.good / elapsed,
        # the toy model is fitted inside set-up (see README: fit_s)
        "fit_s": setup_s,
        "ss_accuracy": evaluate_accuracy(model, s["data"].x_val, s["data"].y_val),
        "precision_bits": harness.median(tally.precisions or [0.0]),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    proto = harness.protocol("resnet_infer", seed, seconds, 0, threads=1, contexts=[("toy_resnet", enc.ctx)])
    return harness.Outcome(tally.attempted, tally.failed, not tally.wrong, metrics, proto, tally.notes)


def _same_ciphertexts(a, b) -> bool:
    return len(a) == len(b) and all(
        x.level == y.level
        and x.scale == y.scale
        and np.array_equal(x.c0.data, y.c0.data)
        and np.array_equal(x.c1.data, y.c1.data)
        for x, y in zip(a, b)
    )


def run_traced(seed: int, seconds: int) -> harness.Outcome:
    from repro.ckks.instrumentation import CountingEvaluator
    from repro.obs import TracingEvaluator

    s, setup_log = probes.traced_setup(setup)
    enc, model = s["enc"], s["model"]
    inputs = Inputs(seed, model, s["data"])
    log = probes.SpanLog()
    tally = harness.Tally(LATENCY_LIMIT_S)

    def untraced() -> tuple:
        x, ref = inputs.next()
        t0 = time.perf_counter()
        cts = enc.encrypt_batch_shards([x])
        out = enc.forward_shards(cts)
        got = enc.decrypt_logits(out[0], NUM_CLASSES)
        untraced_lat.append(time.perf_counter() - t0)
        tally.answer(got, ref, untraced_lat[-1], RTOL, ATOL)
        return cts, out

    # an untraced request, then its ciphertexts again through every probe
    untraced_lat: list = []
    plain = enc.ctx.backend
    cts0, out_plain = untraced()
    timed = probes.install_timed_backend(enc.ctx)
    proto = harness.protocol("resnet_infer", seed, seconds, 1, threads=1, contexts=[("toy_resnet", enc.ctx)])
    ev_meter = probes.EvaluatorMeter()
    tev = TracingEvaluator(CountingEvaluator(probes.TimingEvaluator(enc.ev, ev_meter)))
    out_traced = enc.forward_shards(cts0, ev=tev)
    identical = _same_ciphertexts(out_plain, out_traced)
    counts = tev.counting
    base = _baseline_counts()
    same_ops = (counts.keyswitch_count, counts.nonscalar_mult_count) == (
        base["keyswitches"],
        base["nonscalar_mults"],
    )
    tally.notes.append(
        f"non-perturbation: traced forward c0/c1 bit-identical to untraced: {identical}; "
        f"keyswitches {counts.keyswitch_count} / nonscalar mults {counts.nonscalar_mult_count} "
        f"vs opcount_baseline toy_resnet {base['keyswitches']} / {base['nonscalar_mults']}: {same_ops}"
    )
    tally.wrong |= not (identical and same_ops)

    # closed loop alternating traced and untraced requests, so the tracing
    # overhead compares medians taken over the same stretch of time; the
    # untraced side never has fewer requests than the traced one; the
    # check above is not part of the measured time
    t_start = time.perf_counter()
    timed.meter.reset()
    ev_meter.reset()
    layers: dict = {}
    latencies, keyswitches, nonscalar = [], [], []
    while True:
        x, ref = inputs.next()
        tev.tracer.reset()
        counts.reset()
        t0 = time.perf_counter()
        got = request(enc, x, ev=tev, log=log, rid=tally.attempted + 1)
        latencies.append(time.perf_counter() - t0)
        tally.answer(got, ref, latencies[-1], RTOL, ATOL)
        keyswitches.append(counts.keyswitch_count)
        nonscalar.append(counts.nonscalar_mult_count)
        for sp in tev.tracer.layer_spans():
            layers.setdefault(sp.attrs["layer"], []).append((sp.duration_s, sp.keyswitches, dict(sp.ops)))
        if not harness.room_for_another(t_start, seconds, untraced_lat[-1]):
            break
        enc.ctx.set_backend(plain)
        untraced()
        enc.ctx.set_backend(timed)
        if not harness.room_for_another(t_start, seconds, latencies[-1]):
            break
    n = len(latencies)

    metrics = {
        "setup.train_s": s["train_s"],
        "setup.compile_s": s["compile_s"],
        "setup.warm_s": s["warm_s"],
        "obs.trace_overhead_s": harness.median(latencies) - harness.median(untraced_lat),
        "ckks.evaluator.keyswitches": harness.median(keyswitches),
        "ckks.evaluator.nonscalar_mults": harness.median(nonscalar),
    }
    metrics.update(probes.kernel_metrics([timed], n))
    metrics.update(probes.evaluator_metrics(ev_meter, n))
    layer_metrics, table = model_vs_measured(layers)
    metrics.update(layer_metrics)
    metrics.update(probes.core_metrics(setup_log, per=1))
    notes = tally.notes + table + [inputs.note()]
    notes.append(
        f"tracing overhead: traced p50 {harness.median(latencies):.3f} s over {n} requests "
        f"vs untraced p50 {harness.median(untraced_lat):.3f} s over {len(untraced_lat)}"
    )
    notes.extend(probes.format_self_times(setup_log, 1, "set-up"))
    notes.extend(probes.format_self_times(log, n, "traced request"))
    path = harness.ROOT / "perfbench" / "out" / f"trace-resnet_infer-seed{seed}.json"
    layer_trace = tev.tracer.to_dict(meta={"model": "toy_resnet"})
    probes.write_spans(path, setup_log, log, {"protocol": proto, "layer_trace": layer_trace})
    notes.append(f"spans written to {path.relative_to(harness.ROOT)}")
    return harness.Outcome(tally.attempted, tally.failed, not tally.wrong, metrics, proto, notes)


def model_vs_measured(layers: dict) -> tuple:
    """Per-layer measured busy time vs the flat ``REFERENCE_MICROS`` cost model.

    ``layers`` maps layer index to per-request ``(busy_s, keyswitches,
    op counts)`` samples; returns the metrics and a printable table.
    """
    from repro.fhe.latency import REFERENCE_MICROS, cost_from_counts

    metrics, rows = {}, []
    for i in sorted(layers):
        samples = layers[i]
        busy = harness.median([d for d, _, _ in samples])
        ks = harness.median([k for _, k, _ in samples])
        modelled = cost_from_counts(samples[0][2], REFERENCE_MICROS)
        ratio = modelled / busy if busy > 0 else 0.0
        metrics[f"fhe.layer.{i:02d}.busy_s"] = busy
        metrics[f"fhe.layer.{i:02d}.keyswitches"] = ks
        metrics[f"fhe.layer.{i:02d}.model_ratio"] = ratio
        rows.append((i, busy, modelled, ratio, ks))
    tau = kendall_tau([r[1] for r in rows], [r[2] for r in rows])
    metrics["fhe.layer.rank_tau"] = tau
    table = ["per-layer modelled (ops x REFERENCE_MICROS) vs measured busy time:"]
    table.append("  layer  measured_s  modelled_s  ratio  keyswitches")
    for i, busy, modelled, ratio, ks in rows:
        table.append(f"  {i:5d}  {busy:10.4f}  {modelled:10.4f}  {ratio:5.2f}x  {ks:11.0f}")
    measured_order = [r[0] for r in sorted(rows, key=lambda r: -r[1])]
    modelled_order = [r[0] for r in sorted(rows, key=lambda r: -r[2])]
    table.append(f"  measured order (slowest first): {measured_order}")
    table.append(f"  modelled order (slowest first): {modelled_order}")
    table.append(f"  rank agreement (Kendall tau): {tau:.3f}")
    return metrics, table


def kendall_tau(a, b) -> float:
    """Kendall rank correlation (tau-a) of two equal-length sequences."""
    n = len(a)
    if n < 2:
        return 0.0
    score = 0
    for i in range(n):
        for j in range(i + 1, n):
            score += int(np.sign(a[i] - a[j]) * np.sign(b[i] - b[j]))
    return score / (n * (n - 1) / 2)
