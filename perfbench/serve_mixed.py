"""``serve_mixed``: open-loop Poisson traffic into one ``InferenceServer``.

Set-up builds the shared toy MLP (``compiled_toy``: f1∘g2 PAF, n=512,
16 SIMD slots) and toy CNN (``compiled_toy_cnn``: trained, n=1024,
depth 10, 2 slots) on the vectorized kernels, starts a one-worker server hosting both with two tenants
registered under explicit seeds, and serves one warm-up request per
(model, tenant) so every key chain exists before timing starts.

Load: a generator thread submits ``RATE * seconds`` requests at seeded
arrival times (a Poisson process conditioned on its count: sorted
uniform due times over the run); a fixed share of them, at seeded
positions, go to the CNN and the rest to the MLP, each from a tenant
picked at random.  Latency runs from each request's due time to its
completion, so generator stalls count against the server.
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeout
from contextlib import ExitStack

import numpy as np

from perfbench import harness, probes

NUM_CLASSES = 3
#: offered load, requests per second of schedule; MLP requests queued
#: behind a CNN forward (~0.9 s) share one SIMD batch (~1.24 per batch)
RATE = 6.0
#: share of requests that go to the CNN (the rest to the MLP); the count
#: is fixed per run so the work the MLP traffic queues behind does not
#: vary with the seed, and small (~9 a run): a 25% share at 4 req/s put
#: latency on the queueing knee, with a run-to-run spread of 0.30
CNN_SHARE = 0.055
#: a request answered later than this after its due time misses goodput
LATENCY_LIMIT_S = 2.0
#: how long after the schedule ends unanswered requests count as timed out
DRAIN_S = 30.0
MAX_PENDING = 64
TENANTS = {"alice": 1101, "bob": 2202}
#: tolerances pinned by the differential tests (MLP under client keys; CNN)
TOLERANCE = {"mlp": (0.0, 1e-2), "cnn": (1e-3, 1e-4)}
INPUT_DIM = {"mlp": 8, "cnn": 64}
INPUT_SHAPE = {"mlp": (1, 8), "cnn": (1, 1, 8, 8)}
SETUP_REPS = 2
BACKEND = "vectorized"


def setup(log: probes.SpanLog | None = None, instrument: bool = False) -> dict:
    """Build both shared toys, start the server and warm every (model, tenant).

    ``compiled_toy`` and ``compiled_toy_cnn`` train, swap PAFs in,
    calibrate and compile; spans around the functions they call split
    their time into phases and hand over the CNN's dataset.  The toy MLP
    builder takes no parameters, so its context is switched to the
    vectorized kernels after compiling (backends are bit-identical).
    ``instrument`` makes the server count HE ops per batch.
    """
    import repro.core
    import repro.fhe.cnn
    import repro.fhe.toy as toy
    from repro.core.trainer import evaluate_accuracy
    from repro.serve import ClientKeyRegistry, InferenceServer, ModelArtifact

    log = log or probes.SpanLog()
    trained: list = []
    wraps = [
        (toy, "toy_cnn_model", "setup.train"),
        (repro.core, "calibrate_static_scales", "core.ss"),
        (toy, "compile_mlp", "setup.compile"),
        (repro.fhe.cnn, "compile_cnn", "setup.compile"),
    ]
    cnn_params = dataclasses.replace(toy.TOY_CNN_PARAMS, backend=BACKEND)
    t0 = time.perf_counter()
    with log.span("setup.build"), probes.spans_around(log, wraps, keep={"setup.train": trained}):
        mlp_model, mlp_net = toy.compiled_toy(with_model=True)
        mlp_net.ctx.set_backend(BACKEND)
        cnn_model, cnn_net = toy.compiled_toy_cnn(with_model=True, params=cnn_params)
    with log.span("setup.compile"):
        artifacts = {"mlp": ModelArtifact(mlp_net), "cnn": ModelArtifact(cnn_net)}
    t1 = time.perf_counter()
    with log.span("setup.warm"):
        server = InferenceServer(
            artifacts,
            num_classes={name: NUM_CLASSES for name in artifacts},
            num_workers=1,
            max_pending=MAX_PENDING,
            key_registry=ClientKeyRegistry(),
            instrument=instrument,
        )
        server.start()
        for client, seed in TENANTS.items():
            server.register_client(client, seed=seed)
            for name in artifacts:
                server.predict(np.zeros(INPUT_DIM[name]), client_id=client, model=name, timeout=120)
    t2 = time.perf_counter()
    data = trained[0][1]
    compile_s = sum(log.durations("setup.compile"))
    return {
        "server": server,
        "models": {"mlp": mlp_model, "cnn": cnn_model},
        "artifacts": artifacts,
        "cnn_accuracy": evaluate_accuracy(cnn_model, data.x_val, data.y_val),
        "train_s": t1 - t0 - compile_s,
        "compile_s": compile_s,
        "warm_s": t2 - t1,
        "setup_s": t2 - t0,
    }


def schedule(seed: int, seconds: int, models: dict) -> tuple:
    """Seeded arrivals: ``([(due_s, model, tenant, x, plaintext logits)], redrawn)``.

    Inputs outside the model's calibrated PAF domain (about one MLP draw
    in a thousand) are drawn again; ``redrawn`` counts them.
    """
    rng = np.random.default_rng([seed, 22])
    count = max(1, int(round(RATE * seconds)))
    due = np.sort(rng.uniform(0.0, seconds, size=count))
    kinds = np.full(count, "mlp")
    kinds[rng.choice(count, int(round(CNN_SHARE * count)), replace=False)] = "cnn"
    tenants = rng.choice(sorted(TENANTS), size=count)
    arrivals, redrawn = [], 0
    for i, kind in enumerate(kinds):
        while True:
            x = rng.normal(size=INPUT_DIM[kind])
            ref, ratio = harness.plaintext_in_domain(models[kind], x.reshape(INPUT_SHAPE[kind]))
            if ratio <= 1.0:
                break
            redrawn += 1
        arrivals.append((float(due[i]), str(kind), str(tenants[i]), x, ref[0]))
    return arrivals, redrawn


class Generator(threading.Thread):
    """Submits the schedule on time; the server worker is the other thread."""

    def __init__(self, server, arrivals: list):
        super().__init__(name="perfbench-generator", daemon=True)
        self.server = server
        self.arrivals = arrivals
        n = len(arrivals)
        self.futures = [None] * n
        self.done_at = [None] * n
        self.submitted_at = [None] * n
        self.errors = [None] * n
        self.shed = 0
        self.lag_max = 0.0
        self.t0 = None

    def _on_done(self, i):
        def record(_fut):
            self.done_at[i] = time.perf_counter()

        return record

    def run(self) -> None:
        from repro.serve import QueueOverflow

        self.t0 = time.perf_counter()
        for i, (due, kind, tenant, x, _) in enumerate(self.arrivals):
            wait = self.t0 + due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            now = time.perf_counter()
            self.lag_max = max(self.lag_max, now - (self.t0 + due))
            self.submitted_at[i] = now
            try:
                fut = self.server.submit(x, client_id=tenant, model=kind)
            except QueueOverflow as exc:
                self.shed += 1
                self.errors[i] = f"shed: {exc}"
                continue
            except Exception as exc:  # rejected at the door
                self.errors[i] = f"{type(exc).__name__}: {exc}"
                continue
            fut.add_done_callback(self._on_done(i))
            self.futures[i] = fut


def drive(server, arrivals: list, seconds: int) -> tuple:
    """Run the schedule; returns (generator, tally)."""
    gen = Generator(server, arrivals)
    gen.start()
    gen.join()
    drain_until = gen.t0 + seconds + DRAIN_S
    tally = harness.Tally(LATENCY_LIMIT_S)
    for i, (due, kind, _, _, ref) in enumerate(arrivals):
        fut = gen.futures[i]
        if fut is None:
            tally.error(gen.errors[i], wrong=not gen.errors[i].startswith("shed"))
            continue
        try:
            res = fut.result(timeout=max(0.0, drain_until - time.perf_counter()))
        except FutureTimeout:
            fut.cancel()
            tally.error(f"no answer within {DRAIN_S:.0f} s of the schedule's end", wrong=False)
            continue
        except Exception as exc:
            tally.error(f"{type(exc).__name__}: {exc}")
            continue
        done = gen.done_at[i] if gen.done_at[i] is not None else time.perf_counter()
        tally.answer(res.logits, ref, done - (gen.t0 + due), *TOLERANCE[kind])
    return gen, tally


def _stop(server) -> None:
    server.stop(timeout=DRAIN_S)


def _cache_counts(artifacts) -> tuple:
    stats = [art.stats() for art in artifacts.values()]
    return sum(s["hits"] for s in stats), sum(s["misses"] for s in stats)


def run(seed: int, seconds: int, trace: int) -> harness.Outcome:
    return run_traced(seed, seconds) if trace else run_timed(seed, seconds)


def run_timed(seed: int, seconds: int) -> harness.Outcome:
    s, setup_s = harness.repeat_setup(SETUP_REPS, setup, release=lambda b: _stop(b["server"]))
    server = s["server"]
    try:
        arrivals, redrawn = schedule(seed, seconds, s["models"])
        gen, tally = drive(server, arrivals, seconds)
    finally:
        _stop(server)
    # the run lasts from the first due time to the last answer
    done = [t for t in gen.done_at if t is not None]
    wall = (max(done) if done else time.perf_counter()) - gen.t0
    latencies = tally.latencies or [wall]
    pct, tail, beyond = harness.tail_percentile(latencies)
    notes = tally.notes + [
        f"latency tail = p{pct:.1f} over {len(latencies)} requests ({beyond} beyond it)",
        f"offered {RATE} req/s x {seconds} s, CNN share {CNN_SHARE}; generator lag max "
        f"{gen.lag_max * 1e3:.1f} ms; shed {gen.shed}",
        f"{redrawn} drawn inputs left the calibrated PAF domain and were drawn again",
    ]
    metrics = {
        "setup_s": setup_s,
        "latency_p50_s": harness.median(latencies),
        "latency_tail_s": tail,
        "throughput_rps": len(tally.latencies) / wall,
        "goodput_rps": tally.good / wall,
        # the toy models are fitted inside set-up (see README: fit_s)
        "fit_s": setup_s,
        "ss_accuracy": s["cnn_accuracy"],
        "precision_bits": harness.median(tally.precisions or [0.0]),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    proto = harness.protocol(
        "serve_mixed",
        seed,
        seconds,
        0,
        threads=2,
        contexts=[(name, art.model.ctx) for name, art in s["artifacts"].items()],
    )
    return harness.Outcome(tally.attempted, tally.failed, not tally.wrong, metrics, proto, notes)


def run_traced(seed: int, seconds: int) -> harness.Outcome:
    from repro.ckks.instrumentation import CountingEvaluator

    s, setup_log = probes.traced_setup(functools.partial(setup, instrument=True))
    log = probes.SpanLog()
    server = s["server"]
    ev_meter = probes.EvaluatorMeter()
    # batch start and members, for the queue wait the server does not record
    batches: list = []
    index: dict = {}

    def wrap_net(net):
        """Time the served net's encrypt/forward/decrypt and its evaluator ops."""

        def encrypt_batch(orig):
            def wrapper(xs, ev=None):
                start = time.perf_counter()
                batches.append(([index.get(np.asarray(x).tobytes()) for x in xs], start))
                with log.span("serve.encrypt", request=len(batches)):
                    return orig(xs, ev=probes.TimingEvaluator(ev or net.ev, ev_meter))

            return wrapper

        def forward(orig):
            def wrapper(ct, *, ev=None, **kwargs):
                with log.span("serve.forward", request=len(batches)):
                    return orig(ct, ev=probes.TimingEvaluator(ev or net.ev, ev_meter), **kwargs)

            return wrapper

        def decrypt_logits(orig):
            def wrapper(ct, num_classes, batch=None, ev=None):
                with log.span("serve.decrypt", request=len(batches)):
                    return orig(ct, num_classes, batch=batch, ev=probes.TimingEvaluator(ev or net.ev, ev_meter))

            return wrapper

        return [
            probes.patched(net, "encrypt_batch", encrypt_batch),
            probes.patched(net, "forward", forward),
            probes.patched(net, "decrypt_logits", decrypt_logits),
        ]

    try:
        arrivals, redrawn = schedule(seed, seconds, s["models"])
        for i, arrival in enumerate(arrivals):
            index[np.asarray(arrival[3], dtype=np.float64).ravel().tobytes()] = i
        timed = [probes.install_timed_backend(art.model.ctx) for art in s["artifacts"].values()]
        proto = harness.protocol(
            "serve_mixed",
            seed,
            seconds,
            1,
            threads=2,
            contexts=[(name, art.model.ctx) for name, art in s["artifacts"].items()],
        )
        hits0, misses0 = _cache_counts(s["artifacts"])
        server.metrics.reset()  # drop the warm-up requests
        with ExitStack() as stack:
            for art in s["artifacts"].values():
                for patch in wrap_net(art.model):
                    stack.enter_context(patch)
            gen, tally = drive(server, arrivals, seconds)
        hits1, misses1 = _cache_counts(s["artifacts"])
        served = server.metrics.snapshot()
    finally:
        _stop(server)
    answered = len(tally.latencies)
    waits = [
        start - gen.submitted_at[i]
        for members, start in batches
        for i in members
        if i is not None and gen.submitted_at[i] is not None
    ]
    # the server's op totals, read through the counting evaluator's tallies
    ops = CountingEvaluator(None)
    ops.counts.update(served["he_ops"])
    lookups = (hits1 - hits0) + (misses1 - misses0)
    per = max(answered, 1)
    metrics = {
        "setup.train_s": s["train_s"],
        "setup.compile_s": s["compile_s"],
        "setup.warm_s": s["warm_s"],
        "serve.queue_wait_p50_s": harness.median(waits) if waits else 0.0,
        "serve.batch_size_mean": served["mean_batch_size"],
        "serve.encrypt.busy_s": sum(log.durations("serve.encrypt")) / per,
        "serve.forward.busy_s": sum(log.durations("serve.forward")) / per,
        "serve.decrypt.busy_s": sum(log.durations("serve.decrypt")) / per,
        "serve.cache_hit_rate": (hits1 - hits0) / lookups if lookups else 0.0,
        "serve.generator_lag_max_s": gen.lag_max,
        "serve.shed": served["shed_total"],
        "ckks.evaluator.keyswitches": ops.keyswitch_count / per,
        "ckks.evaluator.nonscalar_mults": ops.nonscalar_mult_count / per,
    }
    metrics.update(probes.kernel_metrics(timed, per))
    metrics.update(probes.evaluator_metrics(ev_meter, per))
    metrics.update(probes.core_metrics(setup_log, per=1))
    notes = tally.notes + [
        f"{served['batches_total']} batches for {served['requests_total']} served requests "
        f"(mean batch size {served['mean_batch_size']:.3f}); queue wait p50 "
        f"{metrics['serve.queue_wait_p50_s'] * 1e3:.1f} ms",
        f"{redrawn} drawn inputs left the calibrated PAF domain and were drawn again",
    ]
    notes.extend(probes.format_self_times(setup_log, 1, "set-up"))
    notes.extend(probes.format_self_times(log, per, "answered request"))
    path = harness.ROOT / "perfbench" / "out" / f"trace-serve_mixed-seed{seed}.json"
    probes.write_spans(path, setup_log, log, {"protocol": proto})
    notes.append(f"spans written to {path.relative_to(harness.ROOT)}")
    return harness.Outcome(tally.attempted, tally.failed, not tally.wrong, metrics, proto, notes)
