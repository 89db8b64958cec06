"""``smartpaf_fit``: the model owner's SmartPAF job, no CKKS at all.

Set-up pretrains ``small_cnn`` (3 ReLU + 1 MaxPool) on a fixed
CIFAR-10 stand-in (``cifar10_like``, 16x16, 10 classes).  Each fit then
starts from that checkpoint and runs ``SmartPAF`` with the f1∘f1∘g1∘g1
PAF: coefficient tuning, progressive replacement, alternate training
armed, dynamic scaling during training, static scaling at the end.  The
seed drives each fit's data order and calibration draws.

Budgets are ``SmartPAFConfig.quick`` with one training group per step:
a second group runs only when the seeded data happens to improve
validation accuracy, which made the amount of work, and so ``fit_s``,
differ by up to 2x between seeds.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench import harness, probes

PAF = "f1f1g1g1"
N_TRAIN, N_VAL, IMAGE, WIDTH = 400, 400, 16, 6
PRETRAIN_EPOCHS = 4
NUM_CLASSES = 10
#: a fit slower than this misses the goodput limit
LATENCY_LIMIT_S = 60.0
#: a static-scale model at or below this accuracy has collapsed
MIN_ACCURACY = 1.5 / NUM_CLASSES
#: sign-approximation domain for precision_bits: [-1, -EPS] U [EPS, 1]
EPS = 0.25
SETUP_REPS = 3


def setup(log: probes.SpanLog | None = None) -> dict:
    """Pretrain the checkpoint every fit starts from."""
    from repro.core.pipeline import pretrain
    from repro.data.synthetic import cifar10_like
    from repro.nn.models import small_cnn

    log = log or probes.SpanLog()
    t0 = time.perf_counter()
    with log.span("setup.train"):
        data = cifar10_like(n_train=N_TRAIN, n_val=N_VAL, image_size=IMAGE, seed=0)
        model = small_cnn(num_classes=NUM_CLASSES, base_width=WIDTH, input_size=IMAGE, seed=1)
        accuracy = pretrain(model, data, epochs=PRETRAIN_EPOCHS, lr=2e-3, seed=0)
    t1 = time.perf_counter()
    return {"data": data, "state": model.state_dict(), "pretrained_accuracy": accuracy, "train_s": t1 - t0, "setup_s": t1 - t0}


def fresh_model(state):
    from repro.nn.models import small_cnn

    model = small_cnn(num_classes=NUM_CLASSES, base_width=WIDTH, input_size=IMAGE, seed=1)
    model.load_state_dict(state)
    return model


def fit(state, data, seed: int):
    from repro.core import SmartPAF, SmartPAFConfig
    from repro.paf import get_paf

    config = SmartPAFConfig.quick(seed=seed, max_groups_per_step=1)
    return SmartPAF(lambda: get_paf(PAF), config).fit(fresh_model(state), data)


def sign_precision_bits(result) -> float:
    """Median over sites of -log2 max |PAF sign - sign| on the SS domain."""
    from repro.core.surgery import replaced_layers

    x = np.concatenate([np.linspace(-1.0, -EPS, 1001), np.linspace(EPS, 1.0, 1001)])
    bits = []
    for _, layer in replaced_layers(result.model):
        err = float(np.max(np.abs(layer.sign.to_composite()(x) - np.sign(x))))
        bits.append(harness.MAX_PRECISION_BITS if err == 0 else -np.log2(err))
    return harness.median(bits)


def check_fit(result, data, sites: int) -> str | None:
    """Why a fit's output is unusable, or ``None``."""
    from repro.core.surgery import find_nonpoly_sites, replaced_layers
    from repro.core.trainer import evaluate_accuracy

    layers = replaced_layers(result.model)
    if len(layers) != sites:
        return f"{len(layers)} PAF layers for {sites} ReLU/MaxPool sites"
    left = find_nonpoly_sites(result.model, data.x_train[:2])
    if left:
        return f"sites left unreplaced: {[s.name for s in left]}"
    dynamic = [name for name, layer in layers if layer.scale_mode != "static"]
    if dynamic:
        return f"not in static-scale mode: {dynamic}"
    if evaluate_accuracy(result.model, data.x_val, data.y_val) != result.ss_accuracy:
        return "reported SS accuracy does not reproduce"
    if not result.ss_accuracy > MIN_ACCURACY:
        return f"static-scale model collapsed (accuracy {result.ss_accuracy:.3f})"
    return None


def count_sites(state, data) -> int:
    from repro.core.surgery import find_nonpoly_sites

    return len(find_nonpoly_sites(fresh_model(state), data.x_train[:2]))


def fits(s: dict, seed: int, seconds: int, log: probes.SpanLog | None = None) -> dict:
    """Fit repeatedly until the next fit would overrun ``seconds``."""
    data, state = s["data"], s["state"]
    sites = count_sites(state, data)
    out = {"times": [], "accuracy": [], "precision": [], "good": 0, "failed": 0, "wrong": False, "notes": []}
    log = log or probes.SpanLog()
    t_start = time.perf_counter()
    k = 0
    while True:
        k += 1
        t0 = time.perf_counter()
        try:
            with log.span("fit", request=k):
                result = fit(state, data, seed=int(seed) * 1000 + k)
        except Exception as exc:
            out["failed"] += 1
            out["wrong"] = True
            out["notes"].append(f"fit {k}: {type(exc).__name__}: {exc}")
            break
        elapsed = time.perf_counter() - t0
        out["times"].append(elapsed)
        out["accuracy"].append(result.ss_accuracy)
        out["precision"].append(sign_precision_bits(result))
        why = check_fit(result, data, sites)
        if why is not None:
            out["failed"] += 1
            out["wrong"] = True
            out["notes"].append(f"fit {k}: {why}")
        elif elapsed <= LATENCY_LIMIT_S:
            out["good"] += 1
        if not harness.room_for_another(t_start, seconds, elapsed):
            break
    out["attempted"] = k
    out["elapsed"] = time.perf_counter() - t_start
    return out


def run(seed: int, seconds: int, trace: int) -> harness.Outcome:
    return run_traced(seed, seconds) if trace else run_timed(seed, seconds)


def _protocol(seed, seconds, trace):
    proto = harness.protocol("smartpaf_fit", seed, seconds, trace, threads=1)
    proto["config"] = {"paf": PAF, "n_train": N_TRAIN, "n_val": N_VAL, "image": IMAGE, "width": WIDTH}
    return proto


def run_timed(seed: int, seconds: int) -> harness.Outcome:
    s, setup_s = harness.repeat_setup(SETUP_REPS, setup)
    r = fits(s, seed, seconds)
    times = r["times"] or [r["elapsed"]]
    pct, tail, beyond = harness.tail_percentile(times)
    notes = r["notes"] + [
        f"fit-time tail = p{pct:.1f} over {len(times)} fits ({beyond} beyond it)",
        f"pretrained (exact ReLU/MaxPool) accuracy {s['pretrained_accuracy']:.3f}",
    ]
    metrics = {
        "setup_s": setup_s,
        "latency_p50_s": harness.median(times),
        "latency_tail_s": tail,
        "throughput_rps": len(r["times"]) / r["elapsed"],
        "goodput_rps": r["good"] / r["elapsed"],
        "fit_s": harness.median(times),
        "ss_accuracy": harness.median(r["accuracy"] or [0.0]),
        "precision_bits": harness.median(r["precision"] or [0.0]),
        "peak_rss_mb": harness.peak_rss_mb(),
    }
    return harness.Outcome(r["attempted"], r["failed"], not r["wrong"], metrics, _protocol(seed, seconds, 0), notes)


def run_traced(seed: int, seconds: int) -> harness.Outcome:
    import repro.core.pipeline as pipeline
    import repro.core.scheduler as scheduler
    from repro.nn.tensor import Tensor

    s, setup_log = probes.traced_setup(setup)
    log = probes.SpanLog()
    wraps = [
        (Tensor, "backward", "nn.backward"),
        (scheduler, "coefficient_tune_site", "core.ct"),
        (scheduler, "run_training_group", "core.group"),
        (scheduler, "train_one_epoch", "core.epoch"),
        (scheduler, "evaluate_accuracy", "core.eval"),
        (pipeline, "evaluate_accuracy", "core.eval"),
        (pipeline, "calibrate_static_scales", "core.ss"),
    ]
    with probes.spans_around(log, wraps):
        r = fits(s, seed, seconds, log=log)
    per = max(len(r["times"]), 1)
    metrics = {"setup.train_s": s["train_s"]}
    metrics.update(probes.core_metrics(log, per=per))
    notes = r["notes"] + probes.format_self_times(setup_log, 1, "set-up")
    notes.extend(probes.format_self_times(log, per, "fit"))
    proto = _protocol(seed, seconds, 1)
    path = harness.ROOT / "perfbench" / "out" / f"trace-smartpaf_fit-seed{seed}.json"
    probes.write_spans(path, setup_log, log, {"protocol": proto})
    notes.append(f"spans written to {path.relative_to(harness.ROOT)}")
    return harness.Outcome(r["attempted"], r["failed"], not r["wrong"], metrics, proto, notes)
