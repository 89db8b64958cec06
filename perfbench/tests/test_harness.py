"""The benchmark's own tests, at tiny sizes.

Run from the repository root::

    PYTHONPATH=src:. python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import harness, smartpaf_fit
from perfbench.run import main

SPEC = harness.declared()


# ----------------------------------------------------------------------
# tail percentile
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [22, 25, 100, 1000])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n):
    samples = list(np.random.default_rng(n).permutation(n).astype(float))
    pct, value, beyond = harness.tail_percentile(samples)
    xs = sorted(samples)
    assert beyond == 10
    assert sum(1 for x in xs if x > value) == 10
    assert value == xs[n - 11]
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_percentiles_match_the_usual_names():
    assert harness.tail_percentile(range(100))[0] == 90.0
    assert harness.tail_percentile(range(1000))[0] == 99.0


@pytest.mark.parametrize("n", [1, 2, 5, 12, 20])
def test_thin_tail_never_drops_below_the_median(n):
    samples = list(range(n))
    _, value, beyond = harness.tail_percentile(samples)
    assert value >= harness.median(samples)
    assert beyond < 10


# ----------------------------------------------------------------------
# correctness accounting
# ----------------------------------------------------------------------
def test_corrupted_logits_count_as_failed():
    ref = np.array([0.2, -0.5, 1.3])
    tally = harness.Tally(limit_s=1.0)
    assert tally.answer(ref + 1e-6, ref, 0.1, rtol=1e-3, atol=1e-4)
    corrupted = ref.copy()
    corrupted[1] += 0.3
    assert not tally.answer(corrupted, ref, 0.1, rtol=1e-3, atol=1e-4)
    assert (tally.attempted, tally.failed, tally.good) == (2, 1, 1)
    assert tally.wrong


def test_argmax_flip_fails_only_when_the_class_is_decidable():
    ref = np.array([1.0, 0.0, 0.99995])
    swapped = np.array([0.99995, 0.0, 1.0])  # within atol, margin below it
    assert harness.check_logits(swapped, ref, rtol=0.0, atol=1e-4) is None
    ref = np.array([1.0, 0.0, 0.5])  # margin 0.5 > atol: the class is decidable
    flipped = np.array([0.75, 0.0, 0.8])  # every logit within atol, argmax moved
    assert harness.check_logits(flipped, ref, rtol=0.0, atol=0.3) is not None


def test_slow_and_shed_requests_fail_without_marking_outputs_wrong():
    tally = harness.Tally(limit_s=1.0)
    ref = np.ones(3)
    tally.answer(ref, ref, latency=2.0, rtol=1e-3, atol=1e-4)  # late but right
    tally.error("shed: queue full", wrong=False)
    assert (tally.attempted, tally.failed, tally.good, tally.wrong) == (2, 1, 0, False)
    tally.error("RuntimeError: boom")
    assert tally.wrong


def test_precision_bits():
    assert harness.precision_bits([1.0, 2.0], [1.0, 2.0]) == harness.MAX_PRECISION_BITS
    assert harness.precision_bits([1.0, 2.0 + 2.0**-9], [1.0, 2.0]) == pytest.approx(10.0)


# ----------------------------------------------------------------------
# every declared metric is printed with its unit
# ----------------------------------------------------------------------
def _last_json(out: str) -> dict:
    return json.loads(out.strip().splitlines()[-1])


def _check_printed(line: dict, group: str) -> None:
    declared = {m["name"]: m["unit"] for m in SPEC[group]}
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
    assert all(isinstance(v["value"], float) for v in line["metrics"].values())


@pytest.fixture
def tiny_fit(monkeypatch):
    """smartpaf_fit shrunk to a couple of seconds (8x8 images, width 2)."""
    monkeypatch.setattr(smartpaf_fit, "N_TRAIN", 40)
    monkeypatch.setattr(smartpaf_fit, "N_VAL", 20)
    monkeypatch.setattr(smartpaf_fit, "IMAGE", 8)
    monkeypatch.setattr(smartpaf_fit, "WIDTH", 2)
    monkeypatch.setattr(smartpaf_fit, "PRETRAIN_EPOCHS", 1)
    monkeypatch.setattr(smartpaf_fit, "SETUP_REPS", 1)


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(tiny_fit, capsys, trace, group):
    args = ["--workload", "smartpaf_fit", "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    assert main(args) == 0
    out = capsys.readouterr().out
    line = _last_json(out)
    _check_printed(line, group)
    assert line["attempted"] >= 1
    for name, m in line["metrics"].items():
        assert f"{name}" in out and m["unit"] in out


def test_end_to_end_metrics_are_all_required():
    outcome = harness.Outcome(1, 0, True, {"setup_s": 1.0}, {})
    with pytest.raises(KeyError, match="was not measured"):
        harness.result_metrics(outcome, 0, SPEC)
    outcome.metrics["not_declared"] = 1.0
    with pytest.raises(KeyError, match="not declared"):
        harness.result_metrics(outcome, 1, SPEC)


def test_fails_without_the_program(tmp_path):
    """In a checkout holding only the benchmark there is nothing to build."""
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "resnet_infer", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ----------------------------------------------------------------------
# calibrated PAF domain
# ----------------------------------------------------------------------
def test_domain_ratio_flags_inputs_beyond_the_static_scales():
    from repro.core import calibrate_static_scales, convert_to_static, replace_all, replaced_layers
    from repro.nn.models import mlp
    from repro.nn.tensor import Tensor, no_grad
    from repro.paf import get_paf

    model = mlp(8, hidden=(6,), num_classes=3, seed=0)
    replace_all(model, get_paf("f1g2"), np.zeros((1, 8)))
    calib = np.random.default_rng(0).normal(size=(64, 8))
    calibrate_static_scales(model, [calib])
    convert_to_static(model)
    model.eval()
    ratios = [harness.plaintext_in_domain(model, x[None])[1] for x in calib]
    assert 0.0 < max(ratios) <= 1.0
    assert max(ratios) == pytest.approx(1.0)  # the calibration maximum sits on the edge
    logits, ratio = harness.plaintext_in_domain(model, 10.0 * calib[:1])
    assert ratio > 1.0
    with no_grad():
        np.testing.assert_array_equal(logits, model(Tensor(10.0 * calib[:1])).data)
    assert all("_scale_of" not in vars(layer) for _, layer in replaced_layers(model))
