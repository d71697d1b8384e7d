"""The library reproduces the benchmark's stored reference outputs.

``perfbench/reference.npz`` holds the frames of short fixed-seed stream runs
and the loss rows of fixed-seed training calls. This test rebuilds them with
the benchmark's own workloads, seed and sizes and compares them with the
benchmark's own tolerance, so output drift shows in the unit tests and not
only in a benchmark run. Over the same runs it also counts the tape nodes
each operation records and the finite checks it makes, against fixed upper
bounds, so work that creeps back into the per-unit or per-step path fails
here. It imports from
``perfbench/`` and writes nothing there.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from facestream import tensor

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_benchmark():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True   # no __pycache__ inside perfbench/
    sys.path.insert(0, str(PERFBENCH))
    try:
        import run
        import workloads
    finally:
        sys.dont_write_bytecode = saved
    return run, workloads


run, workloads = _load_benchmark()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_reproduces_reference(name):
    work = workloads.make_work(name, run.REF_SEED)
    work.setup()
    with np.load(run.REFERENCE) as stored:
        expected = stored[name]
    got = work.reference(run.REF_SEED, run.REF_SIZE[name])
    assert workloads.close(got, expected), (
        f"{name}: max relative deviation "
        f"{np.max(np.abs(got - expected)) / np.max(np.abs(expected)):.3g}")


# Tape nodes per emitted unit (streams) or optimizer step (training), counted
# over the reference runs: a planned DDIM step records 2 nodes.
NODE_BUDGET = {"solo_d10": 89, "multi_d50": 169, "train_s1": 58, "train_s2": 106}

# Finite checks per operation over the same runs. Off the tape only the
# leaves, the attention scores, the layer-norm variances and each model
# call's result are checked, so a planned DDIM step makes none: the sampled
# unit is the model call, checked once. Training checks every taped node.
CHECK_BUDGET = {"solo_d10": 26, "multi_d50": 26, "train_s1": 99.625,
                "train_s2": 142.625}


def _calls_per_operation(name, function, monkeypatch):
    """Calls of ``tensor.<function>`` per operation over ``name``'s
    reference run."""
    work = workloads.make_work(name, run.REF_SEED)
    work.setup()
    size = run.REF_SIZE[name]
    ops = size * (len(work.dataset) if name.startswith("train") else work.n_sessions)
    calls = [0]
    original = getattr(tensor, function)

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(tensor, function, counting)
    work.reference(run.REF_SEED, size)
    return calls[0] / ops


@pytest.mark.parametrize("name", sorted(NODE_BUDGET))
def test_tape_nodes_per_operation(name, monkeypatch):
    assert _calls_per_operation(name, "_node", monkeypatch) <= NODE_BUDGET[name]


@pytest.mark.parametrize("name", sorted(CHECK_BUDGET))
def test_finite_checks_per_operation(name, monkeypatch):
    assert _calls_per_operation(name, "_check_finite", monkeypatch) <= CHECK_BUDGET[name]


def test_tracer_times_every_stage2_predictor_forward():
    """Stage 2 runs the predictor through the call the stream makes, so the
    benchmark's traced run counts its forward as predictor time, once per
    optimizer step, and not as driver time."""
    work = workloads.make_work("train_s2", run.REF_SEED)
    work.setup()
    dataset, epochs = work.dataset[:2], 2
    tracer = run.Tracer()
    tracer.install()
    try:
        work.call(work.models, dataset, epochs, run.REF_SEED)
    finally:
        tracer.uninstall()
    assert tracer.calls["predictor.forward"] == epochs * len(dataset)
