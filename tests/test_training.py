"""Training-loop contract: loss rows, determinism, one fetch per step, the
stage-2 freeze, each step's graph freed before the next, a gradient for
every stepped parameter, divergence reporting and config validation."""

import weakref

import numpy as np
import pytest

from facestream import training
from facestream.codec import CodecConfig, MotionCodec
from facestream.diffusion import DiffusionHead, build_schedule
from facestream.fileio import DataError
from facestream.predictor import ConditionPredictor, PredictorConfig
from facestream.tensor import Tensor
from facestream.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    STAGE1_FIELDS,
    STAGE2_FIELDS,
    AdamW,
    DivergenceError,
    SequenceExample,
    TrainConfig,
    train_stage1,
    train_stage2,
)

H, WIDTH, VERTICES, AUDIO, HIDDEN, STEPS = 2, 8, 5, 4, 16, 50


def tiny_models(seed=0):
    codec = MotionCodec(CodecConfig(vertices=VERTICES, width=WIDTH, codebook_size=6,
                                    components=H, layers=1, heads=2, ff=16),
                        seed=seed)
    predictor = ConditionPredictor(
        PredictorConfig(hidden=HIDDEN, heads=2, layers=1, ff=32, audio_width=AUDIO,
                        components=H, latent_width=WIDTH, num_speakers=2,
                        history_frames=6),
        seed=seed + 1)
    head = DiffusionHead((H, WIDTH), HIDDEN, 32, STEPS, seed=seed + 2)
    return codec, predictor, head, build_schedule(STEPS)


def tiny_dataset(n=3, frames=10, seed=0):
    r = np.random.default_rng(seed)
    return [SequenceExample(r.normal(size=(frames, AUDIO)),
                            0.3 * r.normal(size=(frames, VERTICES, 3)), i % 2)
            for i in range(n)]


def config(epochs=2, **overrides):
    return TrainConfig(stage1_epochs=epochs, stage2_epochs=epochs,
                       learning_rate=1e-3, seed=5, **overrides)


def run_stage(stage, dataset, models, cfg):
    codec, predictor, head, schedule = models
    if stage == 1:
        return train_stage1(dataset, codec, cfg)
    return train_stage2(dataset, codec, predictor, head, schedule, cfg)


def param_bytes(store, names=None):
    names = store.names() if names is None else names
    return {n: store[n].data.tobytes() for n in names}


class CountingList(list):
    """A dataset that counts how often the loop fetches an example."""

    def __init__(self, items):
        super().__init__(items)
        self.fetches = 0

    def __getitem__(self, index):
        self.fetches += 1
        return super().__getitem__(index)


@pytest.mark.parametrize("stage, fields", [(1, STAGE1_FIELDS), (2, STAGE2_FIELDS)])
class TestLoop:
    def test_one_finite_row_per_epoch(self, stage, fields):
        rows = run_stage(stage, tiny_dataset(), tiny_models(), config(epochs=3))
        assert [row["epoch"] for row in rows] == [0, 1, 2]
        for row in rows:
            assert list(row) == fields
            assert np.isfinite(list(row.values())).all()

    def test_same_seed_same_rows(self, stage, fields):
        a = run_stage(stage, tiny_dataset(), tiny_models(), config())
        b = run_stage(stage, tiny_dataset(), tiny_models(), config())
        assert a == b

    def test_one_fetch_per_step(self, stage, fields):
        dataset = CountingList(tiny_dataset(n=4))
        run_stage(stage, dataset, tiny_models(), config(epochs=3))
        assert dataset.fetches == 3 * 4

    def test_huge_parameter_diverges_in_epoch_zero(self, stage, fields):
        models = tiny_models()
        codec, _, head, _ = models
        param = codec.store["enc.embed.w"] if stage == 1 else head.store["lin2.b"]
        param.data[...] = 1e308
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match=f"stage {stage} diverged at epoch 0"):
            run_stage(stage, tiny_dataset(), models, config())

    def test_empty_dataset_rejected(self, stage, fields):
        with pytest.raises(ValueError, match="empty"):
            run_stage(stage, [], tiny_models(), config())

    def test_example_without_frames_rejected(self, stage, fields):
        dataset = tiny_dataset() + tiny_dataset(n=1, frames=0)
        error = (DataError, "no frames") if stage == 1 else (ValueError, "shorter")
        with pytest.raises(error[0], match=error[1]):
            run_stage(stage, dataset, tiny_models(), config())


def test_stage2_trains_only_predictor_and_head():
    codec, predictor, head, schedule = models = tiny_models()
    decoder = codec.decoder_param_names()
    frozen = [n for n in codec.store.names() if n not in decoder]
    assert "codebook" in frozen and "enc.embed.w" in frozen
    before = (param_bytes(codec.store, frozen), param_bytes(codec.store, decoder),
              param_bytes(predictor.store), param_bytes(head.store))
    run_stage(2, tiny_dataset(), models, config())
    assert param_bytes(codec.store, frozen) == before[0]
    assert param_bytes(codec.store, decoder) == before[1]
    for store, old in ((predictor.store, before[2]), (head.store, before[3])):
        new = param_bytes(store)
        assert all(new[n] != old[n] for n in old), \
            [n for n in old if new[n] == old[n]]


def record_last_step_grads(monkeypatch, store):
    """Names of ``store``'s parameters that hold a gradient at the last
    ``AdamW.step``, filled in as the run steps."""
    names = []
    step = AdamW.step

    def recording_step(self, lr):
        names[:] = [n for n in store.names() if store[n].grad is not None]
        step(self, lr)

    monkeypatch.setattr(AdamW, "step", recording_step)
    return names


def test_stage2_computes_only_the_gradients_it_steps(monkeypatch):
    """No codec parameter gets a gradient, and the decoder requires
    gradients again afterwards."""
    codec, _, _, _ = models = tiny_models()
    with_grad = record_last_step_grads(monkeypatch, codec.store)
    run_stage(2, tiny_dataset(), models, config())
    assert with_grad == []
    assert all(codec.store[n].requires_grad for n in codec.store.names())


def test_stage2_decoder_freeze_changes_no_update(monkeypatch):
    """Loss rows and every stepped parameter match, byte for byte, a run in
    which the untrained decoder still computes its gradients."""
    runs = []
    for freeze in (True, False):
        codec, predictor, head, _ = models = tiny_models()
        if not freeze:
            monkeypatch.setattr(codec, "decoder_param_names", lambda: [])
        with_grad = record_last_step_grads(monkeypatch, codec.store)
        rows = run_stage(2, tiny_dataset(), models, config(epochs=3))
        rows = np.array([list(row.values()) for row in rows]).tobytes()
        runs.append((rows, param_bytes(predictor.store), param_bytes(head.store),
                     param_bytes(codec.store)))
        if not freeze:
            assert "dec.out.w" in with_grad
        monkeypatch.undo()
    assert runs[0] == runs[1]


class PoisonedList(CountingList):
    """A counting dataset whose ``at``-th fetch returns an example of huge
    values, which makes that step's forward overflow."""

    def __init__(self, items, at):
        super().__init__(items)
        self.at = at

    def __getitem__(self, index):
        example = super().__getitem__(index)
        if self.fetches == self.at:
            return SequenceExample(np.full_like(example.features, 1e308),
                                   np.full_like(example.motion, 1e308),
                                   example.speaker)
        return example


@pytest.mark.parametrize("diverge", [False, True])
@pytest.mark.parametrize("stage", [1, 2])
def test_no_parameter_keeps_a_gradient_after_training(stage, diverge):
    """The loop frees every gradient it made, whether it returns or raises;
    the divergence comes at the first step of the second epoch, after three
    backward passes."""
    codec, predictor, head, _ = models = tiny_models()
    dataset = PoisonedList(tiny_dataset(), at=4 if diverge else 0)
    if diverge:
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError, match=f"stage {stage} diverged at epoch 1"):
            run_stage(stage, dataset, models, config())
    else:
        run_stage(stage, dataset, models, config())
    assert dataset.fetches == (4 if diverge else 6)
    stores = (codec.store, predictor.store, head.store)
    assert [n for store in stores for n, t in store.items() if t.grad is not None] == []


@pytest.mark.parametrize("stage", [1, 2])
def test_a_step_graph_dies_before_the_next_forward(stage, monkeypatch):
    """Step k's total loss, and so its graph, is freed before step k+1's
    ``example_loss`` starts. ``Tensor`` has slots and no weak references,
    so the test watches the total's array, which only the tensor holds."""
    totals = []
    train = training._train

    def watching(stage, dataset, params, example_loss, *rest):
        def watched(i, example, rng):
            assert [ref() for ref in totals] == [None] * len(totals)
            losses = example_loss(i, example, rng)
            totals.append(weakref.ref(losses[0].data))
            return losses

        return train(stage, dataset, params, watched, *rest)

    monkeypatch.setattr(training, "_train", watching)
    run_stage(stage, tiny_dataset(), tiny_models(), config())
    assert len(totals) == 6


@pytest.mark.parametrize("stage", [1, 2])
def test_every_stepped_parameter_gets_a_gradient(stage, monkeypatch):
    """One step of each stage: every parameter the optimizer steps gets a
    gradient above 1e-10 of the step's largest. A parameter below that is
    one that no loss reads, such as a key bias, which softmax cancels. The
    stage-2 example has a non-empty history window, so the predictor's unit
    embedding and self-attention are read."""
    codec, predictor, head, _ = models = tiny_models()
    stores = {"codec": codec.store, "predictor": predictor.store, "head": head.store}
    names = {id(t): f"{label}:{n}" for label, store in stores.items()
             for n, t in store.items()}
    maxima, windows = [], []
    step, predict = AdamW.step, ConditionPredictor.__call__

    def recording_step(self, lr):
        maxima.append({names[id(p)]: 0.0 if p.grad is None else np.abs(p.grad).max()
                       for p in self.params})
        step(self, lr)

    def recording_predict(self, window, *args, **kwargs):
        windows.append(len(window))
        return predict(self, window, *args, **kwargs)

    monkeypatch.setattr(AdamW, "step", recording_step)
    monkeypatch.setattr(ConditionPredictor, "__call__", recording_predict)
    run_stage(stage, tiny_dataset(n=1), models, config(epochs=1))
    [grads] = maxima
    if stage == 2:
        assert len(windows) == 1 and windows[0] > 0
    largest = max(grads.values())
    assert [n for n, g in grads.items() if not g > 1e-10 * largest] == []


@pytest.mark.parametrize("stage", [1, 2])
def test_stepped_gradients_share_no_memory(stage, monkeypatch):
    """Ops hand the gradient arrays they build over to the parameters. At
    the first step of each stage on the benchmark's configs and a 240-frame
    sequence, where the codec attention's backward spans several head
    groups, no two parameters' gradients share memory, and no gradient
    shares memory with any parameter's values."""
    ccfg, pcfg = CodecConfig(), PredictorConfig(num_speakers=8)
    codec = MotionCodec(ccfg, seed=14)
    predictor = ConditionPredictor(pcfg, seed=12)
    head = DiffusionHead((ccfg.components, ccfg.width), pcfg.hidden, 256, 1000, seed=13)
    r = np.random.default_rng(7)
    example = SequenceExample(r.normal(size=(240, pcfg.audio_width)),
                              0.3 * r.normal(size=(240, ccfg.vertices, 3)), 1)
    values = [t.data for m in (codec, predictor, head) for _, t in m.store.items()]
    seen = []
    step = AdamW.step

    def recording_step(self, lr):
        seen.append([p.grad for p in self.params if p.grad is not None])
        step(self, lr)

    monkeypatch.setattr(AdamW, "step", recording_step)
    run_stage(stage, [example], (codec, predictor, head, build_schedule(1000)),
              config(epochs=1))
    [grads] = seen
    assert len(grads) > 10
    for i, g in enumerate(grads):
        assert not any(np.shares_memory(g, other) for other in grads[i + 1:])
        assert not any(np.shares_memory(g, v) for v in values)


def test_stage2_restores_the_decoder_after_divergence():
    codec, _, head, _ = models = tiny_models()
    head.store["lin2.b"].data[...] = 1e308
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError):
        run_stage(2, tiny_dataset(), models, config())
    assert all(codec.store[n].requires_grad for n in codec.store.names())


@pytest.mark.parametrize("field, value", [
    ("learning_rate", 0.0), ("learning_rate", -1e-4), ("learning_rate", float("nan")),
    ("learning_rate", float("inf")), ("learning_rate", True), ("learning_rate", "1e-3"),
    pytest.param("learning_rate", 10**400, id="learning_rate-10**400"),
    ("weight_decay", -1.0), ("weight_decay", float("nan")),
    ("weight_decay", float("inf")), ("weight_decay", True), ("weight_decay", "0.01"),
])
def test_bad_optimizer_settings_rejected(field, value):
    with pytest.raises(ValueError, match=field.replace("_", " ")):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field", ["stage1_epochs", "stage2_epochs",
                                   "lr_halving_interval"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, np.float64(3.0)])
def test_non_integer_counts_rejected(field, value):
    """A fractional count would reach ``range`` as a ``TypeError``, and
    ``True`` would pass for one epoch."""
    with pytest.raises(ValueError, match=f"{field.replace('_', ' ')} must be an integer"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field", ["stage1_epochs", "stage2_epochs",
                                   "lr_halving_interval"])
@pytest.mark.parametrize("value", [0, -1])
def test_counts_below_one_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field.replace('_', ' ')} must be >= 1"):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("value", [1.5, 2.0, True, "3"])
def test_non_integer_seed_rejected(value):
    """A fractional seed would construct and then fail in numpy's
    ``SeedSequence`` with a ``TypeError`` at the first step."""
    with pytest.raises(ValueError, match="seed must be an integer"):
        TrainConfig(seed=value)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        TrainConfig(seed=-1)


def test_numpy_integer_counts_accepted():
    assert TrainConfig(stage1_epochs=np.int64(3)).stage1_epochs == 3


def test_zero_weight_decay_accepted():
    assert TrainConfig(weight_decay=0.0).weight_decay == 0.0


@pytest.mark.parametrize("value", [-1e-3, float("nan"), float("inf"), True, "0.01"])
def test_adamw_rejects_bad_weight_decay(value):
    params = [Tensor(np.ones(3), requires_grad=True)]
    with pytest.raises(ValueError, match="weight decay must be finite and non-negative"):
        AdamW(params, weight_decay=value)


class AllocatingAdamW:
    """Reference: Adam with decoupled weight decay written out of place,
    one new array per operation."""

    def __init__(self, params, weight_decay):
        self.params, self.weight_decay, self.t = params, weight_decay, 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self, lr):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[i] = ADAM_BETA1 * self.m[i] + (1.0 - ADAM_BETA1) * g
            self.v[i] = ADAM_BETA2 * self.v[i] + (1.0 - ADAM_BETA2) * g * g
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            p.data = (p.data
                      - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                      - lr * self.weight_decay * p.data)


def test_adamw_matches_allocating_reference_bit_for_bit():
    """Six steps with a changing learning rate, weight decay and one
    parameter that never gets a gradient: the in-place step writes the same
    bytes as the out-of-place formula, into the arrays it was given."""
    r = np.random.default_rng(3)
    shapes = [(4, 5), (5,), (2, 3, 2)]
    start = [r.normal(size=s) for s in shapes]
    ours = [Tensor(a.copy(), requires_grad=True) for a in start]
    theirs = [Tensor(a.copy(), requires_grad=True) for a in start]
    views = [p.data[...] for p in ours]
    optimizer, reference = AdamW(ours, 0.05), AllocatingAdamW(theirs, 0.05)
    for step, lr in enumerate([1e-2, 3e-3, 5e-2, 1e-3, 2e-2, 7e-3]):
        for a, b in zip(ours[:2], theirs[:2]):   # the last parameter has no gradient
            a.grad = r.normal(size=a.data.shape) * 10.0 ** (step - 3)
            b.grad = a.grad.copy()
        optimizer.step(lr)
        reference.step(lr)
        for a, b in zip(ours, theirs):
            assert np.array_equal(a.data, b.data)
            assert a.data.tobytes() == b.data.tobytes()
    for view, p, first in zip(views, ours, start):
        assert view.tobytes() == p.data.tobytes()
        assert not np.array_equal(view, first)
