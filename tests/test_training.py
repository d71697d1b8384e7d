"""Training-loop contract: loss rows, determinism, one fetch per step, the
stage-2 freeze, divergence reporting and config validation."""

import numpy as np
import pytest

from facestream.codec import CodecConfig, MotionCodec
from facestream.diffusion import DiffusionHead, build_schedule
from facestream.predictor import ConditionPredictor, PredictorConfig
from facestream.training import (
    STAGE1_FIELDS,
    STAGE2_FIELDS,
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


@pytest.mark.parametrize("finetune_decoder", [False, True])
def test_stage2_trains_only_predictor_head_and_chosen_decoder(finetune_decoder):
    codec, predictor, head, schedule = models = tiny_models()
    decoder = codec.decoder_param_names()
    frozen = [n for n in codec.store.names() if n not in decoder]
    assert "codebook" in frozen and "enc.embed.w" in frozen
    before = (param_bytes(codec.store, frozen), param_bytes(codec.store, decoder),
              param_bytes(predictor.store), param_bytes(head.store))
    run_stage(2, tiny_dataset(), models, config(finetune_decoder=finetune_decoder))
    assert param_bytes(codec.store, frozen) == before[0]
    if finetune_decoder:
        assert param_bytes(codec.store, decoder) != before[1]
    else:
        assert param_bytes(codec.store, decoder) == before[1]
    for store, old in ((predictor.store, before[2]), (head.store, before[3])):
        new = param_bytes(store)
        assert all(new[n] != old[n] for n in old), \
            [n for n in old if new[n] == old[n]]


@pytest.mark.parametrize("field, value", [
    ("learning_rate", 0.0), ("learning_rate", -1e-4), ("learning_rate", float("nan")),
    ("learning_rate", float("inf")), ("weight_decay", -1.0),
    ("weight_decay", float("nan")), ("weight_decay", float("inf")),
])
def test_bad_optimizer_settings_rejected(field, value):
    with pytest.raises(ValueError, match=field.replace("_", " ")):
        TrainConfig(**{field: value})


def test_zero_weight_decay_accepted():
    assert TrainConfig(weight_decay=0.0).weight_decay == 0.0
