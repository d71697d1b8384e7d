"""Metric tests against independent scalar recomputations."""

import math

import numpy as np
import pytest

from facestream.metrics import RegionSpec, evaluate_pair, fdd, lve, mouth_open_diff


def region():
    return RegionSpec(lip_indices=[0, 1, 2], upper_face_indices=[3, 4],
                      mouth_pair=(0, 1))


def random_pair(seed, t=10, v=6):
    r = np.random.default_rng(seed)
    return r.normal(size=(t, v, 3)), r.normal(size=(t, v, 3))


class TestLVE:
    def test_identity_is_zero(self):
        pred, _ = random_pair(0)
        assert lve(pred, pred.copy(), region()) == 0.0

    def test_three_four_five(self):
        pred = np.zeros((1, 6, 3))
        gt = np.zeros((1, 6, 3))
        pred[0, 0] = [3.0, 4.0, 0.0]   # distance 5
        pred[0, 1] = [0.0, 0.0, 1.0]   # distance 1
        assert lve(pred, gt, region()) == pytest.approx(5.0)

    def test_matches_exhaustive_scan(self):
        pred, gt = random_pair(1)
        reg = region()
        # independent per-frame python scan
        expected = 0.0
        for t in range(pred.shape[0]):
            worst = 0.0
            for v in reg.lip_indices:
                d = math.sqrt(sum((pred[t, v, k] - gt[t, v, k]) ** 2
                                  for k in range(3)))
                worst = max(worst, d)
            expected += worst
        expected /= pred.shape[0]
        assert lve(pred, gt, reg) == pytest.approx(expected, rel=1e-12)

    def test_invariant_to_out_of_region_vertices(self):
        pred, gt = random_pair(3)
        base = lve(pred, gt, region())
        pred[:, 5] += 100.0
        assert lve(pred, gt, region()) == base

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lve(np.zeros((2, 6, 3)), np.zeros((3, 6, 3)), region())


class TestFDD:
    def test_constant_sequences_zero(self):
        pred = np.tile(np.arange(18, dtype=float).reshape(1, 6, 3), (5, 1, 1))
        gt = pred * 2.0
        assert fdd(pred, gt, region()) == 0.0

    def test_identity_is_zero(self):
        pred, _ = random_pair(4)
        assert fdd(pred, pred.copy(), region()) == 0.0

    def test_matches_scalar_std_oracle(self):
        r = np.random.default_rng(5)
        pred = r.normal(size=(3, 6, 3))
        gt = r.normal(size=(3, 6, 3))
        reg = RegionSpec(lip_indices=[0], upper_face_indices=[2, 4],
                         mouth_pair=(0, 1))
        total = 0.0
        for v in [2, 4]:
            norms_p = [math.sqrt(sum(pred[t, v, k] ** 2 for k in range(3)))
                       for t in range(3)]
            norms_g = [math.sqrt(sum(gt[t, v, k] ** 2 for k in range(3)))
                       for t in range(3)]

            def std(xs):
                m = sum(xs) / len(xs)
                return math.sqrt(sum((x - m) ** 2 for x in xs) / len(xs))

            total += std(norms_p) - std(norms_g)
        assert fdd(pred, gt, reg) == pytest.approx(total / 2, rel=1e-12)

    def test_single_frame_rejected(self):
        with pytest.raises(ValueError):
            fdd(np.zeros((1, 6, 3)), np.zeros((1, 6, 3)), region())


class TestMOD:
    def test_identity_is_zero(self):
        pred, _ = random_pair(6)
        assert mouth_open_diff(pred, pred.copy(), region()) == 0.0

    def test_constant_openings(self):
        pred = np.zeros((4, 6, 3))
        gt = np.zeros((4, 6, 3))
        pred[:, 0, 1] = 1.0
        pred[:, 1, 1] = -1.0   # opening 2.0
        gt[:, 0, 1] = 0.75
        gt[:, 1, 1] = -0.75    # opening 1.5
        assert mouth_open_diff(pred, gt, region()) == pytest.approx(0.5)

    def test_matches_scalar_recomputation(self):
        pred, gt = random_pair(7)
        expected = 0.0
        for t in range(pred.shape[0]):
            op = math.sqrt(sum((pred[t, 0, k] - pred[t, 1, k]) ** 2
                               for k in range(3)))
            og = math.sqrt(sum((gt[t, 0, k] - gt[t, 1, k]) ** 2
                               for k in range(3)))
            expected += abs(op - og)
        expected /= pred.shape[0]
        assert mouth_open_diff(pred, gt, region()) == pytest.approx(
            expected, rel=1e-12)

    def test_invariant_to_other_vertices(self):
        pred, gt = random_pair(8)
        base = mouth_open_diff(pred, gt, region())
        pred[:, 2:] += 50.0
        assert mouth_open_diff(pred, gt, region()) == base


class TestRegionSpec:
    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            RegionSpec(lip_indices=[], upper_face_indices=[1], mouth_pair=(0, 1))

    def test_duplicate_mouth_pair_rejected(self):
        with pytest.raises(ValueError):
            RegionSpec(lip_indices=[0], upper_face_indices=[1], mouth_pair=(2, 2))

    @pytest.mark.parametrize("bad", [dict(lip_indices=[0.9, 1.7]),
                                     dict(upper_face_indices=[3, 4.5]),
                                     dict(upper_face_indices=[3.0, 4.0]),
                                     dict(lip_indices=["0", "1"]),
                                     dict(mouth_pair=(0.5, 1)),
                                     dict(lip_indices=[[0, 1]]),
                                     dict(upper_face_indices=[[3], [4]]),
                                     dict(lip_indices=2),
                                     dict(mouth_pair=[[0, 1]])])
    def test_non_integer_indices_rejected(self, bad):
        # a fractional index must not be truncated to a vertex it never
        # named, and a 2-D set must not turn the metrics' norms to another axis
        spec = dict(lip_indices=[0, 1], upper_face_indices=[3, 4], mouth_pair=(0, 1))
        spec.update(bad)
        with pytest.raises(ValueError, match="must be non-empty integers"):
            RegionSpec(**spec)

    @pytest.mark.parametrize("pair", [(3,), (3, 4, 5)])
    def test_mouth_pair_of_other_length_rejected(self, pair):
        with pytest.raises(ValueError, match="mouth_pair must be two distinct vertices"):
            RegionSpec(lip_indices=[0], upper_face_indices=[1], mouth_pair=pair)

    def test_numpy_integer_indices_accepted(self):
        reg = RegionSpec(lip_indices=np.array([0, 1, 2], dtype=np.int32),
                         upper_face_indices=np.arange(3, 5, dtype=np.uint8),
                         mouth_pair=(np.int64(0), 1))
        pred, gt = random_pair(10)
        assert evaluate_pair(pred, gt, reg) == evaluate_pair(pred, gt, region())


@pytest.mark.parametrize("metric", [lve, fdd, mouth_open_diff, evaluate_pair])
def test_zero_frame_motion_rejected(metric):
    empty = np.zeros((0, 6, 3))
    with pytest.raises(ValueError, match="at least one frame"):
        metric(empty, empty.copy(), region())


BAD_REGIONS = {
    "lip_too_large": dict(lip_indices=[0, 6]),
    "lip_negative": dict(lip_indices=[-1]),
    "upper_face_too_large": dict(upper_face_indices=[100]),
    "upper_face_negative": dict(upper_face_indices=[3, -3]),
    "mouth_too_large": dict(mouth_pair=(0, 99)),
    "mouth_negative": dict(mouth_pair=(-1, 1)),
}


@pytest.mark.parametrize("metric", [lve, fdd, mouth_open_diff, evaluate_pair])
@pytest.mark.parametrize("bad", sorted(BAD_REGIONS))
def test_vertex_index_outside_the_mesh_rejected(metric, bad):
    """Every metric checks every index set against V = 6: a too-large index
    must not leak numpy's IndexError and a negative one must not silently
    score a vertex counted from the end."""
    spec = dict(lip_indices=[0, 1, 2], upper_face_indices=[3, 4], mouth_pair=(0, 1))
    spec.update(BAD_REGIONS[bad])
    pred, gt = random_pair(9, t=5)
    with pytest.raises(ValueError, match="indices must lie in"):
        metric(pred, gt, RegionSpec(**spec))


@pytest.mark.parametrize("metric", [lve, fdd, mouth_open_diff, evaluate_pair])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("side", ["pred", "gt"])
def test_non_finite_motion_rejected(metric, bad, side):
    """A non-finite entry is malformed input and raises, even at a vertex
    no metric reads, where a NaN prediction used to score NaN silently."""
    pair = dict(zip(("pred", "gt"), random_pair(11, t=5)))
    pair[side][2, 5, 1] = bad
    with pytest.raises(ValueError, match="must be finite"):
        metric(pair["pred"], pair["gt"], region())
