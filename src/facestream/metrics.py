"""Evaluation metrics over prediction / ground-truth motion pairs.

All three metrics operate on vertex offsets; differences between prediction
and ground truth make the template cancel, and the mouth opening is measured
as the separation of the mouth-pair displacement vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class RegionSpec:
    """Vertex index sets the metrics read; everything else is ignored."""

    lip_indices: np.ndarray
    upper_face_indices: np.ndarray
    mouth_pair: tuple[int, int]

    def __post_init__(self):
        self.lip_indices = np.asarray(self.lip_indices, dtype=int)
        self.upper_face_indices = np.asarray(self.upper_face_indices, dtype=int)
        if self.lip_indices.size == 0 or self.upper_face_indices.size == 0:
            raise ValueError("region index sets must be non-empty")
        if self.mouth_pair[0] == self.mouth_pair[1]:
            raise ValueError("mouth pair vertices must be distinct")


def _check_pair(pred, gt, region: RegionSpec) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    if pred.ndim != 3 or pred.shape[2] != 3:
        raise ValueError("motion arrays must be (T, V, 3)")
    v = pred.shape[1]
    for name, idx in (("lip", region.lip_indices),
                      ("upper-face", region.upper_face_indices),
                      ("mouth-pair", np.asarray(region.mouth_pair))):
        if idx.min() < 0 or idx.max() >= v:
            raise ValueError(f"{name} vertex indices must lie in [0, {v}), "
                             f"got {idx.tolist()}")
    return pred, gt


def lve(pred, gt, region: RegionSpec) -> float:
    """Lip vertex error: per-frame maximum L2 distance over the lip region,
    averaged over frames."""
    pred, gt = _check_pair(pred, gt, region)
    diff = pred[:, region.lip_indices] - gt[:, region.lip_indices]
    dist = np.linalg.norm(diff, axis=2)  # (T, lips)
    return float(dist.max(axis=1).mean())


def fdd(pred, gt, region: RegionSpec) -> float:
    """Face dynamics distance: signed difference of temporal standard
    deviations of each upper-face vertex's offset norm, averaged over the
    region. Positive means the prediction moves more than the ground truth."""
    pred, gt = _check_pair(pred, gt, region)
    if pred.shape[0] < 2:
        raise ValueError("need at least two frames for a temporal deviation")
    idx = region.upper_face_indices
    dyn_pred = np.linalg.norm(pred[:, idx], axis=2).std(axis=0)
    dyn_gt = np.linalg.norm(gt[:, idx], axis=2).std(axis=0)
    return float((dyn_pred - dyn_gt).mean())


def mouth_open_diff(pred, gt, region: RegionSpec) -> float:
    """Mean absolute difference in mouth opening (mouth-pair separation)."""
    pred, gt = _check_pair(pred, gt, region)
    upper, lower = region.mouth_pair
    open_pred = np.linalg.norm(pred[:, upper] - pred[:, lower], axis=1)
    open_gt = np.linalg.norm(gt[:, upper] - gt[:, lower], axis=1)
    return float(np.abs(open_pred - open_gt).mean())


def evaluate_pair(pred, gt, region: RegionSpec) -> dict[str, float]:
    return {
        "lve": lve(pred, gt, region),
        "fdd": fdd(pred, gt, region),
        "mod": mouth_open_diff(pred, gt, region),
    }
