"""Print a sha256 digest of every benchmark output array, one line each.

The arrays are every codec, predictor and head parameter of the benchmark
models as built, before any training call; then, at seeds 0 and 2718, the
frames of the ``solo_d10`` (24 rounds) and ``multi_d50`` (3 rounds) stream
runs, the loss rows of ``train_s1`` (1 epoch) and ``train_s2`` (2 epochs),
and every parameter after each training call. The built lines check a
change to model construction directly, not only through what the models
compute. Parameters are labelled by their position in construction order,
not by name, so a renamed parameter keeps its line. Running this on two
trees and diffing the outputs shows whether a change kept the outputs
byte-equal:

    PYTHONPATH=src python3 tools/output_digest.py > digest.txt

A change that moves outputs by rounding is checked the same way against
the arrays themselves: ``--save`` on the old tree writes every array,
keyed by its line label, and ``--against`` on the new tree prints each
line's ``max|change| / max|saved|`` (0 for an unchanged array; inf for a
missing label or a changed shape) and the overall maximum:

    PYTHONPATH=src python3 tools/output_digest.py --save old.npz
    PYTHONPATH=src python3 tools/output_digest.py --against old.npz

It imports the benchmark's workloads from ``perfbench/`` and writes nothing
there.
"""

import argparse
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEEDS = (0, 2718)
SIZES = {"solo_d10": 24, "multi_d50": 3, "train_s1": 1, "train_s2": 2}


def _load_workloads():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True   # no __pycache__ inside perfbench/
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = saved
    return workloads


def digest(array: np.ndarray) -> str:
    array = np.ascontiguousarray(array)
    head = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(head + array.tobytes()).hexdigest()


def param_arrays(label: str, models):
    for part in ("codec", "predictor", "head"):
        for i, (_, param) in enumerate(getattr(models, part).store.items()):
            yield f"{label} {part}[{i}]", param.data


def output_arrays():
    """Every digested array, in print order, as (line label, array)."""
    workloads = _load_workloads()
    yield from param_arrays("built", workloads.build_models())
    for seed in SEEDS:
        for name, size in SIZES.items():
            work = workloads.make_work(name, seed)
            label = f"seed={seed} {name}"
            if name.startswith("train"):
                models = workloads.build_models()
                rows = work.call(models, workloads.training_set(seed), size, seed)
                yield f"{label} losses", np.array([list(r.values()) for r in rows])
                yield from param_arrays(label, models)
            else:
                work.setup()
                yield f"{label} frames", work.reference(seed, size)


def relative_change(array: np.ndarray, saved: np.ndarray | None) -> float:
    """``max|array - saved| / max|saved|``; 0 for equal arrays, inf for a
    missing label, a changed shape, a NaN or a change to an all-zero array."""
    if saved is None or array.shape != saved.shape:
        return math.inf
    change = float(np.max(np.abs(array - saved), initial=0.0))
    scale = float(np.max(np.abs(saved), initial=0.0))
    ratio = change / scale if scale else (math.inf if change else 0.0)
    return math.inf if math.isnan(ratio) else ratio


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--save", metavar="PATH.npz",
                        help="also write every array, keyed by its line label")
    parser.add_argument("--against", metavar="PATH.npz",
                        help="print each line's max|change| / max|saved| against a "
                             "--save file, and the overall maximum, instead of hashes")
    args = parser.parse_args()
    saved = None
    if args.against:
        with np.load(args.against) as archive:
            saved = {label: archive[label] for label in archive.files}
    kept, worst = {}, 0.0
    for label, array in output_arrays():
        if args.save:
            kept[label] = np.array(array)
        if saved is None:
            print(f"{label} {digest(array)}")
        else:
            change = relative_change(np.asarray(array), saved.get(label))
            worst = max(worst, change)
            print(f"{label} {change:.3g}")
    if saved is not None:
        print(f"overall max {worst:.3g}")
    if args.save:
        np.savez(args.save, **kept)


if __name__ == "__main__":
    main()
