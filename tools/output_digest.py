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

It imports the benchmark's workloads from ``perfbench/`` and writes nothing
there.
"""

import hashlib
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


def print_params(label: str, models) -> None:
    for part in ("codec", "predictor", "head"):
        for i, (_, param) in enumerate(getattr(models, part).store.items()):
            print(f"{label} {part}[{i}] {digest(param.data)}")


def main() -> None:
    workloads = _load_workloads()
    print_params("built", workloads.build_models())
    for seed in SEEDS:
        for name, size in SIZES.items():
            work = workloads.make_work(name, seed)
            label = f"seed={seed} {name}"
            if name.startswith("train"):
                models = workloads.build_models()
                rows = work.call(models, workloads.training_set(seed), size, seed)
                print(f"{label} losses {digest(np.array([list(r.values()) for r in rows]))}")
                print_params(label, models)
            else:
                work.setup()
                print(f"{label} frames {digest(work.reference(seed, size))}")


if __name__ == "__main__":
    main()
