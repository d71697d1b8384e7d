#!/usr/bin/env python3
"""facestream benchmark: streams of speech to facial motion, and training.

    python3 perfbench/run.py --workload solo_d10 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke          # every workload, both modes, briefly
    python3 perfbench/run.py --write-reference

A run builds the models and inputs (timed as ``setup_s``), checks a short
fixed-seed run against ``reference.npz`` (which also warms caches), times
the workload for ``--seconds``, runs the end-of-run output checks, and prints
one JSON object as its last line. ``--trace 1`` alternates untraced and
traced phases and prints the per-layer metrics instead of the end-to-end
ones. Times are normalised to a reference host speed by the calibration in
hostspeed.py. See README.md for the workloads and metric definitions.
"""

import os

# one BLAS thread, set before numpy loads, so runs do not fight over 2 cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import facestream  # noqa: E402

if not Path(facestream.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"facestream imported from {facestream.__file__}, not from {ROOT / 'src'}")

from hostspeed import HostClock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import FAILURES, WORKLOADS, close, make_work  # noqa: E402

REFERENCE = HERE / "reference.npz"
REF_SEED = 0
REF_SIZE = {"solo_d10": 24, "multi_d50": 3, "train_s1": 1, "train_s2": 1}  # rounds / epochs
SETUP_REPEATS = 9
REPLAY_UNITS = 64
TRACE_PHASES = 6        # untraced and traced phases alternate, so host drift hits both
TAIL_PARTS = 5          # p90 is the median over consecutive fifths of the run


def environment() -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


def spans(blocks, kind: str) -> np.ndarray:
    return np.array([span for b in blocks for span in getattr(b, kind)]).reshape(-1, 2)


def end_to_end(clock: HostClock, setups, blocks) -> dict:
    ops_ms = clock.normalize(spans(blocks, "ops")) * 1e3
    busy_s = clock.normalize(spans(blocks, "busy")).sum()
    return {
        "setup_s": (float(np.median(clock.normalize(setups))), "s"),
        "op_ms_p50": (float(np.percentile(ops_ms, 50)), "ms"),
        "op_ms_p90": (float(np.median([np.percentile(part, 90) for part
                                       in np.array_split(ops_ms, TAIL_PARTS)])), "ms"),
        "rt_factor": (sum(b.speech for b in blocks) / busy_s, "x"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, clock: HostClock, traced, untraced) -> dict:
    ops = spans(traced, "ops")
    n = max(len(ops), 1)
    speed = float(np.mean(clock.speed(ops[:, 0] + ops[:, 1] / 2)))
    wall = spans(traced, "busy")[:, 1].sum()
    covered = tracer.top_ns * 1e-9

    def mean_ms(name: str) -> float:
        return tracer.per_call_s(name) * 1e3 / speed

    return {
        "audio.extract_us": (mean_ms("audio.extract") * 1e3, "us"),
        "audio.calls": (tracer.calls["audio.extract"] / n, "count"),
        "predictor.forward_ms": (mean_ms("predictor.forward"), "ms"),
        "predictor.window_units": (tracer.mean_quantity("predictor.forward"), "units"),
        "diffusion.denoise_us": (mean_ms("diffusion.denoise") * 1e3, "us"),
        "diffusion.denoise_calls": (tracer.calls["diffusion.denoise"] / n, "count"),
        "diffusion.denoise_batch": (tracer.mean_quantity("diffusion.denoise"), "rows"),
        "diffusion.sample_self_ms": (mean_ms("diffusion.sample"), "ms"),
        "codec.decode_ms": (mean_ms("codec.decode"), "ms"),
        "codec.encode_ms": (mean_ms("codec.encode"), "ms"),
        "codec.quantize_ms": (mean_ms("codec.quantize"), "ms"),
        "tensor.backward_ms": (mean_ms("tensor.backward"), "ms"),
        "training.adamw_ms": (mean_ms("training.adamw"), "ms"),
        "training.loss_ms": (mean_ms("training.loss"), "ms"),
        "bench.driver_self_ms": ((wall - covered) / n * 1e3 / speed, "ms"),
        "trace.coverage": (covered / wall, "ratio"),
        "trace.overhead_pct": ((np.median(clock.normalize(ops))
                                / np.median(clock.normalize(spans(untraced, "ops")))
                                - 1.0) * 100.0, "%"),
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = make_work(name, seed)
    clock = HostClock(work.calibration)
    setups = []
    for _ in range(SETUP_REPEATS):
        clock.calibrate()
        t0 = time.perf_counter()
        work.setup()
        setups.append((t0, time.perf_counter() - t0))
    clock.calibrate()

    with np.load(REFERENCE) as stored:
        expected = stored[name]
    try:
        ref_ok = close(work.reference(REF_SEED, REF_SIZE[name]), expected)
    except FAILURES:
        ref_ok = False

    tracer = Tracer()
    phases = TRACE_PHASES if trace else 1
    blocks = {False: [], True: []}
    start = time.perf_counter()
    for phase in range(phases):
        traced = phase % 2 == 1
        if traced:
            tracer.install()
        try:
            blocks[traced].append(
                work.run_block(start + seconds * (phase + 1) / phases, clock))
        finally:
            tracer.uninstall()
    clock.calibrate()
    checks, failed_checks = work.final_checks(REPLAY_UNITS)

    if trace:
        metrics = per_layer(tracer, clock, blocks[True], blocks[False])
    else:
        metrics = end_to_end(clock, setups, blocks[False])
    ops = spans(blocks[False], "ops")
    print(json.dumps({
        "workload": name, "seed": seed, "trace": int(trace),
        "samples": {"untraced": len(ops), "traced": len(spans(blocks[True], "ops"))},
        "raw": {"setup_s": float(np.median(np.array(setups)[:, 1])),
                "op_ms_p50": float(np.percentile(ops[:, 1] * 1e3, 50)),
                "op_ms_p90": float(np.percentile(ops[:, 1] * 1e3, 90))},
        "op_ms_p99": float(np.percentile(clock.normalize(ops) * 1e3, 99)),
        "calibration_ms": {"first": clock.ms[0], "median": float(np.median(clock.ms)),
                           "last": clock.ms[-1], "count": len(clock.ms),
                           "share_of_run": clock.spent / seconds},
        "env": environment()}))
    failed = work.failed_ops + failed_checks + int(not ref_ok)
    return {"correct": failed == 0,
            "attempted": work.ops + checks + 1,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def write_reference() -> None:
    arrays = {}
    for name in WORKLOADS:
        work = make_work(name, REF_SEED)
        work.setup()
        arrays[name] = work.reference(REF_SEED, REF_SIZE[name])
    np.savez_compressed(REFERENCE, **arrays)
    print(f"wrote {REFERENCE.name}: " + ", ".join(f"{k} {v.shape}" for k, v in arrays.items()))


def smoke(seed: int, seconds: float) -> int:
    """Every workload in both modes, each in a fresh process; checks the
    printed metric names and units against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
                got = {k: v["unit"] for k, v in result["metrics"].items()}
            except (IndexError, ValueError, KeyError, TypeError):
                result, got = {}, {}
            ok = (proc.returncode == 0 and got == wanted[trace]
                  and result.get("correct") is True and result.get("attempted", 0) >= 1)
            problems += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {workload} trace={trace} "
                  f"attempted={result.get('attempted')} failed={result.get('failed')}")
            for k, v in result.get("metrics", {}).items():
                print(f"       {k:26s} {v['value']:.6g} {v['unit']}")
            if not ok:
                print(proc.stderr[-2000:], file=sys.stderr)
                missing = set(wanted[trace]) ^ set(got)
                if missing:
                    print(f"       metric names differ: {sorted(missing)}")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly in both modes and check names")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.npz from the current library")
    args = parser.parse_args()
    if args.write_reference:
        write_reference()
        return 0
    if args.smoke:
        return smoke(args.seed, min(args.seconds, 3.0))
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
