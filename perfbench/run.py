"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload paper-exact --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with nothing wrapped and reports the end-to-end
metrics; ``--trace 1`` wraps each layer's public functions and reports the
per-layer metrics instead.  ``--smoke`` shrinks every input so a run takes
seconds; the tests use it.  The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before anything imports numpy.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src"

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3

#: Fewest timed rounds (batches on serve-hetero) a full-size run serves.
MIN_ROUNDS = 100


def calibrate() -> float:
    """Seconds a fixed numpy-plus-Python loop takes; shows a slow host."""
    import numpy as np

    start = time.perf_counter()
    matrix = np.random.default_rng(0).random((160, 160))
    for _ in range(60):
        matrix = np.tanh(matrix @ matrix / 160.0)
    total = 0
    for i in range(400_000):
        total += i * i % 7
    return time.perf_counter() - start


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: the program's source is missing ({SOURCE / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    sys.path.insert(0, str(HERE))
    import numpy as np

    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    calibration_before = calibrate()
    setup_s = []
    workload = None
    for _ in range(SETUPS):
        if workload is not None:
            workload.close()
        workload = WORKLOADS[args.workload](args.seed, args.smoke)
        gc.collect()
        start = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - start)
    try:
        engines = workload.engines
        tracer = layers.LayerTracer() if args.trace else None
        before = layers.Counters(engines)
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            timed = workload.run(args.seconds, 4 if args.smoke else MIN_ROUNDS)
        finally:
            if tracer is not None:
                tracer.remove()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        after = layers.Counters(engines)
        calibration_after = calibrate()
        failures = workload.check()
        faults = workload.known_faults()
        quality = workload.quality()
    finally:
        workload.close()

    rounds = len(timed.latencies_s)
    rounds_per_s = rounds / timed.wall_s
    print(f"calibration_s before={calibration_before:.4f} after={calibration_after:.4f}")
    for failure in failures:
        print(f"CHECK FAILED [{args.workload}]: {failure}")
    # Faults of the program that show on some seeds only: reported, but
    # left out of ``correct`` so that it speaks of the checks that hold.
    for fault in faults:
        print(f"KNOWN FAULT [{args.workload}]: {fault}")
    if tracer is None:
        latencies_ms = 1000.0 * np.asarray(timed.latencies_s)
        values = {
            "setup_s": (statistics.median(setup_s), "s"),
            "rounds_per_s": (rounds_per_s, "1/s"),
            "round_ms.p50": (float(np.percentile(latencies_ms, 50)), "ms"),
            "round_ms.p90": (float(np.percentile(latencies_ms, 90)), "ms"),
            "quality.top1_pct": (quality, "%"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        num_samples = engines[0].config.elicitation.num_samples
        measured = layers.per_layer_metrics(tracer, before, after, rounds, num_samples)
        values = {name: (measured[name], unit) for name, unit, _ in layers.PER_LAYER}
        shares = layers.layer_shares(tracer, timed.wall_s)
        print(f"traced rounds_per_s={rounds_per_s:.4f} rounds={rounds}")
        print("layer_self_share " + " ".join(f"{k}={v:.4f}" for k, v in shares.items()))
    result = {
        "correct": not failures,
        "attempted": rounds,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
