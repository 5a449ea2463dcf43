"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gram-ppis --seed 1 --seconds 30 --trace 0

Run from the repository root: the program is imported from ``src/`` of
the checkout this file sits in, never from anywhere else. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones. Lines before it
show the environment record and, for traced runs, the per-layer
self-time table. The full record (environment, inputs, metrics, and the
spans of a traced run) is written to ``.perfbench/out/``. The exit code
is 1 when an output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Knobs the program reads from the environment; scrubbed so that only
#: the benchmark's explicit ExecutionContext decides.
SCRUBBED_ENV = (
    "REPRO_GRAM_ENGINE",
    "REPRO_GRAM_TILE",
    "REPRO_STORE",
    "REPRO_BACKEND",
    "REPRO_PRECISION",
    "REPRO_ENTROPY",
    "REPRO_FULL_SCALE",
)
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _import_program():
    """Import ``repro`` from this checkout's ``src/``; fail if it is not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, src)
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")
    return repro


def environment_record(ctx, load_at_start) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "context": ctx.to_record(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_at_start": load_at_start,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    _import_program()
    from perfbench import report, workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    out_dir = os.path.join(ROOT, ".perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".perfbench"))
    cfg = workloads.Config(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        workdir=workdir,
    )
    try:
        outcome = workloads.WORKLOADS[args.workload](cfg)
    finally:
        import shutil

        shutil.rmtree(workdir, ignore_errors=True)

    env = environment_record(workloads.base_context(), load_at_start)
    wanted = report.PER_LAYER if cfg.trace else report.END_TO_END
    metrics = {
        name: {"value": float(outcome.metrics[name]), "unit": unit}
        for name, unit in wanted.items()
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        **outcome.record,
        "problems": outcome.problems,
        "metrics": metrics,
    }
    name = f"{args.workload}-trace{args.trace}"
    with open(os.path.join(out_dir, f"{name}.json"), "w") as handle:
        json.dump(record, handle, indent=1, default=str)
    if outcome.spans:
        with open(os.path.join(out_dir, f"{name}-spans.json"), "w") as handle:
            json.dump(outcome.spans, handle)

    print("env " + json.dumps(env, sort_keys=True, default=str))
    print("input " + json.dumps(outcome.record.get("input"), sort_keys=True))
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    if cfg.trace:
        layer_self = outcome.record["layer_self_s"]
        wall = outcome.metrics["trace.other_s"] + sum(layer_self.values())
        print(report.layer_table(layer_self, wall))
    for metric, entry in metrics.items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
