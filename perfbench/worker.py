"""One benchmark sample in a fresh process, as a command-line user pays it.

    python3 perfbench/worker.py WORKLOAD SEED OUT_DIR MODE

MODE is `setup` (import and resolve the inputs, then stop), `run` (also time
the scenario call) or `trace` (the same with every layer's public functions
wrapped in spans).  The result goes to OUT_DIR/result.json.  `call_at` is
time.monotonic() at the start of the scenario call, which the parent
compares with its own clock at spawn time to get the set-up time.
"""

import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)  # all threads of this process
    return usage.ru_utime + usage.ru_stime


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def main(argv: list[str]) -> int:
    name, seed, out_dir, mode = argv[0], int(argv[1]), Path(argv[2]), argv[3]
    import zenosim.cli  # noqa: F401  (the CLI imports every layer)

    root = Path(__file__).resolve().parent.parent
    if Path(zenosim.__file__).resolve().parent != root / "src" / "zenosim":
        print(f"imported zenosim from {zenosim.__file__}, not from this checkout", file=sys.stderr)
        return 2
    tracer = None
    if mode == "trace":
        from tracer import Tracer, per_layer

        tracer = Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[name]
    prepared = workload.prepare(seed)
    result = {"call_at": time.monotonic()}
    if mode != "setup":
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        returned = workload.call(prepared, out_dir)
        t1 = time.perf_counter()
        result.update(
            run_s=t1 - t0,
            cpu_s=_cpu_s() - cpu0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            outputs=workload.outputs(returned),
            environment=_environment(),
        )
        if tracer is not None:
            result["per_layer"] = per_layer(tracer.spans, t0, t1)
    (out_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
