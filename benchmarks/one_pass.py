"""One pass over one workload, in a fresh interpreter.

    python3 benchmarks/one_pass.py WORKLOAD SEED MODE [SCALE]

MODE is ``plain`` (timing only), ``spans`` (per-layer spans) or ``alloc``
(tracemalloc peak).  Set-up, from the start of this script, covers the
library import, group construction and input generation.  The pass result,
with the reference-task samples of ``speed.SpeedProbe`` taken between
operations, is printed as one JSON line.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
import warnings  # noqa: E402
from contextlib import nullcontext  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPANS_DIR = os.path.join(HERE, "out")


def _origin(exc) -> str:
    """file:line of the innermost frame the exception passed through."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}"


def run_ops(inputs, operation, labels, tracer=None, probe=None):
    """Apply the operation to each input in turn; returns (latencies in ms, failures).

    An operation that raises, or that emits a warning (the solver's fallback
    path warns), is a failure recorded with its input index; the pass goes on.
    A speed probe, if given, samples the machine's speed between operations.
    """
    latencies, failures = [], []
    for index, item in enumerate(inputs):
        if probe is not None:
            probe.maybe_sample()
        span = tracer.span("bench.op", op=index) if tracer else nullcontext()
        failure = None
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                with span:
                    operation(item)
            except Exception as exc:  # every failure is counted; the pass goes on
                failure = [type(exc).__name__, f"{_origin(exc)}: {exc}"]
        latencies.append((time.perf_counter() - start) * 1000.0)
        if caught:
            warned = f"{caught[0].category.__name__}: {caught[0].message}"
            if failure is None:
                failure = [caught[0].category.__name__, str(caught[0].message)]
            else:
                failure[1] += f" (after {warned})"
        if failure is not None:
            failures.append({"index": index, "label": labels[index],
                             "type": failure[0], "message": failure[1][:300]})
    return latencies, failures


def _import_library():
    """Import the library from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import edlattice
    import edlattice.jsonio  # noqa: F401  (not imported by the package itself)
    import edlattice.random_modules  # noqa: F401
    if not os.path.abspath(edlattice.__file__).startswith(src + os.sep):
        raise ImportError(f"edlattice imported from {edlattice.__file__}, not from {src}")


def main(argv):
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    scale = float(argv[3]) if len(argv) > 3 else 1.0
    if mode == "alloc":
        tracemalloc.start()
    _import_library()
    tracer = None
    if mode == "spans":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads
    from speed import SpeedProbe
    with tracer.span("bench.setup") if tracer else nullcontext():
        workload = workloads.make(name, seed, scale)
    setup_s = time.perf_counter() - START

    probe = SpeedProbe()
    latencies, failures = run_ops(workload.inputs, workload.operation, workload.labels, tracer,
                                  probe)
    probe.sample()

    out = {
        "mode": mode,
        "setup_s": setup_s,
        "wall_s": sum(latencies) / 1000.0,
        "op_ms": latencies,
        "failures": failures,
        "wrong": sum(f["type"] == workloads.WrongAnswer.__name__ for f in failures),
        "digest": workload.digest,
        "speed_samples": probe.samples,
        "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.layer_metrics()
        os.makedirs(SPANS_DIR, exist_ok=True)
        tracer.write(os.path.join(SPANS_DIR, f"spans-{name}.jsonl"))
    if mode == "alloc":
        out["peak_alloc_mib"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        tracemalloc.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
