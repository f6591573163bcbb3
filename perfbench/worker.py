"""One pass of one workload, in a fresh process.

    python perfbench/worker.py WORKLOAD SEED PASS OUT_DIR MODE

The parent starts this process with hgmrf's source directory on
PYTHONPATH.  Set-up (the interpreter, ``import hgmrf`` and ``hgmrf.cli``,
input generation) ends at the ``ready`` time stamp, on the system-wide
monotonic clock the parent started its own clock on.  MODE "setup" stops
there; "run" and "trace" (spans around every hgmrf call) go on to run the
pass.  Prints one JSON line: where hgmrf was imported from, the pass's
records, its wall time and the process's peak RSS, and in a traced pass
its spans and the calibrated cost of one span.
"""

import json
import sys


def main(argv):
    workload, seed, pass_index, out_dir, mode = argv
    import hgmrf
    import hgmrf.cli  # noqa: F401  (part of every CLI call's set-up)

    import workloads

    items = workloads.inputs(workload, int(seed), int(pass_index))
    import time

    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"hgmrf": hgmrf.__file__, "ready": ready}))
        return 0

    tracer = None
    if mode == "trace":
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    run = workloads.RUNNERS[workload]
    t0 = time.perf_counter()
    records = run(items, out_dir)
    pass_s = time.perf_counter() - t0

    import resource

    result = {
        "hgmrf": hgmrf.__file__,
        "ready": ready,
        "pass_s": pass_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "records": records,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["span_cost_s"] = tracer_mod.span_cost()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
