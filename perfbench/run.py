#!/usr/bin/env python3
"""Layered benchmark of hgmrf, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs whole passes of one workload for S seconds.  Each pass is a fresh
process (``worker.py``) that imports hgmrf from ``src/`` and makes its
inputs from (seed, pass number), so no operation repeats inside a process
and no cache can serve it.  After the last pass every output is checked
against ``refs`` (computed apart from hgmrf) or against a property of the
method.  The last line of standard output is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, taken as medians over
the passes; with --trace 1 passes alternate untraced and traced (spans
around every public hgmrf function, ``-X importtime``) and the metrics
are the per-layer ones, medians over the traced passes.  Spans and
per-pass figures are kept under ``.perfbench/`` in the checkout.  Exits 1
without a result if hgmrf cannot be imported from ``src/`` or a pass
process fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402  (stdlib only; checks/refs import scipy later)
import workloads  # noqa: E402

END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB"))

#: One pass takes under 10 s; a pass that takes this long has hung.
PASS_TIMEOUT_S = 120

#: setup_s is the median of at least this many set-ups: after the timed
#: passes, set-up-only processes make up the count.
MIN_SETUPS = 12


class BenchError(Exception):
    pass


def _child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    # one closed-loop caller on one core: BLAS stays single-threaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(args, root, env, out_dir, index, mode):
    """Run one worker process; returns its JSON line with setup_s added.
    Fails unless the hgmrf it imported is the checkout's own."""
    cmd = [sys.executable] + (["-X", "importtime"] if mode == "trace" else []) + [
        os.path.join(HERE, "worker.py"), args.workload, str(args.seed), str(index),
        out_dir, mode]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass {index} did not end within {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"pass {index} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    src = os.path.join(root, "src") + os.sep
    if not os.path.abspath(res["hgmrf"]).startswith(src):
        raise BenchError(f"pass {index} imported hgmrf from {res['hgmrf']}, not from {src}")
    res["setup_s"] = res["ready"] - start
    if mode == "trace":
        res["imports"] = tracer.import_times(proc.stderr)
    return res


def _run_pass(args, root, env, run_dir, index, traced):
    out_dir = os.path.join(run_dir, f"pass{index}")
    os.makedirs(out_dir)
    res = _spawn(args, root, env, out_dir, index, "trace" if traced else "run")
    res.update(index=index, traced=traced)
    return res


def _check(workload, passes):
    """(attempted, failed, problems): problems are failed checks that are
    not among their operation's known faults, and passes whose outputs
    differ from the first pass's."""
    import checks  # scipy and mpmath load here, after every timed pass

    ref = checks.References()
    attempted = failed = 0
    problems = []
    first_outputs = None
    for p in passes:
        results = checks.CHECKS[workload](p["records"], ref)
        for rec, failures in zip(p["records"], results):
            attempted += 1
            failed += bool(failures)
            problems += [f"pass {p['index']}: {why}"
                         for why in checks.unexpected(workload, rec, failures)]
        if workload == "sweeps":
            outputs = checks.sweep_outputs(p["records"])
            first_outputs = first_outputs or outputs
            if outputs != first_outputs:
                problems.append(f"pass {p['index']}: outputs differ from pass 0")
    return attempted, failed, problems


def _end_to_end(passes, setups):
    ops = [rec["op_s"] for p in passes for rec in p["records"]]
    return {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(p["pass_s"] for p in passes),
        "op_p50_ms": 1e3 * statistics.median(ops),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] / 1024.0 for p in passes),
    }


def _per_layer(traced):
    per_pass = []
    for p in traced:
        m = tracer.layer_metrics(p["spans"], p["pass_s"])
        m.update({f"{layer}.import_s": s for layer, s in p["imports"].items()})
        m["trace.overhead_s"] = p["span_cost_s"] * len(p["spans"])
        per_pass.append(m)
    out = {name: statistics.median(m[name] for m in per_pass) for name, _, _ in tracer.PER_LAYER}
    return out, per_pass


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = os.getcwd()
    env = _child_env(root)
    run_dir = os.path.join(root, ".perfbench",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    try:
        os.makedirs(run_dir)
        passes = []
        stop = time.monotonic() + args.seconds
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            passes.append(_run_pass(args, root, env, run_dir, len(passes), traced))
            if time.monotonic() >= stop and len(passes) >= 1 + args.trace:
                break
        setups = [p["setup_s"] for p in passes if not p["traced"]]
        while not args.trace and len(setups) < MIN_SETUPS:
            index = len(passes) + len(setups)
            setups.append(_spawn(args, root, env, run_dir, index, "setup")["setup_s"])
        attempted, failed, problems = _check(args.workload, passes)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for name in os.listdir(run_dir) if os.path.isdir(run_dir) else ():
            if name.startswith("pass"):
                shutil.rmtree(os.path.join(run_dir, name), ignore_errors=True)

    for why in problems:
        print(f"check failed: {why}", file=sys.stderr)
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        values, per_pass = _per_layer(traced)
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
        for p in traced:
            with open(os.path.join(run_dir, f"spans{p['index']}.json"), "w") as fh:
                json.dump(p["spans"], fh)
        detail = {"per_pass": per_pass}
    else:
        values = _end_to_end([p for p in passes if not p["traced"]], setups)
        units = dict(END_TO_END)
        detail = {}
    summary = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    detail.update(summary, passes=[{k: p[k] for k in ("index", "traced", "setup_s", "pass_s",
                                                       "peak_rss_kb")} for p in passes],
                  setups=setups, problems=problems)
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
