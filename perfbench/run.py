"""Streetbeam pipeline benchmark.

    python3 perfbench/run.py --workload gen-dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Runs one workload (or, with `all`, each workload in its own fresh process)
from the root of a checkout that holds `src/streetbeam`. The set-up runs
several times in fresh processes and its median is `setup_s`; then passes
run back to back, as a closed loop from one client, while the next pass
should end within `--seconds`, at least one; outputs of all passes on the
seed must agree. With
`--trace 1` untraced and traced passes alternate, and the per-layer
figures come from the traced passes.

Human-readable lines come first; the last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, HERE)
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS, Ops  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    WHY = {w["name"]: w["why"] for w in json.load(_fh)["workloads"]}

# the end-to-end metrics printed by name on every run, with their units
E2E_UNITS = {"setup_s": "s", "run_s": "s", "gen_frames_per_s": "frames/s",
             "train_samples_per_s": "sample-epochs/s",
             "eval_samples_per_s": "test samples/s",
             "select_evals_per_s": "evaluator calls/s", "peak_rss_mb": "MiB",
             "failed_ops_ratio": "failed/attempted"}


def machine_block():
    import numpy
    info = {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__}
    try:
        with open("/sys/fs/cgroup/cpu.max") as fh:
            info["cgroup_cpu_max"] = fh.read().strip()
    except OSError:
        info["cgroup_cpu_max"] = "unavailable"
    try:
        import scipy
        info["scipy"] = scipy.__version__
    except ImportError:
        info["scipy"] = None
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    info["blas_threads"] = _blas_threads()
    info["blas_env"] = {k: os.environ[k] for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                        if k in os.environ}
    return info


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def run_workload(args):
    if not os.path.isdir(os.path.join(SRC, "streetbeam")):
        print(f"error: no streetbeam sources under {SRC}", file=sys.stderr)
        return 2
    import logging
    # the CLI's own basicConfig becomes a no-op; warnings go to stderr
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    work = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    wl = WORKLOADS[args.workload](work, args.seed, args.tiny)
    try:
        return _run(wl, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(wl, args):
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}{' tiny' if args.tiny else ''}")
    print(f"why: {WHY[wl.name]}")
    print("machine " + json.dumps(machine_block(), sort_keys=True))

    # set-up: fresh processes, then this process's import and data load
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    reps = []
    try:
        for r in range(wl.setup_reps):
            with SpeedProbe() as probe:
                wl.setup_once(r, env)
            reps.append(probe)
    except (RuntimeError, OSError) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    setup_digests = wl.setup_digests()
    with SpeedProbe() as local:
        t0 = time.perf_counter()
        sys.path.insert(0, SRC)
        import streetbeam.cli  # noqa: F401
        import_s = time.perf_counter() - t0
        wl.prepare()
    setup_s = statistics.median(p.ref for p in reps) + local.ref
    setup_wall = statistics.median(p.wall for p in reps) + local.wall
    print(f"setup: {len(reps)} fresh-process repetitions {[round(p.wall, 3) for p in reps]} s "
          f"wall (reference {[round(p.ref, 3) for p in reps]} s), in-process import and "
          f"load {local.wall:.3f} s wall")
    problems = []
    if len(set(setup_digests)) > 1:
        problems.append(f"set-up repetitions disagree: {setup_digests}")

    # passes: closed loop, one client. Every pass is measured: a user's CLI
    # command always runs cold, and the first pass is only 0-6% slower than
    # later ones. With --trace 1, untraced and traced passes alternate, so
    # drift hits both alike.
    ops = Ops()
    tracer = None
    untraced, traced, digests, rates = [], [], [], {}
    start = time.perf_counter()
    last = 0.0
    i = 0
    while True:
        # start a pass only if it should end within the budget
        if (untraced and (traced or not args.trace)
                and time.perf_counter() - start + last > args.seconds):
            break
        t = time.perf_counter()
        kind = "traced" if args.trace and len(traced) < len(untraced) else "measured"
        if kind == "traced":
            if tracer is None:
                from spans import Tracer
                tracer = Tracer()
            tracer.install()
            ops.start_pass()
            with SpeedProbe() as probe:
                (digest, work), _ = tracer.span("bench.pass", wl.run_pass, i, ops)
            tracer.uninstall()
        else:
            ops.start_pass()
            with SpeedProbe() as probe:
                digest, work = wl.run_pass(i, ops)
        last = time.perf_counter() - t
        digests.append(digest)
        print(f"pass {i} {kind}: {probe.wall:.4f} s wall, {probe.ref:.4f} reference s "
              f"(speed factor {probe.factor:.3f}), work {work}, digest {digest}")
        i += 1
        (traced if kind == "traced" else untraced).append(probe)
        if kind == "measured":
            for name, (units, secs) in work.items():
                rates.setdefault(name, []).append(
                    units / ((probe.wall if secs is None else secs) * probe.factor))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # output checks
    if len(set(digests)) > 1:
        problems.append(f"repetitions on seed {args.seed} disagree: {digests}")
    disagreement = ops.disagreement()
    if disagreement:
        problems.append(disagreement)
    if None in digests:
        problems.append("a pass left no output to check")
    else:
        problems += wl.check()
    for name, msg in ops.failures:
        print(f"failed operation: {name}: {msg}")
    for p in problems:
        print(f"output check failed: {p}")
    print(f"outputs: digest {digests[-1]} over {len(digests)} passes, "
          f"set-up digests {sorted(set(setup_digests))}, "
          f"check {'ok' if not problems else 'FAILED'}")
    print("data-health " + json.dumps(wl.health(), sort_keys=True))

    # end-to-end metrics
    run_s = statistics.median(p.ref for p in untraced)
    e2e = {"setup_s": (setup_s, len(reps)), "run_s": (run_s, len(untraced)),
           "peak_rss_mb": (peak_rss_mb, 1),
           "failed_ops_ratio": (len(ops.failures) / ops.attempted, ops.attempted)}
    e2e.update((name, (statistics.median(v), len(v))) for name, v in rates.items())
    for name, unit in E2E_UNITS.items():
        if name in e2e:
            v, n = e2e[name]
            print(f"metric {name} = {v:.6g} {unit} (n={n})")
        else:
            print(f"metric {name} = n/a (not measured by {wl.name})")
    for label, ps in (("reference", [p.ref for p in untraced]),
                      ("wall", [p.wall for p in untraced])):
        lo, hi = quartiles(ps)
        print(f"run_s {label}: median {statistics.median(ps):.4f} s, quartiles "
              f"{lo:.4f} .. {hi:.4f} s over {len(ps)} passes")
    print(f"setup_s wall: {setup_wall:.4f} s")

    if args.trace:
        from spans import hot_spots, per_layer_metrics, span_cost
        spans_per_pass = len(tracer.spans) / len(traced)
        tracer.add_ticks([tick for p in traced for tick in p.ticks])
        overhead = statistics.median(p.ref for p in traced) - run_s
        diffs = [t.ref - u.ref for u, t in zip(untraced, traced)]
        lo, hi = quartiles(diffs)
        per_span = span_cost()  # wall seconds, scaled like the last traced pass
        estimate = spans_per_pass * per_span * traced[-1].factor
        metrics, self_by = per_layer_metrics(tracer, len(traced), import_s, overhead, estimate,
                                             spans_per_pass)
        for name, (v, unit) in metrics.items():
            print(f"layer {name} = {v:.6g} {unit}")
        # spans are raw wall time, so shares are of the traced passes' wall time
        traced_wall = sum(p.wall for p in traced)
        for rank, (name, s) in enumerate(hot_spots(self_by), 1):
            print(f"hotspot {rank}: {name} self {s / len(traced):.4f} s per pass "
                  f"({100 * s / traced_wall:.1f}% of traced wall time)")
        # resolved only if the paired differences agree in sign
        resolved = len(diffs) >= 3 and (lo > 0 or hi < 0)
        print(f"tracing overhead: {overhead:.4f} reference s per pass "
              f"{'resolved' if resolved else 'unresolved, below run-to-run spread'} "
              f"(traced {statistics.median(p.ref for p in traced):.4f} s vs untraced "
              f"{run_s:.4f} s; paired differences quartiles {lo:.4f} .. {hi:.4f} s, "
              f"n={len(diffs)}); estimate from span cost {estimate:.4f} s "
              f"({spans_per_pass:.0f} spans x {1e6 * per_span:.2f} us)")
        os.makedirs(WORK, exist_ok=True)
        tracer.write(os.path.join(WORK, f"spans-{wl.name}-{args.seed}.jsonl"))
        out = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    else:
        out = {"setup_s": {"value": setup_s, "unit": "s"},
               "run_s": {"value": run_s, "unit": "s"},
               "work_per_s": {"value": e2e.get(wl.rate, (0.0,))[0], "unit": "1/s"},
               "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"}}
    print(json.dumps({"correct": not problems, "attempted": ops.attempted,
                      "failed": len(ops.failures), "metrics": out}))
    return 0


def run_all(args):
    """Each workload in its own fresh process."""
    import subprocess
    rc = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        rc = max(rc, subprocess.run(cmd).returncode)
    return rc


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny sizes for the harness smoke check")
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
