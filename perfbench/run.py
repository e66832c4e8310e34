#!/usr/bin/env python3
"""freeholo benchmark: one workload, one process, one client, closed loop.

Usage (from the repository root)::

    python3 perfbench/run.py --workload eval --seed 1 --seconds 18 --trace 0

Workloads: eval, fit, approx, cli (see perfbench/README.md). Operations are
sent one at a time; each waits for the previous one. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` runs the same loop untraced and then
traced and reports the per-layer metrics. The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the full
record (environment, input descriptor, per-class latencies, spans) goes to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

import os
import sys
import time

T_START = time.perf_counter()

# Pin BLAS threads before numpy loads: one thread keeps timings steady on a
# shared 2-core machine and leaves the second core to the rest of the system.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

COLD_RUNS = 16
SETUP_RUNS = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("eval", "fit", "approx", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment():
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except Exception:  # older numpy has no dict mode; the record stays partial
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


class Verifier:
    """Checks every output: fully the first time an operation's output is
    seen, afterwards by equality with that checked output (the program is
    deterministic for identical inputs; a differing output is checked fully)."""

    def __init__(self):
        self.checked = {}
        self.full_checks = 0
        self.errors = []

    def __call__(self, op, out):
        key = id(op)
        digest = op.digest(out)
        if self.checked.get(key) == digest:
            return True
        try:
            op.check(out)
        except Exception as exc:  # a failed or crashing check fails the operation
            self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
            return False
        self.full_checks += 1
        self.checked.setdefault(key, digest)
        return True


def closed_loop(ops, seconds, verify, tracer=None, between=()):
    """Run the cycle of ops until ``seconds`` of operation time have passed.

    The callables in ``between`` run in order, spread evenly over the run
    and outside the timed intervals.
    """
    n_between = len(between)
    lat, labels = [], []
    failed = 0
    budget = int(seconds * 1e9)
    busy = 0
    i = n_between_done = 0
    while busy < budget:
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.current_op = i
            tracer.enabled = True
        err = None
        t0 = time.perf_counter_ns()
        try:
            out = op.run()
        except (Exception, SystemExit) as exc:
            err = exc
        dt = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.enabled = False
        if err is not None:
            verify.errors.append(f"{op.label}: raised {type(err).__name__}: {err}")
            failed += 1
        elif not verify(op, out):
            failed += 1
        lat.append(dt)
        labels.append(op.label)
        busy += dt
        i += 1
        while n_between_done < n_between and busy >= budget * (n_between_done + 0.5) / n_between:
            between[n_between_done]()
            n_between_done += 1
    for task in between[n_between_done:]:
        task()
    steady = steady_latencies(lat, ops)
    return {"lat": lat, "labels": labels, "failed": failed, "busy_ns": busy,
            "cycles": len(lat) // len(ops), "steady_ms": steady,
            "ops_per_s": len(steady) / (sum(steady) / 1e3)}


def steady_latencies(lat_ns, ops):
    """Per position in the cycle, the fastest run of its operation, in ms.

    Each operation is one fixed input with deterministic work, run once per
    cycle at each of its positions. On a shared machine, contention comes
    in phases of seconds that slow everything by up to ~1.5x and only ever
    adds time, so the best of an operation's runs is its steadiest estimate
    (the raw median and p90 are kept in the record).
    """
    best = {}
    for i, dt in enumerate(lat_ns):
        key = id(ops[i % len(ops)])
        best[key] = min(best.get(key, dt), dt)
    return [best[id(op)] / 1e6 for op in ops[: len(lat_ns)]]


def percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def per_class(lat, labels):
    groups = {}
    for dt, label in zip(lat, labels):
        groups.setdefault(label, []).append(dt / 1e6)
    return {k: {"count": len(v), "p50_ms": statistics.median(v)} for k, v in groups.items()}


def import_seconds():
    """Time of ``import freeholo.cli`` (numpy included) in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import freeholo.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=SRC),
                          cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def set_up(build, seed, workdir):
    """Generate the inputs and make one warm-up call per operation class."""
    t0 = time.perf_counter()
    wl = build(seed, workdir)
    warm = {}
    for op in wl.ops:
        if op.label not in warm:
            warm[op.label] = (op, op.run())
    return wl, warm, time.perf_counter() - t0


class ColdCli:
    """Wall time of fresh ``python -m freeholo.cli eval`` processes.

    Launches are spread over the run (between operations), so a noisy
    phase of a shared machine hits only some of them; the best is reported.
    """

    def __init__(self, workdir):
        from freeholo.freepoly import GradedPoint
        from workloads import FLAGSHIP, write_json

        point = write_json(workdir, "cold_point.json",
                           GradedPoint.scalars([1.0, 1.0]).to_json())
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.argv = [sys.executable, "-m", "freeholo.cli", "eval", "--expr", FLAGSHIP,
                     "--vars", "2", "--point", point]
        self.times = []
        self.errors = []
        self.launch()  # warms the page cache; not recorded
        self.times.clear()

    def launch(self):
        from workloads import strict_json

        t0 = time.perf_counter()
        proc = subprocess.run(self.argv, env=self.env, cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        self.times.append((time.perf_counter() - t0) * 1e3)
        try:
            ok = proc.returncode == 0 and strict_json(proc.stdout)["value"]["data"] == [[5.0, 0.0]]
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            self.errors.append(f"cold cli eval: exit {proc.returncode} {proc.stderr[-300:]}")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "freeholo", "__init__.py")):
        print(f"error: no freeholo sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy  # noqa: F401
    import freeholo.cli  # noqa: F401
    import tracing
    import workloads

    import_s = time.perf_counter() - T_START
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        return run(args, import_s, workdir, tracing, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, import_s, workdir, tracing, workloads):
    build = workloads.BUILDERS[args.workload]
    verify = Verifier()
    wl, warm, first_setup = set_up(build, args.seed, workdir)
    warm_failed = sum(not verify(op, out) for op, out in warm.values())
    # Keep the set-up's objects out of the collector's scans during the loop.
    gc.collect()
    gc.freeze()

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, 1 client, 1 process",
        "environment": environment(),
        "input": wl.descriptor,
        "setup": {"process_import_s": import_s, "build_and_warmup_s": [first_setup]},
    }
    if args.trace:
        metrics, loop = traced_metrics(args, wl, verify, tracing, record)
    else:
        # Set-up and import are timed again between operations, spread over
        # the run like the cold launches; setup_s takes the best of each.
        setup_times, import_times = [first_setup], [import_seconds()]
        extra_dir = os.path.join(workdir, "setup")
        os.makedirs(extra_dir)

        def again():
            setup_times.append(set_up(build, args.seed, extra_dir)[2])
            import_times.append(import_seconds())

        cold = ColdCli(workdir)
        per_slot = COLD_RUNS // (SETUP_RUNS - 1)
        tasks = ([cold.launch] * per_slot + [again]) * (SETUP_RUNS - 1)
        loop = closed_loop(wl.ops, args.seconds, verify, between=tasks)
        setup_s = min(import_times) + min(setup_times)
        record["setup"] = {"process_import_s": import_s, "import_s": import_times,
                           "build_and_warmup_s": setup_times}
        steady = loop["steady_ms"]
        metrics = {
            "ops_per_s": (loop["ops_per_s"], "1/s"),
            "op_p50_ms": (percentile(steady, 50), "ms"),
            "op_p90_ms": (percentile(steady, 90), "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "cli_cold_ms": (min(cold.times), "ms"),
        }
        lat_ms = [v / 1e6 for v in loop["lat"]]
        record["raw"] = {
            "ops_per_s": len(lat_ms) / (loop["busy_ns"] / 1e9),
            "op_p50_ms": percentile(lat_ms, 50),
            "op_p90_ms": percentile(lat_ms, 90),
            "cli_cold_median_ms": statistics.median(cold.times),
        }
        record["latencies_ms"] = lat_ms
        record["steady_ms"] = steady
        record["cli_cold_runs_ms"] = cold.times
        record["per_class"] = per_class(loop["lat"], loop["labels"])
        loop["extra_attempted"] = len(cold.times)
        loop["failed"] += len(cold.errors)
        verify.errors += cold.errors
    attempted = len(loop["lat"]) + loop.get("extra_attempted", 0) + len(warm)
    failed = loop["failed"] + warm_failed
    record.update({
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "cycles": loop["cycles"],
        "full_checks": verify.full_checks, "errors": verify.errors[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for err in verify.errors[:5]:
        print(f"FAILED {err}")
    if not args.trace:
        print(f"workload {args.workload} seed {args.seed}: {attempted} ops, "
              f"{loop['cycles']} cycles, failed_ratio {failed / attempted:.4f}")
        for name, (value, unit) in metrics.items():
            note = ""
            if name.startswith("op_p") or name == "ops_per_s":
                note = (f" (n={len(loop['lat'])} ops over {len(loop['steady_ms'])} cycle"
                        f" positions, best run per input)")
            if name == "cli_cold_ms":
                note = f" (best of {COLD_RUNS} launches)"
            if name == "setup_s":
                note = f" (best of {SETUP_RUNS} imports + best of {SETUP_RUNS} set-ups)"
            print(f"{name} = {value:.6g} {unit}{note}")
        raw = record["raw"]
        print(f"raw over all operations: {raw['ops_per_s']:.6g} ops/s, "
              f"p50 {raw['op_p50_ms']:.6g} ms, p90 {raw['op_p90_ms']:.6g} ms")
    print(f"record: {os.path.relpath(path, ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def traced_metrics(args, wl, verify, tracing, record):
    """Untraced then traced loops of equal length; per-layer metrics."""
    plain = closed_loop(wl.ops, args.seconds, verify)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        loop = closed_loop(wl.ops, args.seconds, verify, tracer)
    finally:
        tracer.uninstall()
    labels = dict(enumerate(loop["labels"]))
    metrics, overall, by_class, counters, n_spans = tracer.summary(labels, loop["busy_ns"])
    metrics["trace.ops_per_s"] = (loop["ops_per_s"], "1/s")
    metrics["trace.untraced_ops_per_s"] = (plain["ops_per_s"], "1/s")
    metrics["trace.overhead"] = (plain["ops_per_s"] / loop["ops_per_s"] - 1.0, "ratio")
    loop["failed"] += plain["failed"]
    loop["extra_attempted"] = len(plain["lat"])
    record["trace_summary"] = {
        "spans": n_spans, "absent": tracer.absent,
        "op_wall_ms": loop["busy_ns"] / 1e6,
        "ops": len(loop["lat"]),
        "per_class_ops": {k: v["count"] for k, v in per_class(loop["lat"], loop["labels"]).items()},
        "functions": overall,
        "counters": counters,
        "by_class": by_class,
    }
    return metrics, loop


if __name__ == "__main__":
    sys.exit(main())
