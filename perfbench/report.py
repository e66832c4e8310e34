#!/usr/bin/env python3
"""Traced-run report: per-layer tables, explained share, tracing overhead.

Runs ``run.py --trace 1`` on every workload (and ``--trace 0`` on ``cli``
for the cold-start figure), then writes ``perfbench/TRACE_REPORT.md``::

    python3 perfbench/report.py --seed 1 --seconds 18
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import COUNTERS, LAYERS  # noqa: E402

WORKLOADS = ("eval", "fit", "approx", "cli")

# ROADMAP reference rows: (label, workload, function, class prefix, ms per call).
REFERENCE = (
    ("eval_direct n=2, mult=1", "eval", "realize.eval_direct", "n2-m1", 0.49),
    ("eval_direct n=32, mult=4", "eval", "realize.eval_direct", "n32-m4", 13.5),
    ("eval_neumann n=2, mult=1 (tol 1e-10)", "eval", "realize.eval_neumann", "n2-m1", 1.35),
    ("eval_neumann n=32, mult=4 (tol 1e-10)", "eval", "realize.eval_neumann", "n32-m4", 130.0),
    ("expand_polynomial k=4", "approx", "approx.expand_polynomial", "k4", 10.6),
    ("expand_polynomial k=6", "approx", "approx.expand_polynomial", "k6", 87.0),
    ("fit_lurking_isometry, 120 points", "fit", "realize.fit_lurking_isometry", "fit", 210.0),
    ("model_residual, 120 points", "fit", "model.model_residual", "fit", 220.0),
)


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def class_rows(summary, function, prefix):
    """Inclusive and self ms per call of ``function`` over classes with ``prefix``."""
    calls = total = own = 0
    for label, table in summary["by_class"].items():
        if label.startswith(prefix) and function in table:
            calls += table[function]["calls"]
            total += table[function]["total_ns"]
            own += table[function]["self_ns"]
    return (total / calls / 1e6, own / calls / 1e6) if calls else (None, None)


def workload_section(name, rec):
    s = rec["trace_summary"]
    m = {k: v["value"] for k, v in rec["metrics"].items()}
    ops = s["ops"]
    lines = [
        f"## {name}",
        "",
        f"{ops} traced operations, {s['op_wall_ms'] / 1e3:.2f} s of operation time, "
        f"{s['spans']} spans. Untraced {m['trace.untraced_ops_per_s']:.3g} ops/s, "
        f"traced {m['trace.ops_per_s']:.3g} ops/s: tracing overhead "
        f"{100 * m['trace.overhead']:.1f}%. Layer self times explain "
        f"{100 * m['trace.explained_share']:.1f}% of operation wall time."
        + (f" Absent on this commit: {', '.join(s['absent'])}." if s["absent"] else ""),
        "",
        "| layer | self ms/op | share of op wall time |",
        "| --- | ---: | ---: |",
    ]
    for layer in LAYERS:
        own = sum(r["self_ns"] for f, r in s["functions"].items() if f.split(".")[0] == layer)
        lines.append(f"| {layer} | {own / 1e6 / ops:.3f} | {100 * m[f'{layer}.self_share']:.1f}% |")
    lines += [
        "",
        "| function | calls/op | self ms/op | ms/call incl. children | counters per op |",
        "| --- | ---: | ---: | ---: | --- |",
    ]
    for f, r in s["functions"].items():
        if not r["calls"]:
            continue
        counters = ", ".join(f"{c} {m[f'{f}.{c}']:.4g}" for c in COUNTERS.get(f, ()))
        lines.append(f"| {f} | {r['calls'] / ops:.3g} | {r['self_ns'] / 1e6 / ops:.3f} | "
                     f"{r['total_ns'] / 1e6 / r['calls']:.3f} | {counters} |")
    lines.append("")
    return lines


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=18)
    args = p.parse_args()
    recs = {w: run(w, args.seed, args.seconds, 1) for w in WORKLOADS}
    cold = run("cli", args.seed, args.seconds, 0)["metrics"]["cli_cold_ms"]["value"]
    env = recs["eval"]["environment"]
    lines = [
        "# Traced-run report",
        "",
        f"Generated by `python3 perfbench/report.py --seed {args.seed} --seconds "
        f"{args.seconds}`. Machine: {env['nproc']} cores ({env['cpu_model']}), "
        f"Python {env['python']}, numpy {env['numpy']}, BLAS {env['blas'].get('name')} "
        f"{env['blas'].get('version')}, BLAS threads {env['blas_threads']}.",
        "",
        "Self time is a span's duration minus its direct child spans. Spans wrap",
        "only the functions listed in `tracing.TARGETS`, so time in untraced",
        "helpers is charged to the nearest traced caller, and time outside every",
        "span (the benchmark's own call overhead) is the unexplained remainder.",
        "",
    ]
    for w in WORKLOADS:
        lines += workload_section(w, recs[w])
    lines += [
        "## Cross-check against the ROADMAP reference table",
        "",
        "Traced per-call times (inclusive of children) next to the ROADMAP",
        "figures, which were best-of-5 untraced timings on the same kind of",
        "machine. Traced times include the tracing overhead above.",
        "",
        "| case | ROADMAP ms | traced ms/call | self ms/call | ratio |",
        "| --- | ---: | ---: | ---: | ---: |",
    ]
    for label, w, f, prefix, ref in REFERENCE:
        total, own = class_rows(recs[w]["trace_summary"], f, prefix)
        if total is None:
            lines.append(f"| {label} | {ref:g} | absent | | |")
            continue
        lines.append(f"| {label} | {ref:g} | {total:.3g} | {own:.3g} | {total / ref:.2f} |")
    nc = recs["cli"]["trace_summary"]["functions"]["ncpoint.check_nc_axioms"]
    checks = recs["cli"]["trace_summary"]["counters"].get("ncpoint.check_nc_axioms.checks", 0)
    if nc["calls"] and checks:
        per_check = nc["total_ns"] / 1e6 / checks
        lines.append(f"| check_nc_axioms per check (ROADMAP 0.99 s / 442) | {990 / 442:.3g} | "
                     f"{per_check:.3g} | | {per_check / (990 / 442):.2f} |")
    lines.append(f"| CLI `eval` as a subprocess (untraced cli_cold_ms) | 200 | {cold:.3g} | | "
                 f"{cold / 200:.2f} |")
    lines.append("")
    with open(os.path.join(HERE, "TRACE_REPORT.md"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


if __name__ == "__main__":
    main()
