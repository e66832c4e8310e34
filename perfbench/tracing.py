"""Spans around freeholo's public functions, installed from outside the package.

A :class:`Tracer` rebinds each listed function to a wrapper that records a
span (name, parent span, operation id, start and end in ns, counters). The
name is rebound in the defining module and in every ``freeholo`` module that
imported it by name, and restored by :meth:`Tracer.uninstall`. A function
missing from the commit under test is skipped and reported as absent.

Spans stay in memory; :meth:`Tracer.summary` turns them into per-function
calls, self time and counters at the end of the run. Self time is a span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time


def _count_neumann(args, kwargs, out):
    return {"terms": out.k}


def _count_fit(args, kwargs, out):
    samples = args[0] if args else kwargs["samples"]
    held = set(out.holdout_indices)
    cols = sum(
        samples.points[i].n * samples.psi[i].shape[1]
        for i in range(len(samples))
        if i not in held
    )
    return {"gram_cols": cols, "rank": out.rank, "padded_cols": out.padded_cols}


def _count_pairs(args, kwargs, out):
    levels = {}
    for p in args[0].points:
        levels[p.n] = levels.get(p.n, 0) + 1
    return {"pairs": sum(c * c for c in levels.values())}


def _count_op_norm(args, kwargs, out):
    shape = getattr(args[0], "shape", None) or (0,)
    return {"max_dim": max(shape)}


def _count_checks(args, kwargs, out):
    return {"checks": out.checks}


def _count_closure(args, kwargs, out):
    return {"points": len(out)}


def _count_expand(args, kwargs, out):
    k = args[1] if len(args) > 1 else kwargs["k"]
    return {"k": k, "terms": out.term_count()}


# (module, attribute path, counter reader). The readers look only at
# arguments and return values, so they need no hook inside the package.
TARGETS = (
    ("realize", "eval_neumann", _count_neumann),
    ("realize", "eval_direct", None),
    ("realize", "resolvent_leg", None),
    ("realize", "fit_lurking_isometry", _count_fit),
    ("realize", "corona_solve", None),
    ("model", "model_residual", _count_pairs),
    ("freepoly", "eval_poly_matrix", None),
    ("freepoly", "eval_poly_matrix_promoted", None),
    ("freepoly", "MatrixPoly.__mul__", None),
    ("freepoly", "MatrixPoly.to_json", None),
    ("mat", "op_norm", _count_op_norm),
    ("mat", "complete_to_isometry", None),
    ("ncpoint", "in_gdelta", None),
    ("ncpoint", "check_nc_axioms", _count_checks),
    ("ncpoint", "nc_derivative", None),
    ("approx", "close_under_direct_sums", _count_closure),
    ("approx", "select_covering_delta", None),
    ("approx", "expand_polynomial", _count_expand),
    ("exprlang", "parse", None),
    ("exprlang", "eval_expr", None),
    ("mero", "inversion_certificate", None),
    ("mero", "singular_scan", None),
    ("sampling", "point_inside_gdelta", None),
    ("sampling", "random_invertible", None),
    ("jsonio", "load", None),
    ("jsonio", "load_list", None),
    ("jsonio", "decode", None),
    ("cli", "main", None),
)

LAYERS = (
    "freepoly", "exprlang", "ncpoint", "mat", "model", "realize",
    "approx", "mero", "sampling", "jsonio", "cli",
)

# Counters summed over calls, except those in MAX_COUNTERS.
COUNTERS = {
    "realize.eval_neumann": ("terms",),
    "realize.fit_lurking_isometry": ("gram_cols", "rank", "padded_cols"),
    "model.model_residual": ("pairs",),
    "mat.op_norm": ("max_dim",),
    "ncpoint.check_nc_axioms": ("checks",),
    "approx.close_under_direct_sums": ("points",),
    "approx.expand_polynomial": ("k", "terms"),
}
MAX_COUNTERS = {"mat.op_norm.max_dim"}

# Evaluator spans counted as f_calls under check_nc_axioms.
EVALUATORS = {"realize.eval_direct", "exprlang.eval_expr"}


def span_names():
    return [f"{mod}.{attr}" for mod, attr, _ in TARGETS]


class Tracer:
    """Owns the span buffer and the rebinding of traced names."""

    def __init__(self):
        self.names = span_names()
        self.name_of = []  # per span: index into self.names
        self.parent = []
        self.op = []
        self.start = []
        self.end = []
        self.counters = []
        self.stack = []
        self.current_op = -1
        self.enabled = False
        self.absent = []
        self._saved = []  # (owner object, attribute, original value)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, fn, name_idx, reader):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = len(tracer.name_of)
            tracer.name_of.append(name_idx)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.end.append(0)
            tracer.counters.append(None)
            tracer.stack.append(idx)
            t0 = time.perf_counter_ns()
            tracer.start.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter_ns()
                tracer.stack.pop()
            if reader is not None:
                tracer.counters[idx] = reader(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Rebind every target found; record the absent ones."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "freeholo" or key.startswith("freeholo."))
        ]
        for idx, (mod_name, attr, reader) in enumerate(TARGETS):
            *outer, leaf = attr.split(".")
            try:
                module = importlib.import_module(f"freeholo.{mod_name}")
                owner = module
                for part in outer:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf] if outer else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(self.names[idx])
                continue
            wrapper = self._wrap(original, idx, reader)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)
            if outer:
                continue
            for other in modules:
                if other is module:
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._saved.append((other, key, original))
                        setattr(other, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    # -- summary -------------------------------------------------------------

    def summary(self, op_labels, op_wall_ns):
        """Per-layer metrics plus per-function totals, overall and per class.

        ``op_labels[i]`` is the class of operation ``i`` and ``op_wall_ns``
        the summed wall time of all traced operations.
        """
        n_spans = len(self.name_of)
        child_ns = [0] * n_spans
        for i in range(n_spans):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        empty = {"calls": 0, "self_ns": 0, "total_ns": 0}
        overall = {name: dict(empty) for name in self.names}
        by_class = {}
        counters = {}
        neumann_svds = 0
        f_calls = 0

        def under(i, target):
            p = self.parent[i]
            while p >= 0:
                if self.names[self.name_of[p]] == target:
                    return True
                p = self.parent[p]
            return False

        for i in range(n_spans):
            name = self.names[self.name_of[i]]
            dur = self.end[i] - self.start[i]
            own = dur - child_ns[i]
            for table in (overall, by_class.setdefault(op_labels.get(self.op[i], "-"), {})):
                row = table.setdefault(name, dict(empty))
                row["calls"] += 1
                row["self_ns"] += own
                row["total_ns"] += dur
            c = self.counters[i]
            if c:
                for key, value in c.items():
                    full = f"{name}.{key}"
                    if full in MAX_COUNTERS:
                        counters[full] = max(counters.get(full, 0), value)
                    else:
                        counters[full] = counters.get(full, 0) + value
            if name == "mat.op_norm" and under(i, "realize.eval_neumann"):
                neumann_svds += 1
            if name in EVALUATORS and under(i, "ncpoint.check_nc_axioms"):
                f_calls += 1
        # Work and time are reported per traced operation, so they do not
        # grow with the number of operations a faster commit completes.
        n_ops = max(1, len(op_labels))
        metrics = {}
        for name in self.names:
            row = overall[name]
            metrics[f"{name}.calls"] = (row["calls"] / n_ops, "count/op")
            metrics[f"{name}.self_ms"] = (row["self_ns"] / 1e6 / n_ops, "ms/op")
            for key in COUNTERS.get(name, ()):
                full = f"{name}.{key}"
                value = counters.get(full, 0)
                metrics[full] = (value, "count") if full in MAX_COUNTERS else (
                    value / n_ops, "count/op")
        n_neumann = overall["realize.eval_neumann"]["calls"]
        metrics["mat.op_norm.per_neumann"] = (
            neumann_svds / n_neumann if n_neumann else 0.0, "count")
        metrics["ncpoint.check_nc_axioms.f_calls"] = (f_calls / n_ops, "count/op")
        explained = 0
        for layer in LAYERS:
            own = sum(row["self_ns"] for name, row in overall.items()
                      if name.split(".")[0] == layer)
            explained += own
            metrics[f"{layer}.self_share"] = (own / op_wall_ns if op_wall_ns else 0.0, "ratio")
        metrics["trace.explained_share"] = (
            explained / op_wall_ns if op_wall_ns else 0.0, "ratio")
        return metrics, overall, by_class, counters, n_spans
