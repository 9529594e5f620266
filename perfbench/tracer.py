"""Spans around redbergman's public functions, for the traced run.

``Tracer.install`` replaces each traced function with a wrapper wherever
a redbergman module holds it, so names that ``cli`` imported at load
time (``orthonormalize``, ``verify_proper``, ...) and module globals
reached from inside the library (``kernel.gram_matrix``,
``transform.branch_table``) are traced at their call sites.  Methods are
patched on the class that defines them; a subclass that overrides one
would escape the trace, so install refuses that case.

Each span records (name, start, end, parent).  A layer's self time is
its spans' durations minus the durations of their direct children.
``BasisElement.eval`` is deliberately not traced: a CSV pass calls it
~800k times and the span cost would swamp it.
"""

import functools
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

from redbergman import cli, geometry, holobasis, kernel, oracles, propermaps, transform


def _count_rule(counts, rule, args):
    counts["geometry.nodes"] += len(rule)


def _count_values(counts, vals, args):
    counts["holobasis.values_entries"] += vals.size


def _count_gram(counts, gram, args):
    basis, rule = args[:2]
    # one complex multiply-add per (node, element pair): 8 real flops
    counts["kernel.gram_gflop"] += 8.0 * len(rule) * len(basis) ** 2 / 1e9


def _count_dropped(counts, onb, args):
    counts["kernel.dropped"] += len(args[0]) - onb.retained_count


def _count_node_bytes(counts, _none, args):
    ev = args[0]
    counts["kernel.node_bytes"] += ev._node_phi.nbytes + ev._node_nu.nbytes


def _count_sweep(counts, report, args):
    counts["transform.samples"] += report.n_samples - report.excluded
    counts["transform.excluded"] += report.excluded


def _count_recovery(counts, rec, args):
    counts["transform.samples"] += len(rec.points) - rec.excluded
    counts["transform.excluded"] += rec.excluded


def _count_csv(counts, _none, args):
    path, _header, rows = args
    counts["cli.csv_rows"] += len(rows)
    counts["cli.csv_bytes"] += os.path.getsize(path)


# (owner, attribute, span name, hook(counts, result, positional args) or None)
TARGETS = [
    (geometry, "build_disc_quadrature", "geometry.rule", _count_rule),
    (geometry, "build_annulus_quadrature", "geometry.rule", _count_rule),
    (geometry, "build_generic_quadrature", "geometry.rule", _count_rule),
    (holobasis.RawBasis, "values", "holobasis.values", _count_values),
    (kernel, "gram_matrix", "kernel.gram", _count_gram),
    (kernel, "orthonormalize", "kernel.orthonormalize", _count_dropped),
    (kernel.KernelEvaluator, "__init__", "kernel.evaluator_init", _count_node_bytes),
    (kernel.KernelEvaluator, "eval_kernel_grid", "kernel.eval_grid", None),
    (kernel.KernelEvaluator, "eval_kernel", "kernel.eval_scalar", None),
    (propermaps.ProperMap, "local_inverses", "propermaps.branch", None),
    (propermaps.CorrespondenceModel, "forward_branches", "propermaps.branch", None),
    (propermaps.CorrespondenceModel, "backward_branches", "propermaps.branch", None),
    (propermaps.ProperMap, "critical_points", "propermaps.model_init", None),
    (propermaps.CorrespondenceModel, "__post_init__", "propermaps.model_init", None),
    (transform, "branch_table", "transform.branch_table", None),
    (transform, "adjoint_residual_matrix", "transform.adjoint", None),
    (transform, "operator_bound_check", "transform.adjoint", None),
    (transform, "verify_proper", "transform.sweep", _count_sweep),
    (transform, "verify_correspondence", "transform.sweep", _count_sweep),
    (transform, "recover_map", "transform.recover", _count_recovery),
    (oracles, "disc_kernel", "oracles", None),
    (oracles, "disc_power_weight_kernel", "oracles", None),
    (oracles, "annulus_kernel", "oracles", None),
    (cli, "execute", "cli.execute", None),
    (cli, "_write_residual_csv", "cli.csv_path", None),
    (cli, "write_csv", "cli.csv_write", _count_csv),
    (cli.RunDir, "write_summary", "cli.summary", None),
]

# per-layer metric -> span whose self time it reports
SELF_TIMES = {
    "geometry.rule_s": "geometry.rule",
    "holobasis.values_s": "holobasis.values",
    "kernel.gram_s": "kernel.gram",
    "kernel.orthonormalize_self_s": "kernel.orthonormalize",
    "kernel.evaluator_init_s": "kernel.evaluator_init",
    "kernel.eval_grid_s": "kernel.eval_grid",
    "kernel.eval_scalar_s": "kernel.eval_scalar",
    "propermaps.branch_s": "propermaps.branch",
    "propermaps.model_init_s": "propermaps.model_init",
    "transform.branch_table_s": "transform.branch_table",
    "transform.adjoint_s": "transform.adjoint",
    "transform.sweep_s": "transform.sweep",
    "transform.recover_s": "transform.recover",
    "oracles.s": "oracles",
    "cli.csv_write_s": "cli.csv_write",
    "cli.summary_s": "cli.summary",
}
# per-layer metric -> span whose number of calls it reports
CALLS = {
    "holobasis.values_calls": "holobasis.values",
    "kernel.eval_grid_calls": "kernel.eval_grid",
    "kernel.eval_scalar_calls": "kernel.eval_scalar",
    "propermaps.branch_calls": "propermaps.branch",
    "transform.branch_table_calls": "transform.branch_table",
}
COUNTS = ("geometry.nodes", "holobasis.values_entries", "kernel.gram_gflop",
          "kernel.dropped", "kernel.node_bytes", "transform.samples",
          "transform.excluded", "cli.csv_rows", "cli.csv_bytes")


class Tracer:
    """Span recorder for one traced pass; install before, uninstall after."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None]
        self.calls = Counter()
        self.failed = Counter()
        self.counts = Counter()
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a method calling itself (eval_kernel swaps its arguments) is one call
            if stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(index)
            self.calls[name] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed[name] += 1
                raise
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if hook is not None:
                hook(self.counts, result, args)
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "redbergman" or n.startswith("redbergman.")]
        for owner, attr, name, hook in TARGETS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, hook)
            if inspect.isclass(owner):
                for sub in _subclasses(owner):
                    if attr in sub.__dict__:
                        raise RuntimeError(f"{sub.__name__}.{attr} overrides a traced method")
                self._patch(owner, attr, original, wrapper)
                continue
            # every module that bound the function by name calls it through that binding
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def self_times(self):
        out = defaultdict(float)
        for name, start, end, parent in self.spans:
            out[name] += end - start
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return out

    def inclusive_time(self, name):
        return sum((end - start for n, start, end, _ in self.spans if n == name), 0.0)

    def layer_metrics(self):
        """Per-layer values of this pass, keyed by metric name."""
        self_t = self.self_times()
        out = {metric: self_t.get(span, 0.0) for metric, span in SELF_TIMES.items()}
        out.update({metric: self.calls[span] for metric, span in CALLS.items()})
        out.update({name: self.counts[name] for name in COUNTS})
        out["cli.csv_path_s"] = self.inclusive_time("cli.csv_path")
        calls = self.calls["propermaps.branch"]
        failed = self.failed["propermaps.branch"]
        out["propermaps.branch_failed"] = failed
        # no branch solves means none failed
        out["propermaps.branch_ok_ratio"] = (calls - failed) / calls if calls else 1.0
        return out


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)
