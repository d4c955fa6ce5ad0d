"""Outside-in tracing for the benchmark: wrap public clpdd functions, record spans.

Nothing here edits the program. `install` replaces a function at every
module attribute that binds it (``clpdd.encoder.encode`` and
``clpdd.distill.encode`` are the same object, so both get the wrapper), or
on its class for methods, and returns what `restore` needs to put the
originals back. A target whose module or attribute no longer exists is
reported absent instead of failing the run.

A span is ``[name, start_ns, end_ns, parent_index, rows, extra]``. Spans nest
strictly because clpdd runs single-threaded here (``CLPDD_THREADS`` unset), so
a stack gives each span its parent. Self time is a span's duration minus the
durations of its direct children.
"""

import importlib
import os
import statistics
import sys
import time
from functools import wraps


def _first_rows(args, result):
    return args[0].shape[0]


def _second_rows(args, result):
    return args[1].shape[0]


def _solution_mode(args, result):
    return result.mode


def _size_of_first(args, result):
    return os.path.getsize(args[0])


def _size_of_second(args, result):
    return os.path.getsize(args[1])


# (span name, owner, attribute, rows extractor, extra extractor).
# owner is "module" for functions or "module:Class" for methods; several
# targets may share a span name (the selection baselines, the report writers).
TARGETS = (
    ("cli.main", "clpdd.cli", "main", None, None),
    ("data.gen_blobs", "clpdd.data", "gen_blobs", None, None),
    ("data.load_features", "clpdd.data", "load_features", None, _size_of_first),
    ("data.save_features", "clpdd.data", "save_features", None, _size_of_second),
    ("data.class_indices", "clpdd.data:Dataset", "class_indices", None, None),
    ("distill.run_distill", "clpdd.distill", "run_distill", None, None),
    ("distill.distill_step", "clpdd.distill", "distill_step", None, None),
    ("distill.augment", "clpdd.distill", "augment", None, None),
    ("distill.sample_balanced_batch", "clpdd.distill", "sample_balanced_batch", None, None),
    ("distill.meta_loss_and_grad", "clpdd.distill", "meta_loss_and_grad", None, None),
    ("distill.adam_update", "clpdd.distill", "adam_update", None, None),
    ("objective.make_outer_batch", "clpdd.objective", "make_outer_batch", None, None),
    ("objective.class_anchor_loss", "clpdd.objective", "class_anchor_loss", None, None),
    ("objective.class_anchor_grad_w", "clpdd.objective", "class_anchor_grad_w", None, None),
    ("objective.mse_outer_loss", "clpdd.objective", "mse_outer_loss", None, None),
    ("objective.mse_outer_grad_w", "clpdd.objective", "mse_outer_grad_w", None, None),
    ("encoder.encode", "clpdd.encoder", "encode", _second_rows, None),
    ("encoder.encode_vjp", "clpdd.encoder", "encode_vjp", None, None),
    ("solver.ridge_kernel", "clpdd.solver", "ridge_kernel", None, _solution_mode),
    ("solver.solve_backward", "clpdd.solver", "solve_backward", None, None),
    ("linalg.cholesky_factor", "clpdd.linalg", "cholesky_factor", _first_rows, None),
    ("linalg.CholeskyFactor.solve", "clpdd.linalg:CholeskyFactor", "solve", None, None),
    ("evaluation.train_linear_probe", "clpdd.evaluation", "train_linear_probe", None, None),
    ("evaluation.select", "clpdd.evaluation", "select_random", None, None),
    ("evaluation.select", "clpdd.evaluation", "select_centroid", None, None),
    ("evaluation.select", "clpdd.evaluation", "select_neighbor", None, None),
    ("report.save", "clpdd.report:RunReport", "save_json", None, _size_of_second),
    ("report.save", "clpdd.report:RunReport", "save_curve_csv", None, _size_of_second),
)

# per-iteration metrics divide by the number of distill_step calls
PER_ITER_SELF = (
    "data.class_indices",
    "distill.sample_balanced_batch",
    "objective.make_outer_batch",
    "encoder.encode",
    "encoder.encode_vjp",
    "solver.ridge_kernel",
    "solver.solve_backward",
    "linalg.cholesky_factor",
    "linalg.CholeskyFactor.solve",
    "objective.class_anchor_loss",
    "objective.class_anchor_grad_w",
    "objective.mse_outer_loss",
    "objective.mse_outer_grad_w",
    "distill.adam_update",
    "distill.augment",
    "distill.distill_step",
    "distill.meta_loss_and_grad",
    "distill.run_distill",
)

# name -> unit for every per-layer metric a traced run reports
LAYER_METRICS = {
    **{f"{name}.self_us_per_iter": "us" for name in PER_ITER_SELF},
    "data.class_indices.calls_per_iter": "count",
    "linalg.CholeskyFactor.solve.calls_per_iter": "count",
    "encoder.encode.rows_per_iter": "rows",
    "solver.ridge_kernel.kernel_frac": "ratio",
    "linalg.cholesky_factor.order": "rows",
    "evaluation.train_linear_probe.calls": "count",
    "evaluation.train_linear_probe.self_s": "s",
    "evaluation.select.self_s": "s",
    "data.gen_blobs.s": "s",
    "data.load_features.s": "s",
    "data.load_features.bytes": "B",
    "data.save_features.bytes": "B",
    "report.save.s": "s",
    "report.save.bytes": "B",
    "cli.self_s": "s",
    "trace.coverage_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


class SpanRecorder:
    """Keeps spans in memory; `wrap` makes a recording stand-in for a function."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, rows=None, extra=None):
        spans, stack, clock = self.spans, self._stack, self.clock

        @wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if rows is not None:
                span[4] = _extract(rows, args, result)
            if extra is not None:
                span[5] = _extract(extra, args, result)
            return result

        return wrapper


def _extract(fn, args, result):
    # a later signature change must cost the annotation, not the run
    try:
        return fn(args, result)
    except (AttributeError, IndexError, TypeError, OSError):
        return None


def _bindings(package: str, original):
    """(module, attribute) pairs under `package` whose value is `original`."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                found.append((mod, attr))
    return found


def install(targets, make_wrapper, package="clpdd"):
    """Replace each target at every binding; returns (restore list, absent names).

    `make_wrapper(span_name, fn, rows, extra)` builds the stand-in. The
    restore list holds (owner, attribute, original) in installation order.
    """
    patched, absent = [], []
    for name, owner, attr, rows, extra in targets:
        mod_name, _, cls_name = owner.partition(":")
        try:
            holder = importlib.import_module(mod_name)
        except ImportError:
            absent.append(f"{owner}.{attr}")
            continue
        if cls_name:
            holder = getattr(holder, cls_name, None)
            if holder is None or attr not in vars(holder):
                absent.append(f"{owner}.{attr}")
                continue
            original = vars(holder)[attr]
            places = [(holder, attr)]
        else:
            original = getattr(holder, attr, None)
            if not callable(original):
                absent.append(f"{owner}.{attr}")
                continue
            places = _bindings(package, original)
        wrapper = make_wrapper(name, original, rows, extra)
        for place, place_attr in places:
            setattr(place, place_attr, wrapper)
            patched.append((place, place_attr, original))
    return patched, absent


def restore(patched):
    for place, attr, original in reversed(patched):
        setattr(place, attr, original)


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Every LAYER_METRICS value for one traced session except the overhead."""
    selfs = self_times(spans)
    calls, self_ns, total_ns, rows, extras = {}, {}, {}, {}, {}
    for span, own in zip(spans, selfs):
        name = span[0]
        calls[name] = calls.get(name, 0) + 1
        self_ns[name] = self_ns.get(name, 0) + own
        total_ns[name] = total_ns.get(name, 0) + span[2] - span[1]
        if span[4] is not None:
            rows.setdefault(name, []).append(span[4])
        if span[5] is not None:
            extras.setdefault(name, []).append(span[5])
    iters = calls.get("distill.distill_step", 0)
    per_iter = max(iters, 1)

    def count(name):
        return calls.get(name, 0) / per_iter

    out = {f"{name}.self_us_per_iter": self_ns.get(name, 0) / 1e3 / per_iter
           for name in PER_ITER_SELF}
    modes = extras.get("solver.ridge_kernel", [])
    orders = rows.get("linalg.cholesky_factor", [])
    run_total = total_ns.get("distill.run_distill", 0)
    out.update({
        "data.class_indices.calls_per_iter": count("data.class_indices"),
        "linalg.CholeskyFactor.solve.calls_per_iter": count("linalg.CholeskyFactor.solve"),
        "encoder.encode.rows_per_iter": sum(rows.get("encoder.encode", [])) / per_iter,
        "solver.ridge_kernel.kernel_frac": modes.count("kernel") / len(modes) if modes else 0.0,
        "linalg.cholesky_factor.order": statistics.median(orders) if orders else 0,
        "evaluation.train_linear_probe.calls": calls.get("evaluation.train_linear_probe", 0),
        "evaluation.train_linear_probe.self_s": self_ns.get("evaluation.train_linear_probe", 0) / 1e9,
        "evaluation.select.self_s": self_ns.get("evaluation.select", 0) / 1e9,
        "data.gen_blobs.s": total_ns.get("data.gen_blobs", 0) / 1e9,
        "data.load_features.s": total_ns.get("data.load_features", 0) / 1e9,
        "data.load_features.bytes": sum(extras.get("data.load_features", [])),
        "data.save_features.bytes": sum(extras.get("data.save_features", [])),
        "report.save.s": total_ns.get("report.save", 0) / 1e9,
        "report.save.bytes": sum(extras.get("report.save", [])),
        "cli.self_s": self_ns.get("cli.main", 0) / 1e9,
        # share of run_distill's wall time that lands in some wrapped callee
        "trace.coverage_frac": (
            1.0 - self_ns["distill.run_distill"] / run_total if run_total else 0.0
        ),
    })
    return out


def spans_json(spans) -> dict:
    """Compact JSON form: a name table plus [name_index, start, end, parent, rows, extra]."""
    names = sorted({span[0] for span in spans})
    index = {name: i for i, name in enumerate(names)}
    return {
        "fields": ["name", "start_ns", "end_ns", "parent", "rows", "extra"],
        "names": names,
        "spans": [[index[s[0]], *s[1:]] for s in spans],
    }
