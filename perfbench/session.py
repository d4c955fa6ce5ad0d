"""One user session: a fresh interpreter runs a list of clpdd CLI commands.

Usage: python session.py SPEC.json

SPEC holds {"src": dir clpdd must be imported from, "commands": [argv, ...],
"trace": bool, "out": result path, "spans_out": path or null}. The parent
(run.py) pins the BLAS thread counts in the environment, so they hold before
numpy is first imported, which happens inside `import clpdd` below.

Untraced, the only stand-ins are two timers: one on `distill_step` (latency
per step, and the end of set-up) and one on the CLI's `train_linear_probe`.
Traced, every spans.TARGETS function records spans instead.
"""

import json
import os
import resource
import sys
import time
import traceback

import spans


def _timer(sink):
    clock = time.perf_counter_ns

    def make(name, fn, rows, extra):
        def timed(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            sink.append((start, clock()))
            return result

        return timed

    return make


def main(spec_path) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    sys.path.insert(0, spec["src"])
    t0_ns = time.perf_counter_ns()
    import clpdd
    import clpdd.cli

    if not os.path.abspath(clpdd.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        print(f"clpdd imported from {clpdd.__file__}, not {spec['src']}", file=sys.stderr)
        return 2

    steps, probes = [], []
    recorder = spans.SpanRecorder()
    if spec["trace"]:
        patched, absent = spans.install(spans.TARGETS, recorder.wrap)
    else:
        patched, absent = spans.install(
            [t for t in spans.TARGETS if t[0] == "distill.distill_step"], _timer(steps)
        )
        more, gone = spans.install(
            [("probe", "clpdd.cli", "train_linear_probe", None, None)], _timer(probes)
        )
        patched += more
        absent += gone

    codes, errors = [], []
    try:
        for argv in spec["commands"]:
            try:
                code = clpdd.cli.main(argv)
            except SystemExit as e:  # argparse rejects its arguments this way
                code = e.code if isinstance(e.code, int) else 1
            except Exception:  # a session boundary: record, count, stop
                errors.append(traceback.format_exc())
                code = None
            codes.append(code)
            if code != 0:
                break
        end_ns = time.perf_counter_ns()
    finally:
        spans.restore(patched)

    result = {
        "codes": codes,
        "errors": errors,
        "absent": absent,
        "job_s": (end_ns - t0_ns) / 1e9,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if spec["trace"]:
        step_starts = [s[1] for s in recorder.spans if s[0] == "distill.distill_step"]
        result["iters"] = len(step_starts)
        result["layers"] = spans.layer_metrics(recorder.spans)
        if spec["spans_out"]:
            with open(spec["spans_out"], "w") as f:
                json.dump(spans.spans_json(recorder.spans), f)
    else:
        step_starts = [start for start, _ in steps]
        result["iters"] = len(steps)
        result["step_us"] = [(end - start) / 1e3 for start, end in steps]
        result["probe_s"] = [(end - start) / 1e9 for start, end in probes]
    # set-up ends where the first distill_step begins
    result["setup_s"] = (step_starts[0] - t0_ns) / 1e9 if step_starts else None
    with open(spec["out"], "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print("usage: session.py SPEC.json", file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
