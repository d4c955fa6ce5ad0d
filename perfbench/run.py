"""clpdd benchmark: run one workload for a fixed time and report its metrics.

Usage, from the root of a clpdd checkout:

    python3 perfbench/run.py --workload compare-tiny --seed 0 --seconds 40 --trace 0

Each session is a fresh interpreter (perfbench/session.py) running the
workload's clpdd CLI commands in-process, with BLAS pinned to one thread and
CLPDD_THREADS unset. Sessions repeat until --seconds have passed, and at
least twice per data seed. With --trace 0 the run prints the end-to-end
metrics; with --trace 1 it alternates untraced and traced sessions and prints
the per-layer metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Lines before it give the
environment, the checks and each metric by name with its unit. Artifacts,
spans and a full result.json go to .perfbench_work/ under the checkout.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# every run must end within 180 s; stop starting sessions well before that
HARD_LIMIT_S = 160.0

PINNED_THREADS = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

# name -> unit of every end-to-end metric, reported with --trace 0
E2E_METRICS = {
    "setup_s": "s",
    "job_s": "s",
    "iter_us_mean": "us",
    "iter_us_p90": "us",
    "probe_s_mean": "s",
    "eval_acc": "ratio",
    "peak_rss_mb": "MB",
}


def tail_percentile(n: int, ladder=(50, 90, 99, 99.9, 99.99)):
    """Highest ladder percentile with at least ten of n samples beyond it, else None."""
    best = None
    for p in ladder:
        if round(n * (100 - p) / 100, 6) >= 10:
            best = p
    return best


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default does."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(clpdd_threads) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 2 has no dict form
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "pinned_threads": {name: os.environ[name] for name in PINNED_THREADS},
        "CLPDD_THREADS": clpdd_threads,
        "git_commit": git_commit(ROOT),
        "loadavg": os.getloadavg(),
    }


def run_session(wl, rundir: Path, inputs_dir: Path, k: int, data_seed: int,
                traced: bool, timeout: float) -> dict:
    """One session in a child interpreter, then the workload's output checks."""
    from workloads import Checks, sha256

    out = rundir / f"s{k}"
    out.mkdir()
    commands = wl.commands(out, inputs_dir, data_seed)
    spec = {
        "src": str(ROOT / "src"),
        "commands": commands,
        "trace": traced,
        "out": str(out / "session.json"),
        "spans_out": str(rundir / "spans.json") if traced else None,
    }
    (out / "spec.json").write_text(json.dumps(spec))
    record = {"k": k, "data_seed": data_seed, "traced": traced, "commands": len(commands)}
    checks = Checks()
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "session.py"), str(out / "spec.json")],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        checks.add("session_finished", False, f"killed after {timeout:.0f} s")
        record.update(wall_s=time.monotonic() - start, ok_commands=0, checks=checks.results)
        return record
    record["wall_s"] = time.monotonic() - start
    if proc.returncode != 0 or not Path(spec["out"]).is_file():
        checks.add("session_finished", False, f"exit {proc.returncode}: {proc.stderr[-2000:]}")
        record.update(ok_commands=0, checks=checks.results)
        return record
    result = json.loads(Path(spec["out"]).read_text())
    record.update(result)
    record["ok_commands"] = sum(code == 0 for code in result["codes"])
    if record["ok_commands"] == len(commands):
        try:
            record.update(wl.check(out, checks))
            record["sha256"] = sha256(out / "synthetic.clpf")
        except (OSError, KeyError, ValueError) as e:
            checks.add("artifacts_readable", False, repr(e))
    record["checks"] = checks.results
    return record


def determinism_checks(records) -> list:
    """Sessions of one data seed must write the same bytes and score the same."""
    by_seed = {}
    for r in records:
        by_seed.setdefault(r["data_seed"], []).append(r)
    out = []
    for seed, group in sorted(by_seed.items()):
        hashes = [r.get("sha256") for r in group]
        accs = [r.get("eval_acc") for r in group]
        ok = len(group) >= 2 and None not in hashes and len(set(hashes)) == 1 and len(set(accs)) == 1
        out.append((f"byte_identical_seed{seed}", ok, f"{len(group)} sessions, sha256 {sorted(set(map(str, hashes)))}"))
    return out


def end_to_end(records) -> dict:
    """Run-level figures of the untraced sessions.

    Step, probe and session times are means over the whole run, not medians.
    The host alternates between a fast and a slow state for seconds to
    minutes at a time, so these times are bimodal: their median jumps from
    one mode to the other as the run's share of slow time crosses one half,
    while their mean moves in proportion to that share.
    """
    ok = [r for r in records if not r["traced"] and "step_us" in r and r["step_us"]]
    if not ok:
        return {name: 0.0 for name in E2E_METRICS}
    steps = [s for r in ok for s in r["step_us"]]
    probes = [p for r in ok for p in r["probe_s"]]
    acc_by_seed = {r["data_seed"]: r["eval_acc"] for r in ok if "eval_acc" in r}
    return {
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "job_s": statistics.fmean(r["job_s"] for r in ok),
        "iter_us_mean": statistics.fmean(steps),
        "iter_us_p90": percentile(steps, 90),
        "probe_s_mean": statistics.fmean(probes) if probes else 0.0,
        "eval_acc": statistics.fmean(acc_by_seed.values()) if acc_by_seed else 0.0,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
    }


def per_layer(records) -> dict:
    traced = [r for r in records if r["traced"] and "layers" in r]
    plain = [r for r in records if not r["traced"] and "job_s" in r]
    out = {name: 0.0 for name in spans.LAYER_METRICS}
    if not traced:
        return out
    for name in spans.LAYER_METRICS:
        if name in traced[0]["layers"]:
            out[name] = statistics.median(r["layers"][name] for r in traced)
    if plain:
        out["trace.overhead_frac"] = (
            statistics.median(r["job_s"] for r in traced)
            / statistics.median(r["job_s"] for r in plain) - 1.0
        )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    process_start = time.monotonic()

    if not (ROOT / "src" / "clpdd" / "__init__.py").is_file():
        print(f"no clpdd sources under {ROOT / 'src'}; run from a clpdd checkout", file=sys.stderr)
        return 2
    # pinned before numpy is imported here or in any session
    clpdd_threads = os.environ.pop("CLPDD_THREADS", None)
    os.environ.update(PINNED_THREADS)
    from workloads import WORKLOADS

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(clpdd_threads)
    rundir = ROOT / ".perfbench_work" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    inputs_dir = rundir / "inputs"
    inputs_dir.mkdir(parents=True)
    # import once untimed: fails fast on a broken tree and fills the bytecode cache
    warm = subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import clpdd.cli",
         str(ROOT / "src")],
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    if warm.returncode != 0:
        print(f"clpdd does not import:\n{warm.stderr}", file=sys.stderr)
        return 1
    seeds = [wl.data_seed(args.seed, j) for j in range(wl.data_seeds)]
    for data_seed in seeds:
        wl.prepare(inputs_dir, data_seed)

    records = []
    deadline = time.monotonic() + args.seconds
    min_sessions = 2 * wl.data_seeds
    k = 0
    while True:
        now = time.monotonic()
        left = HARD_LIMIT_S - (now - process_start)
        typical = statistics.median(r["wall_s"] for r in records) if records else 0.0
        if k >= min_sessions and now + typical > deadline:
            break
        if left < max(typical, 5.0):
            break
        # traced runs alternate plain and traced sessions on the same data seed
        traced = args.trace == 1 and k % 2 == 1
        slot = k // 2 if args.trace == 1 else k
        records.append(run_session(wl, rundir, inputs_dir, k, seeds[slot % len(seeds)],
                                   traced, timeout=left))
        k += 1
        if "job_s" not in records[-1]:  # the session died; more would die the same way
            break

    checks = [c for r in records for c in r["checks"]] + determinism_checks(records)
    commands = sum(r["commands"] for r in records)
    failed_commands = commands - sum(r["ok_commands"] for r in records)
    attempted = commands + len(checks)
    failed = failed_commands + sum(not ok for _, ok, _ in checks)
    if args.trace == 1:
        units = spans.LAYER_METRICS
        metrics = per_layer(records)
    else:
        units = E2E_METRICS
        metrics = end_to_end(records)
    absent = sorted({name for r in records for name in r.get("absent", [])})
    steps = sum(len(r.get("step_us", [])) for r in records)
    summary = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": dict(env, loadavg_end=os.getloadavg()),
        "sessions": len(records),
        "steps_timed": steps,
        "failed_frac": failed / attempted if attempted else 1.0,
        "absent": absent,
        "checks": checks,
        "metrics": metrics,
        "records": [{k: v for k, v in r.items() if k not in ("step_us", "layers")} for r in records],
    }
    (rundir / "result.json").write_text(json.dumps(summary, indent=1, default=str) + "\n")
    if failed == 0:  # inputs come back from the seed; keep artifacts only to debug
        shutil.rmtree(inputs_dir)
        for r in records:
            shutil.rmtree(rundir / f"s{r['k']}")

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{len(records)} sessions, {steps} timed steps")
    print("environment " + json.dumps(summary["environment"]))
    for name, ok, detail in checks:
        if not ok:
            print(f"check FAILED {name}: {detail}")
    for r in records:
        if r.get("errors"):
            print(f"session {r['k']} raised:\n{r['errors'][-1]}")
    print(f"failed_frac {summary['failed_frac']:.4g} ({failed} of {attempted} operations)")
    if absent:
        print(f"absent (reported as 0): {', '.join(absent)}")
    if args.trace == 0:
        tail = tail_percentile(steps)
        if tail is not None:
            pooled = [s for r in records for s in r.get("step_us", [])]
            print(f"iter_us p50 {percentile(pooled, 50):.1f}, p{tail} "
                  f"{percentile(pooled, tail):.1f} us over n={steps} steps")
        hashes = sorted({r["sha256"] for r in records if "sha256" in r})
        print(f"synthetic.clpf sha256: {' '.join(hashes)}")
        margins = {r["data_seed"]: r["margins"] for r in records if "margins" in r}
        for data_seed, m in sorted(margins.items()):
            print(f"margins on data seed {data_seed}: "
                  + ", ".join(f"{name} {value:+.4f}" for name, value in m.items()))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and bool(records),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
