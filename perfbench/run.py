"""Benchmark harness for clusterlm.

One run sets up one workload's inputs from ``--seed``, times its pipeline
for ``--seconds`` seconds (at least one repetition), checks the outputs and
prints one JSON result as the last line of standard output:

    python3 perfbench/run.py --workload trend --seed 71 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs separately
with span tracing and reports the per-layer metrics.  ``--workload all``
runs every workload, untraced then traced, each in a fresh interpreter one
after another, and prints every metric by name with its unit.  Details,
fingerprints and the environment of each run go to ``.perfbench/``.
"""

from __future__ import annotations

import os
import time

T_START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("trend", "backoff_cli", "class_cli")
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "pp_geomean": "pp",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=71)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "toy"), default="full",
                   help="input sizes; 'toy' is for the harness self-test")
    p.add_argument("--inject-failure", action="store_true",
                   help="add one eval of a missing model file (self-test)")
    p.add_argument("--out", help="with --workload all: write the summary JSON here")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "clusterlm").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def run_one(args) -> int:
    if not (ROOT / "src" / "clusterlm" / "__init__.py").is_file() or not (
        ROOT / "tests" / "corpusgen.py"
    ).is_file():
        print(f"error: {ROOT} does not hold src/clusterlm and tests/corpusgen.py",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import tracing
    import workloads
    from steady import SteadyTimer
    from workloads import Ops, run_cli

    import_s = time.perf_counter() - T_START
    timer = SteadyTimer(active=not args.trace)
    if timer.active:
        work_s = timer.reference.seconds()
        import_s = timer.scale(import_s, work_s, work_s)
    workload = workloads.WORKLOADS[args.workload](args.scale, timer)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            started = timer.start()
            workload.setup(args.seed, inputs)
            setup_times.append(timer.stop(started)[0])

        ops = Ops()
        tracer = tracing.Tracer() if args.trace else None
        span_cost = tracing.span_cost_s() if args.trace else 0.0
        reps, layers, spans = [], [], []
        start = time.perf_counter()
        while True:
            rep_dir = work / f"rep{len(reps)}"
            rep_dir.mkdir()
            gc.collect()
            if tracer:
                tracer.reset()
                tracer.install()
            try:
                rep = workload.run(rep_dir, ops)
            finally:
                if tracer:
                    tracer.restore()
            if tracer:
                layers.append(tracing.layer_metrics(
                    tracer.spans, tracer.counters, rep.plain_wall_s, span_cost))
                spans.append(tracer.spans)
            for label, value in sorted(rep.pp.items()):
                workloads.check_perplexity(ops, label, value)
            if reps:
                ops.check("fingerprint repeats", rep.fingerprint == reps[0].fingerprint,
                          f"{rep.fingerprint} != {reps[0].fingerprint}")
                shutil.rmtree(rep_dir)
            if args.inject_failure and not reps:
                missing = str(rep_dir / "missing.model")
                run_cli(ops, "injected eval", [
                    "eval", "--model", missing, "--vocab", missing, "--heldout", missing,
                ], timer)
            reps.append(rep)
            if len(reps) >= workload.MIN_REPS and time.perf_counter() - start >= args.seconds:
                break

        rng = random.Random(args.seed)
        for label, load in reps[0].models:
            workloads.check_normalized(ops, label, load, rng)
    finally:
        timer.release()
        shutil.rmtree(work, ignore_errors=True)

    first = reps[0]
    if args.trace:
        names = tracing.LAYER_METRICS
        values = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        values.update(tracing.pp_metrics(first.pp))
    else:
        names = END_TO_END
        # Means, not medians, over the few repetitions of a run: the error
        # left after scaling to reference seconds is spread evenly around
        # the true time, and across seeds the mean of three repetitions
        # spread least between runs (see README.md).
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "wall_s": statistics.mean(sum(r.steps.values()) for r in reps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pp_geomean": tracing.geomean(first.pp.values()),
        }
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in names.items()}
    # Scoring throughput is recorded but is not an end-to-end metric: its
    # steps are short, and after scaling they still spread too far between
    # runs to hold a bound (see README.md).
    eval_s = statistics.mean(
        sum(v for k, v in r.steps.items() if k.startswith("eval")) for r in reps)

    OUT.mkdir(exist_ok=True)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "environment": environment(),
        "fingerprint": first.fingerprint, "perplexity": first.pp,
        "repetitions": len(reps), "rep_steps_s": [r.steps for r in reps],
        "rep_plain_wall_s": [r.plain_wall_s for r in reps],
        "import_s": import_s, "setup_repeat_s": setup_times,
        "eval_tokens_per_s": first.eval_tokens / eval_s if eval_s else 0.0,
        "failures": ops.failures, "metrics": metrics,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(details, indent=1) + "\n")
    if args.trace:
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "reps": spans}, fh)

    for failure in ops.failures:
        print(f"failed: {failure}")
    print(f"fingerprint {args.workload} seed {args.seed}: {first.fingerprint}")
    print(json.dumps({
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh interpreter."""
    summary = {"seed": args.seed, "seconds": args.seconds, "scale": args.scale,
               "workloads": {}}
    attempted = failed = 0
    flat = {}
    for name in WORKLOAD_NAMES:
        entry = {}
        plain = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--scale", args.scale]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False,
                                  timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"error: {name} --trace {trace} exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            tag = f"{name}-seed{args.seed}-trace{trace}"
            details = json.loads((OUT / f"result-{tag}.json").read_text())
            attempted += result["attempted"]
            failed += result["failed"]
            entry["traced" if trace else "untraced"] = result
            entry["fingerprint"] = details["fingerprint"]
            entry["environment"] = details["environment"]
            plain[trace] = statistics.median(details["rep_plain_wall_s"])
        untraced = entry["untraced"]["metrics"]
        traced = entry["traced"]["metrics"]
        entry["trace_overhead_s"] = plain[1] - plain[0]
        summary["workloads"][name] = entry
        print(f"== {name}  fingerprint {entry['fingerprint']}")
        for label, metrics in (("", untraced), ("  ", traced)):
            for metric, m in metrics.items():
                print(f"{label}{name:<12} {metric:<36} {m['value']:>16.6g} {m['unit']}")
                flat[f"{name}.{metric}"] = m
        print(f"{name:<12} trace overhead: median plain wall seconds, traced minus "
              f"untraced: {entry['trace_overhead_s']:.3f} s")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": flat}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
