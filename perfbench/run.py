"""knnmi benchmark: three workloads from the exact k-NN scan to the CLI sweep.

Run from the root of a knnmi checkout. One workload, one fresh process:

    python3 perfbench/run.py --workload estimate-d1-n10k --seed 1 --seconds 20 --trace 0

All three workloads, each in its own process, with a table at the end:

    python3 perfbench/run.py

`--trace 0` prints the end-to-end metrics; `--trace 1` spends half the
time untraced and half with every function of `knnmi.__all__` wrapped in
spans, and prints the per-layer metrics and the tracing overhead. The last
line of standard output is one JSON object: correct, attempted, failed,
metrics. Result and span files go to perfbench/out/. See perfbench/README.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# set-ups timed per run: this process's, then four in fresh processes, one
# after each round (the rest at the end), so that they see the same machine
# as the operations
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=("all",) + inputs.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="operation time measured per run; whole rounds are always run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="WORKDIR", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup_timed(workload, seed, workdir):
    """Seconds to import knnmi (numpy included) and build the inputs."""
    start = time.perf_counter()
    import knnmi

    built = inputs.setup(knnmi, workload, seed, workdir)
    return time.perf_counter() - start, knnmi, built


def _setup_in_child(workload, seed, workdir):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only", workdir]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def _environment():
    import numpy

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git": _git_revision(),
    }


def _round_seconds(rounds):
    return [sum(op.seconds for op in ops) for ops in rounds]


def _end_to_end(workload, rounds, setup_samples, peak_rss_mib):
    ops = [op for r in rounds for op in r]
    if workload.per_record_latency:
        estimate_s = statistics.median(
            sum(op.seconds for op in r) / max(1, sum(op.records for op in r)) for r in rounds)
    else:
        estimate_s = statistics.median(op.seconds for op in ops)
    records_per_s = statistics.median(
        sum(op.records for op in r) / sum(op.seconds for op in r) for r in rounds)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "estimate_s": (estimate_s, "s"),
        "sweep_records_per_s": (records_per_s, "records/s"),
        "peak_rss_mib": (peak_rss_mib, "MiB"),
    }


def run_one(args):
    name = args.workload
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        seconds, knnmi, built = _setup_timed(name, args.seed, workdir)
        setup_samples = [seconds]

        import tracing
        import workloads

        workload = workloads.WORKLOAD_CLASSES[name](knnmi, args.seed, built, workdir)
        env = _environment()
        print(f"# workload {name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        print("# " + " ".join(f"{k}={v}" for k, v in env.items()))

        if args.trace:
            plain = workloads.measure(workload, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install(sys.modules)
            try:
                workload.tracer = tracer
                workload.inputs = inputs.setup(knnmi, name, args.seed, workdir, tracer)
                first_op_span = len(tracer.spans)
                traced = workloads.measure(workload, args.seconds / 2)
            finally:
                tracer.uninstall()
                workload.tracer = inputs.NullTracer()
            rounds = plain + traced
        else:
            peak_rss_mib = []

            def after_round(done):
                if done == 1:  # later rounds only add allocator drift, not work
                    peak_rss_mib.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
                if len(setup_samples) < SETUP_SAMPLES:
                    setup_samples.append(_setup_in_child(name, args.seed, workdir))

            rounds = workloads.measure(workload, args.seconds, after_round)
            while len(setup_samples) < SETUP_SAMPLES:
                setup_samples.append(_setup_in_child(name, args.seed, workdir))

        ops = [op for r in rounds for op in r]
        run_problems = workload.finish(ops)

        if args.trace:
            metrics = tracing.layer_metrics(tracer.spans, first_op_span, len(traced))
            plain_s = statistics.median(_round_seconds(plain))
            traced_s = statistics.median(_round_seconds(traced))
            metrics["trace.untraced_round_s"] = (plain_s, "s")
            metrics["trace.traced_round_s"] = (traced_s, "s")
            metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")
            metrics["trace.absent_functions"] = (len(tracer.absent), "count")
            if tracer.absent:
                print("# absent from knnmi.__all__: " + ", ".join(tracer.absent))
            tracer.write(os.path.join(OUT, f"trace-{name}-seed{args.seed}.json"))
        else:
            metrics = _end_to_end(workload, rounds, setup_samples, peak_rss_mib[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(op.failed for op in ops)
    correct = not run_problems and not any(op.problems for op in ops)
    for op in ops:
        for problem in ([op.error] if op.error else []) + op.problems[:5]:
            print(f"# FAILED {op.kind}: {problem}")
    for problem in run_problems[:20]:
        print(f"# CHECK FAILED: {problem}")
    print(f"# rounds {len(rounds)} ops {len(ops)} failed {failed} "
          f"op_s {' '.join(f'{op.seconds:.3f}' for op in ops)}")
    print(f"# setup_samples_s {' '.join(f'{s:.4f}' for s in setup_samples)}")
    for key, (value, unit) in metrics.items():
        print(f"{key}: {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(dict(result, environment=env, workload=name, seed=args.seed), fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own fresh process, then one table."""
    results, status = {}, 0
    for name in inputs.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = done.returncode
            continue
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"{'workload':24} {'attempted':>9} {'failed':>6} {'correct':>7}  metrics")
    for name, r in results.items():
        shown = ", ".join(f"{k} {m['value']:.4g} {m['unit']}" for k, m in r["metrics"].items())
        print(f"{name:24} {r['attempted']:9d} {r['failed']:6d} {str(r['correct']):>7}  {shown}")
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{k}": m for name, r in results.items() for k, m in r["metrics"].items()},
    }))
    return status


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "knnmi", "__init__.py")):
        print(f"error: no knnmi sources under {SRC}; run from the root of a knnmi checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only is not None:
        print(json.dumps({"setup_s": _setup_timed(args.workload, args.seed, args.setup_only)[0]}))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
