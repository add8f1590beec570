"""quantgame benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload ref-solve --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 1

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of a separate traced run. `--workload all` runs every workload in
its own process, one after another. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. Run it from
the root of a quantgame checkout; elsewhere it exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median

# One process, one thread: pin BLAS/OpenMP before NumPy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("ref-solve", "ref-montecarlo", "noisy-forest")
EXIT_NO_CHECKOUT = 2

# name -> unit; the end_to_end list of BENCHMARK.json
END_TO_END = {"setup_s": "s", "pass_cpu_s": "s", "peak_rss_mb": "MB"}


class NoCheckout(RuntimeError):
    """The benchmark is not inside a quantgame checkout."""


def add_library_path():
    """Import quantgame from this checkout's src/, never from elsewhere."""
    if not (SRC / "quantgame" / "__init__.py").is_file() \
            or not (ROOT / "configs" / "reference.cfg").is_file():
        raise NoCheckout(f"no quantgame checkout at {ROOT}")
    sys.path.insert(0, str(SRC))
    import quantgame
    if Path(quantgame.__file__).resolve().parent != SRC / "quantgame":
        raise NoCheckout(f"quantgame was imported from {quantgame.__file__}")


def _commit():
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cores": os.cpu_count(),
        "blas_threads": 1,
        "commit": _commit(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure(name, seed, seconds, trace):
    """One run of one workload; returns (result dict, report lines)."""
    from workloads import WORKLOADS, Run, cpu_seconds
    from tracing import Tracer, layer_metrics

    workload = WORKLOADS[name]
    tracer = Tracer(f"{name}-seed{seed}-pid{os.getpid()}") if trace else None
    if tracer:
        tracer.install()
    try:
        run = Run(tracer)
        setup_times = []
        with tracer.phase("setup") if tracer else nullcontext():
            for _ in range(workload.setup_reps):
                t0 = cpu_seconds()
                inputs = workload.setup(seed)
                setup_times.append(cpu_seconds() - t0)

        start = time.perf_counter()
        pass_no = 0
        while pass_no == 0 or time.perf_counter() - start < seconds:
            workload.run_pass(run, inputs, seed, pass_no)
            pass_no += 1
        wall_s = time.perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()

    setup_s = median(setup_times)
    pass_cpu_s = run.pass_cpu_s()
    if trace:
        metrics = layer_metrics(tracer.totals(), pass_cpu_s)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        (out_dir / f"trace-{name}-seed{seed}.json").write_text(
            json.dumps({"environment": environment(), **tracer.dump()}, indent=1))
    else:
        values = {"setup_s": setup_s, "pass_cpu_s": pass_cpu_s, "peak_rss_mb": peak_rss_mb()}
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}

    phases = run.phase_medians()
    lines = [f"workload {name}  seed {seed}  passes {pass_no}  trace {int(trace)}"]
    report = {
        "setup_s": (setup_s, "s"),
        "solve_s": (phases.get("solve"), "s"),
        "verify_s": (phases.get("verify"), "s"),
        "simulate_samples_per_s": (median(run.sim_rates) if run.sim_rates else None, "1/s"),
        "chains_s": (phases.get("chains"), "s"),
        "pass_cpu_s": (pass_cpu_s, "s"),
        "wall_s": (wall_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "error_rate": (len(run.failures) / run.attempted, "ratio"),
    }
    for key, (value, unit) in report.items():
        if value is not None:
            lines.append(f"  {key:<24} {value:.6g} {unit}")
    lines += [f"  FAILED {f}" for f in run.failures]
    lines.append("  environment " + json.dumps(environment()))
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    return result, lines


def run_all(seed, seconds, trace):
    """Each workload in its own process, so peak RSS belongs to it."""
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited with code {proc.returncode}")
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{k}": v for name, r in results.items()
                    for k, v in r["metrics"].items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = args.seed % 2 ** 32  # NumPy seeds must be non-negative
    try:
        add_library_path()
    except NoCheckout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CHECKOUT
    if args.workload == "all":
        result = run_all(seed, args.seconds, args.trace)
    else:
        result, lines = measure(args.workload, seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
