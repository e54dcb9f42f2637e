"""epkit benchmark: one run of one workload.

    python3 perfbench/run.py --workload paper-cli|bpm-ladder|loopy-ladder \\
        --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports epkit from its `src/`.
A run measures set-up time in fresh interpreters, then repeats passes of
the workload for about S seconds (at least two, and one more than the
workload's input windows), checking every pass's answers; the first pass
is not timed.  With --trace 0 every pass is untraced, a reference loop
(reference.py) is timed at fit and sweep boundaries during the timed
passes, and the end-to-end metrics are printed, scaled to the reference
machine's speed; with --trace 1 untraced and traced passes alternate and
the per-layer metrics are printed.  The last stdout line is the JSON
result; the line before it records the environment.  Traces and scratch files go
to `.perfbench_out/` in the checkout.  See perfbench/README.md.
"""
import os

# Single-threaded BLAS/OpenMP, pinned before numpy loads; set-up probes
# inherit it.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = {"paper-cli": ("paper_cli", "PaperCli"),
             "bpm-ladder": ("bpm_ladder", "BpmLadder"),
             "loopy-ladder": ("loopy_ladder", "LoopyLadder")}
SETUP_PROBES = 5
SETUP_SAMPLES = 6   # reference samples each set-up probe takes
MIN_PASSES = 2
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def per_layer_unit(name: str) -> str:
    if name == "visits_per_s":
        return "1/s"
    stem = name.split(".")[1]
    if "_us" in stem:
        return "us"
    if "_ms" in stem:
        return "ms"
    if stem.endswith("_s"):
        return "s"
    if stem in ("useful_visit_ratio", "share"):
        return "ratio"
    return "count"


def clock() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_epkit() -> None:
    """epkit from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import epkit
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import epkit from {src}: {exc}")
    if Path(epkit.__file__).resolve().parent != src / "epkit":
        sys.exit(f"perfbench: epkit was imported from {epkit.__file__}, not {src}")


def parse_args(argv):
    p = argparse.ArgumentParser(description="epkit benchmark run")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="smallest rung only and one set-up probe (for tests)")
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)  # internal: one set-up measurement
    return p.parse_args(argv)


def make_workload(args, workdir: Path):
    module, cls = WORKLOADS[args.workload]
    return getattr(importlib.import_module(module), cls)(args.seed, args.smoke, workdir)


def setup_seconds(args) -> tuple[float, float]:
    """Median, over fresh interpreters, of the time from process start to
    the workload's first fit (or oracle) call; and the slowdown meanwhile,
    from reference samples each interpreter takes once it gets there."""
    import reference

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--probe-setup"]
    if args.smoke:
        cmd.append("--smoke")
    times, speed = [], []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        t0 = clock()
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             check=True, cwd=ROOT)
        reached, sample = map(float, out.stdout.split()[-2:])
        times.append(reached - t0)
        speed.append(sample)
    return statistics.median(times), statistics.mean(speed) / reference.NOMINAL_S


def pass_seconds(timed) -> float:
    """Mean time of a timed pass, reference samples left out: the mean over
    input windows of the mean over that window's passes."""
    per_window: dict[int, list[float]] = {}
    for p in timed:
        per_window.setdefault(p.window, []).append(
            p.wall_s - p.recorder.sampling_ns / 1e9)
    return statistics.mean(statistics.mean(v) for v in per_window.values())


def environment(args) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_epkit()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.probe_setup:
            make_workload(args, Path(tmp)).until_first_call()
            reached = clock()
            import reference
            speed = statistics.mean(reference.sample() for _ in range(SETUP_SAMPLES))
            print(repr(reached), repr(speed))
            return 0
        return measure(args, Path(tmp))


def measure(args, workdir: Path) -> int:
    import reference
    from layers import per_layer_metrics
    from spans import Recorder, write_trace

    setup_s, setup_slowdown = setup_seconds(args)
    workload = make_workload(args, workdir)
    passes, peak_mib = [], None
    speed: list[float] = []   # reference samples during the timed passes
    # The first pass warms caches up and is not timed; an untraced run's
    # timed passes cycle through the workload's input windows, each at
    # least once.  A traced run stays on the first window.
    windows = 1 if args.trace else workload.windows
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        timed = not args.trace and len(passes) > 0
        p = workload.run_pass(Recorder(traced=args.trace == 1 and len(passes) % 2 == 1,
                                       speed=speed if timed else None),
                              window=(len(passes) - 1) % windows if timed else 0)
        if peak_mib is None:  # ru_maxrss is KiB on Linux and never decreases
            peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        passes.append(p)
        print(f"perfbench: pass {len(passes)} {'traced' if p.recorder.traced else 'untraced'}"
              f" {p.wall_s:.4f} s", file=sys.stderr)
        for fit, reason in p.failures.items():
            print(f"perfbench: pass {len(passes)}: {fit}: {reason}", file=sys.stderr)
        now = time.perf_counter()
        if len(passes) >= max(MIN_PASSES, 1 + windows) \
                and now - start + (now - t0) > args.seconds:
            break

    untraced = [p for p in passes if not p.recorder.traced]
    traced = [p for p in passes if p.recorder.traced]
    env = environment(args)
    if args.trace:
        metrics = per_layer_metrics(traced, untraced)
        units = {name: per_layer_unit(name) for name in metrics}
        write_trace(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl",
                    env, [p.recorder for p in traced])
    else:
        # The reference samples say how much slower than the reference
        # machine this one ran meanwhile (above 1 when other tenants slowed
        # it down); each time is divided by the slowdown measured with it.
        slowdown = statistics.mean(speed) / reference.NOMINAL_S
        env["slowdown"] = {"passes": slowdown, "setup": setup_slowdown}
        metrics = {
            "wall_s": pass_seconds(untraced[1:]) / slowdown,
            "setup_s": setup_s / setup_slowdown,
            "peak_rss_mb": peak_mib,
        }
        units = END_TO_END_UNITS
    failed = sum(p.failed for p in passes)
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
