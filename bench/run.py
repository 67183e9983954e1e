"""Benchmark of the influence_market package.

Run one workload from the repository root:

    python3 bench/run.py --workload mech-sequential --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer table (see README.md).  ``--workload all`` runs every workload,
each in its own process, one after another.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Every run also writes a result file with the environment record under
``bench/out/``.  The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("mech-sequential", "price-dataset", "best-response")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up (inputs plus one warm-up iteration) is repeated this many times per
# run and its median reported, so that one slow repetition does not move it.
SETUP_REPS = 3
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "iter_p50_s": "s",
    "iter_tail_s": "s",
    "peak_rss_mb": "MB",
    "pass_fraction": "fraction",
}


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; returns the cap.
    Must run before NumPy is imported."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def tail(times: list) -> dict:
    """The highest percentile with at least TAIL_BEYOND iterations beyond it.

    With fewer than TAIL_BEYOND + 1 iterations no such percentile exists and
    the maximum is reported with the number actually beyond it (0).
    """
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, 1) if n > TAIL_BEYOND else n
    return {
        "value": ordered[rank - 1],
        "percentile": 100.0 * rank / n,
        "samples": n,
        "beyond": n - rank,
    }


def blas_record(np) -> dict:
    """BLAS library, build and the thread count it reports."""
    import ctypes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and record["threads"] is None:
                    get_threads.restype = ctypes.c_int
                    record["threads"] = get_threads()
                if get_config is not None and "build" not in record:
                    get_config.restype = ctypes.c_char_p
                    record["build"] = get_config().decode()
    return record


def cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(np, nproc: int, seed: int) -> dict:
    return {
        "nproc": nproc,
        "blas_thread_cap": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "blas": blas_record(np),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "caches": cache_sizes(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def timed_iteration(workload, state, index: int, tracer=None):
    """Run one iteration, timed, then check it untimed.

    Returns (seconds, outputs, failed checks).  With a tracer, the package's
    names are rebound for exactly this iteration.
    """
    out = None
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    root = tracer.begin_iteration(index) if tracer is not None else None
    try:
        out = workload.iterate(state, index)
        problems = None
    except Exception:
        problems = [traceback.format_exc()]
    if tracer is not None:
        tracer.close(root)
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.uninstall()
    if problems is None:
        try:
            problems = workload.check(state, out)
        except Exception:
            problems = [f"check raised:\n{traceback.format_exc()}"]
    return elapsed, out, problems


def set_up(workload, seed: int, workdir: Path):
    """Inputs plus one untimed warm-up iteration, SETUP_REPS times.

    Returns (state, seconds of each repetition, failed checks).
    """
    times, failures = [], []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        state = workload.prepare(seed, workdir)
        warm = workload.iterate(state, rep, stream=1)
        times.append(time.perf_counter() - t0)
        failures += [f"warm-up {rep}: {f}" for f in workload.check(state, warm)]
        warm = None
    return state, times, failures


def closed_loop(workload, state, seconds: float, tracer=None) -> dict:
    """Iterate until the timed iterations add up to ``seconds``.

    One caller: the next iteration starts when the previous one returns.
    With a tracer, odd iterations are traced and even ones are not.
    """
    min_iterations = max(workload.min_iterations, 2 if tracer else 1)
    loop = {"times": [], "traced": [], "work": 0, "failed": 0, "failures": []}
    kept = []
    index = 0
    while sum(loop["times"]) < seconds or index < min_iterations:
        traced = tracer is not None and index % 2 == 1
        elapsed, out, problems = timed_iteration(
            workload, state, index, tracer if traced else None
        )
        loop["times"].append(elapsed)
        loop["traced"].append(traced)
        if problems:
            loop["failed"] += 1
            loop["failures"] += [f"iteration {index}: {p}" for p in problems]
        else:
            loop["work"] += workload.work(out)
            if workload.pools_outputs:
                kept.append(out)
        out = None
        index += 1
    run_failures = workload.finish(state, kept)
    if run_failures:
        loop["failures"] += run_failures
        loop["failed"] = index
        loop["work"] = 0
    return loop


def run_workload(args) -> int:
    nproc = cap_blas_threads()
    if not (ROOT / "src" / "influence_market" / "__init__.py").is_file():
        print(f"influence_market sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import workloads

    import_s = time.perf_counter() - T_START
    workload = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT_DIR / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        state, setup_times, setup_failures = set_up(workload, args.seed, workdir)
        loop = closed_loop(workload, state, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    times = loop["times"]
    attempted = len(times)
    untraced = [t for t, traced in zip(times, loop["traced"]) if not traced]
    tail_info = tail(untraced)
    if args.trace:
        base = statistics.median(untraced)
        traced_p50 = statistics.median([t for t, traced in zip(times, loop["traced"]) if traced])
        metrics = spans.layer_table(tracer.arrays(), tracer.notes, (traced_p50 - base) / base)
        tracer.save(OUT_DIR / f"{tag}-spans.npz")
    else:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "work_per_s": loop["work"] / sum(times),
            "iter_p50_s": statistics.median(untraced),
            "iter_tail_s": tail_info["value"],
            "peak_rss_mb": peak_rss_mb,
            "pass_fraction": (attempted - loop["failed"]) / attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    failures = setup_failures + loop["failures"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": loop["failed"],
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "work_unit": workload.work_unit,
        "trace": args.trace,
        "tiny": args.tiny,
        "seconds": args.seconds,
        "environment": environment(np, nproc, args.seed),
        "iterations": {
            "attempted": attempted,
            "failed": loop["failed"],
            "untraced": len(untraced),
            "traced": attempted - len(untraced),
            "work": loop["work"],
            "timed_s": sum(times),
        },
        "iteration_times_s": times,
        "iteration_traced": loop["traced"],
        "setup": {"import_s": import_s, "reps_s": setup_times},
        "tail": {k: v for k, v in tail_info.items() if k != "value"},
        "failures": failures,
        "result": result,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=2))

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"{args.workload}: {attempted} iterations, work unit: {workload.work_unit}")
    if not args.trace:
        print(
            f"iter_tail_s is the p{tail_info['percentile']:.1f} of {tail_info['samples']} "
            f"iterations ({tail_info['beyond']} beyond it)"
        )
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload, each in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, timeout=600)
        status = status or proc.returncode
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="small inputs, for the benchmark's own smoke test"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
