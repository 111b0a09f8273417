"""Run one tokmoe benchmark workload and print its metrics.

    python3 bench/run.py --workload desk-train --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` beside this directory, so the command
measures the source tree it sits in; without ``src/`` it exits non-zero
before printing a result. Each run is one process: the BLAS thread pin, the
peak RSS and the set-up probes belong to that workload alone.

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``job_s``,
``peak_rss_mb``); ``--trace 1`` prints the per-layer metrics of a separate
traced pass. The last line of stdout is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

import os

# Pinned before numpy is first imported, in this process and in every set-up
# probe it starts: OpenBLAS threading on two cores makes a small matmul slower
# and its timing erratic.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402  (imports numpy, after the pin above)

# Runtime files (checkpoints of paper-ckpt, traced spans) stay in the checkout.
RUN_DIR = ROOT / ".bench_run"

SETUP_REPEATS = 5
clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal shapes, for the benchmark's own smoke test")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment record


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree; read, not run."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_threads() -> int | None:
    """Thread count the loaded BLAS library reports, asked through ctypes."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "blas" in line.lower() and line.split()[-1].startswith("/")}
    getters = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads", "MKL_Get_Max_Threads", "bli_thread_get_num_threads")
    for lib_path in sorted(libs):
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for name in getters:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        blas_name = None
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# Measurement


def setup_seconds(args) -> list[tuple[float, float]]:
    """(host-normalised, wall) set-up times of fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), args.workload, str(args.seed),
             "1" if args.smoke else "0"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        normalised, wall = done.stdout.split()[-2:]
        times.append((float(normalised), float(wall)))
    return times


def run_jobs(workload, checks, seconds: float, sampler, between=None) -> list[tuple[float, float]]:
    """Jobs until the next would end past ``seconds``; at least one.

    Returns (host-normalised time, wall) per job. ``between`` is called
    around each job for the traced pass: before it with ``None``, after it
    with the job's (since, start, end) clock readings.
    """
    done: list[tuple[float, float]] = []
    run_start = clock()
    while True:
        if between:
            between(None)
        since = clock()
        sampler.slices.append(hostspeed.calibration_slice())
        try:
            start, end = workload.job()
        except Exception:  # a failing job is a counted failure, not a crash
            checks.check(False, "job raised:\n" + traceback.format_exc())
            break
        done.append((sampler.normalised(start, end, since), end - start))
        if between:
            between((since, start, end))
        workload.check()
        if clock() - run_start + statistics.median(w for _, w in done) > seconds:
            break
    return done


def untraced(args, workload, checks) -> dict:
    setups = setup_seconds(args)
    with hostspeed.Sampler() as sampler:
        jobs = run_jobs(workload, checks, args.seconds, sampler)
    if not jobs:
        return {}
    job_s = statistics.median(t for t, _ in jobs)
    wall_s = statistics.median(w for _, w in jobs)
    print(f"# {len(jobs)} jobs, {len(setups)} set-ups; job wall median {wall_s:.6g} s, "
          f"set-up wall median {statistics.median(w for _, w in setups):.6g} s")
    label, tokens = workload.work_tokens()
    if tokens:
        print(f"# info: {tokens / job_s:.2f} tok/s normalised, {tokens / wall_s:.2f} tok/s wall "
              f"({tokens} {label} per job)")
    return {
        "setup_s": (statistics.median(t for t, _ in setups), "s"),
        "job_s": (job_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced(args, W, workload, checks, workdir: Path) -> dict:
    """Untraced jobs for a third of the time, then a traced set-up and jobs.

    Per-layer figures describe one traced set-up plus one job: ``.calls`` is
    exact, ``.self_s`` adds the set-up's self time to the mean over the
    traced jobs. ``trace.overhead_s`` is the median traced job time minus
    the median untraced one; ``trace.uncovered_s`` is time inside the set-up
    and the job that no span covers. All times are host-normalised, and the
    calibration slices are taken out of the spans they interrupt. The
    ``host.*`` figures put the untraced jobs' and the set-up probes' raw wall
    medians beside their normalised ones, so the normalisation can be checked.
    """
    from tracer import FUNCTIONS, TRACED, Tracer, diff

    tracer = Tracer()
    jobs: list[tuple[list[int], list[float], float, float, float]] = []
    mark: list = []

    def between(clocks):
        if clocks is None:
            mark[:] = [tracer.snapshot()]
            return
        since, start, end = clocks
        calls, self_s, covered = diff(tracer.snapshot(), mark[0])
        jobs.append((calls, self_s, covered, sampler.busy(start, end), sampler.factor(since, end)))

    setups = setup_seconds(args)
    with hostspeed.Sampler() as sampler:
        untraced_jobs = run_jobs(workload, checks, args.seconds / 3, sampler)
        if not untraced_jobs:
            return {}
        plain = [t for t, _ in untraced_jobs]
        sampler.on_slice = tracer.exclude
        tracer.install()
        try:
            before = tracer.snapshot()
            since = clock()
            sampler.slices.append(hostspeed.calibration_slice())
            start = clock()
            traced_workload = W.build(args.workload, args.seed, args.smoke, checks, workdir)
            end = clock()
            setup_calls, setup_self, setup_covered = diff(tracer.snapshot(), before)
            setup_busy, setup_factor = sampler.busy(start, end), sampler.factor(since, end)
            run_jobs(traced_workload, checks, args.seconds * 2 / 3, sampler, between)
        finally:
            tracer.uninstall()
    if not jobs:
        return {}
    checks.check(all(job[0] == jobs[0][0] for job in jobs),
                 "traced jobs of one run made different call counts")
    write_spans(args, tracer)

    n = len(jobs)
    out: dict[str, tuple[float, str]] = {}
    module_self: dict[str, float] = {}
    for i, name in enumerate(FUNCTIONS):
        self_s = setup_self[i] * setup_factor + sum(job[1][i] * job[4] for job in jobs) / n
        out[f"{name}.calls"] = (setup_calls[i] + jobs[0][0][i], "count")
        out[f"{name}.self_s"] = (self_s, "s")
        module = name.split(".")[0]
        module_self[module] = module_self.get(module, 0.0) + self_s
    for module in TRACED:
        out[f"{module}.self_s"] = (module_self[module], "s")
    out["checkpoint.bytes_written"] = (getattr(traced_workload, "bytes_written", 0), "B")
    out["checkpoint.bytes_read"] = (getattr(traced_workload, "bytes_read", 0), "B")
    traced_times = [job[3] * job[4] for job in jobs]
    out["trace.overhead_s"] = (statistics.median(traced_times) - statistics.median(plain), "s")
    uncovered = ((setup_busy - setup_covered) * setup_factor
                 + sum((job[3] - job[2]) * job[4] for job in jobs) / n)
    out["trace.uncovered_s"] = (uncovered, "s")
    out["host.job_s"] = (statistics.median(plain), "s")
    out["host.job_wall_s"] = (statistics.median(w for _, w in untraced_jobs), "s")
    out["host.setup_s"] = (statistics.median(t for t, _ in setups), "s")
    out["host.setup_wall_s"] = (statistics.median(w for _, w in setups), "s")
    print(f"# {len(plain)} untraced and {n} traced jobs, {tracer.span_count} spans")
    return out


def write_spans(args, tracer) -> None:
    path = RUN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    payload = {"spans_total": tracer.span_count, "spans_kept": len(tracer.spans),
               "spans": tracer.span_records()}
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    print(f"# spans written to {path.relative_to(ROOT)}")


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    import workloads as W  # imports tokmoe from src/; fails without it

    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    try:
        checks = W.Checks()
        workload = W.build(args.workload, args.seed, args.smoke, checks, workdir)
        W.reference(args.workload, checks)
        print("# env " + json.dumps(environment(), sort_keys=True))
        if args.trace:
            measured = traced(args, W, workload, checks, workdir)
        else:
            measured = untraced(args, workload, checks)
        print("# inputs " + json.dumps(workload.properties(), sort_keys=True))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for message in checks.messages:
        print(f"# check failed: {message}")
    if not measured:
        print("no job completed; no result", file=sys.stderr)
        return 1
    for name, (value, unit) in measured.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"# error_rate {checks.failed / max(checks.attempted, 1):.6g} "
          f"({checks.failed} failed / {checks.attempted} attempted)")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in measured.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
