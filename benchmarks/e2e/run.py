"""End-to-end benchmark of the OCuLaR system, from training to the wire.

    python3 benchmarks/e2e/run.py --workload wire-closed --seed 1
    python3 benchmarks/e2e/run.py --workload train-cold --trace 1
    python3 benchmarks/e2e/run.py --all

Prints provenance, every metric by name with its unit, and as the last line
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` (the default) the metrics are the end-to-end ones, measured with
tracing off; with ``--trace 1`` they are the per-layer ones and the spans go
to ``results/trace_<workload>.json``.  A violated correctness check exits
non-zero.  See README.md beside this file.
"""

from __future__ import annotations

import os

# Before numpy: parallelism must come from the program's executors, not from a
# BLAS thread pool competing with them for the same two cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import argparse
import ctypes
import json
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

from sut import ALLOCATOR_PIN  # stdlib-only at import time; this script's directory is on sys.path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SETUP_REPEATS = 5
#: Set in the environment of the process that does the work; see ``supervise``.
SUPERVISED = "REPRO_E2E_SUPERVISED"
#: How long processes that outlive the run get to end on their own.
ORPHAN_GRACE_SECONDS = 10.0
PR_SET_CHILD_SUBREAPER = 36


def provenance(args, workers: int) -> dict:
    import numpy as np

    commit = "unknown"
    if (ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = found.stdout.strip() or commit
    blas = "unknown"
    try:
        libraries = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{libraries.get('name')} {libraries.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "workers": workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "allocator_pinned": all(os.environ.get(k) == v for k, v in ALLOCATOR_PIN.items()),
        "commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": "smoke" if args.smoke else "full",
    }


def run_workload(name: str, args, workers: int) -> dict:
    """One run of one workload; returns the result object of its last line."""
    import hostspeed
    import metrics
    import probes
    import trace
    import workloads

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    ctx = workloads.Context(
        workload=name,
        seed=args.seed,
        scale="smoke" if args.smoke else "full",
        workers=workers,
        results_dir=results,
        log=print,
        speed=hostspeed.HostSpeed(),
    )
    traced = bool(args.trace)
    tracer = trace.Tracer() if traced else trace.OFF
    workload = workloads.make(name)
    shm_before = probes.shm_segments()
    print(f"== {name} (seed {args.seed}, {ctx.scale}, trace {int(traced)}) ==")

    # Set-up, several times: the median is what setup_s reports.  A traced run
    # reports no end-to-end metric, so it sets up once.
    setup_s, state = [], None
    for repeat in range(1 if traced or args.smoke else SETUP_REPEATS):
        if state is not None:
            workload.teardown(state)
        started = time.perf_counter()
        with tracer.span("setup"):
            state = workload.setup(ctx, tracer)
        setup_s.append(time.perf_counter() - started)
    stats = state["corpus"].stats
    print(
        f"  corpus {state['corpus'].name}: {stats['n_users']} x {stats['n_items']}, nnz {stats['nnz']}, "
        f"user degree p50/p99/max {stats['user_degree_p50']:g}/{stats['user_degree_p99']:g}/"
        f"{stats['user_degree_max']}, item degree p50/p99/max {stats['item_degree_p50']:g}/"
        f"{stats['item_degree_p99']:g}/{stats['item_degree_max']}"
    )
    print(f"  set-up: {metrics.summary(setup_s)} s")

    try:
        if traced:
            # Half the time untraced, half traced: their ratio is the tracing
            # overhead on the workload's headline metric.
            plain = workload.measure(ctx, state, args.seconds / 2, trace.OFF)
            with tracer.span("measure"):
                measured = workload.measure(ctx, state, args.seconds / 2, tracer)
            overhead = measured.headline / plain.headline - 1.0
        else:
            measured = workload.measure(ctx, state, args.seconds, trace.OFF)
        workload.check(ctx, state, measured)
    finally:
        stopped = workload.teardown(state)

    values = dict(measured.roles)
    # The set-ups ran in the seconds before the timed region, and the kernel
    # timed right after one says little about it (the host has not settled:
    # ten such samples spread twice as far as the region's few hundred), so
    # set-up is stated at the timed region's host speed.
    values["setup_s"] = metrics.median(setup_s) / measured.region_slowdown
    values["peak_rss_mb"] = stopped.get("peak_rss_mb") or workloads.own_peak_rss_mb()
    as_measured = dict(measured.raw, setup_s=metrics.median(setup_s), peak_rss_mb=values["peak_rss_mb"])
    kernel_ms = ctx.speed.kernel_ms()
    print(
        f"  host: reference kernel {metrics.summary(kernel_ms)} ms, nominal {hostspeed.NOMINAL_MS} ms; "
        "times below are divided by the slowdown of their timed region, rates multiplied"
    )
    for role, (alias, what) in metrics.ROLES[name].items():
        print(
            f"  {role} = {values[role]:.6g} {metrics.UNITS[role]}  "
            f"(as measured {as_measured[role]:.6g})  [{alias}: {what}]"
        )
    print("  as measured: " + json.dumps(as_measured))
    print(f"  attempted {measured.attempted}, failed {measured.failed}")

    if traced:
        tracer.merge(stopped.get("spans", []), stopped.get("counters", {}), "sut.")
        print("  layer probes:")
        layer = probes.run_all(ctx, tracer)
        stderr_text = "".join(
            path.read_text(errors="replace") for path in results.glob(f"sut_{name}_*.stderr")
        )
        leaked = probes.shm_segments() - shm_before
        layer.update(
            {
                "host.kernel_ms": metrics.median(kernel_ms),
                "host.slowdown": ctx.speed.slowdown(),
                "trace.overhead_share": overhead,
                "trace.spans": len(tracer.spans),
                "sut.stderr_tracebacks": stderr_text.count("Traceback (most recent call last)"),
                "sut.shm_leaked_segments": len(leaked),
            }
        )
        tracer.write(
            results / f"trace_{name}.json",
            {"workload": name, "provenance": provenance(args, workers), "end_to_end": values, "per_layer": layer},
        )
        for metric, unit, _better in metrics.PER_LAYER:
            print(f"  {metric} = {layer[metric]:.6g} {unit}")
        names = [metric for metric, *_ in metrics.PER_LAYER]
        payload = metrics.metric_payload(layer, names)
        failed = measured.failed + (1 if leaked else 0)
        if leaked:
            print(f"  LEAK: /dev/shm segments left behind: {sorted(leaked)[:5]}")
    else:
        names = [metric for metric, *_ in metrics.END_TO_END]
        payload = metrics.metric_payload(values, names)
        failed = measured.failed
    return {
        "correct": failed == 0,
        "attempted": int(measured.attempted),
        "failed": int(failed),
        "metrics": payload,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="one of the six workload names")
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0, help="0 for development, 1 for claims")
    parser.add_argument("--seconds", type=float, default=None, help="timed region (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, help="1: per-layer metrics and spans")
    parser.add_argument("--smoke", action="store_true", help="tiny scale for the self-test; numbers mean nothing")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program under test is missing: {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import metrics

    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    if args.smoke:
        args.seconds = min(args.seconds, 1.0)
    if args.all:
        # One process per workload, exactly as if each had been run alone
        # (peak RSS and allocator state do not carry over).
        forwarded = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        forwarded += ["--smoke"] if args.smoke else []
        codes = [
            subprocess.call([sys.executable, __file__, "--workload", name, *forwarded])
            for name in metrics.WORKLOADS
        ]
        return max(codes)
    if args.workload not in metrics.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(metrics.WORKLOADS)} (or pass --all)")
    nproc = os.cpu_count() or 1
    if nproc < 2:
        print("error: timing a client and a server on one core measures their contention; need nproc >= 2", file=sys.stderr)
        return 2
    workers = min(nproc, 2)
    print("provenance: " + json.dumps(provenance(args, workers)))

    import checks
    from sut import SutError

    try:
        result = run_workload(args.workload, args, workers)
    except (checks.CheckFailure, SutError) as error:
        print(f"CHECK FAILED in {args.workload}: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def descendants(root: int) -> list:
    """Pids of every process below ``root`` in the process tree, zombies excluded."""
    children: dict = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            state, parent = Path(f"/proc/{entry}/stat").read_text().rsplit(")", 1)[1].split()[:2]
        except (OSError, ValueError):
            continue  # it ended while we were looking
        if state != "Z":
            children.setdefault(int(parent), []).append(int(entry))
    found, queue = [], [root]
    while queue:
        below = children.get(queue.pop(), [])
        found += below
        queue += below
    return found


def reap_orphans(grace: float) -> list:
    """Wait until this process has no child left; returns the pids it killed.

    As the subreaper, this process inherits whatever outlives the run: pool
    workers, and the multiprocessing resource tracker of the run and of the SUT
    child, which wakes up when its owner exits and then unlinks what it thinks
    leaked.  They get ``grace`` seconds to end; whatever is left is killed.
    """
    deadline = time.monotonic() + grace
    killed: list = []
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed  # none left: each has ended and been waited for
        if pid:
            continue
        if time.monotonic() >= deadline:
            for orphan in descendants(os.getpid()):
                try:
                    os.kill(orphan, signal.SIGKILL)
                    killed.append(orphan)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def supervise(argv) -> int:
    """Run the benchmark in a child; return only when every process has ended.

    The program under test starts process pools, cluster agents and resource
    trackers, in this process tree and in the SUT child's.  Some of them end
    only after the process that started them has exited, so that process
    cannot wait for them.  This one can: it does nothing but start the run
    (under the allocator pin, which glibc reads at process start), adopt
    everything the run leaves behind, and wait for it, on every path out.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init and cannot be waited for

    def stop(signum, _frame):
        raise SystemExit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGHUP):
        signal.signal(signum, stop)
    env = dict(os.environ, **ALLOCATOR_PIN, **{SUPERVISED: "1"})
    child = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), *argv], env=env)
    try:
        try:
            code = child.wait()
        except SystemExit:
            # Stopped from outside: interrupt the run, so that its ``finally``
            # blocks stop the server child and unlink shared memory.  (Ctrl-C
            # reaches the run by itself.)
            child.send_signal(signal.SIGINT)
            raise
    finally:
        for signum in (signal.SIGTERM, signal.SIGHUP):
            signal.signal(signum, signal.SIG_IGN)  # nothing may interrupt the clean-up
        if child.poll() is None:
            try:
                child.wait(timeout=ORPHAN_GRACE_SECONDS)
            except subprocess.TimeoutExpired:
                child.kill()
        killed = reap_orphans(ORPHAN_GRACE_SECONDS)
        if killed:
            print(f"run.py: killed {len(set(killed))} process(es) that outlived the run", file=sys.stderr)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main() if os.environ.get(SUPERVISED) == "1" else supervise(sys.argv[1:]))
