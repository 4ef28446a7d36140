"""The system under test for the wire workloads: one child process.

Hosts ``RecommenderRuntime -> BatchingFrontEnd -> GatewayThread`` and obeys
commands that arrive over a pipe (pickled ``(op, kwargs)`` on stdin, pickled
reply dicts on the descriptor that was stdout).  The load generator lives in
the parent, so client and server never share an interpreter lock.

The process executor's workers are spawn-context children that re-import this
file, which is why everything runs behind ``if __name__ == "__main__"``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported: parallelism must come from the program's
# own executors, not from a BLAS thread pool fighting them for two cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

import pickle
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
import warnings
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: glibc reads these once, at process start: serve every block from the heap
#: and never hand memory back.  ``run.py`` starts the run under them and
#: every child inherits them.  Why the benchmark needs them: on this kind of
#: VM the host backs guest pages lazily and a fresh page costs 10-20 us to
#: touch, in bursts.  Under the default allocator the trainer's 35 MB
#: temporaries are mmap'd and re-faulted on every use, and 16 identical
#: back-to-back fits in one process took 0.6 to 4.7 s each (three seeds; under
#: the pin 0.75 to 0.92 s after the warm-up fits), so no bound could hold.
#: What the pin hides stays visible in the ``alloc.*`` layer metrics, which a
#: traced run measures in a child started without it.
ALLOCATOR_PIN = {"MALLOC_MMAP_THRESHOLD_": "4294967296", "MALLOC_TRIM_THRESHOLD_": "4294967296"}


def _median_ms(function, repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        function()
        samples.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(samples)


class Sut:
    """Command handlers; one instance per child process."""

    def __init__(self) -> None:
        self.runtime = None
        self.front = None
        self.gateway = None
        self.tracer = None
        self.worker_pids = ()

    def start(self, csr_parts, model, workers, front, gateway, trace):
        import scipy.sparse as sp

        from repro import OCuLaR
        from repro.data.interactions import InteractionMatrix
        from repro.runtime import BatchingFrontEnd, GatewayThread, RecommenderRuntime

        from trace import OFF, Tracer

        self.tracer = Tracer() if trace else OFF
        data, indices, indptr, shape = csr_parts
        matrix = InteractionMatrix.from_validated_csr(
            sp.csr_matrix((data, indices, indptr), shape=shape)
        )
        timings = {}
        started = time.perf_counter()
        with self.tracer.span("runtime.construct"):
            self.runtime = RecommenderRuntime(executor="process", max_workers=workers)
        timings["runtime_construct_s"] = time.perf_counter() - started
        started = time.perf_counter()
        with self.tracer.span("runtime.fit"):
            fitted = self.runtime.fit(OCuLaR(**model), matrix)
        timings["fit_s"] = time.perf_counter() - started
        started = time.perf_counter()
        with self.tracer.span("runtime.publish"):
            generation = self.runtime.publish()
        timings["publish_s"] = time.perf_counter() - started
        started = time.perf_counter()
        with self.tracer.span("gateway.start"):
            self.front = BatchingFrontEnd(self.runtime, **front)
            self.gateway = GatewayThread(self.front, **gateway).start()
        timings["gateway_start_s"] = time.perf_counter() - started
        # One request through the whole stack so workers attach the published
        # generation before the parent starts timing.
        from repro.api import RecommendRequest

        self.front.submit_request(RecommendRequest(users=(0,), n_items=10)).result()
        self.worker_pids = tuple(self.runtime.worker_pids())
        history = fitted.history_
        return {
            "address": tuple(self.gateway.address),
            "generation": generation,
            "factors": self._factors(),
            "timings": timings,
            "iteration_seconds": list(history.iteration_seconds),
            "objective_values": list(history.objective_values),
            "solver": {
                "regularization": fitted.regularization,
                "sigma": fitted.sigma,
                "beta": fitted.beta,
                "max_backtracks": fitted.max_backtracks,
            },
        }

    def _factors(self):
        factors = self.runtime.model.factors_
        return factors.user_factors, factors.item_factors

    def ingest(self, pairs, n_new_users):
        started = time.monotonic()
        with self.tracer.span("runtime.ingest"):
            stats = self.runtime.ingest(pairs, n_new_users=n_new_users)
        return {"start": started, "end": time.monotonic(), "nnz": stats.nnz, "drift": stats.drift}

    def refit(self, max_iterations):
        model = self.runtime.model
        model.max_iterations = max_iterations
        started = time.monotonic()
        with self.tracer.span("runtime.refit"), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # iteration-budget convergence warning
            self.runtime.refit(mode="warm")
        return {
            "start": started,
            "end": time.monotonic(),
            "iterations": model.history_.n_iterations,
            "mode": self.runtime.last_refit_mode,
        }

    def update(self):
        started = time.monotonic()
        with self.tracer.span("runtime.update"):
            generation = self.runtime.update()
        return {"start": started, "end": time.monotonic(), "generation": generation}

    def factors(self):
        return {"generation": self.runtime.generation, "factors": self._factors()}

    def cpu(self):
        """CPU seconds used so far by this process and its pool workers.

        The workers are alive, so ``RUSAGE_CHILDREN`` does not count them yet;
        their ``utime + stime`` come from ``/proc`` (10 ms ticks).
        """
        ticks = os.sysconf("SC_CLK_TCK")
        workers = 0.0
        for pid in self.worker_pids:
            try:
                fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
            except OSError:
                continue  # a worker that was replaced
            workers += (int(fields[11]) + int(fields[12])) / ticks
        return {"cpu_s": time.process_time() + workers}

    def ladder(self, users, cold_items, repeats):
        """Medians of requests entered at each level below the gateway.

        The 1-user top-10 request is timed at the batcher, the runtime and
        the engine, which is what the wire floor is partitioned against; the
        64-user and cold-start requests are timed at the runtime only.
        """
        from repro.api import RecommendRequest

        single = RecommendRequest(users=users[:1], n_items=10)
        bulk = RecommendRequest(users=users, n_items=10)
        cold = RecommendRequest(interactions=(cold_items,), n_items=10)
        engine = self.runtime.engine
        recommend = self.runtime.recommend
        with self.tracer.span("probe.ladder"):
            return {
                "batcher_submit_1_ms": _median_ms(
                    lambda: self.front.submit_request(single).result(), repeats
                ),
                "runtime_recommend_1_ms": _median_ms(lambda: recommend(single), repeats),
                "engine_single_user_ms": _median_ms(
                    lambda: engine.topn(single.users, n_items=10), repeats
                ),
                "runtime_recommend_64_ms": _median_ms(lambda: recommend(bulk), max(3, repeats // 8)),
                "runtime_recommend_cold_ms": _median_ms(lambda: recommend(cold), max(3, repeats // 40)),
            }

    def stats(self):
        payload = self.gateway.gateway.stats_payload()
        return {
            "batching": self.front.stats().as_dict(),
            "gateway": payload["gateway"],
            "serving": payload.get("serving", {}),
            "serving_calls": self.runtime.serving_calls,
        }

    def stop(self):
        timings = {}
        for name, closer in (
            ("gateway_close_s", self.gateway and self.gateway.close),
            ("front_close_s", self.front and self.front.close),
            ("runtime_close_s", self.runtime and self.runtime.close),
        ):
            if closer:
                started = time.perf_counter()
                closer()
                timings[name] = time.perf_counter() - started
        own = resource.getrusage(resource.RUSAGE_SELF)
        children = resource.getrusage(resource.RUSAGE_CHILDREN)  # the workers are reaped by now
        return {
            "timings": timings,
            "peak_rss_mb": (own.ru_maxrss + children.ru_maxrss) / 1024.0,
            "minor_faults": own.ru_minflt + children.ru_minflt,
            "spans": self.tracer.spans if self.tracer else [],
            "counters": self.tracer.counters if self.tracer else {},
        }


class SutError(RuntimeError):
    """A command failed inside the child (the message is its traceback)."""


class SutHandle:
    """Parent-side handle: spawn the child, command it, always reap it."""

    def __init__(self, stderr_path: Path, env: Optional[dict] = None) -> None:
        stderr_path.parent.mkdir(parents=True, exist_ok=True)
        self.stderr_path = stderr_path
        self._stderr = open(stderr_path, "wb")
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "sut.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            cwd=str(ROOT),
            env=env,
        )

    def call(self, op: str, **kwargs) -> dict:
        pickle.dump((op, kwargs), self.process.stdin, protocol=pickle.HIGHEST_PROTOCOL)
        self.process.stdin.flush()
        try:
            reply = pickle.load(self.process.stdout)
        except EOFError as error:
            raise SutError(f"the SUT exited during {op!r} (see {self.stderr_path})") from error
        if not reply.pop("ok"):
            raise SutError(reply["error"])
        return reply

    def stop(self, timeout: float = 30.0) -> dict:
        """Ask the child to shut down; kill it if it has not exited in time."""
        watchdog = threading.Timer(timeout, self.process.kill)
        watchdog.start()
        try:
            if self.process.poll() is None:
                return self.call("stop")
            return {}
        finally:
            try:
                self.process.stdin.close()
                self.process.wait(timeout=timeout)
            except (OSError, subprocess.TimeoutExpired):
                self.process.kill()
                self.process.wait()
            finally:
                watchdog.cancel()
                self.process.stdout.close()
                self._stderr.close()


def serve(reader, writer) -> None:
    sut = Sut()
    while True:
        try:
            op, kwargs = pickle.load(reader)
        except EOFError:
            op, kwargs = "stop", {}
        try:
            reply = {"ok": True, **getattr(sut, op)(**kwargs)}
        except Exception:  # the parent decides what a failed command means
            reply = {"ok": False, "error": traceback.format_exc()}
        pickle.dump(reply, writer, protocol=pickle.HIGHEST_PROTOCOL)
        writer.flush()
        if op == "stop":
            return


if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    # Keep the reply channel private: anything printed lands on stderr.
    channel = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    serve(sys.stdin.buffer, channel)
