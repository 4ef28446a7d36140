"""The long-lived recommender runtime: warm pools + published serving state.

The paper's deployment (Section VIII) is a persistent service: models are
retrained on a schedule and serve heavy top-N traffic in between.  The
one-shot lifecycle of ``OCuLaR(...).fit(...)`` cannot express that — every
name-configured fit builds a worker pool, uses it for one fit, and tears it
down (correct for ``/dev/shm`` hygiene, wasteful for a service that refits
hourly), and every ``serve_sharded`` call republishes or pickles its engine.

:class:`RecommenderRuntime` owns the long-lived resources exactly once:

* **one warm executor** (resolved through the
  :mod:`repro.parallel.scheduler` registry) lives for the whole runtime and
  is *borrowed* — never shut down — by everything the runtime drives:
  :meth:`fit` / :meth:`refit` thread it through the trainer via a borrowed
  :class:`~repro.core.backends.ParallelBackend`, and serving shards fan out
  on it.  Pool start-up is paid once, not once per fit.  The executor and
  its pool size are the runtime's only settings: a training sweep is cut
  into one shard per pool worker, and every published engine is a
  :class:`~repro.serving.engine.TopNEngine` at its defaults.  Fold-in
  (cold-start requests, the new rows of a warm refit's seed) solves on the
  calling thread: one small subproblem per row costs less than a dispatch;

* **one publication per model version**: :meth:`publish` pushes the trained
  factor matrices through the publication protocol
  (:mod:`repro.parallel.publication`), next to the CSR seen-mask of the
  training matrix, which is published once per matrix and shared by every
  version built on it.  Every sharded :meth:`recommend` call on a
  publishing executor ships only ``(user shard, descriptors)`` — no factor
  bytes per task — and workers attach zero-copy (``"process"``) or fetch
  once per node (``"cluster"``).  Rankings are byte-identical to the
  single-process :class:`~repro.serving.engine.TopNEngine`;

* **one request path**: :meth:`recommend` pins a generation once — a
  reference in the :mod:`~repro.runtime.generations` table, dropped when
  the call returns.  Known users go through the one dispatcher,
  :func:`~repro.serving.batch.fan_out_topn`, and there is no fan-out
  without a fan: a call whose users make one shard (``shard_size``
  defaults to the engine's chunk size) runs on the calling thread, on the
  pinned generation's in-process engine — the rule the training layer's
  ``ParallelBackend._sweep_rows`` already follows.  Cold-start rows are
  ranked where they were folded in and scored, on that same engine:
  ranking is a few percent of a cold-start call, so a fan-out has nothing
  to win there;

* **generation swap semantics**: :meth:`update` publishes a fresh
  generation and retires the old one — released immediately when idle, or
  when its last holder (an in-flight call, a :class:`ServingSession`) lets
  go, so a swap never races a worker that has yet to attach, and never
  rewrites arrays one still reads.  A released generation's factor
  segments are rewritten in place by the next generation of the same
  shapes; its seen mask unlinks with the last generation on its matrix
  (see :mod:`~repro.runtime.generations`).  Workers prune stale
  attachments when the new generation reaches them.  On :meth:`close` (or
  context exit) the owned executor is drained and every segment unlinked —
  ``/dev/shm`` is verifiably clean afterwards, which the test-suite
  asserts.
"""

from __future__ import annotations

import inspect
import os
import threading
import time
from dataclasses import dataclass
from typing import Optional, Sequence, Set, Tuple

import numpy as np

from repro.api import RecommendRequest, RecommendResponse
from repro.core.backends import ParallelBackend
from repro.core.factors import FactorModel
from repro.data.interactions import InteractionMatrix
from repro.exceptions import ConfigurationError, NotFittedError
from repro.parallel import ShardScheduler
from repro.runtime.generations import GenerationTable, _Generation
from repro.serving.batch import fan_out_topn
from repro.serving.engine import TopNEngine
from repro.serving.fold_in import (
    _interactions_to_csr, _solver_constants, extend_factors, fold_in_scores,
)
from repro.serving.results import TopNResult
from repro.serving.shared import SharedEngineSpec


#: Plateau tolerance a warm :meth:`RecommenderRuntime.refit` passes to the
#: trainer when the caller does not choose one.  Loose relative to the strict
#: convergence tolerance on purpose: a warm start lands near the optimum, so
#: the refit should stop after the few sweeps that still move the objective.
#: The value matches the incremental-refit study's validated default.
DEFAULT_WARM_PLATEAU_TOLERANCE = 3e-4

#: Interaction-drift ceiling for ``refit(mode="auto")``: while the fraction of
#: positives ingested since the last full fit stays at or below it, auto
#: refits warm-start from the previous generation's factors; beyond it they
#: fall back to a full cold retrain.
DRIFT_THRESHOLD = 0.25


def _probe_pid(task_index: int) -> int:
    """Worker-side probe used by :meth:`RecommenderRuntime.worker_pids`.

    The short sleep keeps the probe task alive long enough that the pool
    spreads the batch over several workers instead of letting one worker
    drain the queue.
    """
    time.sleep(0.005)
    return os.getpid()


@dataclass(frozen=True)
class IngestStats:
    """Result of one :meth:`RecommenderRuntime.ingest` delta.

    Attributes
    ----------
    n_pairs:
        Positive pairs in the delta (including re-sent existing pairs, which
        are idempotent).
    n_new_users, n_new_items:
        Rows / columns appended by the delta.
    n_users, n_items, nnz:
        Shape and positive count of the grown corpus after the delta.
    drift:
        Interaction drift since the last full (cold) fit — the fraction of
        the corpus's positives that arrived after that fit.  This is the
        quantity ``refit(mode="auto")`` compares against
        :data:`DRIFT_THRESHOLD`.
    """

    n_pairs: int
    n_new_users: int
    n_new_items: int
    n_users: int
    n_items: int
    nnz: int
    drift: float


@dataclass(frozen=True)
class _PublishedSolver:
    """Frozen fold-in view of one model version, captured at publish time.

    Serving must keep answering from the published version even after the
    runtime refits the *same model object* (which replaces its ``factors_``
    in place on the instance).  This snapshot pins the
    :class:`~repro.core.factors.FactorModel` and the regularisation the
    fold-in subproblem needs; it quacks like a fitted model for
    :func:`~repro.serving.fold_in.fold_in_users`.
    """

    factors_: FactorModel
    regularization: float


class ServingSession:
    """A pinned view of one published model version.

    Acquired through :meth:`RecommenderRuntime.serving_session`: the session
    takes one in-flight reference on the generation published at acquisition
    time, and every :meth:`recommend` routed through it serves **that**
    version — even if :meth:`RecommenderRuntime.update`
    swaps the runtime to a newer generation mid-flight (the pinned
    generation's segments stay attachable until the session releases).  This
    is the generation-safety hook the micro-batching front-end builds on: a
    micro-batch is sealed against one session, so every request in it is
    answered by the model version the batch was formed against.

    Use as a context manager (or call :meth:`release` exactly once)::

        with runtime.serving_session() as session:
            response = session.recommend(RecommendRequest(users=users))
    """

    def __init__(self, runtime: "RecommenderRuntime") -> None:
        self._runtime = runtime
        self._held = runtime._generations.pin()
        self._spec = self._held.spec  # what the shm-hygiene tests look up
        self._released = False
        # Sessions may be shared across threads (the documented "series of
        # calls" shape): release() must drop the session's reference once.
        self._lock = threading.Lock()

    @property
    def generation(self) -> int:
        """The runtime generation this session is pinned to."""
        return self._held.number

    @property
    def released(self) -> bool:
        """Whether :meth:`release` has run."""
        return self._released

    def _held_generation(self) -> _Generation:
        """The pinned generation, for a call about to take its own reference.

        A release racing this check is safe: the table refuses a reference
        on a generation that has gone, and one that has not is servable.
        """
        if self._released:
            raise ConfigurationError("the serving session has been released")
        return self._held

    def recommend(
        self, request: RecommendRequest, shard_size: Optional[int] = None
    ) -> RecommendResponse:
        """:meth:`RecommenderRuntime.recommend` against the pinned generation."""
        return self._runtime.recommend(request, session=self, shard_size=shard_size)

    def release(self) -> None:
        """Drop the session's generation reference; idempotent.

        If the generation was retired by a swap while the session was open,
        it is released when the last reference (possibly this one) drains —
        exactly like a long-running direct serving call: its factor segments
        go to the next generation, its seen mask unlinks with its matrix.
        """
        with self._lock:
            if self._released:
                return
            self._released = True
        self._runtime._generations.unpin(self._held)

    def __enter__(self) -> "ServingSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "released" if self._released else "pinned"
        return f"{type(self).__name__}(generation={self.generation}, {state})"


class RecommenderRuntime:
    """Warm-pool training and zero-copy serving under one lifecycle.

    Parameters
    ----------
    executor:
        Executor name from the :mod:`repro.parallel.scheduler` registry
        (``"process"`` — the default and the reason this class exists —
        ``"cluster"``, ``"thread"`` or ``"serial"``), or a prebuilt
        instance.  A name is owned: the runtime builds the executor once and
        shuts it down in :meth:`close`.  An instance is borrowed: the runtime
        unpublishes its own segments on close but leaves the executor running.
    max_workers:
        Pool size for a name-built executor (default: the CPU count).

    Every training sweep is cut into one shard per pool worker, and every
    published engine is a :class:`~repro.serving.engine.TopNEngine` at its
    defaults: it scores in the trained dtype, ``DEFAULT_CHUNK_SIZE`` users
    per BLAS call, and one chunk is the default serving shard.

    Typical service loop::

        with RecommenderRuntime(executor="process", max_workers=8) as runtime:
            runtime.fit(OCuLaR(n_coclusters=100, regularization=10.0), matrix)
            runtime.publish()                       # model version 1 serves
            response = runtime.recommend(
                RecommendRequest(users=range(matrix.n_users), n_items=10)
            )
            ...
            runtime.refit(new_matrix)               # same warm pool
            runtime.update()                        # swap to version 2
        # pool drained, every /dev/shm segment unlinked
    """

    def __init__(
        self,
        executor="process",
        max_workers: Optional[int] = None,
    ) -> None:
        self._scheduler = ShardScheduler(executor, max_workers=max_workers)
        # Built eagerly: the runtime's whole point is holding the pool warm.
        self._executor = self._scheduler.executor
        n_shards = (
            getattr(self._executor, "max_workers", None)
            or max_workers
            or os.cpu_count()
            or 1
        )
        # Borrowed by every fit this runtime runs: the trainer is handed an
        # instance, so it never shuts the backend down.
        self._backend = ParallelBackend(n_shards=int(n_shards), executor=self._executor)
        self.model = None
        self.train_matrix = None
        # Drift bookkeeping for the incremental-refit policy: the corpus
        # size at the last *full* fit.
        self._full_fit_nnz: Optional[int] = None
        self.last_refit_mode: Optional[str] = None
        # Serving dispatches this runtime has performed — the coalescing
        # ratio of a batching front-end is visible as
        # serving_calls << requests submitted.
        self.serving_calls = 0
        # The published generations and who holds them: every request pins
        # one for its duration, every session until it is released.
        self._generations = GenerationTable(self._executor)
        self._swap_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def executor(self):
        """The warm executor every fit and serving call runs on."""
        return self._executor

    @property
    def backend(self) -> ParallelBackend:
        """The warm training backend (borrowed by fits; never torn down by them)."""
        return self._backend

    @property
    def generation(self) -> int:
        """Number of the newest published model version (0 before the first)."""
        return self._generations.number

    @property
    def engine(self) -> Optional[TopNEngine]:
        """The serving engine of the currently published model version."""
        current = self._generations.current
        return None if current is None else current.engine

    @property
    def published_spec(self) -> Optional[SharedEngineSpec]:
        """Descriptors of the published generation (``None`` on the local path)."""
        current = self._generations.current
        return None if current is None else current.spec

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._closed

    def worker_pids(self) -> Set[int]:
        """PIDs observed executing four probe tasks per pool worker.

        For a process executor this is a subset of the pool's worker PIDs —
        stable across fits iff the pool is genuinely warm, which the
        test-suite asserts.  Thread and serial executors report the calling
        process.
        """
        self._check_open()
        probes = 4 * (getattr(self._executor, "max_workers", None) or 1)
        return set(self._executor.map(_probe_pid, range(probes)))

    # ------------------------------------------------------------------ #
    # Training on the warm pool
    # ------------------------------------------------------------------ #
    def fit(self, model, matrix, callback=None, **fit_kwargs):
        """Fit ``model`` on ``matrix`` using the runtime's warm pool.

        Models whose ``fit`` accepts a ``backend`` override (the OCuLaR
        family) train through the runtime's borrowed
        :class:`~repro.core.backends.ParallelBackend` — their own configured
        backend is neither used nor modified, and the pool survives the fit.
        Other recommenders (the baselines) fit as themselves.  The fitted
        model becomes the runtime's current model; call :meth:`publish` to
        serve it.

        Extra keyword arguments are forwarded to ``model.fit`` when its
        signature accepts them (``initial_factors``, ``plateau_tolerance``,
        ...); an unsupported one raises
        :class:`~repro.exceptions.ConfigurationError` instead of silently
        changing what the fit means.  A fit **without** ``initial_factors``
        is a full fit and resets the drift baseline :attr:`drift` and
        ``refit(mode="auto")`` measure against.
        """
        return self._fit(model, matrix, None, callback, fit_kwargs)

    def _fit(self, model, matrix, read, callback, fit_kwargs):
        """:meth:`fit`, installing ``matrix`` only if the stored corpus is ``read``.

        ``read`` is the stored corpus a refit started from, ``None`` for a
        corpus the caller passed in.  A delta :meth:`ingest` stored while a
        refit ran therefore stays stored, and counts as drift.
        """
        self._check_open()
        parameters = inspect.signature(model.fit).parameters
        kwargs = {}
        if "backend" in parameters:
            kwargs["backend"] = self._backend
        if callback is not None:
            kwargs["callback"] = callback
        for name, value in fit_kwargs.items():
            if name not in parameters:
                raise ConfigurationError(
                    f"{type(model).__name__}.fit does not accept {name!r}"
                )
            kwargs[name] = value
        model.fit(matrix, **kwargs)
        with self._swap_lock:
            self.model = model
            if read is None or self.train_matrix is read:
                self.train_matrix = matrix
            if fit_kwargs.get("initial_factors") is None:
                nnz = getattr(matrix, "nnz", None)
                self._full_fit_nnz = int(nnz) if nnz is not None else None
        # The fit's plan arrays are dead weight between fits; drop them now
        # instead of letting them ride the executor's LRU.  Scoped to the
        # warm backend's own keys (and serialised against its in-flight
        # sweeps), so another fit sharing the backend and the serving
        # generations are untouched.
        self._backend.release_published()
        return model

    def refit(self, matrix=None, callback=None, mode: str = "cold"):
        """Refit the current model (on ``matrix`` or the stored one), warm pool.

        Parameters
        ----------
        matrix:
            Corpus to refit on; defaults to the stored one — which includes
            every delta :meth:`ingest` has accumulated.  A delta ingested
            while a refit of the stored corpus runs stays stored: the refit
            does not put back the corpus it read.
        mode:
            ``"cold"`` (default, and the exact pre-incremental behaviour):
            retrain from fresh random factors with the model's configured
            stopping rule.  ``"warm"``: seed from the previous generation's
            factors, extended to the target corpus via
            :func:`~repro.serving.fold_in.extend_factors` (new users folded
            in against the old catalogue, new items against the extended
            users), and stop on objective plateau
            (:data:`DEFAULT_WARM_PLATEAU_TOLERANCE`, the trainer's patience).
            ``"auto"``: warm while :attr:`drift` is at or below
            :data:`DRIFT_THRESHOLD`, cold beyond it — the policy loop of a
            deployment that ingests continuously.

        The resolved mode of the last refit is recorded in
        :attr:`last_refit_mode`.
        """
        if self.model is None:
            raise NotFittedError("refit requires a previous runtime.fit")
        read = self.train_matrix if matrix is None else None
        target = read if matrix is None else matrix
        if target is None:
            raise ConfigurationError("refit needs a matrix (none stored)")
        if mode not in ("warm", "cold", "auto"):
            raise ConfigurationError(
                f"refit mode must be 'warm', 'cold' or 'auto', got {mode!r}"
            )
        warm_capable = (
            getattr(self.model, "is_fitted", False)
            and "initial_factors" in inspect.signature(self.model.fit).parameters
        )
        resolved = mode
        if mode == "auto":
            resolved = (
                "warm"
                if warm_capable and self.drift <= DRIFT_THRESHOLD
                else "cold"
            )
        kwargs = {}
        if resolved == "warm":
            if not warm_capable:
                raise ConfigurationError(
                    "warm refit requires a fitted model whose fit() accepts "
                    f"initial_factors; {type(self.model).__name__} does not"
                )
            kwargs = dict(
                initial_factors=extend_factors(self.model, target),
                plateau_tolerance=DEFAULT_WARM_PLATEAU_TOLERANCE,
            )
        result = self._fit(self.model, target, read, callback, kwargs)
        self.last_refit_mode = resolved
        return result

    # ------------------------------------------------------------------ #
    # Delta ingestion / drift
    # ------------------------------------------------------------------ #
    def ingest(
        self,
        pairs: Sequence[Tuple[int, int]],
        n_new_users: int = 0,
        n_new_items: int = 0,
    ) -> IngestStats:
        """Accumulate a delta of interactions (and new users/items) into the corpus.

        The stored training matrix is replaced by its
        :meth:`~repro.data.interactions.InteractionMatrix.extended_with`
        extension — pure CSR concatenation, no densification, the published
        serving generation untouched.  New users become servable
        **immediately**: :meth:`recommend` detects users beyond the published
        generation's corpus and routes them through the fold-in path using
        their ingested interactions (new *items* enter rankings only after
        the next ``refit`` + ``update``).  The returned stats carry the
        accumulated :attr:`drift`, which ``refit(mode="auto")`` uses to
        choose between a warm and a cold retrain.
        """
        self._check_open()
        pair_list = list(pairs)
        # Read, extend and replace under one lock: two ingests that both
        # extended the same old matrix would drop one delta.
        with self._swap_lock:
            if self.train_matrix is None:
                raise NotFittedError(
                    "ingest requires a corpus; run runtime.fit(model, matrix) first"
                )
            if not isinstance(self.train_matrix, InteractionMatrix):
                raise ConfigurationError(
                    "ingest requires the stored corpus to be an InteractionMatrix, "
                    f"got {type(self.train_matrix).__name__}"
                )
            extended = self.train_matrix.extended_with(
                pair_list, n_new_users=n_new_users, n_new_items=n_new_items
            )
            self.train_matrix = extended
            drift = self._drift(extended)
        return IngestStats(
            n_pairs=len(pair_list),
            n_new_users=int(n_new_users),
            n_new_items=int(n_new_items),
            n_users=extended.n_users,
            n_items=extended.n_items,
            nnz=extended.nnz,
            drift=drift,
        )

    @property
    def drift(self) -> float:
        """Fraction of positives ingested since the last full (cold) fit.

        ``(nnz_now - nnz_at_full_fit) / nnz_at_full_fit`` — the cheap,
        always-available signal ``refit(mode="auto")`` thresholds on.  Zero
        before any full fit or ingest.
        """
        return self._drift(self.train_matrix)

    def _drift(self, matrix) -> float:
        nnz = getattr(matrix, "nnz", None)
        if self._full_fit_nnz is None or nnz is None:
            return 0.0
        return (int(nnz) - self._full_fit_nnz) / max(self._full_fit_nnz, 1)

    # ------------------------------------------------------------------ #
    # Publication / model-version swap
    # ------------------------------------------------------------------ #
    def publish(self, model=None) -> int:
        """Make ``model`` (default: the last fitted) the serving version.

        Builds the serving engine and — on a publishing executor (process
        pool, cluster) with a factor-path engine — publishes it as a fresh
        generation.  The generation copies only its two factor matrices,
        into the segments of a released generation when one is free (bytes
        rewritten in place when the shapes and dtype match), else into new
        ones.  The CSR seen-mask is published once per training matrix: a
        generation on the matrix the previous one served shares its mask.
        The previously published generation is released after the swap —
        immediately when idle, or as soon as its last holder lets go (each
        call pins the generation it serves from, so a swap can never pull
        segments out from under it or rewrite them).  Released, its factor
        segments wait for the next generation and its seen mask unlinks if
        no generation on its matrix is left.  A publish that fails leaves
        the serving generation as it was and nothing of what it wrote.
        Returns the runtime's generation number.
        """
        self._check_open()
        model = self.model if model is None else model
        if model is None or not getattr(model, "is_fitted", False):
            raise NotFittedError("publish requires a fitted model")
        factors = getattr(model, "factors_", None)
        solver = (
            _PublishedSolver(factors_=factors, **_solver_constants(model))
            if isinstance(factors, FactorModel)
            else None
        )
        number = self._generations.install(TopNEngine.from_model(model), solver)
        self.model = model
        return number

    def update(self, model=None) -> int:
        """Swap the serving state to a new model version.

        Alias of :meth:`publish` with swap-first phrasing: publishes a new
        generation — its factors into the old generation's segments once
        those are released, the seen mask shared while the training matrix
        is the same — and retires the old one.
        """
        return self.publish(model)

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def serving_session(self) -> ServingSession:
        """Pin the currently published model version for a series of calls.

        Returns a :class:`ServingSession` holding one in-flight reference on
        the current generation; calls routed through the session keep
        serving that version across concurrent :meth:`update` swaps.  The
        caller must release the session (context manager or
        :meth:`ServingSession.release`).
        """
        self._check_open()
        return ServingSession(self)

    def recommend(
        self,
        request: RecommendRequest,
        session: Optional[ServingSession] = None,
        shard_size: Optional[int] = None,
    ) -> RecommendResponse:
        """Serve one :class:`~repro.api.RecommendRequest` — the unified entrypoint.

        Pins one generation for the whole call — the currently published
        one, or the one ``session`` holds — and serves per request kind:
        known users (``request.users``) fan out as top-N shards, cold-start
        rows (``request.interactions``) are folded in, scored and ranked on
        the pinned engine.  Rankings are ``np.array_equal`` to the
        single-process :class:`~repro.serving.engine.TopNEngine` for the
        same model version.  Thread-safe: concurrent calls may interleave
        with :meth:`update` and each call serves one consistent model
        version.  ``shard_size`` is an operational knob (known users per
        worker task), not part of the request.
        """
        if not isinstance(request, RecommendRequest):
            raise ConfigurationError(
                f"recommend() takes a RecommendRequest, got {type(request).__name__}"
            )
        started = time.perf_counter()
        self._check_open()
        pinned = self._generations.pin(
            None if session is None else session._held_generation()
        )
        try:
            if request.kind == "topn":
                rankings = self._rank_users(pinned, request, shard_size)
            else:
                rankings = self._rank_cold(pinned, request, request.interactions)
        finally:
            self._generations.unpin(pinned)
        return RecommendResponse(
            rankings=rankings,
            generation=pinned.number,
            serve_ms=(time.perf_counter() - started) * 1000.0,
            batch_users=request.n_rows,
        )

    def _rank_users(
        self, pinned: _Generation, request: RecommendRequest, shard_size: Optional[int]
    ) -> TopNResult:
        """Top-N for the request's users, in request order.

        Users inside the pinned generation's corpus go down the sharded
        top-N path.  Users ingested after it are not in its factor matrix:
        they are folded in from their accumulated interactions (restricted
        to the published catalogue — ingested *items* only enter rankings
        after a refit + update) against the same pinned generation, so a
        mid-flight :meth:`update` can never split the batch across model
        versions.
        """
        try:
            users = np.asarray(request.users, dtype=np.int64)
        except OverflowError as error:
            raise ConfigurationError("user indices must fit a 64-bit integer") from error
        engine = pinned.engine
        fresh = users >= engine.train_matrix.n_users
        if not fresh.any():
            return self._rank_known(pinned, request, users, shard_size)
        matrix = self.train_matrix
        if not isinstance(matrix, InteractionMatrix):
            raise ConfigurationError(
                "serving post-ingest users requires the runtime's stored "
                "InteractionMatrix corpus"
            )
        if users.max() >= matrix.n_users:
            raise ConfigurationError(f"user indices must lie in [0, {matrix.n_users})")
        interactions = matrix.csr()[users[fresh], : engine.n_items]
        parts = []
        if not fresh.all():
            parts.append(self._rank_known(pinned, request, users[~fresh], shard_size))
        parts.append(self._rank_cold(pinned, request, interactions))
        # The parts hold the known rows, then the folded ones; a request
        # row's place in that order is its rank under a stable sort on
        # ``fresh``.
        return TopNResult.concat(parts)[np.argsort(np.argsort(fresh, kind="stable"))]

    def _rank_known(
        self,
        pinned: _Generation,
        request: RecommendRequest,
        users: np.ndarray,
        shard_size: Optional[int],
    ) -> TopNResult:
        """Sharded known-users top-N over the warm pool.

        On the shared path each task carries only the pinned generation's
        descriptors and its user shard; rankings are ``np.array_equal`` to
        the single-process engine's for every user.
        """
        rankings, _n_shards = fan_out_topn(
            self._scheduler,
            pinned.engine,
            users,
            request.n_items,
            request.exclude_seen,
            shard_size=shard_size,
            with_scores=request.with_scores,
            spec=pinned.spec,
        )
        self._count_serving_call()
        return rankings

    def _rank_cold(
        self, pinned: _Generation, request: RecommendRequest, interactions
    ) -> TopNResult:
        """Cold-start serving: fold in, score and rank on the pinned engine.

        The interaction vectors are folded into the **pinned** model version
        — even if a later :meth:`fit` has since replaced :attr:`model` — on
        the calling thread; rankings equal
        :func:`repro.serving.fold_in.recommend_folded` exactly.
        """
        engine = pinned.engine
        if engine.factors is None or pinned.solver is None:
            raise ConfigurationError(
                "cold-start serving requires a factor-path model version"
            )
        csr = _interactions_to_csr(interactions, engine.n_items)
        scores = fold_in_scores(
            engine,
            csr,
            model=pinned.solver,  # the publish-time solver snapshot
            n_sweeps=request.n_sweeps,
            tolerance=request.tolerance,
        )
        ranked = engine.rank_scored(
            scores,
            n_items=request.n_items,
            seen=csr if request.exclude_seen else None,
            with_scores=request.with_scores,
            writable=True,  # the fold-in block is this call's own
        )
        self._count_serving_call()
        return ranked

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release everything the runtime owns; idempotent.

        An owned (name-built) executor is drained — in-flight serving tasks
        finish — and then every shared-memory segment it holds is unlinked,
        leaving ``/dev/shm`` clean.  A borrowed executor instance is left
        running; only the runtime's own publications are unlinked from it.
        """
        if self._closed:
            return
        self._closed = True
        # Unlinked now when idle, with the free factor segments; a
        # generation some call or session still holds unlinks when that
        # holder lets go (on an owned executor the shutdown below has by
        # then removed it anyway).
        self._generations.close()
        self._backend.shutdown()
        self._scheduler.shutdown()

    def __enter__(self) -> "RecommenderRuntime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _count_serving_call(self) -> None:
        """Count one completed serving dispatch."""
        with self._swap_lock:
            self.serving_calls += 1

    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError("the runtime is closed")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "closed" if self._closed else f"generation={self.generation}"
        return (
            f"{type(self).__name__}(executor={self._scheduler.executor_name!r}, "
            f"n_shards={self._backend.n_shards}, {state})"
        )
