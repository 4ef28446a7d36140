"""Vectorized (batched) backend — the GPU-kernel stand-in.

The paper's CUDA kernel (Section VI-A) parallelises the gradient computation
over the positive ratings: each positive ``(u, i)`` contributes
``f_u * alpha(<f_u, f_i>)`` to item ``i``'s gradient, accumulated with atomic
adds.  The same structure maps onto one sparse-matrix product here:

* compute the affinity of every positive entry by ``einsum`` over the plan's
  precomputed entry list (the "thread block per rating" of the paper), in
  cache-sized blocks (:func:`repro.core.objective.entry_affinities`),
* scatter ``weight * alpha(affinity)`` back through the plan's CSR structure
  and multiply by the fixed factors to accumulate all row gradients at once
  (the atomic-add reduction),
* run the Armijo backtracking for all rows simultaneously, compacting the
  set of rows whose step has not yet been accepted.

The result is mathematically identical to the reference backend but runs one
to two orders of magnitude faster in NumPy, which is what the Figure 8
benchmark measures.

Every kernel is *row-local*: the gradient, objective and line search of a
row never read another row's state, and all row reductions accumulate in CSR
entry order.  Sweeping the range ``[a, b)`` therefore produces bit-for-bit
the rows ``[a, b)`` of a full sweep — the invariant the sharded parallel
backend builds on.

Since the zero-allocation rewrite, all scratch lives in a pooled
:class:`~repro.core.backends.workspace.SweepWorkspace` acquired from the
plan side's store: gathers go through ``ndarray.take(out=)`` (the array
methods, not the ``np.*`` wrappers, whose Python layer a few-row fold-in
sweep pays dozens of times per backtrack level), sparse products
through the workspace's plan-cached operators (the fit-constant
``positives`` CSR and the ``scatter`` CSR whose data is overwritten in
place), and the gradient/objective/Armijo arithmetic runs in place.  The
float64 factors are bit-identical to the pre-rewrite allocating kernel —
identical operations in identical order, only the storage is reused — which
``tests/test_training_workspace.py`` asserts against the legacy replica it
keeps.  Under float32 the objective reductions now stay in float32 (the old
``np.bincount`` silently accumulated in float64), keeping every
intermediate in the training dtype.

**Carried start affinities.**  A trainer sweeps per-fit copies of its
plan's sides (:meth:`~repro.core.backends.plan.SweepPlan.fit_sides`), and
every such sweep after the fit's first reads its start affinities from the
fit's carried array through its side's map instead of running the
take/take/``einsum`` pass, then leaves there the affinities at the factors
it returns: its start values, overwritten by each accepted row's candidate
affinities as the line search accepts them (the nnz-wide evaluation keeps
them in ``entry_a`` and puts its log terms in ``entry_c``).  The values are
bit-identical to a recomputation, since each is the same ``einsum`` over
the same ``K`` products in the other operand order.  Gathering the accepted
entries takes one index array per backtrack level — the one ``compress``
builds internally anyway — and a side without a carry does none of this.

**Pruned line search — why it is exact.**  The kernel evaluates a candidate
``c`` of a row as ``v = fl(fl(pos + unk) + pen)`` with
``pos = -sum_e w_e log(1 - exp(-a_e))``, ``unk = fl(<c, unknown>)`` and
``pen = fl(lambda * fl(<c, c>))``, and accepts it iff
``fl(v - current) <= rhs``.  Every ``log(1 - exp(-a))`` is ``<= 0`` (its
argument ``-expm1(-a)`` lies in ``(0, 1]``) and every weight is ``>= 0``
(:meth:`SweepSide.build` rejects anything else), so each product is ``<= 0``,
their sequential sum is ``<= 0``, and ``pos >= 0`` (possibly ``-0.0``, which
adds like ``+0.0``).  IEEE-754 round-to-nearest addition and subtraction are
monotone in each argument — ``x <= y`` implies ``fl(x + z) <= fl(y + z)`` —
hence ``fl(pos + unk) >= fl(0 + unk) = unk``, then
``v >= fl(unk + pen) =: lb``, then ``fl(v - current) >= fl(lb - current)``.
So ``fl(lb - current) > rhs`` implies the full test fails: the row is
rejected from K-wide quantities alone, with the same outcome the nnz-wide
evaluation would have produced, and only rows with
``fl(lb - current) <= rhs`` are evaluated.  ``lb`` is not an extra
computation — ``unk`` and ``pen`` are the tail every evaluation needs anyway.
NaNs agree too: ``lb`` is NaN only when ``unk`` or ``pen`` is NaN or they are
opposite infinities, and then ``v`` is NaN as well (an infinite ``lb`` equal
to ``current`` likewise forces ``v`` to the same infinity or NaN, so both
margins are NaN); a NaN on either side of ``<=`` is false, i.e. rejected, in
both the pruning test and the full test.

The bound is sharpened from K-wide quantities by replacing the ``0`` above
with a lower bound ``L`` of ``pos``: for any float ``L <= pos`` the same
monotonicity gives ``fl(fl(fl(L + unk) + pen) - current) <=
fl(v - current)``, and the kernel sums the bound in exactly that order, so
no reassociation error enters.  ``L`` comes from Jensen's inequality.
Since ``L >= 0``, the same monotonicity makes this margin ``>=`` the
tail-only one: the kernel runs the tail-only test first and computes ``L``
only when some active row passes it, which spares fold-ins of a few rows
the bound's fixed per-call cost when the tail decides alone.

*The Jensen step.*  Let a row have entries ``e`` with columns ``h_e``
and weights ``w_e >= 0`` (1 on a plain side), ``W = sum_e w_e`` and
``P = sum_e w_e h_e``.  The candidate is ``>= 0`` (the projection) and so
is every column factor (the trainer starts from and keeps a feasible
point; a sweep handed a negative column factor keeps the tail-only
bound), so every affinity ``a_e = <c, h_e>`` is ``>= 0``.  The kernel
evaluates ``f(max(a_e, eps))`` with ``f(x) = -log(1 - exp(-x))`` and
``eps = MIN_AFFINITY``.  ``f`` is convex and decreasing, and
``max(a, eps) <= a + eps`` for ``a >= 0``, so
``f(max(a_e, eps)) >= f(a_e + eps)``; ``a -> f(a + eps)`` is convex, and
Jensen with the weights ``w_e / W`` gives, in exact arithmetic,
``sum_e w_e f(max(a_e, eps)) >= W f(<c, P/W> + eps) =: J`` (0 on a row of
weight 0, where the kernel divides by ``1`` instead of ``W``).  On a plain
binary side ``P`` is the ``positives`` product the sweep computes for its
unknown sums anyway and ``W`` the entry count; a weighted (R-OCuLaR) side
takes one more CSR product through its entry weights.  ``-P/W`` is formed
once per sweep in a pooled block (``jensen_means``; negated because the
kernel evaluates ``log(-expm1(-x))``, and negation is exact); ``W`` and
the slack below are fit-constant per-row vectors of the workspace.

*The eps shift.*  Plain Jensen, ``W f(max(<c, P>/W, eps))``, is wrong
under the floor: ``x -> f(max(x, eps))`` is flat below ``eps`` and falls
after it, i.e. concave at ``eps``.  The affinities ``a = (0, 2 eps)`` give
``f(eps) + f(2 eps) = 45.36`` but ``2 f(eps) = 46.05``; the shifted bound
is ``2 f(2 eps) = 44.67``.

*The slack.*  Let ``u`` be the unit roundoff (``eps_mach / 2``) and
``n`` the row's entry count.  Two facts carry the analysis: a sum of
``m`` non-negative terms, in any order, is exact to a relative
``gamma_m = m u / (1 - m u)``; and ``x |f'(x)| = x / (e^x - 1) < 1``, so a
relative error ``d`` in the argument of ``f`` moves ``f`` by at most
``log(1 + d) <= d`` *absolutely*.  On the kernel's side, each affinity
(an einsum over ``K`` non-negative products) is at most ``(1 + gamma_K)``
times too large, costing each term ``<= gamma_K``; ``expm1`` and ``log``,
budgeted at ``c = 8`` units of ``u`` each (4 ULP; numpy's float32
implementations measure under 3 ULP), cost ``<= c u (f + 1)``; the weight
product and the sequential sum of ``n`` non-negative terms a relative
``gamma_{n+1}``.  Since the exact sum is ``>= J``,
``pos >= J - u ((n + 1 + c) J + (K + c) W)`` to first order.  On the
bound's side, ``P`` (``n`` products and sums), ``W`` (``n``, exact when
unweighted), the division, ``<c, P/W>`` (``K``) and the ``+ eps`` put a
relative ``gamma_{2n+K+2}`` on ``f``'s argument, hence an absolute one on
``f``, plus ``c u (f + 1)`` for ``f`` itself and ``gamma_{n+1}`` for the
product with ``W``: the computed
``J^ <= J + u ((n + 1 + c) J + (2n + K + 2 + c) W)``.  Together
``J^ - pos <= u (3n + 2K + 18) (J^ + W) = eps_mach (1.5 n + K + 9) (J^ + W)``
to first order.  The kernel takes the per-row slack
``s = 2 (n + K + 8) eps_mach`` and uses
``L = max(W f^ (1 - s) - W s, 0) = max(J^ - s (J^ + W), 0)``, formed as
``log(1 - e^-x) * jensen_scale - jensen_offset`` with the fit-constant
``jensen_scale = -W (1 - s)`` and ``jensen_offset = W s``.  The spare
``eps_mach (0.5 n + K + 7)`` covers the second-order terms and the few
roundings of forming ``L`` while ``s <= 1/8``; a row whose ``s`` would
exceed ``1/8`` (more than ~500k entries in float32) gets ``s = 1``, i.e.
``L = 0``, the tail-only bound.  A fixed absolute slack would not do: it
must scale with ``n``, ``K`` and the dtype's epsilon, or float32 rows with
many entries break it.  ``np.fmax`` clamps a NaN ``L`` to 0, so the NaN
argument above is unchanged.
``tests/test_property_objective.py`` checks ``L <= pos`` on adversarial
rows (exact zeros, affinities around ``eps``, single and identical
columns, empty and weighted rows, both dtypes).

``SweepStats.n_evaluated_rows`` counts the rows that reach the nnz-wide
pass.  On the end-to-end benchmark's MovieLens-1M stand-in (75% split,
K=50, lambda=10, 3 iterations) it is 22,759 of the 107,769 row
evaluations an unpruned search would make (21%; the tail-only bound left
51,003, 47%).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Optional, Tuple

import numpy as np

from repro.core.backends.base import Backend, SweepStats
from repro.core.backends.plan import IN_PROCESS, SweepSide
from repro.core.backends.workspace import SweepWorkspace, csr_row_sums_into
from repro.core.objective import (
    ARMIJO_BETA,
    ARMIJO_SIGMA,
    MAX_BACKTRACKS,
    MIN_AFFINITY,
    entry_affinities,
    gradient_ratio_into,
    safe_log1mexp_into,
)
from repro.exceptions import ConfigurationError

#: A range's view of the carried affinities: ``(values, positions, read)``.
Carried = Tuple[np.ndarray, Optional[np.ndarray], bool]


class VectorizedBackend(Backend):
    """Batched projected gradient descent over all rows of one side."""

    name = "vectorized"

    def _sweep_rows(
        self,
        plan: SweepSide,
        row_factors: np.ndarray,
        col_factors: np.ndarray,
        regularization: float,
        start: int,
        stop: int,
        total_col_sum: np.ndarray,
    ) -> Tuple[np.ndarray, SweepStats]:
        carry = plan.carry
        with nullcontext() if carry is None else carry.sweep(IN_PROCESS) as read:
            carried = None if read is None else (carry.values, carry.positions, read)
            return self._sweep_range(
                plan, row_factors, col_factors, regularization, start, stop,
                total_col_sum, carried,
            )  # fmt: skip

    def _sweep_range(
        self,
        plan: SweepSide,
        row_factors: np.ndarray,
        col_factors: np.ndarray,
        regularization: float,
        start: int,
        stop: int,
        total_col_sum: np.ndarray,
        carried: Optional[Carried],
    ) -> Tuple[np.ndarray, SweepStats]:
        """One row range of a sweep: :meth:`_sweep_rows` once the carry is resolved.

        ``carried`` is ``None`` (compute the start affinities, keep none) or
        ``(values, positions, read)``: the user-major carried affinities,
        the side's map into them (``None`` on the user side) and whether
        they hold this range's start affinities.  The range's entries of
        ``values`` are left holding the affinities at the returned factors;
        no other entry is touched, so shards run concurrently.
        """
        dtype = row_factors.dtype
        if not (col_factors.dtype == dtype and plan.dtype == dtype):
            raise ConfigurationError(
                f"row factors ({dtype}), column factors ({col_factors.dtype}) and "
                f"the plan ({plan.dtype}) must share one dtype: the pooled "
                "workspace is single-dtype"
            )

        n_local = stop - start
        local_factors = row_factors[start:stop]
        store = plan.workspaces
        workspace = store.acquire(plan, start, stop, row_factors.shape[1], dtype)
        # Snapshot before release: once back on the free list the arena may
        # be handed to a concurrent sweep that flips ``fresh``.
        workspace_bytes = workspace.nbytes
        was_fresh = workspace.fresh
        try:
            new_factors, row_values, n_accepted, n_backtracks, n_evaluated = self._pooled_sweep(
                workspace,
                local_factors,
                col_factors,
                regularization,
                total_col_sum,
                carried,
            )
        finally:
            store.release(workspace)
        stats = SweepStats(
            n_rows=n_local,
            n_accepted=n_accepted,
            n_backtracks=n_backtracks,
            n_evaluated_rows=n_evaluated,
            workspace_bytes=workspace_bytes,
            workspace_allocations=int(was_fresh),
            workspace_reuses=int(not was_fresh),
            row_values=row_values,
        )
        return new_factors, stats

    @staticmethod
    def _pooled_sweep(
        ws: SweepWorkspace,
        local_factors: np.ndarray,
        col_factors: np.ndarray,
        regularization: float,
        total_col_sum: np.ndarray,
        carried: Optional[Carried] = None,
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray], int, int, int]:
        """One sweep through the pooled arena; zero scratch allocations.

        Every operation below replicates the allocating kernel's exact
        elementwise sequence and grouping (additions left-to-right, scalar
        products commuted only where IEEE multiplication is exact), so
        float64 results are bit-identical.

        Returns ``(new_factors, (start_values, end_values), n_accepted,
        n_backtracks, n_evaluated)``: the row objectives ``Q(f_i)`` at the
        sweep's start and of the factors it returns, as the line search
        evaluated them.  With ``carried`` (see :meth:`_sweep_range`) the
        start affinities are read from it or written to it, and every
        accepted row's candidate affinities overwrite its entries.
        """
        n_local = ws.n_local

        # --- gradient of every row at the current point ------------------- #
        # mode="clip" everywhere: plan indices are in range by construction,
        # and clip mode lets ``take`` write straight into the pooled block
        # (mode="raise" buffers through a fresh temporary).
        carry_map = None
        if carried is not None:
            carried_values, positions, read = carried
            # This range's entries of the user-major values: a slice on the
            # user side, a map (``carry_map``) on the item side.
            span = slice(ws.first, ws.first + ws.nnz_local)
            carry_map = None if positions is None else positions[span]
        if carried is not None and read:
            affinities = ws.entry_a
            if carry_map is None:
                np.copyto(affinities, carried_values[span])
            else:
                carried_values.take(carry_map, out=affinities, mode="clip")
        else:
            affinities = entry_affinities(
                local_factors, ws.entry_rows, col_factors, ws.indices,
                out=ws.entry_a, scratch=(ws.gather_rows, ws.gather_cols),
            )  # fmt: skip
            if carried is not None:
                # Rows that accept no step keep these.
                if carry_map is None:
                    carried_values[span] = affinities
                else:
                    carried_values.put(carry_map, affinities, mode="clip")
        ratios = gradient_ratio_into(affinities, out=ws.entry_b, scratch=ws.entry_c)
        if ws.entry_weights is not None:
            np.multiply(ratios, ws.entry_weights, out=ratios)
        # The ratios buffer *is* the scatter operator's data — overwritten in
        # place each sweep, structure cached since the plan is fit-constant.
        gradients = ws.grad_rows
        ws.scatter_matmul(col_factors, out=gradients)

        # The positives product lands in the Jensen block first: on a binary
        # unweighted side it is the bound's ``P``, turned into ``-P/W`` after.
        unknown_sums = ws.unknown_rows
        ws.positives_matmul(col_factors, out=ws.jensen_means)
        np.subtract(total_col_sum[np.newaxis, :], ws.jensen_means, out=unknown_sums)
        ws.fill_jensen_means(col_factors)
        # Jensen needs non-negative column factors (module docstring).  Every
        # fit, refit and fold-in has them; a direct sweep with a negative one
        # keeps the tail-only bound.
        use_jensen = not col_factors.min(initial=0.0) < 0

        # gradients = -gradient_positive + unknown_sums + 2 lambda f, grouped
        # left to right as in the allocating kernel.
        np.negative(gradients, out=gradients)
        np.add(gradients, unknown_sums, out=gradients)
        np.multiply(local_factors, 2.0 * regularization, out=ws.scratch_rows)
        np.add(gradients, ws.scratch_rows, out=gradients)

        # --- current per-row objective values ------------------------------ #
        # The affinities at the current point were just computed for the
        # gradient; reuse them for the objective instead of a second einsum.
        log_terms = safe_log1mexp_into(affinities, out=affinities)
        if ws.entry_weights is not None:
            np.multiply(log_terms, ws.entry_weights, out=log_terms)
        current_values = ws.current_values
        csr_row_sums_into(
            ws.row_starts, ws.indices, log_terms, ws.local_shape,
            ws.ones_cols, current_values,
        )  # fmt: skip
        np.negative(current_values, out=current_values)
        np.einsum("ij,ij->i", local_factors, unknown_sums, out=ws.row_tmp)
        np.add(current_values, ws.row_tmp, out=current_values)
        np.einsum("ij,ij->i", local_factors, local_factors, out=ws.row_tmp)
        np.multiply(ws.row_tmp, regularization, out=ws.row_tmp)
        np.add(current_values, ws.row_tmp, out=current_values)

        # --- batched Armijo backtracking ----------------------------------- #
        # The per-sweep allocations: the returned factors and the two row
        # value vectors are caller-owned and cannot live in the pool.  An
        # accepted row's candidate value overwrites its slot of
        # ``current_values`` — the row has left the active set, so the
        # Armijo test reads that slot no more — and a row that exhausts its
        # backtracks keeps its start value: at the end ``current_values``
        # holds the value of every returned factor.
        new_factors = local_factors.copy()
        start_values = current_values.copy()
        # The still-active rows are kept compacted in ping-pong index/step
        # buffers instead of a boolean mask: ``compress(out=)`` preserves
        # order, so the compacted sets equal the old ``np.flatnonzero`` ones,
        # and the per-row step values (``ARMIJO_BETA ** iteration``) are
        # carried along.
        cur_rows, cur_steps = ws.arange_rows, ws.step_a
        cur_steps.fill(1.0)
        nxt_rows, nxt_steps = ws.active_a, ws.step_b
        n_active = n_local
        n_backtracks = n_evaluated = 0

        for _ in range(MAX_BACKTRACKS + 1):
            if n_active == 0:
                break
            act = cur_rows[:n_active]
            steps = cur_steps[:n_active]
            grads = ws.grad_gather[:n_active]
            gradients.take(act, axis=0, out=grads, mode="clip")
            lf = ws.lf_rows[:n_active]
            local_factors.take(act, axis=0, out=lf, mode="clip")
            candidates = ws.cand_rows[:n_active]
            np.multiply(grads, steps[:, np.newaxis], out=candidates)
            np.subtract(lf, candidates, out=candidates)
            np.maximum(0.0, candidates, out=candidates)

            differences = ws.diff_rows[:n_active]
            np.subtract(candidates, lf, out=differences)
            rhs = ws.armijo_rhs[:n_active]
            np.einsum("ij,ij->i", grads, differences, out=rhs)
            np.multiply(rhs, ARMIJO_SIGMA, out=rhs)

            # The K-wide tail of the candidate objective, for every active
            # row: <cand, unknown sums> and lambda * ||cand||^2.
            unknown = ws.scratch_rows[:n_active]
            unknown_sums.take(act, axis=0, out=unknown, mode="clip")
            tail_unknown = ws.tail_unknown[:n_active]
            np.einsum("ij,ij->i", candidates, unknown, out=tail_unknown)
            tail_penalty = ws.tail_penalty[:n_active]
            np.einsum("ij,ij->i", candidates, candidates, out=tail_penalty)
            np.multiply(tail_penalty, regularization, out=tail_penalty)

            # Prune (module docstring): a row whose lower bound of the
            # candidate value already fails the Armijo test is rejected
            # without its nnz-wide evaluation.  The tail alone is one bound.
            bound_margin = ws.row_tmp[:n_active]
            np.add(tail_unknown, tail_penalty, out=bound_margin)
            current = ws.row_tmp2[:n_active]
            current_values.take(act, out=current, mode="clip")
            np.subtract(bound_margin, current, out=bound_margin)
            evaluate = ws.evaluate[:n_active]
            np.less_equal(bound_margin, rhs, out=evaluate)
            if use_jensen and evaluate.any():
                # Adding the Jensen bound L >= 0 of pos, in the full
                # evaluation's order, rejects those rows and more, so it is
                # skipped once the tail rejected every row.  Runs after the
                # rhs: it reuses the differences block.
                margin = VectorizedBackend._positive_bounds(
                    ws, candidates, act, out=ws.tail_positive[:n_active]
                )
                np.add(margin, tail_unknown, out=margin)
                np.add(margin, tail_penalty, out=margin)
                np.subtract(margin, current, out=margin)
                np.less_equal(margin, rhs, out=evaluate)
            n_eval = int(np.count_nonzero(evaluate))
            n_evaluated += n_eval

            accepted = ws.accepted[:n_active]
            accepted.fill(False)
            if n_eval:
                eval_pos = ws.eval_pos[:n_eval]
                ws.arange_rows[:n_active].compress(evaluate, out=eval_pos)
                eval_rows = ws.eval_rows[:n_eval]
                act.compress(evaluate, out=eval_rows)
                # value = (positive part + unknown part) + penalty, grouped
                # left to right as in the allocating kernel.
                values = VectorizedBackend._positive_parts(
                    ws, candidates, eval_pos, eval_rows, col_factors,
                    keep_affinities=carried is not None,
                )  # fmt: skip
                tmp = ws.row_tmp2[:n_eval]
                tail_unknown.compress(evaluate, out=tmp)
                np.add(values, tmp, out=values)
                tail_penalty.compress(evaluate, out=tmp)
                np.add(values, tmp, out=values)
                current_values.take(eval_rows, out=tmp, mode="clip")
                # The bound's margin is dead: its block takes the Armijo
                # margin, so ``values`` survives for the accepted rows.
                margin = ws.row_tmp[:n_eval]
                np.subtract(values, tmp, out=margin)
                rhs.compress(evaluate, out=tmp)
                eval_accepted = ws.eval_accepted[:n_eval]
                np.less_equal(margin, tmp, out=eval_accepted)
                accepted[eval_pos] = eval_accepted

            n_acc = int(np.count_nonzero(accepted))
            if n_acc:
                acc_rows = ws.accepted_rows[:n_acc]
                act.compress(accepted, out=acc_rows)
                # The local-factor gather is dead by now; reuse its block for
                # the accepted candidates so the scatter reads compacted rows.
                acc_cand = ws.lf_rows[:n_acc]
                candidates.compress(accepted, axis=0, out=acc_cand)
                new_factors[acc_rows] = acc_cand
                # Accepted rows were all evaluated, in the same order.
                acc_values = ws.row_tmp2[:n_acc]
                values.compress(eval_accepted, out=acc_values)
                current_values[acc_rows] = acc_values
                if carried is not None:
                    VectorizedBackend._carry_accepted(ws, accepted, carried[0], carry_map)
            n_backtracks += n_active - n_acc
            n_next = n_active - n_acc
            if n_next:
                rejected = ws.not_accepted[:n_active]
                np.logical_not(accepted, out=rejected)
                act.compress(rejected, out=nxt_rows[:n_next])
                steps.compress(rejected, out=nxt_steps[:n_next])
                np.multiply(nxt_steps[:n_next], ARMIJO_BETA, out=nxt_steps[:n_next])
            cur_rows, cur_steps = nxt_rows, nxt_steps
            nxt_rows = ws.active_b if cur_rows is ws.active_a else ws.active_a
            nxt_steps = ws.step_b if cur_steps is ws.step_a else ws.step_a
            n_active = n_next

        return (
            new_factors,
            (start_values, current_values.copy()),
            n_local - n_active,
            n_backtracks,
            n_evaluated,
        )

    # ------------------------------------------------------------------ #
    # Row objective helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _positive_bounds(
        ws: SweepWorkspace, candidates: np.ndarray, rows: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """K-wide lower bounds of the positive parts :meth:`_positive_parts` sums.

        ``out[j] = max(W f(<candidates[j], P/W> + eps) (1 - s) - W s, 0)``
        for shard-local row ``r = rows[j]``, with ``f(x) = -log(1 - e^-x)``,
        the row's ``-P/W`` in ``jensen_means`` (filled for this sweep by
        :meth:`SweepWorkspace.fill_jensen_means`) and ``W`` and the slack
        ``s`` folded into ``jensen_scale`` and ``jensen_offset`` (module
        docstring).  Clobbers the ``diff_rows`` and ``row_tmp`` prefixes.
        """
        n = rows.shape[0]
        means = ws.diff_rows[:n]
        ws.jensen_means.take(rows, axis=0, out=means, mode="clip")
        np.einsum("ij,ij->i", candidates, means, out=out)
        # -x = -<c, P/W> - eps, exactly the negation of <c, P/W> + eps; then
        # log(-expm1(-x)) = log(1 - e^-x) = -f(x).  x >= eps, so no floor.
        np.subtract(out, MIN_AFFINITY, out=out)
        np.expm1(out, out=out)
        np.negative(out, out=out)
        np.log(out, out=out)
        row_vec = ws.row_tmp[:n]
        ws.jensen_scale.take(rows, out=row_vec, mode="clip")
        np.multiply(out, row_vec, out=out)
        ws.jensen_offset.take(rows, out=row_vec, mode="clip")
        np.subtract(out, row_vec, out=out)
        # fmax, not maximum: a NaN bound falls back to 0, the tail's bound.
        np.fmax(out, 0.0, out=out)
        return out

    @staticmethod
    def _positive_parts(
        ws: SweepWorkspace,
        candidates: np.ndarray,
        cand_pos: np.ndarray,
        rows: np.ndarray,
        col_factors: np.ndarray,
        keep_affinities: bool = False,
    ) -> np.ndarray:
        """``-sum_e w_e log(1 - exp(-a_e))`` of the rows the bound let through.

        ``rows[j]`` is a shard-local row whose Armijo candidate is
        ``candidates[cand_pos[j]]``.  Writes into ``ws.candidate_values`` —
        zero allocations.  When every row of the shard is evaluated the
        plan's cached full-range entry structure is reused verbatim (no
        index building at all); otherwise a sub-CSR over ``rows`` is built
        in pooled integer buffers via a compress / boundary-scatter / cumsum
        expansion instead of the allocating ``np.arange``/``np.repeat``
        machinery the old kernel rebuilt per backtrack iteration.

        With ``keep_affinities`` the evaluated entries are recorded in
        ``ws.evaluated`` and their candidate affinities stay in
        ``ws.entry_a`` (the log terms go to ``ws.entry_c``).
        """
        n_eval = rows.shape[0]
        out = ws.candidate_values[:n_eval]
        weights = ws.entry_weights
        positions = None

        if n_eval == ws.n_local:
            total = ws.nnz_local
            rows_entries = ws.entry_rows
            cols_entries = ws.indices
            sub_indptr = ws.row_starts
        else:
            starts = ws.starts[:n_eval]
            ws.row_starts.take(rows, out=starts, mode="clip")
            counts = ws.counts[:n_eval]
            np.add(rows, 1, out=counts)
            ends = ws.ends[:n_eval]
            ws.row_starts.take(counts, out=ends, mode="clip")
            np.subtract(ends, starts, out=counts)
            sub_indptr = ws.sub_indptr[: n_eval + 1]
            sub_indptr[0] = 0
            np.cumsum(counts, out=sub_indptr[1:])
            total = int(sub_indptr[n_eval])
            if total:
                # Expand per-entry (candidate position, CSR position) for
                # the evaluated rows without ``np.repeat`` (which cannot
                # write into a pooled buffer): compress away empty rows,
                # scatter ones at the segment boundaries, cumsum into
                # segment ids, then gather.  Integer arithmetic — exact by
                # construction.
                nonempty = ws.nonempty[:n_eval]
                np.greater(counts, 0, out=nonempty)
                n_nonempty = int(np.count_nonzero(nonempty))
                ne_rows = ws.ne_rows[:n_nonempty]
                cand_pos.compress(nonempty, out=ne_rows)
                ne_starts = ws.ne_starts[:n_nonempty]
                starts.compress(nonempty, out=ne_starts)
                ne_offsets = ws.ne_offsets[:n_nonempty]
                sub_indptr[:n_eval].compress(nonempty, out=ne_offsets)
                seg = ws.entry_seg[:total]
                seg.fill(0)
                seg[ne_offsets[1:]] = 1
                np.cumsum(seg, out=seg)
                rows_entries = ws.entry_row_ids[:total]
                ne_rows.take(seg, out=rows_entries, mode="clip")
                positions = ws.entry_pos[:total]
                ne_starts.take(seg, out=positions, mode="clip")
                cols_entries = ws.entry_col_ids[:total]
                ne_offsets.take(seg, out=cols_entries, mode="clip")
                np.subtract(ws.arange_entries[:total], cols_entries, out=cols_entries)
                np.add(positions, cols_entries, out=positions)
                ws.indices.take(positions, out=cols_entries, mode="clip")

        if total:
            affinities = entry_affinities(
                candidates, rows_entries, col_factors, cols_entries,
                out=ws.entry_a[:total], scratch=(ws.gather_rows, ws.gather_cols),
            )  # fmt: skip
            log_terms = safe_log1mexp_into(
                affinities, out=ws.entry_c[:total] if keep_affinities else affinities
            )
            if weights is not None:
                if positions is None:
                    np.multiply(log_terms, weights, out=log_terms)
                else:
                    entry_w = ws.entry_b[:total]
                    weights.take(positions, out=entry_w, mode="clip")
                    np.multiply(log_terms, entry_w, out=log_terms)
            csr_row_sums_into(
                sub_indptr, cols_entries, log_terms,
                (n_eval, ws.n_cols), ws.ones_cols, out,
            )  # fmt: skip
            np.negative(out, out=out)
        else:
            out.fill(0)
        if keep_affinities:
            ws.evaluated = (total, rows_entries if total else None, positions)
        return out

    @staticmethod
    def _carry_accepted(
        ws: SweepWorkspace,
        accepted: np.ndarray,
        values: np.ndarray,
        carry_map: Optional[np.ndarray],
    ) -> None:
        """Write the accepted rows' candidate affinities into ``values``.

        ``accepted`` flags the active rows; ``ws.evaluated`` and the
        affinities in ``ws.entry_a`` are those :meth:`_positive_parts` just
        evaluated with ``keep_affinities``.  An accepted candidate is the
        row's returned factor, so these are the affinities at the point the
        sweep returns.
        """
        total, cand_positions, positions = ws.evaluated
        if not total:
            return
        keep = ws.entry_accepted[:total]
        accepted.take(cand_positions, out=keep, mode="clip")
        # One index array, as ``compress`` would build internally; ``take``
        # in clip mode then gathers through it straight into pooled blocks.
        selected = np.flatnonzero(keep)
        n_keep = selected.shape[0]
        kept = ws.entry_b[:n_keep]
        ws.entry_a.take(selected, out=kept, mode="clip")
        local = selected
        if positions is not None:
            local = ws.entry_row_ids[:n_keep]  # its candidate positions are read
            positions.take(selected, out=local, mode="clip")
        if carry_map is None:
            np.add(local, ws.first, out=local)
            values[local] = kept
        else:
            targets = ws.entry_col_ids[:n_keep]
            carry_map.take(local, out=targets, mode="clip")
            values[targets] = kept
