"""Binary hash-join cascade: the plan every binary-only engine is stuck with.

Joins the atoms left to right with pairwise hash joins, materializing each
intermediate relation in full.  On acyclic queries with a good order this
is fine; on cyclic queries (triangle, 4-cycle, clique) *every* pairwise
order materializes an intermediate that can exceed the AGM output bound
polynomially — the gap the worst-case-optimal algorithms close.  Kept as
the executable strawman and as the planner's cheap-path candidate.

Also home to :func:`estimate_cascade`, the planner's no-execution estimate
of the cascade's per-stage sizes: the first stage is estimated *exactly*
from value-frequency counters (cheap, and the skew-sensitive part), later
stages via max-degree caps.
"""

from __future__ import annotations

from collections import Counter

from repro.joins.multiway.query import MultiwayQuery, Row, row_projector
from repro.joins.multiway.result import MultiwayResult
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.runtime.budget import Budget, current_budget

_CHECK_EVERY = 1024


def binary_cascade(
    query: MultiwayQuery, budget: Budget | None = None
) -> MultiwayResult:
    """Evaluate ``query`` as a left-to-right cascade of binary hash joins."""
    budget = budget if budget is not None else current_budget()
    with obs_trace.span("multiway.cascade", atoms=len(query.atoms)):
        result = _run(query, budget)
    obs_metrics.inc("multiway.cascade.runs")
    obs_metrics.inc("multiway.cascade.intermediates", result.intermediates)
    obs_metrics.observe("multiway.output_size", result.output_size)
    return result


def _run(query: MultiwayQuery, budget: Budget | None) -> MultiwayResult:
    atoms = query.atoms
    order = query.variables()
    result = MultiwayResult(algorithm="binary-cascade", order=order)
    acc_vars = list(atoms[0].variables)
    acc: list[Row] = sorted(atoms[0].distinct_rows())
    stage_sizes: list[int] = []
    steps = 0
    charged = 0  # the part of steps already charged, whole _CHECK_EVERY units
    for stage, atom in enumerate(atoms[1:], start=1):
        shared = [v for v in atom.variables if v in acc_vars]
        fresh = [v for v in atom.variables if v not in acc_vars]
        key_of = row_projector([atom.variables.index(v) for v in shared])
        ext_of = row_projector([atom.variables.index(v) for v in fresh])
        buckets: dict[Row, list[Row]] = {}
        for row in atom.distinct_rows():
            buckets.setdefault(key_of(row), []).append(ext_of(row))
        acc_key = row_projector([acc_vars.index(v) for v in shared])
        get = buckets.get
        # Without a budget one comprehension builds the whole stage;
        # with one, slices of the accumulator bound how far the stage
        # runs past a trip before the budget hears of it.
        step = max(len(acc), 1) if budget is None else _CHECK_EVERY
        out: list[Row] = []
        for start in range(0, len(acc), step):
            before = len(out)
            out += [
                t + ext
                for t in acc[start : start + step]
                for ext in get(acc_key(t), ())
            ]
            steps += len(out) - before
            while budget is not None and steps - charged >= _CHECK_EVERY:
                charged += _CHECK_EVERY
                budget.checkpoint(_CHECK_EVERY)
        acc_vars.extend(fresh)
        acc = out
        stage_sizes.append(len(out))
        if stage < len(atoms) - 1:
            # Only non-final stages are *intermediate* materializations;
            # the last stage's output is the query output itself.
            result.intermediates += len(out)
    if budget is not None:
        budget.checkpoint(steps - charged)
    # acc_vars grew in first-appearance order, so it already matches
    # query.variables() — no final projection needed.
    assert tuple(acc_vars) == order
    result.bindings = acc
    result.stage_sizes = tuple(stage_sizes)
    return result


def estimate_cascade(query: MultiwayQuery) -> tuple[int, ...]:
    """Estimated per-stage output sizes of the cascade, without running it.

    Stage 1 is computed exactly as ``sum(cnt_left[k] * cnt_right[k])`` over
    the shared-variable projection counters — linear-time, and it is the
    stage where skew (heavy-hitter values) blows the cascade up.  Later
    stages multiply by the next atom's max degree on its shared variables,
    an upper-bound-flavoured cap rather than an independence guess, so a
    skewed instance is *reported* as super-linear instead of averaged away.
    """
    atoms = query.atoms
    if len(atoms) < 2:
        return ()
    first, second = atoms[0], atoms[1]
    shared = [v for v in second.variables if v in first.variables]
    left_cnt: Counter = Counter(
        map(
            row_projector([first.variables.index(v) for v in shared]),
            first.distinct_rows(),
        )
    )
    right_cnt: Counter = Counter(
        map(
            row_projector([second.variables.index(v) for v in shared]),
            second.distinct_rows(),
        )
    )
    est = sum(n * right_cnt[key] for key, n in left_cnt.items() if key in right_cnt)
    estimates = [est]
    acc_vars = set(first.variables) | set(second.variables)
    for atom in atoms[2:]:
        shared = [v for v in atom.variables if v in acc_vars]
        cnt: Counter = Counter(
            map(
                row_projector([atom.variables.index(v) for v in shared]),
                atom.distinct_rows(),
            )
        )
        max_degree = max(cnt.values(), default=0)
        est = est * max_degree
        estimates.append(est)
        acc_vars |= set(atom.variables)
    return tuple(estimates)
