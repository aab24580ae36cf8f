"""Reference binary-cascade loop kept as a test oracle.

The per-result form the library's cascade replaced: each stage builds
its buckets and keys with generator expressions, walks the accumulator
one row at a time and charges the budget one result at a time, in units
of 1,024.  The library's bulk stages must return exactly what this
returns, in the same order, and charge the budget the same total.
"""

from __future__ import annotations

from repro.joins.multiway.query import MultiwayQuery, Row
from repro.joins.multiway.result import MultiwayResult
from repro.runtime.budget import Budget

_CHECK_EVERY = 1024


def run(query: MultiwayQuery, budget: Budget | None = None) -> MultiwayResult:
    atoms = query.atoms
    order = query.variables()
    result = MultiwayResult(algorithm="binary-cascade", order=order)
    acc_vars = list(atoms[0].variables)
    acc: list[Row] = sorted(atoms[0].distinct_rows())
    stage_sizes: list[int] = []
    steps = 0
    for stage, atom in enumerate(atoms[1:], start=1):
        shared = [v for v in atom.variables if v in acc_vars]
        fresh = [v for v in atom.variables if v not in acc_vars]
        shared_pos = [atom.variables.index(v) for v in shared]
        fresh_pos = [atom.variables.index(v) for v in fresh]
        buckets: dict[Row, list[Row]] = {}
        for row in atom.distinct_rows():
            key = tuple(row[i] for i in shared_pos)
            buckets.setdefault(key, []).append(tuple(row[i] for i in fresh_pos))
        acc_key = [acc_vars.index(v) for v in shared]
        out: list[Row] = []
        for t in acc:
            key = tuple(t[i] for i in acc_key)
            for ext in buckets.get(key, ()):
                out.append(t + ext)
                steps += 1
                if budget is not None and steps % _CHECK_EVERY == 0:
                    budget.checkpoint(_CHECK_EVERY)
        acc_vars.extend(fresh)
        acc = out
        stage_sizes.append(len(out))
        if stage < len(atoms) - 1:
            result.intermediates += len(out)
    if budget is not None:
        budget.checkpoint(steps % _CHECK_EVERY)
    assert tuple(acc_vars) == order
    result.bindings = acc
    result.stage_sizes = tuple(stage_sizes)
    return result
