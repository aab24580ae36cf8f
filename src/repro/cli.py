"""Command-line interface: ``python -m repro <command>`` / ``repro-pebble``.

Commands
--------
``pebble <graph-file> [--method M]``
    Solve PEBBLE on a bipartite graph in the text format of
    :mod:`repro.graphs.io` and print the scheme and costs.
``solve <graph-file> [...] [--jobs N] [--cache [PATH]]``
    Batch-solve PEBBLE on many graph files through the parallel,
    cache-aware service (:mod:`repro.parallel`): per-component fan-out
    across a process pool with deterministic reassembly (Lemma 2.2) and
    an optional persistent solve cache.
``demo``
    A guided tour: the three join classes, their join graphs, and their
    pebbling costs on small instances.
``family <n>``
    Print the worst-case family ``G_n``, its line graph's shape, and its
    optimal pebbling cost versus the paper's formula.
``experiments``
    Run every experiment driver and print its table (the same content
    recorded in EXPERIMENTS.md).
``render <graph-file>``
    Print an adjacency view of a bipartite graph and the timeline of its
    solved pebbling scheme.
``partition <graph-file> [-p P] [-q Q]``
    Compare partitioned-join mapping strategies (§5 open problem) on a
    graph and draw the hash-partitioning cell grid.
``join <left-file> <right-file> [--predicate P]``
    Join two typed relation files (see :mod:`repro.relations.io`) through
    the query engine and print rows plus EXPLAIN ANALYZE output.
``multiway [--instance I] [--n N] [--skew S] [--algorithm A] [--json]``
    Evaluate a cyclic conjunctive query (triangle, 4-cycle, clique) with
    the worst-case-optimal engine (:mod:`repro.joins.multiway`): print
    the plan (binary cascade vs LFTJ with estimated intermediate sizes),
    the execution counters against the AGM bound, and the pebbling trace
    of the projected output.
``explain [<left-file> <right-file> | --scenario S] [--analyze] [--json]``
    Render a join's structured plan record (:mod:`repro.obs.planquality`):
    the candidate algorithms with their estimated costs and reasons, and
    — with ``--analyze`` — actual output size, q-error, and (with
    ``--shadow``) plan regret.  ``--json`` emits the ``repro-plan/v1``
    document; ``--scenario`` explains every join a bench scenario plans.
``decide <graph-file> <K>``
    PEBBLE(D) (Def 4.1): decide ``pi(G) <= K`` with a verifiable
    certificate either way.
``svg [<graph-file>] [--family N] [-o OUT]``
    Write an SVG of a join graph (with scheme order) or of the spatial
    realization of the worst-case family ``G_N``.
``bench [--smoke] [--scenario S ...] [--seed N] [--jobs N] [--cache [PATH]]``
    Run the observability bench harness (:mod:`repro.obs.bench`): every
    scenario is timed under spans/metrics, a run-manifest directory is
    written to ``runs/{run_id}/``, and a top-level ``BENCH_<date>.json``
    extends the perf trajectory.
``profile [--scenario S ...] [--graph FILE] [--top N]``
    Run a workload (bench scenarios, default the equijoin engine
    scenario) or a solver on a graph file under tracing and print the
    top-N self-time table (:mod:`repro.obs.profile`).
``trace [--format {perfetto,folded,jsonl}] [-o OUT]``
    Same workload selection as ``profile``, but export the recorded
    span forest: Chrome trace-event JSON for Perfetto/chrome://tracing,
    folded stacks for flamegraph.pl, or raw JSONL
    (:mod:`repro.obs.export`).
``runs {index,list,show,compare,trend,plan-quality} [--runs-dir DIR]``
    Query the cross-run registry (:mod:`repro.obs.registry`): persist the
    SQLite index, list runs, drill into one run (including its event
    log), compare two runs scenario-by-scenario, print a scenario's
    timing trend with perf-gate regression flags, or trend per-predicate
    plan-quality calibration (q-error percentiles, choice accuracy).
``report [--html] [-o OUT] [--runs-dir DIR]``
    Render the self-contained cross-run HTML dashboard
    (:mod:`repro.obs.report_html`): run overview with artifact links plus
    per-scenario trend sparklines.
``check FILE... [--baseline BASE | --write-baseline BASE]``
    Validate artifacts by kind (BENCH json, ``events.jsonl``, Chrome
    trace, ``plans.jsonl`` or ``explain --json``, HTML report); with
    ``--baseline``, gate them against a committed bench or plan baseline
    (:mod:`repro.obs.verdict`); with ``--write-baseline``, regenerate the
    plan baseline.  Exit 0 ok, 1 problems or regressions, 2 unreadable
    or unknown input, usage errors, or a mode mismatch.
``serve [--port P | --unix PATH] [--jobs N] [--cache [PATH]] [...]``
    Run the persistent solve server (:mod:`repro.server`): concurrent
    solve/plan requests over newline-delimited JSON, one shared worker
    pool and solve cache, bounded admission with retry-after rejections.
``client {solve,plan,explain,ping,stats,shutdown,load} [...]``
    Talk to a running solve server: single requests (``explain`` sends
    two relation files and prints the server-rendered plan record), or
    ``load`` to drive the zipf-skewed async load generator
    (:mod:`repro.workloads.loadgen`) and print throughput/latency.
"""

from __future__ import annotations

import argparse
import sys

from repro.graphs.io import load_bipartite


def _cmd_pebble(args: argparse.Namespace) -> int:
    from repro.core.solvers.registry import solve
    from repro.runtime import Budget

    with open(args.graph_file) as handle:
        graph = load_bipartite(handle.read())
    budget = None
    if args.deadline is not None or args.node_budget is not None:
        budget = Budget(deadline=args.deadline, node_budget=args.node_budget)
    result = solve(graph, args.method, budget=budget)
    print(result.summary())
    if result.provenance is not None and result.provenance.degradations:
        steps = ", ".join(result.provenance.degradations)
        print(f"degraded: {steps} (lower bound pi >= {result.provenance.lower_bound})")
    if args.show_scheme:
        for index, (a, b) in enumerate(result.scheme.configurations, 1):
            print(f"  {index:4d}: pebbles on ({a}, {b})")
    if args.save:
        from repro.core.scheme_io import dump_scheme

        with open(args.save, "w") as handle:
            handle.write(dump_scheme(result.scheme))
        print(f"scheme saved to {args.save}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    import contextlib

    from repro.parallel import SolveCache, solve_many, use_cache

    graphs = []
    for path in args.graph_files:
        with open(path) as handle:
            graphs.append(load_bipartite(handle.read()))
    with contextlib.ExitStack() as stack:
        if args.cache is not None:
            cache = SolveCache(path=args.cache)
            stack.callback(cache.close)
            stack.enter_context(use_cache(cache))
        results = solve_many(
            graphs,
            method=args.method,
            jobs=args.jobs,
            deadline=args.deadline,
        )
        for path, result in zip(args.graph_files, results):
            print(f"{path}: {result.summary()}")
        if args.cache is not None:
            stats = cache.stats
            print(
                f"cache [{args.cache}]: {stats.hits} hit(s) "
                f"({stats.memory_hits} memory, {stats.persistent_hits} "
                f"persistent), {stats.misses} miss(es), "
                f"{stats.stores} store(s)"
            )
    degraded = [
        (path, result)
        for path, result in zip(args.graph_files, results)
        if result.status not in ("optimal", "complete")
    ]
    if degraded:
        names = ", ".join(f"{path} ({r.status})" for path, r in degraded)
        print(f"note: degraded under budget: {names}", file=sys.stderr)
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro.core.solvers.registry import solve
    from repro.joins.join_graph import build_join_graph
    from repro.joins.predicates import Equality, SetContainment, SpatialOverlap
    from repro.relations.relation import Relation
    from repro.geometry.primitives import Rectangle
    from repro.sets.realize import realize_worst_case_containment

    print("== Equijoin ==")
    r = Relation("R", [1, 1, 2, 3])
    s = Relation("S", [1, 2, 2, 5])
    graph = build_join_graph(r, s, Equality())
    result = solve(graph)
    print(f"join graph: {graph}; {result.summary()}")

    print("\n== Spatial overlap ==")
    r = Relation("R", [Rectangle(0, 0, 2, 2), Rectangle(3, 3, 5, 5)])
    s = Relation("S", [Rectangle(1, 1, 4, 4)])
    graph = build_join_graph(r, s, SpatialOverlap())
    result = solve(graph)
    print(f"join graph: {graph}; {result.summary()}")

    print("\n== Set containment (worst-case family G_4) ==")
    r, s = realize_worst_case_containment(4)
    graph = build_join_graph(r, s, SetContainment())
    result = solve(graph)
    print(f"join graph: {graph}; {result.summary()}")
    print("note: pi exceeds m — no perfect pebbling exists (Theorem 3.3).")
    return 0


def _cmd_family(args: argparse.Namespace) -> int:
    from repro.core.families import (
        worst_case_effective_cost,
        worst_case_family,
    )
    from repro.core.solvers.registry import solve

    n = args.n
    family = worst_case_family(n)
    result = solve(family, "exact" if family.num_edges <= 20 else "dfs+polish")
    print(f"G_{n}: m = {family.num_edges} edges")
    print(f"formula pi = 2n + ceil((n-2)/2) = {worst_case_effective_cost(n)}")
    print(result.summary())
    return 0


def _cmd_experiments(_args: argparse.Namespace) -> int:
    from repro.analysis import experiments as exp

    tables = [
        exp.bounds_experiment(),
        exp.worst_case_experiment(),
        exp.equijoin_perfect_experiment(),
        exp.dfs_approx_experiment(),
        exp.perfect_iff_hamiltonian_experiment(),
        exp.hardness_scaling_experiment(),
        *exp.reduction_experiment(),
        exp.approx_ladder_experiment(),
        exp.traceability_phase_experiment(trials=10),
        exp.join_algorithm_experiment(),
    ]
    for table in tables:
        print(table.render())
        print()
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.analysis.render import render_bipartite, render_scheme
    from repro.core.solvers.registry import solve

    with open(args.graph_file) as handle:
        graph = load_bipartite(handle.read())
    print(render_bipartite(graph))
    result = solve(graph)
    print()
    print(result.summary())
    print(render_scheme(graph, result.scheme))
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    from repro.analysis.render import render_partitioning
    from repro.errors import InstanceTooLargeError
    from repro.joins.partitioning import (
        greedy_partitioning,
        hash_partitioning,
        optimal_partitioning_bruteforce,
        round_robin_partitioning,
    )

    with open(args.graph_file) as handle:
        graph = load_bipartite(handle.read())
    p, q = args.p, args.q
    strategies = [
        ("round-robin", round_robin_partitioning(graph, p, q)),
        ("hash", hash_partitioning(graph, p, q)),
        ("greedy", greedy_partitioning(graph, p, q)),
    ]
    try:
        strategies.append(("optimal", optimal_partitioning_bruteforce(graph, p, q)))
    except InstanceTooLargeError:
        print("(instance too large for the brute-force optimum)")
    for name, part in strategies:
        print(f"{name}: {part.cost(graph)} sub-joins")
    print()
    print("hash partitioning cell grid:")
    print(render_partitioning(graph, dict(strategies)["hash"]))
    return 0


_PREDICATES = {
    "equality": "Equality",
    "overlap": "SpatialOverlap",
    "containment": "SetContainment",
    "set-overlap": "SetOverlap",
}


def _cmd_join(args: argparse.Namespace) -> int:
    from repro.engine import JoinQuery, execute
    from repro.joins import predicates as predicate_module
    from repro.relations.io import format_value, load_relation
    from repro.runtime import Budget, use_budget

    with open(args.left_file) as handle:
        left = load_relation("R", handle.read())
    with open(args.right_file) as handle:
        right = load_relation("S", handle.read())
    if args.predicate == "band":
        predicate = predicate_module.Band(args.band_width)
    else:
        predicate_class = getattr(predicate_module, _PREDICATES[args.predicate])
        predicate = predicate_class()
    budget = Budget(deadline=args.deadline) if args.deadline is not None else None
    with use_budget(budget):
        result = execute(JoinQuery(left, right, predicate))
    print(result.explain_analyze())
    limit = args.limit if args.limit is not None else len(result.rows)
    for a, b in result.rows[:limit]:
        print(f"{format_value(a)}\t{format_value(b)}")
    if limit < len(result.rows):
        print(f"... ({len(result.rows) - limit} more rows)")
    return 0


def _cmd_multiway(args: argparse.Namespace) -> int:
    import json as _json

    from repro.engine import execute_multiway, plan_multiway
    from repro.joins.multiway import agm_bound, fractional_edge_cover
    from repro.runtime import Budget, use_budget
    from repro.workloads.multiway import (
        clique_query,
        four_cycle_query,
        triangle_query,
    )

    if args.instance == "triangle":
        query = triangle_query(args.n, skew=args.skew, seed=args.seed)
    elif args.instance == "4cycle":
        query = four_cycle_query(args.n, skew=args.skew, seed=args.seed)
    else:
        query = clique_query(args.clique_k, args.n, skew=args.skew, seed=args.seed)
    budget = Budget(deadline=args.deadline) if args.deadline is not None else None
    with use_budget(budget):
        if args.algorithm == "auto":
            the_plan = plan_multiway(query)
            result = execute_multiway(
                query, chosen_plan=the_plan, with_trace=not args.no_trace
            )
        else:
            the_plan = None
            result = execute_multiway(
                query, algorithm=args.algorithm, with_trace=not args.no_trace
            )
    cover = fractional_edge_cover(query)
    agm = result.agm if result.agm >= 0 else agm_bound(query)
    if args.json:
        document = {
            "query": query.describe(),
            "instance": args.instance,
            "n": args.n,
            "skew": args.skew,
            "agm_bound": round(agm, 2),
            "fractional_edge_cover": {
                name: str(weight) for name, weight in sorted(cover.items())
            },
            "execution": result.result.as_dict(),
            "plan": None if the_plan is None else the_plan.record.as_dict(),
            "trace": None if result.trace is None else result.trace.as_dict(),
        }
        print(_json.dumps(document, indent=2, sort_keys=True))
        return 0
    print(f"query: {query.describe()}")
    sizes = ", ".join(
        f"|{atom.name}| = {len(atom.distinct_rows())}" for atom in query.atoms
    )
    cover_text = ", ".join(f"w_{name} = {w}" for name, w in sorted(cover.items()))
    print(f"sizes: {sizes}")
    print(f"fractional edge cover: {cover_text}  ->  AGM bound {agm:.1f}")
    if the_plan is not None and the_plan.record is not None:
        print()
        print(the_plan.record.render())
        print()
    run = result.result
    print(
        f"{run.algorithm}: {run.output_size} bindings, "
        f"{run.intermediates} intermediates (AGM bound {agm:.1f}), "
        f"{run.seeks} seeks"
    )
    if run.stage_sizes:
        print(f"cascade stage sizes: {list(run.stage_sizes)}")
    if result.trace is not None:
        t = result.trace
        print(
            f"trace ({t.left_atom} x {t.right_atom}): "
            f"{t.projected_pairs} projected pairs, "
            f"effective cost {t.report.effective_cost} "
            f"(ratio {t.report.cost_ratio:.4f}), "
            f"{t.report.jumps} jumps, beta0 = {t.beta0}"
        )
    limit = args.limit if args.limit is not None else 0
    for row in run.bindings[:limit]:
        print("\t".join(str(v) for v in row))
    if limit and limit < run.output_size:
        print(f"... ({run.output_size - limit} more bindings)")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    import json as _json

    from repro import obs
    from repro.obs import planquality as obs_plans

    if args.scenario is not None:
        from repro.obs.bench import SCENARIOS, BenchConfig

        if args.scenario not in SCENARIOS:
            known = ", ".join(sorted(SCENARIOS))
            print(
                f"error: unknown scenario {args.scenario!r} (known: {known})",
                file=sys.stderr,
            )
            return 2
        with obs.recording():
            SCENARIOS[args.scenario].run(BenchConfig(smoke=True, seed=args.seed))
        records = obs_plans.records()
        obs.reset()
        if args.json:
            document = {
                "schema": obs_plans.PLAN_SCHEMA,
                "records": [record.as_dict() for record in records],
            }
            print(_json.dumps(document, indent=2, sort_keys=True))
            return 0
        if not records:
            print(f"scenario {args.scenario!r} planned no joins")
            return 0
        for index, record in enumerate(records):
            if index:
                print()
            print(record.render())
        return 0

    if args.left_file is None or args.right_file is None:
        print(
            "error: provide two relation files, or --scenario NAME",
            file=sys.stderr,
        )
        return 2

    from repro.engine import JoinQuery, execute, plan as plan_query
    from repro.joins import predicates as predicate_module
    from repro.relations.io import load_relation
    from repro.runtime import Budget, use_budget

    with open(args.left_file) as handle:
        left = load_relation("R", handle.read())
    with open(args.right_file) as handle:
        right = load_relation("S", handle.read())
    if args.predicate == "band":
        predicate = predicate_module.Band(args.band_width)
    else:
        predicate_class = getattr(predicate_module, _PREDICATES[args.predicate])
        predicate = predicate_class()
    budget = Budget(deadline=args.deadline) if args.deadline is not None else None
    query = JoinQuery(left, right, predicate)
    with use_budget(budget):
        if args.analyze:
            result = execute(query, shadow=args.shadow)
            the_plan = result.plan
        else:
            the_plan = plan_query(query)
    record = the_plan.record
    if args.json:
        document = {
            "schema": obs_plans.PLAN_SCHEMA,
            "records": [] if record is None else [record.as_dict()],
        }
        print(_json.dumps(document, indent=2, sort_keys=True))
    elif record is not None:
        print(record.render())
    else:
        print(the_plan.explain())
    return 0


def _cmd_decide(args: argparse.Namespace) -> int:
    from repro.core.decision import decide_pebble

    with open(args.graph_file) as handle:
        graph = load_bipartite(handle.read())
    decision = decide_pebble(graph, args.k)
    verdict = "YES" if decision.answer else "NO"
    print(f"pi(G) <= {args.k}?  {verdict}  ({decision.reason})")
    if decision.answer and decision.scheme is not None:
        print(
            f"witness scheme: pi = "
            f"{decision.scheme.effective_cost(graph)}"
        )
    if not decision.answer and decision.lower_bound is not None:
        print(f"certificate: pi(G) >= {decision.lower_bound}")
    return 0


def _cmd_svg(args: argparse.Namespace) -> int:
    from repro.analysis.svg import join_graph_svg, spatial_instance_svg
    from repro.core.solvers.registry import solve

    if args.family is not None:
        from repro.geometry.realize import realize_worst_case_family
        from repro.joins.join_graph import build_join_graph
        from repro.joins.predicates import SpatialOverlap

        left, right = realize_worst_case_family(args.family)
        with open(args.output, "w") as handle:
            handle.write(spatial_instance_svg(left, right))
        print(f"spatial G_{args.family} instance written to {args.output}")
        graph_path = args.output.replace(".svg", "-graph.svg")
        graph = build_join_graph(left, right, SpatialOverlap())
        result = solve(graph, exact_edge_limit=24)
        with open(graph_path, "w") as handle:
            handle.write(join_graph_svg(graph, result.scheme))
        print(f"join graph with scheme order written to {graph_path}")
        return 0
    with open(args.graph_file) as handle:
        graph = load_bipartite(handle.read())
    result = solve(graph)
    with open(args.output, "w") as handle:
        handle.write(join_graph_svg(graph, result.scheme))
    print(f"join graph written to {args.output}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import contextlib

    from repro.obs.bench import SCENARIOS, run_bench
    from repro.runtime import FaultPlan, inject

    if args.list:
        for name in sorted(SCENARIOS):
            print(f"{name}: {SCENARIOS[name].description}")
        return 0
    harness: contextlib.AbstractContextManager = contextlib.nullcontext()
    if args.fault_seed is not None:
        # Chaos mode: seeded faults at every instrumented site; scenario
        # retry + structured failure records absorb what trips.
        harness = inject(
            FaultPlan(seed=args.fault_seed, rates={"*": args.fault_rate})
        )
    publish_dir = args.publish_dir
    try:
        with harness:
            report, run_dir, bench_path = run_bench(
                smoke=args.smoke,
                seed=args.seed,
                names=args.scenario or None,
                repeats=args.repeat,
                runs_dir=args.runs_dir,
                out_dir=None if args.no_bench_file else args.out_dir,
                scenario_deadline=args.scenario_deadline,
                publish_dir=publish_dir,
                jobs=args.jobs,
                cache_path=args.cache,
            )
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    print(report.table().render())
    print(f"\nrun artifacts: {run_dir}/")
    if bench_path is not None:
        print(f"perf trajectory point: {bench_path}")
    if publish_dir is not None:
        print(f"trajectory feed: {publish_dir}/BENCH_*.json (commit to extend)")
    if report.failed:
        names = ", ".join(s.name for s in report.failed)
        print(
            f"error: {len(report.failed)} scenario(s) failed after retry: {names}",
            file=sys.stderr,
        )
        return 1
    return 0


DEFAULT_PROFILE_SCENARIO = "engine-equijoin"


def _run_traced_workload(args: argparse.Namespace) -> list:
    """Run the selected workload while recording and return the recorded
    spans (the recording switch is restored afterwards).

    Workload selection, shared by ``profile`` and ``trace``: either a
    graph file solved with ``--method``, or one or more bench scenarios
    (default: the equijoin engine scenario, the same workload shape as
    ``examples/query_engine.py``).
    """
    from repro import obs
    from repro.obs import trace as obs_trace
    from repro.obs.bench import SCENARIOS, BenchConfig

    with obs.recording():
        if args.graph:
            from repro.core.solvers.registry import solve

            with open(args.graph) as handle:
                graph = load_bipartite(handle.read())
            with obs_trace.span(
                "workload.pebble", file=args.graph, method=args.method
            ):
                solve(graph, args.method)
        else:
            names = args.scenario or [DEFAULT_PROFILE_SCENARIO]
            for name in names:
                if name not in SCENARIOS:
                    raise KeyError(
                        f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
                    )
            config = BenchConfig(smoke=args.smoke, seed=args.seed)
            for name in names:
                with obs_trace.span(f"workload.{name}", smoke=args.smoke):
                    SCENARIOS[name].run(config)
    return obs_trace.spans()


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        action="append",
        help=(
            "bench scenario to run (repeatable; default: "
            f"{DEFAULT_PROFILE_SCENARIO}; see `repro bench --list`)"
        ),
    )
    parser.add_argument(
        "--graph", help="profile a PEBBLE solve on this graph file instead"
    )
    parser.add_argument(
        "--method", default="auto", help="solver method for --graph (default auto)"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="CI-sized scenario inputs"
    )
    parser.add_argument("--seed", type=int, default=0)


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.obs import profile as obs_profile

    try:
        spans = _run_traced_workload(args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    result = obs_profile.profile_spans(spans)
    obs.reset()
    if not result.rows or result.total_self_ns <= 0:
        print("error: no self time recorded (empty workload?)", file=sys.stderr)
        return 1
    print(result.table(top=args.top).render())
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.obs import export as obs_export

    try:
        spans = _run_traced_workload(args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    obs.reset()
    output = args.output or obs_export.DEFAULT_FILENAMES[args.format]
    if args.format == "perfetto":
        # Self-check before writing: an exported trace that fails the
        # schema gate should never reach disk silently.
        problems = obs_export.validate_chrome_trace(
            obs_export.to_chrome_trace(spans)
        )
        if problems:
            for problem in problems:
                print(f"error: {problem}", file=sys.stderr)
            return 1
    path = obs_export.write_trace(output, args.format, spans)
    print(f"{len(spans)} spans exported to {path} ({args.format})")
    if args.format == "perfetto":
        print("open in https://ui.perfetto.dev or chrome://tracing")
    elif args.format == "folded":
        print("feed to flamegraph.pl to render a flamegraph")
    return 0


def _registry_for(args: argparse.Namespace):
    """An up-to-date in-memory registry over ``--runs-dir``.

    Read-only query commands rebuild from artifacts each invocation (the
    artifacts are the source of truth); only ``runs index`` persists the
    SQLite file for external tooling.
    """
    from repro.obs.registry import RunRegistry

    registry = RunRegistry(":memory:")
    registry.rebuild(args.runs_dir)
    return registry


def _tolerance(args: argparse.Namespace) -> float:
    """``--tolerance``, defaulting to the perf gate's (:mod:`repro.obs.verdict`)."""
    from repro.obs.verdict import DEFAULT_TOLERANCE

    return DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance


def _utc(created_unix: float | None) -> str:
    import time as _time

    if created_unix is None:
        return "-"
    return _time.strftime("%Y-%m-%d %H:%M:%S", _time.gmtime(created_unix))


def _trend_table(points: list[dict], column: str, value, title: str) -> str:
    """One row per trend point: provenance, ``value(point)``, verdict."""
    from repro.analysis.report import Table

    table = Table(
        ["run", "created (UTC)", "commit", column, "vs prev", "verdict"], title=title
    )
    for point in points:
        table.add_row(
            [
                point["run_id"],
                _utc(point["created_unix"]),
                point["git_sha"][:10],
                value(point),
                "-" if point["ratio"] is None else f"{point['ratio']:.2f}x",
                point["verdict"],
            ]
        )
    return table.render()


def _cmd_runs_index(args: argparse.Namespace) -> int:
    from repro.obs.registry import open_registry

    with open_registry(args.runs_dir, db_path=args.db, refresh=True) as registry:
        indexed = registry.runs()
        partial = [r for r in indexed if r["status"] == "partial"]
        print(
            f"indexed {len(indexed)} run(s) from {args.runs_dir}/ "
            f"into {registry.path}"
        )
        for run in partial:
            problems = "; ".join(run["problems"]) or "incomplete artifacts"
            print(f"  partial: {run['run_id']} ({problems})")
    return 0


def _cmd_runs_list(args: argparse.Namespace) -> int:
    from repro.analysis.report import Table

    registry = _registry_for(args)
    indexed = registry.runs(limit=args.limit)
    if not indexed:
        print(f"no runs indexed under {args.runs_dir}/")
        return 0
    table = Table(
        ["run", "created (UTC)", "commit", "seed", "mode", "status", "scenarios"],
        title=f"runs in {args.runs_dir}/",
    )
    for run in indexed:
        sha = run["git_sha"]
        table.add_row(
            [
                run["run_id"],
                _utc(run["created_unix"]),
                sha[:10] + ("-dirty" if sha.endswith("-dirty") else ""),
                run["seed"] if run["seed"] is not None else "-",
                run["mode"] or "-",
                run["status"],
                len(registry.scenarios_for(run["run_id"])),
            ]
        )
    print(table.render())
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.analysis.report import Table

    registry = _registry_for(args)
    run = registry.run(args.run_id)
    if run is None:
        print(f"error: no run {args.run_id!r} under {args.runs_dir}/", file=sys.stderr)
        return 2
    print(f"run {run['run_id']}  [{run['status']}]")
    print(f"  git SHA: {run['git_sha']}")
    print(f"  seed: {run['seed']}  mode: {run['mode'] or '-'}")
    print(f"  path: {run['path']}")
    print(f"  artifacts: {', '.join(run['artifacts']) or 'none'}")
    for problem in run["problems"]:
        print(f"  problem: {problem}")
    scenarios = registry.scenarios_for(run["run_id"])
    if scenarios:
        table = Table(["scenario", "status", "best ms", "mean ms", "repeats"])
        for entry in scenarios:
            table.add_row(
                [
                    entry["scenario"],
                    entry["status"],
                    "-" if entry["best_ns"] is None else round(entry["best_ns"] / 1e6, 3),
                    "-" if entry["mean_ns"] is None else round(entry["mean_ns"] / 1e6, 3),
                    entry["repeats"] if entry["repeats"] is not None else "-",
                ]
            )
        print()
        print(table.render())
    events_path = Path(run["path"]) / "events.jsonl"
    if events_path.is_file():
        counts: dict[str, int] = {}
        for line in events_path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                record = _json.loads(line)
            except _json.JSONDecodeError:
                continue
            name = record.get("name", "?")
            counts[name] = counts.get(name, 0) + 1
        print()
        print(f"events ({sum(counts.values())} recorded):")
        for name in sorted(counts):
            print(f"  {name}: {counts[name]}")
    return 0


def _cmd_runs_compare(args: argparse.Namespace) -> int:
    from repro.analysis.report import Table

    registry = _registry_for(args)
    for run_id in (args.run_a, args.run_b):
        if registry.run(run_id) is None:
            print(
                f"error: no run {run_id!r} under {args.runs_dir}/", file=sys.stderr
            )
            return 2
    from repro.obs.verdict import BAD_VERDICTS, ModeMismatch

    try:
        rows = registry.compare(args.run_a, args.run_b, tolerance=_tolerance(args))
    except ModeMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    table = Table(
        ["scenario", "a best ms", "b best ms", "ratio", "verdict"],
        title=f"{args.run_a} -> {args.run_b}",
    )
    regressions = 0
    for row in rows:
        if row["verdict"] in BAD_VERDICTS:
            regressions += 1
        table.add_row(
            [
                row["scenario"],
                "-" if row["a_ns"] is None else round(row["a_ns"] / 1e6, 3),
                "-" if row["b_ns"] is None else round(row["b_ns"] / 1e6, 3),
                "-" if row["ratio"] is None else f"{row['ratio']:.2f}x",
                row["verdict"],
            ]
        )
    print(table.render())
    if regressions:
        print(f"{regressions} regression(s)", file=sys.stderr)
        return 1
    return 0


def _cmd_runs_trend(args: argparse.Namespace) -> int:
    registry = _registry_for(args)
    scenario_names = registry.scenario_names()
    if args.scenario not in scenario_names:
        known = ", ".join(scenario_names) or "none indexed"
        print(
            f"error: no runs recorded scenario {args.scenario!r} "
            f"(known: {known})",
            file=sys.stderr,
        )
        return 2
    points = registry.trend(
        args.scenario,
        metric=f"{args.metric}_ns",
        tolerance=_tolerance(args),
        limit=args.limit,
    )
    print(
        _trend_table(
            points,
            f"{args.metric} ms",
            lambda p: "-" if p["value_ns"] is None else round(p["value_ns"] / 1e6, 3),
            f"trend: {args.scenario} ({len(points)} run(s))",
        )
    )
    return 0


def _cmd_runs_plan_quality(args: argparse.Namespace) -> int:
    registry = _registry_for(args)
    predicates = registry.plan_predicates()
    if not predicates:
        print(f"no plan records indexed under {args.runs_dir}/")
        return 0
    if args.predicate is not None and args.predicate not in predicates:
        known = ", ".join(predicates)
        print(
            f"error: no runs recorded predicate {args.predicate!r} "
            f"(known: {known})",
            file=sys.stderr,
        )
        return 2
    selected = [args.predicate] if args.predicate is not None else predicates
    for index, predicate in enumerate(selected):
        points = registry.plan_trend(
            predicate,
            metric=args.metric,
            tolerance=_tolerance(args),
            limit=args.limit,
        )
        if index:
            print()
        print(
            _trend_table(
                points,
                args.metric,
                lambda p: "-" if p["value"] is None else round(p["value"], 4),
                f"plan quality: {predicate} / {args.metric} ({len(points)} run(s))",
            )
        )
    return 0


def _cmd_runs_trace_request(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.obs import export as obs_export

    registry = _registry_for(args)
    run = registry.run(args.run_id)
    if run is None:
        print(f"error: no run {args.run_id!r} under {args.runs_dir}/", file=sys.stderr)
        return 2
    trace_path = Path(run["path"]) / "trace.jsonl"
    if not trace_path.is_file():
        print(
            f"error: {trace_path} missing (serve with --run-dir to record "
            "traces)",
            file=sys.stderr,
        )
        return 2
    records: list[dict] = []
    for line in trace_path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        try:
            record = _json.loads(line)
        except _json.JSONDecodeError:
            continue
        if isinstance(record, dict):
            records.append(record)
    try:
        document = obs_export.request_trace(records, args.request_id)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = obs_export.validate_chrome_trace(document)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    output = args.output or f"trace-{args.request_id}.json"
    Path(output).write_text(
        _json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    spans = document["otherData"]["spans"]
    trace_ids = document["otherData"]["trace_ids"]
    print(
        f"request {args.request_id}: {spans} span(s), "
        f"trace {', '.join(trace_ids)} -> {output}"
    )
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    from repro.analysis.report import Table
    from repro.obs.telemetry import parse_exposition
    from repro.server.client import ServeClient

    if args.unix is None and args.port is None:
        print("error: --port or --unix is required", file=sys.stderr)
        return 2

    def _series(families, name) -> dict[str, float]:
        family = families.get(name)
        if family is None:
            return {}
        return {
            sample.labels.get("op", ""): sample.value
            for sample in family.samples
        }

    def _scalar(families, name) -> float | None:
        family = families.get(name)
        if family is None or not family.samples:
            return None
        return family.samples[0].value

    def _render(text: str) -> str:
        families, _problems = parse_exposition(text)
        requests = _series(families, "repro_server_requests_total")
        rps = _series(families, "repro_server_window_rps")
        error_rate = _series(families, "repro_server_window_error_rate")
        p50 = _series(families, "repro_server_window_p50_ms")
        p99 = _series(families, "repro_server_window_p99_ms")
        uptime = _scalar(families, "repro_server_uptime_seconds")
        queue = _scalar(families, "repro_server_queue_depth")
        jobs = _scalar(families, "repro_server_jobs")
        rejected = _scalar(families, "repro_server_admission_rejected_total")
        header = (
            f"uptime {uptime:.0f}s" if uptime is not None else "uptime -"
        )
        if jobs is not None:
            header += f"  jobs {jobs:.0f}"
        if queue is not None:
            header += f"  queue {queue:.0f}"
        if rejected is not None:
            header += f"  rejected {rejected:.0f}"
        table = Table(
            ["op", "requests", "rps", "err%", "p50 ms", "p99 ms"],
            title=header,
        )
        for op in sorted(requests):
            table.add_row(
                [
                    op,
                    int(requests[op]),
                    round(rps.get(op, 0.0), 2),
                    round(error_rate.get(op, 0.0) * 100.0, 1),
                    "-" if op not in p50 else round(p50[op], 3),
                    "-" if op not in p99 else round(p99[op], 3),
                ]
            )
        return table.render()

    iterations = 1 if args.once else args.iterations
    polls = 0
    try:
        with ServeClient(
            host=args.host, port=args.port, unix_path=args.unix
        ) as client:
            while True:
                response = client.metrics()
                if not response.get("ok"):
                    error = response.get("error", {})
                    print(
                        f"error: {error.get('code')}: {error.get('message')}",
                        file=sys.stderr,
                    )
                    return 1
                rendered = _render(response["result"]["text"])
                if not args.once:
                    # ANSI home+clear keeps one live table; --once stays
                    # pipe-friendly for scripts and tests.
                    print("\x1b[H\x1b[2J", end="")
                print(rendered, flush=True)
                polls += 1
                if iterations is not None and polls >= iterations:
                    return 0
                _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report_html import write_report

    registry = _registry_for(args)
    runs = registry.runs()
    path = write_report(registry, args.output, tolerance=_tolerance(args))
    print(
        f"report written to {path} ({len(runs)} run(s), "
        f"{len(registry.scenario_names())} scenario(s))"
    )
    return 0


def _load_artifact(path) -> tuple[str | None, str]:
    """``(kind, text)`` of one artifact file, the kind read from its
    content or suffix (None when it is no artifact ``repro check``
    knows)."""
    import json as _json

    from repro.obs.planquality import PLAN_SCHEMA

    text = path.read_text()
    if path.suffix == ".html":
        return "report", text
    try:
        doc, whole = _json.loads(text), True
    except ValueError:  # JSONL: its first record tells plans from events
        try:
            doc, whole = _json.loads(text.lstrip().split("\n", 1)[0]), False
        except ValueError:
            return None, text
    if whole and isinstance(doc, list):
        return "trace", text
    if not isinstance(doc, dict):
        return None, text
    if whole and "traceEvents" in doc:
        return "trace", text
    if whole and str(doc.get("schema")).startswith("repro-bench/"):
        return "bench", text
    if whole and "records" in doc:
        return "explain", text
    if doc.get("schema") == PLAN_SCHEMA:
        return "plans", text
    return ("events" if "seq" in doc else None), text


def _artifact_validators() -> dict:
    """Artifact kind -> ``validator(text, path)``; each validator lives
    next to the code that writes that artifact."""
    import json as _json

    from repro.obs import events, planquality
    from repro.obs.bench import validate_bench_payload
    from repro.obs.export import validate_chrome_trace
    from repro.obs.report_html import validate_report

    def parsed(validate):
        return lambda text, path: validate(_json.loads(text), path)

    return {
        "bench": parsed(validate_bench_payload),
        "events": events.validate_jsonl,
        "trace": parsed(validate_chrome_trace),
        "plans": planquality.validate_jsonl,
        "explain": parsed(planquality.validate_explain_document),
        "report": validate_report,
    }


def _plan_calibration(loaded: list) -> list[dict]:
    import json as _json

    from repro.obs.planquality import calibration

    records = []
    for kind, text in loaded:
        if kind == "explain":
            records.extend(_json.loads(text)["records"])
        else:
            lines = [line for line in text.splitlines() if line.strip()]
            records.extend(_json.loads(line) for line in lines)
    return calibration(records)


def _check_bench_gate(target: str, baseline: dict, loaded: list) -> int:
    import json as _json

    from repro.analysis.report import Table
    from repro.obs.registry import scenarios_from_bench
    from repro.obs.verdict import BAD_VERDICTS, DEFAULT_TOLERANCE, compare_scenarios

    def ms(value):
        return "-" if value is None else f"{value / 1e6:.3f}"

    print(f"bench diff against {target}, tolerance {DEFAULT_TOLERANCE:.0%}")
    base_rows = scenarios_from_bench(baseline, [])
    regressions = []
    for _kind, text in loaded:
        payload = _json.loads(text)
        new_rows = scenarios_from_bench(payload, [])
        errors = {s["scenario"]: s["error"] or "no error recorded" for s in new_rows}
        table = Table(["scenario", "base best ms", "new best ms", "ratio", "verdict"])
        modes = (baseline.get("mode"), payload.get("mode"))
        for row in compare_scenarios(base_rows, new_rows, modes=modes):
            name, verdict = row["scenario"], row["verdict"]
            ratio = "-" if row["ratio"] is None else f"{row['ratio']:.2f}x"
            table.add_row([name, ms(row["a_ns"]), ms(row["b_ns"]), ratio, verdict])
            if verdict == "MISSING":
                regressions.append(f"{name}: present in baseline but not in candidate")
            elif verdict == "FAILED":
                regressions.append(
                    f"{name}: ok in baseline but failed in candidate ({errors[name]})"
                )
            elif verdict in BAD_VERDICTS:
                regressions.append(
                    f"{name}: best {ms(row['b_ns'])} ms vs baseline "
                    f"{ms(row['a_ns'])} ms ({ratio})"
                )
        print(table.render())
    for message in regressions:
        print(f"regression: {message}", file=sys.stderr)
    if regressions:
        print(f"{len(regressions)} regression(s)", file=sys.stderr)
        return 1
    print("no regressions")
    return 0


def _check_plan_gate(baseline: dict, loaded: list) -> int:
    from repro.analysis.report import Table
    from repro.obs.verdict import BAD_VERDICTS, DEFAULT_TOLERANCE, compare_calibration

    tolerance = baseline.get("tolerance", DEFAULT_TOLERANCE)
    rows = compare_calibration(
        baseline["predicates"], _plan_calibration(loaded), tolerance
    )
    table = Table(["predicate", "metric", "base", "new", "ratio", "verdict"])
    for row in rows:
        table.add_row(
            [row["predicate"], row["metric"]]
            + ["-" if row[k] is None else f"{row[k]:.4f}" for k in ("base", "new")]
            + ["-" if row["ratio"] is None else f"{row['ratio']:.2f}x", row["verdict"]]
        )
    print(table.render())
    regressions = sum(row["verdict"] in BAD_VERDICTS for row in rows)
    if regressions:
        print(f"{regressions} plan-quality regression(s)", file=sys.stderr)
        return 1
    print(f"plan quality within tolerance ({tolerance:.0%})")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from repro.obs.planquality import PLAN_BASELINE_SCHEMA, calibration_baseline
    from repro.obs.verdict import DEFAULT_TOLERANCE, ModeMismatch

    validators = _artifact_validators()
    status, loaded = 0, []
    for name in args.files:
        try:
            kind, text = _load_artifact(Path(name))
        except OSError as exc:
            print(f"{name}: unreadable ({exc})", file=sys.stderr)
            status = 2
            continue
        if kind is None:
            expected = ", ".join(validators)
            print(f"{name}: unknown artifact kind ({expected})", file=sys.stderr)
            status = 2
            continue
        problems = validators[kind](text, name)
        if problems:
            print("\n".join(problems), file=sys.stderr)
            status = max(status, 1)
        else:
            print(f"{name}: ok ({kind})")
        loaded.append((kind, text))
    target = args.baseline or args.write_baseline
    if target is None or status:
        return status if target is None else 2
    kinds = {kind for kind, _text in loaded}
    plans_only = kinds <= {"plans", "explain"}
    if args.write_baseline:
        rows = _plan_calibration(loaded) if plans_only else []
        if not rows:
            print("error: --write-baseline needs plan records", file=sys.stderr)
            return 2
        document = calibration_baseline(rows, DEFAULT_TOLERANCE)
        Path(target).write_text(_json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"baseline for {len(rows)} predicate class(es) written to {target}")
        return 0
    try:
        baseline = _json.loads(Path(target).read_text())
    except (OSError, ValueError) as exc:
        print(f"error: {target}: unreadable ({exc})", file=sys.stderr)
        return 2
    if not isinstance(baseline, dict):
        baseline = {}
    schema = str(baseline.get("schema"))
    try:
        if schema == PLAN_BASELINE_SCHEMA and plans_only:
            if isinstance(baseline.get("predicates"), dict):
                return _check_plan_gate(baseline, loaded)
        elif schema.startswith("repro-bench/") and kinds == {"bench"}:
            return _check_bench_gate(target, baseline, loaded)
    except ModeMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"error: {target} ({schema}) is not a repro-bench or "
        f"{PLAN_BASELINE_SCHEMA} baseline for {', '.join(sorted(kinds))} files",
        file=sys.stderr,
    )
    return 2


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro import obs
    from repro.obs import events as obs_events
    from repro.obs.telemetry import TelemetryWindow
    from repro.parallel.cache import SolveCache
    from repro.server.admission import AdmissionController
    from repro.server.server import SolveServer

    if args.unix is not None and args.port is not None:
        print("error: --port and --unix are mutually exclusive", file=sys.stderr)
        return 2
    if (
        args.journal is not None
        and args.recover is not None
        and args.journal != args.recover
    ):
        print(
            "error: --journal and --recover name different directories",
            file=sys.stderr,
        )
        return 2
    journal_dir = args.recover if args.recover is not None else args.journal
    if args.run_dir is not None:
        # A run directory makes the server an observed run: events.jsonl,
        # metrics.json, and trace.jsonl land there on shutdown,
        # registry-compatible (traces feed `repro runs trace-request`).
        obs.reset()
        obs.enable()
        from pathlib import Path

        obs_events.set_run_id(Path(args.run_dir).name)
    port = args.port
    if args.unix is None and port is None:
        port = 0  # ephemeral; the bound port is printed on start
    cache = SolveCache(path=args.cache)
    server = SolveServer(
        host=args.host,
        port=port if args.unix is None else None,
        unix_path=args.unix,
        jobs=args.jobs,
        cache=cache,
        admission=AdmissionController(
            max_queue_depth=args.max_queue_depth,
            max_inflight_bytes=args.max_inflight_bytes,
        ),
        default_deadline=args.default_deadline,
        run_dir=args.run_dir,
        journal_dir=journal_dir,
        recover=args.recover is not None,
        telemetry=TelemetryWindow(window_seconds=args.metrics_window),
    )

    async def _main() -> None:
        await server.start()
        address = server.address
        if isinstance(address, tuple):
            print(f"serving on {address[0]}:{address[1]}", flush=True)
        else:
            print(f"serving on unix:{address}", flush=True)
        await server.run_until_shutdown()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("interrupted; shutting down")
    finally:
        cache.close()
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    import json

    from repro.server.client import ServeClient
    from repro.server.protocol import SOLVE_OPS

    if args.unix is None and args.port is None:
        print("error: --port or --unix is required", file=sys.stderr)
        return 2
    if args.op == "load":
        from repro.workloads.loadgen import LoadSpec, run_load

        spec = LoadSpec(
            requests=args.requests,
            concurrency=args.concurrency,
            deadline=args.deadline,
            seed=args.seed,
            retries=args.retries,
        )
        result = run_load(
            spec, host=args.host, port=args.port, unix_path=args.unix
        )
        print(json.dumps(result.as_dict(), indent=2, sort_keys=True))
        return 0 if result.errors == 0 else 1
    if args.op in SOLVE_OPS and not args.graph_files:
        print(f"error: op {args.op!r} needs graph file(s)", file=sys.stderr)
        return 2
    if args.op == "explain" and len(args.graph_files) != 2:
        print(
            "error: op 'explain' needs a left and a right relation file",
            file=sys.stderr,
        )
        return 2
    retry = None
    if args.retries > 0:
        from repro.runtime.retry import RetryPolicy

        retry = RetryPolicy(max_attempts=args.retries + 1, seed=args.seed)
    exit_code = 0
    with ServeClient(
        host=args.host, port=args.port, unix_path=args.unix, retry=retry
    ) as client:
        if args.op in SOLVE_OPS:
            for path in args.graph_files:
                with open(path) as handle:
                    graph_text = handle.read()
                response = client.request(
                    args.op,
                    graph_text,
                    method=args.method,
                    deadline=args.deadline,
                )
                if response.get("ok"):
                    result = response["result"]
                    line = (
                        f"{path}: pi={result['effective_cost']} "
                        f"({result['status']}, {result['components']} "
                        f"component(s), {result['cached_components']} cached)"
                    )
                    print(line)
                else:
                    error = response.get("error", {})
                    print(
                        f"{path}: error: {error.get('code')}: "
                        f"{error.get('message')}",
                        file=sys.stderr,
                    )
                    exit_code = 1
        elif args.op == "explain":
            with open(args.graph_files[0]) as handle:
                left_text = handle.read()
            with open(args.graph_files[1]) as handle:
                right_text = handle.read()
            response = client.explain(
                left_text,
                right_text,
                predicate=args.predicate,
                band_width=args.band_width,
                analyze=args.analyze,
                deadline=args.deadline,
            )
            if response.get("ok"):
                result = response["result"]
                if args.json:
                    print(json.dumps(result, indent=2, sort_keys=True))
                else:
                    print(result.get("render") or result["explain"])
            else:
                error = response.get("error", {})
                print(
                    f"error: {error.get('code')}: {error.get('message')}",
                    file=sys.stderr,
                )
                exit_code = 1
        else:
            response = client.request(args.op)
            if response.get("ok"):
                if args.op == "metrics":
                    # The exposition is already a text document; print it
                    # verbatim (scrape-able), not JSON-wrapped.
                    print(response["result"]["text"], end="")
                else:
                    print(json.dumps(response["result"], indent=2, sort_keys=True))
            else:
                error = response.get("error", {})
                print(
                    f"error: {error.get('code')}: {error.get('message')}",
                    file=sys.stderr,
                )
                exit_code = 1
    return exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-pebble",
        description="Join-predicate pebbling (PODS 2001 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    pebble = commands.add_parser("pebble", help="solve PEBBLE on a graph file")
    pebble.add_argument("graph_file")
    pebble.add_argument("--method", default="auto")
    pebble.add_argument("--show-scheme", action="store_true")
    pebble.add_argument("--save", help="write the scheme to this file")
    pebble.add_argument(
        "--deadline",
        type=float,
        help="wall-clock budget in seconds (anytime: degrades, never fails)",
    )
    pebble.add_argument(
        "--node-budget",
        type=int,
        help="cooperative search-node budget (anytime)",
    )
    pebble.set_defaults(func=_cmd_pebble)

    solve_cmd = commands.add_parser(
        "solve", help="batch-solve PEBBLE on many graph files (parallel service)"
    )
    solve_cmd.add_argument("graph_files", nargs="+")
    solve_cmd.add_argument("--method", default="auto")
    solve_cmd.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for per-component solves (default 1 = inline)",
    )
    solve_cmd.add_argument(
        "--deadline",
        type=float,
        help="wall-clock budget in seconds for the whole batch "
        "(split cooperatively across workers)",
    )
    solve_cmd.add_argument(
        "--cache",
        nargs="?",
        const=".solve-cache.db",
        help="persistent solve cache path (flag alone: .solve-cache.db)",
    )
    solve_cmd.set_defaults(func=_cmd_solve)

    demo = commands.add_parser("demo", help="guided tour of the three join classes")
    demo.set_defaults(func=_cmd_demo)

    family = commands.add_parser("family", help="inspect the worst-case family G_n")
    family.add_argument("n", type=int)
    family.set_defaults(func=_cmd_family)

    experiments = commands.add_parser("experiments", help="run all paper experiments")
    experiments.set_defaults(func=_cmd_experiments)

    render = commands.add_parser("render", help="draw a graph and its scheme")
    render.add_argument("graph_file")
    render.set_defaults(func=_cmd_render)

    partition = commands.add_parser(
        "partition", help="compare partitioned-join mappings (§5)"
    )
    partition.add_argument("graph_file")
    partition.add_argument("-p", type=int, default=2)
    partition.add_argument("-q", type=int, default=2)
    partition.set_defaults(func=_cmd_partition)

    join = commands.add_parser("join", help="join two relation files")
    join.add_argument("left_file")
    join.add_argument("right_file")
    join.add_argument(
        "--predicate",
        default="equality",
        choices=sorted(_PREDICATES) + ["band"],
    )
    join.add_argument("--band-width", type=float, default=0.0)
    join.add_argument("--limit", type=int, help="print at most this many rows")
    join.add_argument(
        "--deadline",
        type=float,
        help="wall-clock budget in seconds for planning + execution",
    )
    join.set_defaults(func=_cmd_join)

    multiway = commands.add_parser(
        "multiway",
        help="evaluate a cyclic conjunctive query with the WCOJ engine",
    )
    multiway.add_argument(
        "--instance",
        default="triangle",
        choices=["triangle", "4cycle", "clique"],
        help="query shape (default: triangle)",
    )
    multiway.add_argument(
        "--n", type=int, default=200, help="rows per relation (default: 200)"
    )
    multiway.add_argument(
        "--skew",
        default="worst-case",
        choices=["uniform", "zipf", "worst-case"],
        help="row distribution (default: worst-case, the AGM-tight instance)",
    )
    multiway.add_argument(
        "--clique-k",
        type=int,
        default=4,
        help="clique size for --instance clique (default: 4)",
    )
    multiway.add_argument(
        "--algorithm",
        default="auto",
        choices=["auto", "lftj", "generic", "binary-cascade"],
        help="force an algorithm instead of planning (default: auto)",
    )
    multiway.add_argument("--seed", type=int, default=0)
    multiway.add_argument(
        "--limit", type=int, help="print at most this many result bindings"
    )
    multiway.add_argument(
        "--no-trace",
        action="store_true",
        help="skip the pebbling-trace projection",
    )
    multiway.add_argument(
        "--deadline",
        type=float,
        help="wall-clock budget in seconds for planning + execution",
    )
    multiway.add_argument("--json", action="store_true")
    multiway.set_defaults(func=_cmd_multiway)

    explain = commands.add_parser(
        "explain",
        help="render a join's structured plan record (tree or repro-plan/v1 JSON)",
    )
    explain.add_argument("left_file", nargs="?")
    explain.add_argument("right_file", nargs="?")
    explain.add_argument(
        "--predicate",
        default="equality",
        choices=sorted(_PREDICATES) + ["band"],
    )
    explain.add_argument("--band-width", type=float, default=0.0)
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="execute the join so the record carries actuals and q-error",
    )
    explain.add_argument(
        "--shadow",
        action="store_true",
        help="with --analyze: shadow-execute runner-up candidates "
        "to measure plan regret",
    )
    explain.add_argument(
        "--deadline",
        type=float,
        help="wall-clock budget in seconds for planning + execution",
    )
    explain.add_argument(
        "--scenario",
        help="instead of relation files: run this bench scenario "
        "(smoke-sized) under plan logging and explain every join it plans",
    )
    explain.add_argument(
        "--seed", type=int, default=0, help="scenario mode: input seed"
    )
    explain.add_argument(
        "--json",
        action="store_true",
        help="emit the repro-plan/v1 record document instead of text",
    )
    explain.set_defaults(func=_cmd_explain)

    decide = commands.add_parser(
        "decide", help="PEBBLE(D): decide pi(G) <= K (Def 4.1)"
    )
    decide.add_argument("graph_file")
    decide.add_argument("k", type=int)
    decide.set_defaults(func=_cmd_decide)

    svg = commands.add_parser("svg", help="write an SVG of a graph or family")
    svg.add_argument("graph_file", nargs="?")
    svg.add_argument("--family", type=int, help="render the spatial G_n instance")
    svg.add_argument("-o", "--output", default="out.svg")
    svg.set_defaults(func=_cmd_svg)

    bench = commands.add_parser(
        "bench", help="run the observability bench harness"
    )
    bench.add_argument(
        "--smoke", action="store_true", help="CI-sized inputs, one repeat"
    )
    bench.add_argument(
        "--scenario",
        action="append",
        help="run only this scenario (repeatable; default: all)",
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument(
        "--repeat", type=int, help="timing repeats per scenario (default 3, smoke 1)"
    )
    bench.add_argument(
        "--runs-dir", default="runs", help="where run manifests are written"
    )
    bench.add_argument(
        "--out-dir", default=".", help="where BENCH_<date>.json is written"
    )
    bench.add_argument(
        "--no-bench-file",
        action="store_true",
        help="skip the top-level BENCH_<date>.json",
    )
    bench.add_argument(
        "--list", action="store_true", help="list scenarios and exit"
    )
    bench.add_argument(
        "--scenario-deadline",
        type=float,
        default=60.0,
        help="ambient wall-clock budget per scenario attempt (seconds)",
    )
    bench.add_argument(
        "--fault-seed",
        type=int,
        help="chaos mode: inject seeded faults at instrumented sites",
    )
    bench.add_argument(
        "--fault-rate",
        type=float,
        default=0.2,
        help="per-site failure probability in chaos mode (default 0.2)",
    )
    bench.add_argument(
        "--publish-dir",
        help=(
            "also publish the canonical snapshot to this perf-trajectory "
            "directory (the tracked feed is benchmarks/results); "
            "default: publish nothing"
        ),
    )
    bench.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for batch scenarios (results are "
        "jobs-invariant; only timings change)",
    )
    bench.add_argument(
        "--cache",
        nargs="?",
        const=".solve-cache.db",
        help="install a persistent solve cache for the run "
        "(flag alone: .solve-cache.db); warm runs emit cache.hit events",
    )
    bench.set_defaults(func=_cmd_bench)

    profile = commands.add_parser(
        "profile", help="run a workload and print its self-time profile"
    )
    _add_workload_arguments(profile)
    profile.add_argument(
        "--top", type=int, default=15, help="rows to print (default 15)"
    )
    profile.set_defaults(func=_cmd_profile)

    trace = commands.add_parser(
        "trace", help="run a workload and export its trace"
    )
    _add_workload_arguments(trace)
    trace.add_argument(
        "--format",
        default="perfetto",
        choices=["perfetto", "folded", "jsonl"],
        help="perfetto = Chrome trace-event JSON (default)",
    )
    trace.add_argument(
        "-o",
        "--output",
        help="output file (default: trace.json / trace.folded / trace.jsonl)",
    )
    trace.set_defaults(func=_cmd_trace)

    runs = commands.add_parser(
        "runs", help="query the cross-run registry (runs/ directories)"
    )
    runs_commands = runs.add_subparsers(dest="runs_command", required=True)

    def _runs_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--runs-dir", default="runs", help="run-manifest directory (default runs)"
        )

    runs_index = runs_commands.add_parser(
        "index", help="(re)build the persistent SQLite index runs/registry.db"
    )
    _runs_common(runs_index)
    runs_index.add_argument(
        "--db", help="registry database path (default <runs-dir>/registry.db)"
    )
    runs_index.set_defaults(func=_cmd_runs_index)

    runs_list = runs_commands.add_parser("list", help="list indexed runs")
    _runs_common(runs_list)
    runs_list.add_argument(
        "--limit", type=int, help="show only the newest N runs"
    )
    runs_list.set_defaults(func=_cmd_runs_list)

    runs_show = runs_commands.add_parser(
        "show", help="one run's provenance, scenarios, and event summary"
    )
    _runs_common(runs_show)
    runs_show.add_argument("run_id")
    runs_show.set_defaults(func=_cmd_runs_show)

    runs_compare = runs_commands.add_parser(
        "compare", help="scenario-by-scenario diff of two runs"
    )
    _runs_common(runs_compare)
    runs_compare.add_argument("run_a")
    runs_compare.add_argument("run_b")
    runs_compare.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed slowdown fraction (default: the perf-gate threshold)",
    )
    runs_compare.set_defaults(func=_cmd_runs_compare)

    runs_trend = runs_commands.add_parser(
        "trend", help="one scenario's timing series across runs"
    )
    _runs_common(runs_trend)
    runs_trend.add_argument(
        "--scenario", required=True, help="bench scenario name"
    )
    runs_trend.add_argument(
        "--metric", default="best", choices=["best", "mean"],
        help="wall-clock statistic to trend (default best)",
    )
    runs_trend.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed slowdown fraction (default: the perf-gate threshold)",
    )
    runs_trend.add_argument(
        "--limit", type=int, help="only the newest N points"
    )
    runs_trend.set_defaults(func=_cmd_runs_trend)

    runs_plan_quality = runs_commands.add_parser(
        "plan-quality",
        help="per-predicate q-error / choice-accuracy calibration across runs",
    )
    _runs_common(runs_plan_quality)
    runs_plan_quality.add_argument(
        "--predicate", help="only this predicate class (default: all)"
    )
    runs_plan_quality.add_argument(
        "--metric",
        default="q_p90",
        choices=["q_p50", "q_p90", "q_max", "misestimates", "choice_accuracy"],
        help="calibration statistic to trend (default q_p90)",
    )
    runs_plan_quality.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed worsening fraction (default: the perf-gate threshold)",
    )
    runs_plan_quality.add_argument(
        "--limit", type=int, help="only the newest N points"
    )
    runs_plan_quality.set_defaults(func=_cmd_runs_plan_quality)

    runs_trace_request = runs_commands.add_parser(
        "trace-request",
        help="assemble one request's Chrome trace from a server run's "
        "trace.jsonl (server dispatch + worker solver spans)",
    )
    _runs_common(runs_trace_request)
    runs_trace_request.add_argument("run_id")
    runs_trace_request.add_argument("request_id")
    runs_trace_request.add_argument(
        "-o",
        "--output",
        help="output file (default trace-<request_id>.json)",
    )
    runs_trace_request.set_defaults(func=_cmd_runs_trace_request)

    report = commands.add_parser(
        "report", help="render the cross-run HTML dashboard"
    )
    report.add_argument(
        "--html",
        action="store_true",
        help="emit the self-contained HTML dashboard (the only format; "
        "accepted for forward compatibility)",
    )
    report.add_argument(
        "-o", "--output", default="report.html", help="output file (default report.html)"
    )
    report.add_argument(
        "--runs-dir", default="runs", help="run-manifest directory (default runs)"
    )
    report.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="regression threshold (default: the perf-gate threshold)",
    )
    report.set_defaults(func=_cmd_report)

    check = commands.add_parser(
        "check",
        help="validate artifacts by kind, or gate them against a baseline",
    )
    check.add_argument("files", nargs="+", metavar="FILE")
    check_mode = check.add_mutually_exclusive_group()
    check_mode.add_argument(
        "--baseline",
        metavar="BASE",
        help="gate the files against this repro-bench or "
        "repro-plan-baseline/v1 baseline",
    )
    check_mode.add_argument(
        "--write-baseline",
        metavar="BASE",
        help="write the files' plan calibration as a new plan baseline",
    )
    check.set_defaults(func=_cmd_check)

    serve = commands.add_parser(
        "serve", help="run the persistent solve server (NDJSON protocol)"
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="TCP bind host (default 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        help="TCP port (0 = ephemeral, printed on start)",
    )
    serve.add_argument("--unix", help="serve on this Unix socket path instead")
    serve.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes shared by all requests (default 1 = inline)",
    )
    serve.add_argument(
        "--cache",
        nargs="?",
        const=".solve-cache.db",
        help="persistent solve-cache path (flag alone: .solve-cache.db); "
        "the in-memory tier is always on",
    )
    serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=64,
        help="admitted-but-unfinished request limit (default 64)",
    )
    serve.add_argument(
        "--max-inflight-bytes",
        type=int,
        default=32 * 1024 * 1024,
        help="summed wire bytes of admitted requests (default 32 MiB)",
    )
    serve.add_argument(
        "--default-deadline",
        type=float,
        help="per-request deadline in seconds when the request sets none",
    )
    serve.add_argument(
        "--run-dir",
        help="record this server run: events.jsonl + metrics.json are "
        "written here on shutdown",
    )
    serve.add_argument(
        "--journal",
        metavar="DIR",
        help="write-ahead request journal directory: every admitted "
        "request is fsync'd there before solving starts",
    )
    serve.add_argument(
        "--recover",
        metavar="DIR",
        help="replay admitted-but-unanswered requests from this journal "
        "directory on startup (implies --journal DIR)",
    )
    serve.add_argument(
        "--metrics",
        action="store_true",
        help="serve live telemetry via the 'metrics' op (always on; "
        "accepted for explicitness and forward compatibility)",
    )
    serve.add_argument(
        "--metrics-window",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="rolling window for rps/error-rate/latency telemetry "
        "(default 60)",
    )
    serve.set_defaults(func=_cmd_serve)

    top = commands.add_parser(
        "top", help="live per-op telemetry of a running solve server"
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, help="server TCP port")
    top.add_argument("--unix", help="server Unix socket path")
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between polls (default 2)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        help="stop after this many polls (default: until interrupted)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="poll once, print the table, exit (no screen clearing)",
    )
    top.set_defaults(func=_cmd_top)

    client = commands.add_parser(
        "client", help="send requests to a running solve server"
    )
    client.add_argument(
        "op",
        choices=[
            "solve",
            "plan",
            "explain",
            "ping",
            "stats",
            "metrics",
            "shutdown",
            "load",
        ],
    )
    client.add_argument(
        "graph_files",
        nargs="*",
        help="graph file(s) for solve/plan; left and right relation "
        "files for explain",
    )
    client.add_argument("--host", default="127.0.0.1")
    client.add_argument("--port", type=int, help="server TCP port")
    client.add_argument("--unix", help="server Unix socket path")
    client.add_argument("--method", default="auto")
    client.add_argument(
        "--predicate",
        default="equality",
        choices=sorted(_PREDICATES) + ["band"],
        help="explain op: join predicate",
    )
    client.add_argument(
        "--band-width", type=float, default=0.0, help="explain op: band width"
    )
    client.add_argument(
        "--analyze",
        action="store_true",
        help="explain op: execute the join so the record carries actuals",
    )
    client.add_argument(
        "--json",
        action="store_true",
        help="explain op: print the full result JSON instead of the render",
    )
    client.add_argument(
        "--deadline", type=float, help="per-request deadline in seconds"
    )
    client.add_argument(
        "--requests", type=int, default=40, help="load mode: request count"
    )
    client.add_argument(
        "--concurrency", type=int, default=4, help="load mode: client count"
    )
    client.add_argument("--seed", type=int, default=0, help="load mode: mix seed")
    client.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry attempts after the first try on connection loss or "
        "overload (default 0 = never retry)",
    )
    client.set_defaults(func=_cmd_client)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Parse and dispatch; library failures surface as one clean ``error:``
    line and a nonzero exit, never a traceback (chaos tests enforce this)."""
    from repro.errors import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
