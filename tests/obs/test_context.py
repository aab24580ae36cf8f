"""Trace context: wire form, ambient propagation, span stamping, adoption."""

import pickle
import random

import pytest

from repro import obs
from repro.obs import context as obs_context
from repro.obs import trace as obs_trace
from repro.obs.context import TraceContext, derived_trace_id, new_trace_id


class TestTraceContext:
    def test_new_trace_id_shape(self):
        trace_id = new_trace_id(random.Random(0))
        assert obs_context.is_trace_id(trace_id)
        assert len(trace_id) == 32

    def test_new_trace_id_deterministic_under_seeded_rng(self):
        assert new_trace_id(random.Random(7)) == new_trace_id(random.Random(7))

    def test_derived_trace_id_is_stable(self):
        assert derived_trace_id(0, 3) == derived_trace_id(0, 3)
        assert derived_trace_id(0, 3) != derived_trace_id(0, 4)
        assert derived_trace_id(0, 3) != derived_trace_id(1, 3)
        assert obs_context.is_trace_id(derived_trace_id(42, 1000))

    def test_child_rebases_parent_only(self):
        ctx = TraceContext(derived_trace_id(0, 0), parent_span_id=5)
        child = ctx.child(9)
        assert child.trace_id == ctx.trace_id
        assert child.parent_span_id == 9
        assert ctx.parent_span_id == 5  # frozen original untouched

    def test_wire_round_trip(self):
        ctx = TraceContext(derived_trace_id(1, 2), parent_span_id=4)
        assert obs_context.from_wire(ctx.as_wire()) == ctx

    def test_wire_form_omits_absent_parent(self):
        ctx = TraceContext(derived_trace_id(1, 2))
        assert ctx.as_wire() == {"trace_id": ctx.trace_id}

    def test_context_is_picklable(self):
        # It crosses the worker-pool boundary inside SolveTask payloads.
        ctx = TraceContext(derived_trace_id(3, 1), parent_span_id=2)
        assert pickle.loads(pickle.dumps(ctx)) == ctx

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            "not a dict",
            42,
            [],
            {},
            {"trace_id": None},
            {"trace_id": 17},
            {"trace_id": "short"},
            {"trace_id": "Z" * 32},  # non-hex
            {"trace_id": "AB" * 16},  # uppercase rejected
        ],
    )
    def test_from_wire_malformed_degrades_to_none(self, payload):
        assert obs_context.from_wire(payload) is None

    @pytest.mark.parametrize("parent", [None, "x", -1, 1.5, True])
    def test_from_wire_bad_parent_dropped_not_fatal(self, parent):
        trace_id = derived_trace_id(0, 0)
        ctx = obs_context.from_wire(
            {"trace_id": trace_id, "parent_span_id": parent}
        )
        assert ctx is not None
        assert ctx.trace_id == trace_id
        assert ctx.parent_span_id is None

    def test_from_wire_ignores_unknown_keys(self):
        trace_id = derived_trace_id(0, 1)
        ctx = obs_context.from_wire({"trace_id": trace_id, "future": "field"})
        assert ctx == TraceContext(trace_id)


class TestAmbient:
    def test_default_is_none(self):
        assert obs_context.current() is None

    def test_use_scopes_and_restores(self):
        ctx = TraceContext(derived_trace_id(0, 0))
        with obs_context.use(ctx):
            assert obs_context.current() is ctx
        assert obs_context.current() is None

    def test_use_nests(self):
        outer = TraceContext(derived_trace_id(0, 0))
        inner = outer.child(3)
        with obs_context.use(outer):
            with obs_context.use(inner):
                assert obs_context.current() is inner
            assert obs_context.current() is outer

    def test_activate_deactivate_token(self):
        ctx = TraceContext(derived_trace_id(0, 2))
        token = obs_context.activate(ctx)
        try:
            assert obs_context.current() is ctx
        finally:
            obs_context.deactivate(token)
        assert obs_context.current() is None


class TestSpanStamping:
    def test_top_level_span_stamped_from_ambient(self):
        obs.enable()
        ctx = TraceContext(derived_trace_id(0, 0), parent_span_id=7)
        with obs_context.use(ctx):
            with obs_trace.span("work"):
                pass
        [span] = obs_trace.spans()
        assert span.trace_id == ctx.trace_id
        assert span.remote_parent == 7

    def test_nested_span_inherits_parent_trace_id(self):
        obs.enable()
        ctx = TraceContext(derived_trace_id(0, 1))
        with obs_context.use(ctx):
            with obs_trace.span("outer"):
                with obs_trace.span("inner"):
                    pass
        spans = {span.name: span for span in obs_trace.spans()}
        assert spans["inner"].trace_id == ctx.trace_id
        # Stack children link via parent_index, not remote_parent.
        assert spans["inner"].remote_parent is None
        assert spans["inner"].parent_index == spans["outer"].index

    def test_untraced_without_ambient_context(self):
        obs.enable()
        with obs_trace.span("work"):
            pass
        [span] = obs_trace.spans()
        assert span.trace_id is None

    def test_detached_span_stays_off_the_stack(self):
        obs.enable()
        with obs_trace.detached_span("server.request"):
            with obs_trace.span("solver"):
                pass
        spans = {span.name: span for span in obs_trace.spans()}
        # The solver span is top-level: the detached region never became
        # its stack parent (that's what makes it await-safe).
        assert spans["solver"].parent_index is None
        assert spans["solver"].depth == 0
        assert spans["server.request"].end_ns >= spans["server.request"].start_ns

    def test_detached_span_disabled_is_null(self):
        with obs_trace.detached_span("noop") as span:
            # The shared null context manager yields None — callers must
            # guard on it (the server does) before reading .index.
            assert span is None
        assert obs_trace.spans() == []

    def test_detached_span_records_errors(self):
        obs.enable()
        with pytest.raises(RuntimeError):
            with obs_trace.detached_span("failing"):
                raise RuntimeError("boom")
        [span] = obs_trace.spans()
        assert span.attrs["error"] is True
        assert span.attrs["error_type"] == "RuntimeError"


class TestAdopt:
    def _shipped(self, ctx):
        """Spans recorded in a simulated worker process."""
        obs.enable()
        with obs_context.use(ctx):
            with obs_trace.span("solver.solve"):
                with obs_trace.span("solver.exact"):
                    pass
        shipped = obs_trace.as_dicts()
        obs.reset()
        return shipped

    def test_adopt_remaps_parent_links(self):
        ctx = TraceContext(derived_trace_id(0, 0))
        shipped = self._shipped(ctx)
        obs.enable()
        with obs_trace.span("local.root"):
            pass
        adopted = obs_trace.adopt(shipped, origin="worker")
        assert [span.name for span in adopted] == [
            "solver.solve",
            "solver.exact",
        ]
        solve, exact = adopted
        # Intra-shipment parentage is remapped to local indices.
        assert exact.parent_index == solve.index
        assert all(span.trace_id == ctx.trace_id for span in adopted)
        assert all(span.attrs["origin"] == "worker" for span in adopted)
        # Adopted spans join the local registry with the index invariant.
        registry = obs_trace.spans()
        for span in adopted:
            assert registry[span.index] is span

    def test_adopt_resolves_remote_parent_to_local_span(self):
        # The real flow: the parent process opens a detached dispatch
        # span, ships ctx.child(dispatch.index) to a worker, and the
        # worker's top-level spans come home carrying that index as
        # remote_parent.  Build the worker record by hand so the local
        # registry (holding the dispatch span) stays intact.
        obs.enable()
        ctx = TraceContext(derived_trace_id(0, 0))
        with obs_context.use(ctx):
            with obs_trace.detached_span("server.dispatch") as dispatch:
                pass
        shipped = [
            {
                "name": "solver.solve",
                "index": 0,
                "parent": None,
                "depth": 0,
                "start_unix": dispatch.start_unix,
                "duration_ns": 1_000,
                "attrs": {},
                "trace_id": ctx.trace_id,
                "remote_parent": dispatch.index,
            }
        ]
        [solve] = obs_trace.adopt(shipped, origin="worker")
        # The worker's remote_parent (the dispatch span's index) resolves
        # into a real local parent link.
        assert solve.parent_index == dispatch.index
        assert solve.remote_parent is None
        assert solve.depth == dispatch.depth + 1
        assert solve.trace_id == ctx.trace_id

    def test_adopt_keeps_unresolvable_remote_parent_as_metadata(self):
        obs.enable()
        shipped = [
            {
                "name": "solver.solve",
                "index": 0,
                "parent": None,
                "depth": 0,
                "start_unix": 0.0,
                "duration_ns": 0,
                "attrs": {},
                "trace_id": derived_trace_id(0, 0),
                "remote_parent": 99,  # no such local span
            }
        ]
        [solve] = obs_trace.adopt(shipped)
        assert solve.parent_index is None
        assert solve.remote_parent == 99

    def test_adopt_when_disabled_is_a_noop(self):
        ctx = TraceContext(derived_trace_id(0, 0))
        shipped = self._shipped(ctx)
        obs.disable()
        assert obs_trace.adopt(shipped, origin="worker") == []
        assert obs_trace.spans() == []

    def test_adopt_preserves_durations(self):
        ctx = TraceContext(derived_trace_id(0, 0))
        shipped = self._shipped(ctx)
        obs.enable()
        adopted = obs_trace.adopt(shipped)
        for record, span in zip(shipped, adopted):
            assert span.end_ns - span.start_ns == max(0, record["duration_ns"])
