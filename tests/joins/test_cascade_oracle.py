"""The bulk binary cascade against its per-result reference loop.

Hypothesis draws small conjunctive queries (cyclic, acyclic, with
duplicate rows, with a stage that shares no variable with the ones
before it) and asserts the library's cascade emits the same bindings
*in the same order*, with the same stage sizes and intermediates, and
makes the same sequence of budget checkpoints.
"""

from hypothesis import given, settings, strategies as st

from repro.joins.multiway import Atom, MultiwayQuery, binary_cascade
from repro.runtime.budget import Budget
from tests.joins import cascade_reference

COMMON = settings(max_examples=80, deadline=None)

SHAPES = {
    "triangle": (("R", ("a", "b")), ("S", ("b", "c")), ("T", ("c", "a"))),
    "four_cycle": (
        ("R", ("a", "b")),
        ("S", ("b", "c")),
        ("T", ("c", "d")),
        ("U", ("d", "a")),
    ),
    "star": (("R", ("a", "b")), ("S", ("a", "c")), ("T", ("a", "d"))),
    # S shares nothing with R: its stage is a cross product.
    "cross": (("R", ("a", "b")), ("S", ("c",)), ("T", ("b", "c", "d"))),
    "unary_chain": (("R", ("a",)), ("S", ("a", "b")), ("T", ("b",))),
    "ternary": (("R", ("a", "b", "c")), ("S", ("c", "a")), ("T", ("b", "d"))),
}


class RecordingBudget(Budget):
    """A budget that never trips and records every checkpoint's cost."""

    def __init__(self) -> None:
        super().__init__()
        self.costs: list[int] = []

    def checkpoint(self, cost: int = 1) -> None:
        self.costs.append(cost)
        super().checkpoint(cost)


@st.composite
def queries(draw, domain: int = 6, max_rows: int = 30):
    shape = draw(st.sampled_from(sorted(SHAPES)))
    atoms = []
    for name, variables in SHAPES[shape]:
        row = st.tuples(*[st.integers(0, domain - 1)] * len(variables))
        # Lists (not sets) of rows, so duplicate rows are drawn too.
        rows = draw(st.lists(row, max_size=max_rows))
        atoms.append(Atom(name, variables, tuple(rows)))
    return MultiwayQuery(tuple(atoms))


def _summary(result):
    return (result.bindings, result.stage_sizes, result.intermediates, result.order)


@COMMON
@given(queries())
def test_same_bindings_in_the_same_order(query):
    assert _summary(binary_cascade(query)) == _summary(cascade_reference.run(query))


@COMMON
@given(queries(domain=3, max_rows=40))
def test_same_budget_checkpoints(query):
    bulk, reference = RecordingBudget(), RecordingBudget()
    got = binary_cascade(query, budget=bulk)
    want = cascade_reference.run(query, budget=reference)
    assert _summary(got) == _summary(want)
    assert bulk.costs == reference.costs
    assert bulk.nodes_charged == reference.nodes_charged == sum(got.stage_sizes)


def test_duplicate_rows_and_a_cross_product_stage():
    query = MultiwayQuery(
        (
            Atom("R", ("a", "b"), ((1, 2), (1, 2), (0, 2))),
            Atom("S", ("c",), ((5,), (4,), (5,))),
            Atom("T", ("b", "c", "d"), ((2, 5, 9), (2, 4, 8), (2, 5, 9))),
        )
    )
    got = binary_cascade(query)
    assert _summary(got) == _summary(cascade_reference.run(query))
    assert got.stage_sizes == (4, 4)


def test_blowup_charges_whole_units_before_the_remainder():
    # A star centre joined with itself: 200 * 200 first-stage results.
    rows = tuple((0, i) for i in range(200))
    query = MultiwayQuery((Atom("R", ("a", "b"), rows), Atom("S", ("a", "c"), rows)))
    bulk, reference = RecordingBudget(), RecordingBudget()
    binary_cascade(query, budget=bulk)
    cascade_reference.run(query, budget=reference)
    assert bulk.costs == reference.costs == [1024] * 39 + [40_000 - 39 * 1024]
