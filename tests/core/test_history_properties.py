"""Property-based tests (hypothesis) for the history DAG."""

from hypothesis import given, settings, strategies as st

from repro.core.history import History
from repro.core.message import HistoryDelta, Message


def deliveries(min_size=1, max_size=30):
    """A random per-group delivery sequence: unique ids with random dst sets."""
    return st.lists(
        st.tuples(st.integers(0, 200), st.sets(st.integers(0, 4), min_size=1, max_size=3)),
        min_size=min_size,
        max_size=max_size,
        unique_by=lambda t: t[0],
    )


def build_history(sequence):
    history = History()
    for idx, dst in sequence:
        history.record_delivery(Message(msg_id=f"m{idx}", dst=frozenset(dst)))
    return history


class TestHistoryInvariants:
    @given(deliveries())
    @settings(max_examples=60, deadline=None)
    def test_local_deliveries_form_an_acyclic_total_order(self, sequence):
        history = build_history(sequence)
        assert not history.has_cycle()
        ids = [f"m{idx}" for idx, _ in sequence]
        # Every earlier delivery is a (transitive) dependency of every later one.
        for i in range(len(ids) - 1):
            assert history.depends(ids[i + 1], ids[i])
        # And never the other way around.
        for i in range(1, len(ids)):
            assert not history.depends(ids[0], ids[i])

    @given(deliveries())
    @settings(max_examples=60, deadline=None)
    def test_last_delivered_is_final_message(self, sequence):
        history = build_history(sequence)
        assert history.last_delivered == f"m{sequence[-1][0]}"

    @given(deliveries(min_size=2))
    @settings(max_examples=60, deadline=None)
    def test_merge_is_idempotent(self, sequence):
        history = build_history(sequence)
        other = History()
        delta = history.full_delta()
        other.merge_delta(delta)
        before = (set(other.message_ids()), set(other.edges()))
        other.merge_delta(delta)
        assert (set(other.message_ids()), set(other.edges())) == before

    @given(deliveries(min_size=3))
    @settings(max_examples=60, deadline=None)
    def test_pruning_preserves_suffix_order(self, sequence):
        history = build_history(sequence)
        ids = [f"m{idx}" for idx, _ in sequence]
        pivot = ids[len(ids) // 2]
        history.collect_garbage(pivot)
        survivors = ids[len(ids) // 2 :]
        # The surviving suffix still forms a total order.
        for i in range(len(survivors) - 1):
            assert history.depends(survivors[i + 1], survivors[i])
        # Everything before the pivot is gone.
        for victim in ids[: len(ids) // 2]:
            assert victim not in history

    @given(deliveries(min_size=2), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_diffs_never_resend_vertices(self, sequence, split):
        split = min(split, len(sequence) - 1)
        history = History()
        for idx, dst in sequence[:split]:
            history.record_delivery(Message(msg_id=f"m{idx}", dst=frozenset(dst)))
        first, _, shipped = history.changes_since(0)
        for idx, dst in sequence[split:]:
            history.record_delivery(Message(msg_id=f"m{idx}", dst=frozenset(dst)))
        second, _, _ = history.changes_since(shipped)
        first_ids = {v[0] for v in first}
        second_ids = {v[0] for v in second}
        assert not (first_ids & second_ids)
        assert first_ids | second_ids == {f"m{idx}" for idx, _ in sequence}


# ------------------------------------------------- backward == forward, always
_ids = st.integers(0, 12).map(lambda i: f"m{i}")
_dsts = st.sets(st.integers(0, 3), min_size=1, max_size=2).map(frozenset)
_mutations = st.lists(
    st.one_of(
        st.tuples(st.just("deliver"), _ids, _dsts),
        st.tuples(
            st.just("merge"),
            st.lists(st.tuples(_ids, _dsts), max_size=3),
            st.lists(st.tuples(_ids, _ids), max_size=4),
        ),
        st.tuples(st.just("gc"), _ids),
    ),
    min_size=1,
    max_size=25,
)


class TestBackwardAgreesWithForward:
    @given(_mutations)
    @settings(max_examples=120, deadline=None)
    def test_ancestors_and_depends_after_every_mutation(self, mutations):
        """``ancestors_of`` / ``depends`` are plain walks over the live DAG:
        the same pairs are asked again after every add, merge and GC, and
        each answer must match ``reached_from`` on the DAG as it is *now*
        (merged edges are arbitrary pairs, so cycles are included)."""
        history = History()
        for mutation in mutations:
            if mutation[0] == "deliver":
                history.record_delivery(Message(msg_id=mutation[1], dst=mutation[2]))
            elif mutation[0] == "merge":
                history.merge_delta(
                    HistoryDelta(vertices=tuple(mutation[1]), edges=tuple(mutation[2]))
                )
            elif mutation[1] in history:
                history.collect_garbage(mutation[1])
            live = history.message_ids()
            for later in live:
                ancestors = history.ancestors_of(later)
                assert ancestors == {
                    m for m in live if history.reached_from([m], [later])
                }
                for earlier in live:
                    assert history.depends(later, earlier) == (
                        earlier != later and earlier in ancestors
                    )
            for gone in (f"m{i}" for i in range(13) if f"m{i}" not in history):
                assert history.ancestors_of(gone) == set()
                assert not any(history.depends(m, gone) for m in live)
