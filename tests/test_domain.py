"""Entity validation and queue-discipline unit tests."""
import pytest
from hypothesis import example, given, settings, strategies as st

from teamsim.domain import (
    Affinity,
    Engineer,
    Priority,
    SkillSpec,
    WorkItem,
    WorkQueue,
    WorkType,
    queue_key,
)
from teamsim.errors import ConfigurationError, StructuralError

CORE1 = SkillSpec("core", 1)


def make_item(item_id, priority=Priority.P3, arrival=0.0, demand=1.0):
    return WorkItem(
        id=item_id,
        work_type=WorkType.SERVICE_REQUEST,
        priority=priority,
        required=CORE1,
        service_demand_hours=demand,
        arrival_time=arrival,
    )


class TestPriority:
    def test_urgency_ordering(self):
        # comparisons follow urgency, not the label digit
        assert Priority.P1 > Priority.P2 > Priority.P3

    def test_from_label(self):
        assert Priority.from_label("P1") is Priority.P1
        assert Priority.from_label("p3") is Priority.P3
        with pytest.raises(ConfigurationError):
            Priority.from_label("P4")


class TestWorkType:
    def test_operational_split(self):
        assert not WorkType.PROJECT_TASK.is_operational
        assert WorkType.SERVICE_REQUEST.is_operational
        assert WorkType.INCIDENT.is_operational
        assert WorkType.REWORK_INCIDENT.is_operational

    def test_from_label_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            WorkType.from_label("outage")

    def test_from_label_reads_the_value_stripped_and_lower_cased(self):
        assert WorkType.from_label(" Rework_Incident ") is WorkType.REWORK_INCIDENT
        # a member's name is not its label
        with pytest.raises(ConfigurationError, match="^unknown work type label: 'INCIDENT_'$"):
            WorkType.from_label("INCIDENT_")


class TestAffinity:
    def test_from_label(self):
        assert Affinity.from_label(" Project") is Affinity.PROJECT_PRIMARY
        assert Affinity.from_label("OPERATIONAL") is Affinity.OPERATIONAL_PRIMARY
        with pytest.raises(ConfigurationError, match="^unknown affinity label: 'project_primary'$"):
            Affinity.from_label("project_primary")


class TestSkillSpec:
    def test_level_bounds(self):
        for level in (0, 4, -1):
            with pytest.raises(ConfigurationError):
                SkillSpec("core", level)

    def test_frozen(self):
        import dataclasses

        with pytest.raises(dataclasses.FrozenInstanceError):
            CORE1.skill_level = 2  # type: ignore[misc]


class TestWorkItem:
    def test_remaining_defaults_to_demand(self):
        item = make_item(1, demand=6.5)
        assert item.remaining_service_hours == 6.5
        assert item.total_queue_days == 0.0 and item._queue_entered is None

    # queue episodes open on WorkQueue.push and close on pop_best or remove

    def test_queue_episode_accounting(self):
        item = make_item(1)
        q = WorkQueue()
        q.push(item, now=1.0)
        assert item._queue_entered == 1.0
        q.pop_best(3.5)
        q.push(item, now=4.0)
        q.remove(1, now=4.0)
        assert item.total_queue_days == pytest.approx(2.5)
        assert item._queue_entered is None

    def test_double_enter_is_structural(self):
        item = make_item(1)
        WorkQueue().push(item, now=0.0)
        with pytest.raises(StructuralError, match="already queued"):
            WorkQueue().push(item, now=1.0)

    def test_leave_without_enter_is_structural(self):
        # not reachable through the queue's own calls: the episode is cleared
        # by hand to show that both ways out still check it
        for leave in (lambda q: q.pop_best(1.0), lambda q: q.remove(1, 1.0)):
            item = make_item(1)
            q = WorkQueue()
            q.push(item, now=0.0)
            item._queue_entered = None
            with pytest.raises(StructuralError, match="never entered"):
                leave(q)

    def test_leave_before_enter_is_structural(self):
        for leave in (lambda q: q.pop_best(1.0), lambda q: q.remove(1, 1.0)):
            q = WorkQueue()
            q.push(make_item(1), now=2.0)
            with pytest.raises(StructuralError, match="ends before it starts"):
                leave(q)


class TestEngineer:
    def test_capacity_factor_bounds(self):
        with pytest.raises(ConfigurationError):
            Engineer(id=0, skill=CORE1, affinity=Affinity.PROJECT_PRIMARY, capacity_factor=0.0)
        with pytest.raises(ConfigurationError):
            Engineer(id=0, skill=CORE1, affinity=Affinity.PROJECT_PRIMARY, capacity_factor=1.2)


class TestWorkQueue:
    def test_priority_beats_arrival(self):
        q = WorkQueue()
        q.push(make_item(1, Priority.P3, arrival=0.0), now=0.0)
        q.push(make_item(2, Priority.P1, arrival=5.0), now=5.0)
        assert q.pop_best(6.0).id == 2

    def test_fifo_within_priority(self):
        q = WorkQueue()
        q.push(make_item(1, Priority.P2, arrival=1.0), now=1.0)
        q.push(make_item(2, Priority.P2, arrival=0.5), now=1.0)
        assert q.pop_best(2.0).id == 2

    def test_id_breaks_exact_ties(self):
        q = WorkQueue()
        q.push(make_item(7, Priority.P2, arrival=1.0), now=1.0)
        q.push(make_item(3, Priority.P2, arrival=1.0), now=1.0)
        assert q.pop_best(2.0).id == 3

    def test_duplicate_push_is_structural(self):
        q = WorkQueue()
        item = make_item(1)
        q.push(item, now=0.0)
        with pytest.raises(StructuralError):
            q.push(item, now=1.0)

    def test_removed_item_is_not_popped(self):
        q = WorkQueue()
        q.push(make_item(1, Priority.P1), now=0.0)
        q.push(make_item(2, Priority.P3), now=0.0)
        removed = q.remove(1, now=1.0)
        assert removed.id == 1
        assert [i.id for i in q.items()] == [2]
        assert q.pop_best(2.0).id == 2
        assert q.pop_best(2.0) is None

    def test_counts_by_priority(self):
        q = WorkQueue()
        q.push(make_item(1, Priority.P1), now=0.0)
        q.push(make_item(2, Priority.P3), now=0.0)
        q.push(make_item(3, Priority.P3), now=0.0)
        counts = q.priority_counts
        assert counts[Priority.P1] == 1 and counts[Priority.P3] == 2
        q.remove(3, now=0.0)
        assert counts[Priority.P1] == 1 and counts[Priority.P3] == 1
        assert sum(counts) == len(q)

    def test_removed_item_can_come_back(self):
        q = WorkQueue()
        item = make_item(1, Priority.P1)
        q.push(item, now=0.0)
        q.push(make_item(2, Priority.P3), now=0.0)
        q.remove(1, now=1.0)
        # back in while the other item waits in the heap
        q.push(item, now=2.0)
        assert q.peek() is item
        assert q.pop_best(3.0) is item
        assert q.pop_best(3.0).id == 2
        assert q.pop_best(3.0) is None
        assert item.total_queue_days == pytest.approx(2.0)

    def test_peek_does_not_remove(self):
        q = WorkQueue()
        q.push(make_item(4), now=0.0)
        assert q.peek().id == 4
        assert len(q) == 1


# property: whatever the push/pop interleaving, the queue drains in key order
# and never loses or duplicates an item
@given(
    st.lists(
        st.tuples(
            st.sampled_from([Priority.P1, Priority.P2, Priority.P3]),
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_queue_drains_sorted_and_conserves(specs):
    q = WorkQueue()
    items = [make_item(i, pr, arrival=t) for i, (pr, t) in enumerate(specs)]
    for item in items:
        q.push(item, now=item.arrival_time)
    assert len(q) == q.size == len(items)
    drained = []
    while True:
        got = q.pop_best(200.0)
        if got is None:
            break
        drained.append(got)
    assert sorted(i.id for i in drained) == sorted(i.id for i in items)
    keys = [queue_key(i) for i in drained]
    assert keys == sorted(keys)
    # every episode was closed by the pop
    assert all(i._queue_entered is None for i in drained)
    assert q.size == 0


# model-based check against a sorted-list reference: random interleavings of
# push (of a fresh item or of one that left), pop_best, peek and remove (of
# the front, the best, or any live item).  Bounded at 200 examples of at most
# 60 operations, well under a second.  Peeks happen only as drawn operations,
# so a peek that changed the state it inspects would show.
_QUEUE_OPS = st.one_of(
    st.tuples(
        st.just("push"),
        st.sampled_from([Priority.P1, Priority.P2, Priority.P3]),
        st.integers(min_value=0, max_value=3),
        st.none() | st.integers(min_value=0, max_value=20),
    ),
    st.tuples(st.just("pop")),
    st.tuples(st.just("peek")),
    st.tuples(
        st.just("remove"),
        st.sampled_from(["front", "best", "any"]),
        st.integers(min_value=0, max_value=60),
    ),
)


# an item removed from the front slot, pushed back and removed again; and an
# item removed from the heap and pushed back before the heap's next pop
_P1, _P2, _P3 = Priority.P1, Priority.P2, Priority.P3
_REMOVED_TWICE_FRONT = [
    ("push", _P3, 0, None), ("push", _P1, 0, None), ("remove", "front", 0),
    ("push", _P1, 0, 0), ("remove", "front", 0), ("peek",), ("pop",), ("pop",),
]
_REMOVED_TWICE_HEAP = [
    ("push", _P2, 0, None), ("push", _P1, 0, None), ("remove", "any", 1),
    ("push", _P3, 0, 0), ("push", _P3, 0, None), ("remove", "any", 0),
    ("pop",), ("peek",), ("pop",),
]
# an item removed from neither the front slot nor the heap top: the heap is rebuilt
_REMOVED_MID_HEAP = [
    ("push", _P1, 0, None), ("push", _P2, 0, None), ("push", _P3, 0, None),
    ("push", _P3, 0, None), ("remove", "any", 1), ("peek",), ("pop",), ("pop",),
]


@settings(max_examples=200, deadline=None)
@given(st.lists(_QUEUE_OPS, max_size=60))
@example(ops=_REMOVED_TWICE_FRONT)
@example(ops=_REMOVED_TWICE_HEAP)
@example(ops=_REMOVED_MID_HEAP)
def test_queue_matches_sorted_reference(ops):
    q = WorkQueue()
    live: dict[int, WorkItem] = {}  # the reference: live items by id
    left: list[WorkItem] = []  # items that left and may come back
    entered: dict[int, float] = {}
    queue_days: dict[int, float] = {}
    last_pushed = None
    next_id = 0

    def best():
        return min(live.values(), key=queue_key) if live else None

    def left_queue(item, now):
        # the item's episode is closed and summed exactly as the queue sums it
        queue_days[item.id] += now - entered.pop(item.id)
        assert item._queue_entered is None
        assert item.total_queue_days == queue_days[item.id]
        del live[item.id]
        left.append(item)

    for step, op in enumerate(ops):
        now = float(step)
        if op[0] == "push":
            _, priority, arrival, back = op
            if back is not None and left:
                item = left.pop(back % len(left))
            else:
                item = make_item(next_id, priority, arrival=float(arrival))
                queue_days[item.id] = 0.0
                next_id += 1
            q.push(item, now)
            live[item.id] = item
            entered[item.id] = now
            last_pushed = item.id
        elif op[0] == "pop":
            want = best()
            got = q.pop_best(now)
            assert got is want
            if got is not None:
                left_queue(got, now)
        elif op[0] == "peek":
            assert q.peek() is best()
        elif live:
            _, which, pick = op
            if which == "front" and last_pushed in live:
                target = last_pushed
            elif which == "best":
                target = best().id
            else:
                target = sorted(live, key=lambda i: queue_key(live[i]))[pick % len(live)]
            item = live[target]
            assert q.remove(target, now) is item
            left_queue(item, now)
        assert q.size == len(q) == len(live)
        counts = [0] * len(q.priority_counts)
        for item in live.values():
            counts[item.priority] += 1
        assert q.priority_counts == counts
        assert all(item._queue_entered == entered[i] for i, item in live.items())
        assert sorted(i.id for i in q.items()) == sorted(live)
    now = float(len(ops))
    while live:
        want = best()
        assert q.peek() is want
        assert q.pop_best(now) is want
        left_queue(want, now)
    assert q.peek() is None and q.pop_best(now) is None and q.size == 0

