"""Core vocabulary of the team model.

Work items carry a priority, a service demand, and a skill requirement;
engineers carry a skill and an affinity for project or operational work.
Queues order items by priority first, then arrival time, then id.  Each
item adds up the days it waits across every queue it passes through;
entering a second queue before leaving the first, or leaving one it never
entered, raises ``StructuralError``.

Time is measured in days throughout; service demands are expressed in
work-hours and converted by the engine via its hours-per-day setting.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum, IntEnum

from .errors import ConfigurationError, StructuralError

SKILL_LEVEL_MIN = 1
SKILL_LEVEL_MAX = 3


def _member_by_value(cls: type[Enum], label: str, what: str):
    try:
        return cls(label.strip().lower())
    except ValueError:
        raise ConfigurationError(f"unknown {what} label: {label!r}") from None


class Priority(IntEnum):
    """Urgency classes. Comparison follows urgency: P1 > P2 > P3."""

    P3 = 1
    P2 = 2
    P1 = 3

    @classmethod
    def from_label(cls, label: str) -> "Priority":
        try:
            return cls[label.strip().upper()]
        except KeyError:
            raise ConfigurationError(f"unknown priority label: {label!r}") from None


class WorkType(Enum):
    PROJECT_TASK = "project_task"
    SERVICE_REQUEST = "service_request"
    INCIDENT = "incident"
    REWORK_INCIDENT = "rework_incident"

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality and avoids Enum's Python-level __hash__ on
    # every (work type, priority) dict lookup.  No output depends on hash
    # order: every key set is sorted before it is reported.
    __hash__ = object.__hash__

    @property
    def is_operational(self) -> bool:
        # everything except planned project work competes on the ops side
        return self is not WorkType.PROJECT_TASK

    @classmethod
    def from_label(cls, label: str) -> "WorkType":
        return _member_by_value(cls, label, "work type")


class Affinity(Enum):
    """Which side of the workload an engineer picks up by default."""

    PROJECT_PRIMARY = "project"
    OPERATIONAL_PRIMARY = "operational"

    @classmethod
    def from_label(cls, label: str) -> "Affinity":
        return _member_by_value(cls, label, "affinity")


@dataclass(frozen=True)
class SkillSpec:
    """A skill type plus a proficiency level on a small ordinal scale."""

    skill_type: str
    skill_level: int

    def __post_init__(self) -> None:
        if not self.skill_type:
            raise ConfigurationError("skill_type must be a non-empty string")
        if not isinstance(self.skill_level, int) or isinstance(self.skill_level, bool):
            raise ConfigurationError(f"skill_level must be an integer, got {self.skill_level!r}")
        if not SKILL_LEVEL_MIN <= self.skill_level <= SKILL_LEVEL_MAX:
            raise ConfigurationError(
                f"skill_level {self.skill_level} outside [{SKILL_LEVEL_MIN}, {SKILL_LEVEL_MAX}]"
            )


class WorkItem:
    """One unit of demand flowing through the system.

    ``remaining_service_hours`` is the remaining work content: it starts at
    the demand, shrinks as service is delivered and grows by the switch
    penalty when service is interrupted.  ``total_queue_days`` sums the
    lengths of the closed queue episodes, left to right in the order they
    closed.  ``WorkQueue`` opens and closes the episodes.

    The constructor checks nothing: ``DesEngine`` checks the initial items
    a caller hands it, and its own items are valid by construction.
    """

    __slots__ = (
        "id", "work_type", "priority", "required", "service_demand_hours", "arrival_time",
        "remaining_service_hours", "total_queue_days", "_queue_entered",
    )

    def __init__(self, id: int, work_type: WorkType, priority: Priority, required: SkillSpec,
                 service_demand_hours: float, arrival_time: float) -> None:
        self.id = id
        self.work_type = work_type
        self.priority = priority
        self.required = required
        self.service_demand_hours = service_demand_hours
        self.arrival_time = arrival_time
        self.remaining_service_hours = service_demand_hours
        self.total_queue_days = 0.0
        self._queue_entered: float | None = None


@dataclass
class Engineer:
    """A server with a skill, an affinity, and a relative working speed."""

    id: int
    skill: SkillSpec
    affinity: Affinity
    capacity_factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.capacity_factor <= 1.0:
            raise ConfigurationError(
                f"engineer {self.id}: capacity_factor must lie in (0, 1], got {self.capacity_factor}"
            )


def queue_key(item: WorkItem) -> tuple[int, float, int]:
    """Service discipline: highest priority first, then FIFO, then id."""
    return (-item.priority, item.arrival_time, item.id)


def _close_episode(item: WorkItem, now: float) -> None:
    entered = item._queue_entered
    if entered is None:
        raise StructuralError(f"item {item.id} left a queue it never entered")
    if now < entered:
        raise StructuralError(f"item {item.id}: queue episode ends before it starts")
    item.total_queue_days += now - entered
    item._queue_entered = None


class WorkQueue:
    """Priority-then-FIFO queue with a front slot.

    Duplicate pushes of the same item id raise ``StructuralError``.  Entries
    are ``(-priority, arrival_time, id, item)``, ``queue_key(item)`` followed
    by the item, so the unique id settles every comparison between two
    items before the item itself is reached, and the pop order depends on
    the keys alone.  ``size`` (the number of items) and ``priority_counts``
    (items per priority, indexed by ``int(priority)``) are kept eagerly as
    plain attributes, so the engine reads them without a call; callers must
    not write them.

    The most recently pushed entry waits in a one-entry front slot outside
    the heap; the next push moves it into the heap.  ``pop_best`` takes the
    better of the front and the heap top with one ``heappushpop``, which
    leaves the heap untouched when the front wins: an item that an engineer
    puts back and takes straight up again (an interrupt, a preemption)
    costs one comparison however deep the queue.  ``remove`` takes its item
    out at once: the front item empties the slot and the heap top is popped,
    both cheap, and any other item costs a rebuild of the heap.  The engine
    only ever removes the item that ``peek`` has just returned.
    """

    __slots__ = ("name", "size", "priority_counts", "_front", "_heap", "_index")

    def __init__(self, name: str = "queue") -> None:
        self.name = name
        self.size = 0
        self.priority_counts = [0] * (max(Priority) + 1)
        self._front: tuple[int, float, int, WorkItem] | None = None
        self._heap: list[tuple[int, float, int, WorkItem]] = []
        self._index: dict[int, WorkItem] = {}

    # the engine reads .size; perfbench's tracer reads this for domain.queue.peak_len
    def __len__(self) -> int:
        return self.size

    def push(self, item: WorkItem, now: float) -> None:
        if item.id in self._index:
            raise StructuralError(f"{self.name}: duplicate push of item {item.id}")
        # the queue episode opens (``_close_episode`` closes it)
        if item._queue_entered is not None:
            raise StructuralError(f"item {item.id} entered a queue while already queued")
        item._queue_entered = now
        self._index[item.id] = item
        self.priority_counts[item.priority] += 1
        self.size += 1
        if self._front is not None:
            heapq.heappush(self._heap, self._front)
        self._front = (-item.priority, item.arrival_time, item.id, item)

    def peek(self) -> WorkItem | None:
        front = self._front
        heap = self._heap
        if heap and (front is None or heap[0] < front):
            return heap[0][3]
        return front[3] if front is not None else None

    def pop_best(self, now: float) -> WorkItem | None:
        front = self._front
        if front is not None:
            self._front = None
            item = heapq.heappushpop(self._heap, front)[3]
        elif self._heap:
            item = heapq.heappop(self._heap)[3]
        else:
            return None
        del self._index[item.id]
        self.priority_counts[item.priority] -= 1
        self.size -= 1
        _close_episode(item, now)
        return item

    def remove(self, item_id: int, now: float) -> WorkItem:
        """Take out the item with id ``item_id``, wherever it waits."""
        item = self._index.pop(item_id, None)
        if item is None:
            raise StructuralError(f"{self.name}: remove of absent item {item_id}")
        front = self._front
        heap = self._heap
        if front is not None and front[2] == item_id:
            self._front = None
        elif heap[0][2] == item_id:
            heapq.heappop(heap)
        else:
            heap[:] = [entry for entry in heap if entry[2] != item_id]
            heapq.heapify(heap)
        self.priority_counts[item.priority] -= 1
        self.size -= 1
        _close_episode(item, now)
        return item

    def items(self) -> list[WorkItem]:
        """Queued items in no particular order (for audits, not dispatch)."""
        return list(self._index.values())
