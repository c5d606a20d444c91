"""TDMA schedule data model and conflict-freeness validation.

A :class:`Schedule` maps directed links to :class:`SlotBlock` assignments
inside a frame of ``frame_slots`` data slots.  Following the 802.16 mesh
minislot-range convention, each link gets one *contiguous, non-wrapping*
block per frame (``start .. start + length - 1`` with
``start + length <= frame_slots``).  The schedule repeats every frame, so
all delay arithmetic downstream is cyclic even though blocks themselves do
not wrap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
)

from repro.errors import ConfigurationError, SchedulingError
from repro.net.topology import Link

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.conflict import ConflictIndex


@dataclass(frozen=True, order=True)
class SlotBlock:
    """A contiguous run of data slots: ``[start, start + length)``."""

    start: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ConfigurationError(f"block start must be >= 0, got {self.start}")
        if self.length <= 0:
            raise ConfigurationError(f"block length must be > 0, got {self.length}")

    @property
    def end(self) -> int:
        """One past the last slot of the block."""
        return self.start + self.length

    def slots(self) -> range:
        """The absolute slot indices covered by the block."""
        return range(self.start, self.end)

    def overlaps(self, other: "SlotBlock") -> bool:
        """True iff the two (non-wrapping) blocks share a slot."""
        return self.start < other.end and other.start < self.end


def _overlapping_pairs(rows: list[list[int]],
                       spans: Mapping[int, tuple[int, int]]
                       ) -> list[tuple[int, int]]:
    """Every ``(p, q)``, ``p < q``, with ``q`` in ``rows[p]`` whose
    ``(start, end)`` spans in ``spans`` share a slot.

    The S8 kernel: ``rows`` are conflict rows by position (a
    :class:`~repro.core.conflict.ConflictIndex`'s, or a search's rows
    among its demanded links) and ``spans`` the placed keys.
    """
    pairs = []
    for p, (start, end) in spans.items():
        for q in rows[p]:
            if q > p:
                other = spans.get(q)
                if (other is not None and start < other[1]
                        and other[0] < end):
                    pairs.append((p, q))
    return pairs


class Schedule:
    """A conflict-checked TDMA slot assignment.

    Parameters
    ----------
    frame_slots:
        Number of data slots in the frame.
    assignments:
        Mapping from directed link to its :class:`SlotBlock`.
    """

    def __init__(self, frame_slots: int,
                 assignments: Optional[Mapping[Link, SlotBlock]] = None) -> None:
        if frame_slots <= 0:
            raise ConfigurationError(
                f"frame must have at least one slot, got {frame_slots}")
        self.frame_slots = frame_slots
        self._blocks: dict[Link, SlotBlock] = {}
        if assignments:
            for link, block in assignments.items():
                self.assign(link, block)

    @classmethod
    def _packed(cls, frame_slots: int, links: Sequence[Link],
                start: Sequence[int], length: Sequence[int]) -> "Schedule":
        """``links[i]`` on ``[start[i], start[i] + length[i])``, blocks
        built when the schedule is first used.

        The caller guarantees every block is a valid one inside the frame
        (a search's certificate packs inside its region) and leaves the
        sequences unchanged.
        """
        schedule = cls.__new__(cls)
        schedule.frame_slots = frame_slots
        schedule._packing = (links, start, length)
        return schedule

    @cached_property
    def _blocks(self) -> dict[Link, SlotBlock]:
        """A :meth:`_packed` schedule's blocks, built on first use (every
        other schedule sets them in ``__init__``)."""
        links, start, length = self._packing
        return {link: SlotBlock(start[i], length[i])
                for i, link in enumerate(links)}

    def assign(self, link: Link, block: SlotBlock) -> None:
        """Assign ``block`` to ``link`` (replacing any previous assignment)."""
        if block.end > self.frame_slots:
            raise SchedulingError(
                f"block {block} for link {link} exceeds frame of "
                f"{self.frame_slots} slots")
        self._blocks[link] = block

    def block(self, link: Link) -> SlotBlock:
        try:
            return self._blocks[link]
        except KeyError:
            raise SchedulingError(f"link {link} has no slot assignment") from None

    def __contains__(self, link: object) -> bool:
        return link in self._blocks

    def links(self) -> list[Link]:
        """Scheduled links in canonical sorted order."""
        return sorted(self._blocks)

    def items(self) -> Iterator[tuple[Link, SlotBlock]]:
        for link in self.links():
            yield link, self._blocks[link]

    def __len__(self) -> int:
        return len(self._blocks)

    # -- queries -----------------------------------------------------------

    def active_links(self, slot: int) -> list[Link]:
        """Links transmitting in absolute slot index ``slot`` (mod frame)."""
        slot %= self.frame_slots
        return [link for link, block in self.items()
                if block.start <= slot < block.end]

    def transmitter_of_slot(self, node: int, slot: int) -> bool:
        """True iff ``node`` transmits on some link in ``slot``."""
        return any(link[0] == node for link in self.active_links(slot))

    def used_slots(self) -> int:
        """Number of distinct slots used by at least one link."""
        used = set()
        for ____, block in self.items():
            used.update(block.slots())
        return len(used)

    def makespan(self) -> int:
        """Largest ``block.end`` over all links (0 for an empty schedule)."""
        return max((block.end for ____, block in self.items()), default=0)

    def utilization(self) -> float:
        """Total scheduled slot-transmissions divided by frame slots.

        Spatial reuse makes this exceed 1.0 on large topologies (the point
        of experiment E11).
        """
        total = sum(block.length for ____, block in self.items())
        return total / self.frame_slots

    # -- validation ----------------------------------------------------------

    def violations(self, conflicts: "ConflictIndex"
                   ) -> list[tuple[Link, Link]]:
        """All pairs of conflicting links with overlapping blocks.

        Scheduled links outside ``conflicts`` have no known conflicts.
        """
        position = conflicts._positions
        spans = {}
        for link, block in self._blocks.items():
            p = position.get(link)
            if p is not None:
                spans[p] = (block.start, block.start + block.length)
        at = conflicts.links
        pairs = []
        for p, q in _overlapping_pairs(conflicts._rows, spans):
            a, b = at[p], at[q]
            pairs.append((a, b) if a < b else (b, a))
        return sorted(pairs)

    def validate(self, conflicts: "ConflictIndex") -> None:
        """Raise :class:`SchedulingError` unless the schedule is conflict-free."""
        bad = self.violations(conflicts)
        if bad:
            raise SchedulingError(
                f"schedule has {len(bad)} conflicting overlaps, "
                f"first: {bad[0]}")

    def demands_met(self, demands: Mapping[Link, int]) -> bool:
        """True iff every demanded link has a block of at least its demand."""
        return all(
            link in self._blocks and self._blocks[link].length >= demand
            for link, demand in demands.items() if demand > 0)

    def restrict(self, links: Iterable[Link]) -> "Schedule":
        """A copy containing only the given links."""
        keep = set(links)
        return Schedule(self.frame_slots,
                        {l: b for l, b in self._blocks.items() if l in keep})

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-serializable representation (ops tooling, persistence)."""
        return {
            "frame_slots": self.frame_slots,
            "assignments": [
                {"tx": link[0], "rx": link[1],
                 "start": block.start, "length": block.length}
                for link, block in self.items()],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Schedule":
        """Inverse of :meth:`to_dict`; validates shape and bounds."""
        try:
            frame_slots = int(data["frame_slots"])
            entries = data["assignments"]
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(
                f"malformed schedule document: {exc}") from exc
        schedule = cls(frame_slots)
        for entry in entries:
            try:
                link = (int(entry["tx"]), int(entry["rx"]))
                block = SlotBlock(int(entry["start"]), int(entry["length"]))
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigurationError(
                    f"malformed schedule entry {entry!r}") from exc
            if link in schedule:
                raise ConfigurationError(
                    f"duplicate assignment for link {link}")
            schedule.assign(link, block)
        return schedule

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Schedule(frame_slots={self.frame_slots}, links={len(self)})"
