"""Link type shared by the topology, scheduling and MAC layers.

A link is a directed (sender, receiver) pair; exactly one endpoint is
an AP (Sec. 3.3: "either l.sender or l.receiver must be an AP").
"""

from __future__ import annotations

from typing import NamedTuple


class Link(NamedTuple):
    """Directed link ``src -> dst`` (node ids)."""

    src: int
    dst: int

    @property
    def sender(self) -> int:
        return self.src

    @property
    def receiver(self) -> int:
        return self.dst

    def reversed(self) -> "Link":
        return Link(self.dst, self.src)

    def shares_node(self, other: "Link") -> bool:
        src, dst = self
        other_src, other_dst = other
        return (src == other_src or src == other_dst
                or dst == other_src or dst == other_dst)

    def __str__(self) -> str:
        return f"{self.src}->{self.dst}"
