"""Synthetic traffic generation — the IXIA substitute.

Generates flow populations and packet streams with controllable skew.
Virtual-switch performance depends only on header/flow distributions (the
paper: "their performances are not related to the payload size of packets"),
so a deterministic, seedable header stream reproduces the workloads.
Streams are drawn from ``numpy.random`` — the sequences the recorded
experiment expectations were produced with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from ..classifier.flow import FiveTuple, PROTO_UDP, make_flow


@dataclass(frozen=True)
class FlowSet:
    """A population of distinct flows."""

    flows: Sequence[FiveTuple]

    def __len__(self) -> int:
        return len(self.flows)

    def __getitem__(self, index: int) -> FiveTuple:
        return self.flows[index]

    @classmethod
    def generate(cls, count: int, seed: int = 0, proto: int = PROTO_UDP,
                 groups: Optional[int] = None) -> "FlowSet":
        """``count`` distinct flows, deterministically derived from seed.

        With ``groups`` set, flows are spread round-robin over that many
        destination groups (see :func:`~repro.classifier.flow.make_flow`),
        so a ``groups``-rule wildcard rule set can partition the traffic.
        """
        # Random distinct indices into a much larger flow space keep the
        # hash distribution realistic (sequential indices would correlate).
        space = max(count * 4, 1024)
        rng = np.random.default_rng(seed)
        indices = rng.choice(space, size=count, replace=False)
        flows = [
            make_flow(int(index), proto=proto,
                      group=(position % groups) if groups else None)
            for position, index in enumerate(indices)
        ]
        return cls(tuple(flows))


class PacketStream:
    """An endless, seeded stream of flow references.

    ``zipf_s == 0`` gives uniform traffic; larger values concentrate traffic
    on hot flows (data-centre traffic is heavy-tailed — paper refs [5, 65]).
    """

    def __init__(self, flow_set: FlowSet, zipf_s: float = 0.0,
                 seed: int = 1) -> None:
        if not len(flow_set):
            raise ValueError("empty flow set")
        self.flow_set = flow_set
        self.zipf_s = zipf_s
        self._rng = np.random.default_rng(seed)
        if zipf_s > 0.0:
            ranks = np.arange(1, len(flow_set) + 1, dtype=np.float64)
            weights = ranks ** (-zipf_s)
            self._cdf = np.cumsum(weights / weights.sum())
        else:
            self._cdf = None

    def next_flow(self) -> FiveTuple:
        if self._cdf is None:
            index = int(self._rng.integers(0, len(self.flow_set)))
        else:
            index = int(np.searchsorted(self._cdf, self._rng.random()))
            index = min(index, len(self.flow_set) - 1)
        return self.flow_set[index]

    def take(self, count: int) -> List[FiveTuple]:
        return [self.next_flow() for _ in range(count)]

    def __iter__(self) -> Iterator[FiveTuple]:
        while True:
            yield self.next_flow()


def key_stream(flow_set: FlowSet, count: int, zipf_s: float = 0.0,
               seed: int = 1) -> List[bytes]:
    """``count`` packed 16-byte keys drawn from the flow set."""
    stream = PacketStream(flow_set, zipf_s=zipf_s, seed=seed)
    return [flow.pack() for flow in stream.take(count)]


def random_keys(count: int, key_bytes: int = 16, seed: int = 2) -> List[bytes]:
    """Distinct random byte keys (for raw hash-table experiments).

    One ``(count, key_bytes)`` draw, sliced key by key out of one byte
    buffer.  A key equal to an earlier one is redrawn, ``key_bytes`` at a
    time, until it is new; that loop runs only when the draw holds a
    repeat (vanishingly rare at 16 bytes), and it redraws in key order, so
    the list is a function of ``(count, key_bytes, seed)`` alone.
    """
    if key_bytes < 1:
        raise ValueError(f"random_keys needs key_bytes >= 1, got {key_bytes}")
    rng = np.random.default_rng(seed)
    buffer = rng.integers(0, 256, size=(count, key_bytes),
                          dtype=np.uint8).tobytes()
    keys = [buffer[start:start + key_bytes]
            for start in range(0, len(buffer), key_bytes)]
    del buffer  # the keys are copies: free it before the repeat check
    if len(set(keys)) < count:
        seen = set()
        for index, key in enumerate(keys):
            while key in seen:
                key = bytes(rng.integers(0, 256, size=key_bytes,
                                         dtype=np.uint8))
            seen.add(key)
            keys[index] = key
    return keys
