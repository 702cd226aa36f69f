"""Flow keys: the 5-tuple and wildcard masks.

A flow is identified by the classic 5-tuple (source/destination IPv4
address, source/destination port, IP protocol) — 104 bits, packed into a
16-byte key for the hash tables (the paper's tables use 16-byte keys; §3.4
notes 4–64-byte headers are typical).

A :class:`FlowMask` wildcards a subset of the fields (or prefixes of the IP
fields); rules sharing a mask form one *tuple* in tuple space search.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

KEY_BYTES = 16
PROTO_TCP = 6
PROTO_UDP = 17

#: The 16-byte hash-table key layout: 13 header bytes + zero pad.
_KEY_STRUCT = struct.Struct("<IIHHB3x")

#: Each :class:`FlowMask` field and its width in bits.
_MASK_BITS = (("src_ip_mask", 32), ("dst_ip_mask", 32),
              ("src_port_mask", 16), ("dst_port_mask", 16),
              ("proto_mask", 8))


@dataclass(frozen=True, order=True)
class FiveTuple:
    """One packet's flow identity."""

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    proto: int = PROTO_UDP

    def __post_init__(self) -> None:
        if not (0 <= self.src_ip <= 0xFFFFFFFF
                and 0 <= self.dst_ip <= 0xFFFFFFFF):
            raise ValueError("IPv4 addresses must be 32-bit")
        if not (0 <= self.src_port <= 0xFFFF
                and 0 <= self.dst_port <= 0xFFFF):
            raise ValueError("ports must be 16-bit")
        if not 0 <= self.proto <= 0xFF:
            raise ValueError("proto must be 8-bit")

    def pack(self) -> bytes:
        """The 16-byte hash-table key (13 header bytes + zero pad)."""
        return _KEY_STRUCT.pack(self.src_ip, self.dst_ip,
                                self.src_port, self.dst_port, self.proto)

    def as_int(self) -> int:
        """The 104-bit integer used by the TCAM models."""
        return ((self.src_ip << 72) | (self.dst_ip << 40)
                | (self.src_port << 24) | (self.dst_port << 8) | self.proto)

    @classmethod
    def unpack(cls, key: bytes) -> "FiveTuple":
        src_ip, dst_ip, src_port, dst_port, proto = _KEY_STRUCT.unpack(key)
        return cls(src_ip, dst_ip, src_port, dst_port, proto)

    def __str__(self) -> str:
        def ip(value: int) -> str:
            return ".".join(str((value >> shift) & 0xFF)
                            for shift in (24, 16, 8, 0))
        return (f"{ip(self.src_ip)}:{self.src_port} -> "
                f"{ip(self.dst_ip)}:{self.dst_port} proto={self.proto}")


@dataclass(frozen=True)
class FlowMask:
    """A wildcard pattern over the 5-tuple fields.

    Each field carries its own bitmask (0 = fully wildcarded,
    all-ones = exact).  IP fields support prefix masks.
    """

    src_ip_mask: int = 0xFFFFFFFF
    dst_ip_mask: int = 0xFFFFFFFF
    src_port_mask: int = 0xFFFF
    dst_port_mask: int = 0xFFFF
    proto_mask: int = 0xFF

    def __post_init__(self) -> None:
        # A wider mask would spill into the neighbouring field of
        # :meth:`as_int_mask`, which must agree with :meth:`apply`.
        for name, bits in _MASK_BITS:
            value = getattr(self, name)
            if not 0 <= value < 1 << bits:
                raise ValueError(
                    f"{name} must be a {bits}-bit mask, got {value:#x}")

    def apply(self, flow: FiveTuple) -> FiveTuple:
        """The masked flow — rules and packets compare under this."""
        return FiveTuple(
            src_ip=flow.src_ip & self.src_ip_mask,
            dst_ip=flow.dst_ip & self.dst_ip_mask,
            src_port=flow.src_port & self.src_port_mask,
            dst_port=flow.dst_port & self.dst_port_mask,
            proto=flow.proto & self.proto_mask,
        )

    def key_of(self, flow: FiveTuple) -> bytes:
        """``apply(flow).pack()``, without building the masked flow: a
        masked field is never wider than its field."""
        return _KEY_STRUCT.pack(flow.src_ip & self.src_ip_mask,
                                flow.dst_ip & self.dst_ip_mask,
                                flow.src_port & self.src_port_mask,
                                flow.dst_port & self.dst_port_mask,
                                flow.proto & self.proto_mask)

    def as_int_mask(self) -> int:
        """The 104-bit TCAM mask equivalent."""
        return ((self.src_ip_mask << 72) | (self.dst_ip_mask << 40)
                | (self.src_port_mask << 24) | (self.dst_port_mask << 8)
                | self.proto_mask)

    @property
    def is_exact(self) -> bool:
        return (self.src_ip_mask == 0xFFFFFFFF
                and self.dst_ip_mask == 0xFFFFFFFF
                and self.src_port_mask == 0xFFFF
                and self.dst_port_mask == 0xFFFF
                and self.proto_mask == 0xFF)

    @classmethod
    def exact(cls) -> "FlowMask":
        return cls()

    @classmethod
    def prefixes(cls, src_prefix: int = 32, dst_prefix: int = 32,
                 src_port: bool = True, dst_port: bool = True,
                 proto: bool = True) -> "FlowMask":
        """Convenience constructor from IP prefix lengths and port flags."""
        def prefix_mask(bits: int) -> int:
            if not 0 <= bits <= 32:
                raise ValueError("prefix length must be 0..32")
            return (0xFFFFFFFF << (32 - bits)) & 0xFFFFFFFF if bits else 0
        return cls(
            src_ip_mask=prefix_mask(src_prefix),
            dst_ip_mask=prefix_mask(dst_prefix),
            src_port_mask=0xFFFF if src_port else 0,
            dst_port_mask=0xFFFF if dst_port else 0,
            proto_mask=0xFF if proto else 0,
        )


def make_flow(index: int, proto: int = PROTO_UDP,
              group: int = None) -> FiveTuple:
    """A deterministic distinct flow for workload generation.

    Entropy is spread across the source address (a Weyl-sequence multiply).
    When ``group`` is given, the flow targets that destination *group* — a
    container/service subnet: destination octets 2-3 and the service port
    are functions of the group, so one dst-prefix (<= /24) wildcard rule per
    group covers the whole group's traffic.  This mirrors the paper's
    "many flows, few rules" scenarios where flows from many sources funnel
    into a handful of service destinations.
    """
    mixed = (index * 2654435761) & 0xFFFFFFFF
    src_ip = (10 << 24) | ((mixed >> 8) & 0xFFFFFF)
    src_port = 1024 + (index % 60000)
    if group is None:
        dst_ip = (172 << 24) | ((mixed * 40503) & 0xFFFFFF)
        dst_port = 80 + (mixed % 1000)
    else:
        dst_ip = ((172 << 24) | ((group & 0xFF) << 16)
                  | (((group * 37) & 0xFF) << 8) | (mixed & 0xFF))
        dst_port = 80 + (group % 1000)
    return FiveTuple(src_ip=src_ip, dst_ip=dst_ip, src_port=src_port,
                     dst_port=dst_port, proto=proto)

