"""Hash functions used by the flow tables and by HALO's hash unit.

Pure-Python, deterministic, seedable mixers.  The HALO hash unit (paper
Figure 6) is "implemented with simple logics, such as boolean, shift, and
other bit-wise operations" — exactly the operations below, so the same
function doubles as the functional model of the accelerator's hash unit.
"""

from __future__ import annotations

import struct

from ..sim.interconnect import mix64

MASK64 = 0xFFFFFFFFFFFFFFFF

#: Little-endian unpackers of ``n`` full 8-byte lanes, keyed by ``n``.
_LANE_STRUCTS: dict = {}


def hash_bytes(data: bytes, seed: int = 0) -> int:
    """64-bit hash of an arbitrary byte string (jhash/xxhash-style rounds).

    Processes 8-byte lanes with multiply-rotate mixing, then finalises.
    All full lanes are unpacked in one call; a short tail is zero-padded
    to a last lane.
    """
    length = len(data)
    acc = (seed ^ (length * 0x9E3779B97F4A7C15)) & MASK64
    full = length >> 3
    if full:
        lanes = _LANE_STRUCTS.get(full)
        if lanes is None:
            lanes = _LANE_STRUCTS[full] = struct.Struct(f"<{full}Q")
        for lane in lanes.unpack_from(data):
            acc = (acc ^ mix64(lane)) * 0xC2B2AE3D27D4EB4F & MASK64
            acc = ((acc << 31) | (acc >> 33)) & MASK64
    if length & 7:
        lane = int.from_bytes(data[full << 3:], "little")
        acc = (acc ^ mix64(lane)) * 0x165667B19E3779F9 & MASK64
    return mix64(acc)


def signature_of(hash_value: int) -> int:
    """16-bit bucket signature stored per entry (paper Figure 2b)."""
    return (hash_value >> 16) & 0xFFFF


def secondary_index(primary_index: int, signature: int, mask: int) -> int:
    """DPDK rte_hash alternative-bucket derivation.

    The alternative bucket is computed from the *signature*, so an entry can
    be moved between its two buckets knowing only its stored signature —
    required for cuckoo displacement.
    """
    return (primary_index ^ mix64(signature | 0x5BD1)) & mask
