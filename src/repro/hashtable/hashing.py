"""Hash functions used by the flow tables and by HALO's hash unit.

Deterministic, seedable mixers.  The HALO hash unit (paper Figure 6) is
"implemented with simple logics, such as boolean, shift, and other
bit-wise operations" — exactly the operations below, so the same
function doubles as the functional model of the accelerator's hash unit.

Public contract:

* ``hash_bytes(data, seed)`` is a pure function of its arguments, a
  64-bit int; ``signature_of`` and ``secondary_index`` are pure functions
  of theirs.
* ``hash_many(keys, key_bytes, seed)`` hashes a batch of keys that are
  all ``key_bytes`` long in one numpy pass: its ``uint64`` array equals
  ``[hash_bytes(key, seed) for key in keys]`` element for element, the
  zero-padded tail lane of keys whose length is not a multiple of 8
  included.  It raises ``ValueError`` when the keys do not total
  ``len(keys) * key_bytes`` bytes.
* ``secondary_index(index, signature, mask)`` is ``(index ^
  mix64(signature | 0x5BD1)) & mask``.  The OR leaves 128 distinct
  operands, so the mixed values come from :data:`ALT_BUCKET_MIX`, built
  once at import.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

from ..sim.interconnect import mix64, mix64_array

MASK64 = 0xFFFFFFFFFFFFFFFF

#: Little-endian unpackers of ``n`` full 8-byte lanes, keyed by ``n``.
_LANE_STRUCTS: dict = {}

#: Bits ``secondary_index`` ORs into a signature before mixing it.
ALT_BUCKET_BITS = 0x5BD1
#: ``signature | ALT_BUCKET_BITS`` -> ``mix64`` of it, for every 16-bit
#: signature: 128 entries, one per setting of the 7 bits the OR leaves free.
ALT_BUCKET_MIX = {operand: mix64(operand)
                  for operand in {signature | ALT_BUCKET_BITS
                                  for signature in range(1 << 16)}}

_HASH_SEED_MUL = 0x9E3779B97F4A7C15
_LANE_MUL = np.uint64(0xC2B2AE3D27D4EB4F)
_TAIL_MUL = np.uint64(0x165667B19E3779F9)
_ROTATE_LEFT, _ROTATE_RIGHT = np.uint64(31), np.uint64(33)


def hash_bytes(data: bytes, seed: int = 0) -> int:
    """64-bit hash of an arbitrary byte string (jhash/xxhash-style rounds).

    Processes 8-byte lanes with multiply-rotate mixing, then finalises.
    All full lanes are unpacked in one call; a short tail is zero-padded
    to a last lane.
    """
    length = len(data)
    acc = (seed ^ (length * _HASH_SEED_MUL)) & MASK64
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


def hash_many(keys: Sequence[bytes], key_bytes: int,
              seed: int = 0) -> np.ndarray:
    """:func:`hash_bytes` of every key, as one ``uint64`` array.

    Every key must be ``key_bytes`` long.  The keys are joined into one
    buffer and hashed a lane column at a time: the same rounds as
    :func:`hash_bytes`, on ``uint64`` arrays that wrap modulo 2**64.
    Temporaries grow with ``len(keys)``, so callers hash large batches in
    chunks.
    """
    count = len(keys)
    buffer = b"".join(keys)
    if len(buffer) != count * key_bytes:
        raise ValueError(f"keys do not all have length {key_bytes}")
    data = np.frombuffer(buffer, dtype=np.uint8).reshape(count, key_bytes)
    acc = np.full(count, (seed ^ (key_bytes * _HASH_SEED_MUL)) & MASK64,
                  dtype=np.uint64)
    full = key_bytes >> 3
    if full:
        lanes = np.ascontiguousarray(data[:, :full << 3]).view("<u8")
        for column in range(full):
            acc ^= mix64_array(lanes[:, column])
            acc *= _LANE_MUL
            acc = (acc << _ROTATE_LEFT) | (acc >> _ROTATE_RIGHT)
    if key_bytes & 7:
        tail = np.zeros((count, 8), dtype=np.uint8)
        tail[:, :key_bytes & 7] = data[:, full << 3:]
        acc ^= mix64_array(tail.view("<u8")[:, 0])
        acc *= _TAIL_MUL
    return mix64_array(acc)


def signature_of(hash_value: int) -> int:
    """16-bit bucket signature stored per entry (paper Figure 2b)."""
    return (hash_value >> 16) & 0xFFFF


def secondary_index(primary_index: int, signature: int, mask: int) -> int:
    """DPDK rte_hash alternative-bucket derivation.

    The alternative bucket is computed from the *signature*, so an entry can
    be moved between its two buckets knowing only its stored signature —
    required for cuckoo displacement.
    """
    return (primary_index ^ ALT_BUCKET_MIX[signature | ALT_BUCKET_BITS]) & mask
