"""Hash functions."""

import collections

import pytest

from repro.hashtable import hash_bytes, mix64, secondary_index, signature_of


def test_hash_deterministic():
    assert hash_bytes(b"hello world") == hash_bytes(b"hello world")


def test_hash_seed_sensitivity():
    assert hash_bytes(b"key", seed=1) != hash_bytes(b"key", seed=2)


def test_hash_data_sensitivity():
    assert hash_bytes(b"key1") != hash_bytes(b"key2")
    # single-bit flip
    assert hash_bytes(bytes(16)) != hash_bytes(bytes(15) + b"\x01")


def test_hash_is_64bit():
    for data in (b"", b"a", b"x" * 100):
        assert 0 <= hash_bytes(data) < (1 << 64)


def test_hash_distribution_over_buckets():
    mask = 255
    counts = collections.Counter(
        hash_bytes(index.to_bytes(8, "little")) & mask
        for index in range(25_600))
    expected = 25_600 / 256
    for bucket in range(256):
        assert expected * 0.6 < counts[bucket] < expected * 1.4


def test_mix64_bijective_sample():
    values = {mix64(i) for i in range(10_000)}
    assert len(values) == 10_000


def test_signature_is_16bit():
    for data in (b"alpha", b"beta", b"x" * 40):
        assert 0 <= signature_of(hash_bytes(data)) < (1 << 16)


def test_secondary_index_is_involution():
    """alt(alt(i)) == i — required for cuckoo displacement."""
    mask = 1023
    for index in (0, 5, 700, 1023):
        for signature in (0, 1, 0xBEEF & 0xFFFF, 0xFFFF):
            alt = secondary_index(index, signature, mask)
            assert 0 <= alt <= mask
            assert secondary_index(alt, signature, mask) == index


def test_secondary_index_usually_differs():
    mask = 1023
    same = sum(1 for sig in range(500)
               if secondary_index(7, sig, mask) == 7)
    assert same <= 2


def test_alternate_bucket_table_matches_mix64():
    """``secondary_index`` reads a 128-entry table; it must name the
    bucket the mixer does for every 16-bit signature."""
    from repro.hashtable.hashing import ALT_BUCKET_MIX

    assert len(ALT_BUCKET_MIX) == 128
    mask = (1 << 64) - 1
    for signature in range(1 << 16):
        assert (secondary_index(0, signature, mask)
                == mix64(signature | 0x5BD1))


def test_hash_many_rejects_keys_of_another_length():
    from repro.hashtable.hashing import hash_many

    with pytest.raises(ValueError, match="length 16"):
        hash_many([bytes(16), bytes(15)], 16)
    assert hash_many([], 16).tolist() == []
