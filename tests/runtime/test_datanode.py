"""Tests for the on-disk chunk store."""

import pytest

from repro.runtime.datanode import ChunkStore
from repro.runtime.throttle import RateLimiter


@pytest.fixture
def store(tmp_path):
    return ChunkStore(tmp_path / "node_0", 0, RateLimiter(None))


class TestChunkStore:
    def test_put_and_read(self, store):
        store.put(3, b"hello world")
        assert store.read(3) == b"hello world"
        assert store.size(3) == 11
        assert store.has(3)

    def test_missing_chunk(self, store):
        assert not store.has(9)
        with pytest.raises(KeyError):
            store.size(9)

    def test_read_packet(self, store):
        store.put(1, bytes(range(100)))
        assert store.read_packet(1, 10, 5) == bytes(range(10, 15))

    def test_short_read_raises(self, store):
        store.put(1, b"abc")
        with pytest.raises(IOError):
            store.read_packet(1, 0, 10)

    def test_write_packet_assembles_out_of_order(self, store):
        store.write_packet(7, 4, b"WORL", 8)
        store.write_packet(7, 0, b"HELO", 8)
        assert store.read(7) == b"HELOWORL"
        assert store.size(7) == 8

    def test_delete(self, store):
        store.put(2, b"x")
        store.delete(2)
        assert not store.has(2)
        store.delete(2)  # idempotent

    def test_stripes_listing(self, store):
        store.put(5, b"a")
        store.write_packet(9, 0, b"b", 1)
        assert store.stripes() == [5, 9]

    def test_throttled_io_charges_disk(self, tmp_path):
        disk = RateLimiter(1e9)
        store = ChunkStore(tmp_path / "n", 0, disk)
        store.put(0, b"x" * 100, throttled=True)
        store.read_packet(0, 0, 50)
        assert disk.bytes_total == 150


class TestStreamHandles:
    def test_reads_through_one_handle(self, store):
        store.put(1, bytes(range(100)))
        with store.open_chunk(1) as chunk:
            assert store.read_packet(1, 10, 5, handle=chunk) == bytes(
                range(10, 15)
            )
            out = bytearray(4)
            assert store.read_packet_into(1, 96, out, handle=chunk) == 4
            assert bytes(out) == bytes(range(96, 100))
            with pytest.raises(IOError):
                store.read_packet(1, 98, 5, handle=chunk)
        assert chunk.fd == -1  # closed with the stream

    def test_staging_handle_presizes_and_promotes(self, store):
        with store.open_staging(7, 8) as staging:
            store.write_packet(7, 4, b"WORL", 8, staged=True, handle=staging)
            store.write_packet(7, 0, b"HELO", 8, staged=True, handle=staging)
        assert not store.has(7)
        store.promote(7)
        assert store.read(7) == b"HELOWORL"
        assert store.size(7) == 8

    def test_handle_of_another_stripe_is_refused(self, store):
        store.put(1, b"abc")
        store.put(2, b"def")
        with store.open_chunk(1) as chunk:
            with pytest.raises(ValueError):
                store.read_packet(2, 0, 3, handle=chunk)

    def test_handle_reads_charge_disk_per_packet(self, tmp_path):
        disk = RateLimiter(1e9)
        store = ChunkStore(tmp_path / "n", 0, disk)
        store.put(0, b"x" * 100)
        with store.open_chunk(0) as chunk:
            for offset in range(0, 100, 25):
                store.read_packet(0, offset, 25, handle=chunk)
        assert disk.bytes_total == 100
