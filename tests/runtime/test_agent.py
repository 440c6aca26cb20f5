"""Tests for the repair agent's protocol handling."""

import builtins
import collections
import contextlib
import io
import os
import queue
import time
from pathlib import Path

import numpy as np
import pytest

from repro.ec.galois import gf_mul
from repro.runtime.agent import Agent, AgentError
from repro.runtime.datanode import ChunkStore
from repro.runtime.messages import (
    DataPacket,
    ReceiveCommand,
    RepairAck,
    SendCommand,
    WriteComplete,
)
from repro.runtime.throttle import RateLimiter
from repro.runtime.transport import Network

COORD = -1


def start_agents(net, tmp_path, node_ids):
    agents = {}
    for node_id in node_ids:
        net.attach(node_id, None)
        store = ChunkStore(tmp_path / f"n{node_id}", node_id, RateLimiter(None))
        agents[node_id] = Agent(node_id, store, net, COORD)
        agents[node_id].start()
    return agents


@pytest.fixture
def rig(tmp_path):
    """Two agents (0 sender, 1 receiver) plus a coordinator endpoint."""
    net = Network()
    coord = net.attach(COORD, None)
    agents = start_agents(net, tmp_path, (0, 1))
    yield net, coord, agents
    for agent in agents.values():
        agent.stop()


def wait_ack(coord, timeout=10.0):
    return coord.inbox.get(timeout=timeout)


@contextlib.contextmanager
def counting_opens(monkeypatch):
    """Count opens of chunk and staging files, by (node dir, file name).

    Both the ``os.open`` and the ``open``/``io.open`` routes are
    counted, so a store that opens a file per packet either way shows.
    """
    counts = collections.Counter()

    def counted(real):
        def opener(path, *args, **kwargs):
            if isinstance(path, (str, os.PathLike)):
                path = Path(path)
                if path.name.startswith("stripe_"):
                    counts[(path.parent.name, path.name)] += 1
            return real(path, *args, **kwargs)

        return opener

    with monkeypatch.context() as patch:
        patch.setattr(os, "open", counted(os.open))
        patch.setattr(builtins, "open", counted(builtins.open))
        patch.setattr(io, "open", counted(io.open))
        yield counts


class TestMigrationPath:
    def test_chunk_moves_and_acks(self, rig):
        net, coord, agents = rig
        payload = bytes(range(256)) * 16  # 4096 bytes
        agents[0].store.put(7, payload)
        net.send(
            COORD,
            1,
            ReceiveCommand(
                stripe_id=7,
                chunk_index=2,
                chunk_size=len(payload),
                packet_size=1024,
                sources={0: 1},
            ),
        )
        net.send(
            COORD,
            0,
            SendCommand(stripe_id=7, chunk_index=2, destination=1, packet_size=1024),
        )
        ack = wait_ack(coord)
        assert ack == RepairAck(7, 2, 1)
        assert agents[1].store.read(7) == payload
        assert not agents[0].errors and not agents[1].errors

    def test_single_packet_no_pipelining(self, rig):
        net, coord, agents = rig
        payload = b"z" * 512
        agents[0].store.put(3, payload)
        net.send(
            COORD,
            1,
            ReceiveCommand(3, 0, len(payload), len(payload), sources={0: 1}),
        )
        net.send(COORD, 0, SendCommand(3, 0, 1, len(payload)))
        wait_ack(coord)
        assert agents[1].store.read(3) == payload


    def test_superseded_assembly_keeps_retry_staging(self, rig):
        # A retry's assembly writes the same staging file as the attempt
        # it supersedes; the aborted attempt must not delete it, or the
        # retry promotes a chunk with its early packets zeroed.
        net, coord, agents = rig
        payload = bytes(range(256)) * 16  # 4 packets of 1024 bytes
        net.send(COORD, 1, ReceiveCommand(7, 2, len(payload), 1024, sources={0: 1}))
        net.send(
            COORD,
            1,
            ReceiveCommand(7, 2, len(payload), 1024, sources={0: 1}, attempt=1),
        )

        def deliver(offsets):
            for offset in offsets:
                net.send(0, 1, DataPacket(
                    7, 2, 0, offset, payload[offset:offset + 1024], attempt=1
                ))

        deliver([0, 1024])
        time.sleep(0.3)  # the aborted attempt-0 assembly winds down
        deliver([2048, 3072])
        ack = wait_ack(coord)
        assert ack == RepairAck(7, 2, 1, attempt=1)
        assert agents[1].store.read(7) == payload

    def test_aborted_discard_spares_retry_staging_handle(self, rig):
        # The superseded attempt has already opened and written its
        # staging file when the retry opens the same path; when the
        # aborted attempt winds down it must not unlink the file the
        # retry's open handle is writing.
        net, coord, agents = rig
        payload = bytes(range(256)) * 16  # 4 packets of 1024 bytes
        staging = agents[1].store.root / "stripe_7.chunk.part"

        def deliver(offsets, attempt):
            for offset in offsets:
                net.send(0, 1, DataPacket(
                    7, 2, 0, offset, payload[offset:offset + 1024],
                    attempt=attempt,
                ))

        net.send(COORD, 1, ReceiveCommand(7, 2, len(payload), 1024, sources={0: 1}))
        deliver([0, 1024], attempt=0)
        deadline = time.monotonic() + 5
        while not staging.exists():
            assert time.monotonic() < deadline, "attempt 0 never staged"
            time.sleep(0.01)
        net.send(
            COORD,
            1,
            ReceiveCommand(7, 2, len(payload), 1024, sources={0: 1}, attempt=1),
        )
        deliver([0, 1024], attempt=1)
        time.sleep(0.3)  # the aborted attempt-0 assembly winds down
        assert staging.exists()
        deliver([2048, 3072], attempt=1)
        ack = wait_ack(coord)
        assert ack == RepairAck(7, 2, 1, attempt=1)
        assert agents[1].store.read(7) == payload
        assert not staging.exists()


class TestOneOpenPerStream:
    """Each chunk stream opens its file once, not once per packet."""

    PACKET = 1024
    PACKETS = 16

    def test_migration_opens_each_file_once(self, rig, monkeypatch):
        net, coord, agents = rig
        payload = os.urandom(self.PACKET * self.PACKETS)
        agents[0].store.put(7, payload)
        with counting_opens(monkeypatch) as opens:
            net.send(
                COORD,
                1,
                ReceiveCommand(7, 0, len(payload), self.PACKET, sources={0: 1}),
            )
            net.send(COORD, 0, SendCommand(7, 0, 1, self.PACKET))
            ack = wait_ack(coord)
        assert ack == RepairAck(7, 0, 1)
        assert opens == {
            ("n0", "stripe_7.chunk"): 1,
            ("n1", "stripe_7.chunk.part"): 1,
        }
        assert agents[1].store.read(7) == payload

    def test_star_reconstruction_opens_each_file_once(
        self, tmp_path, monkeypatch
    ):
        net = Network()
        coord = net.attach(COORD, None)
        agents = start_agents(net, tmp_path, (0, 1, 2))
        try:
            size = self.PACKET * self.PACKETS
            a, b = os.urandom(size), os.urandom(size)
            agents[0].store.put(4, a)
            agents[1].store.put(4, b)
            coeffs = {0: 3, 1: 7}
            with counting_opens(monkeypatch) as opens:
                net.send(
                    COORD,
                    2,
                    ReceiveCommand(4, 1, size, self.PACKET, sources=coeffs),
                )
                net.send(COORD, 0, SendCommand(4, 1, 2, self.PACKET))
                net.send(COORD, 1, SendCommand(4, 1, 2, self.PACKET))
                ack = wait_ack(coord)
            assert ack == RepairAck(4, 1, 2)
            assert opens == {
                ("n0", "stripe_4.chunk"): 1,
                ("n1", "stripe_4.chunk"): 1,
                ("n2", "stripe_4.chunk.part"): 1,
            }
            expected = bytes(
                gf_mul(3, x) ^ gf_mul(7, y) for x, y in zip(a, b)
            )
            assert agents[2].store.read(4) == expected
        finally:
            for agent in agents.values():
                agent.stop()


class TestReconstructionPath:
    def test_coefficients_applied(self, tmp_path):
        net = Network()
        coord = net.attach(COORD, None)
        agents = start_agents(net, tmp_path, (0, 1, 2))
        try:
            a = bytes([5] * 128)
            b = bytes([9] * 128)
            agents[0].store.put(4, a)
            agents[1].store.put(4, b)
            coeffs = {0: 3, 1: 7}
            net.send(
                COORD, 2, ReceiveCommand(4, 1, 128, 64, sources=coeffs)
            )
            net.send(COORD, 0, SendCommand(4, 1, 2, 64))
            net.send(COORD, 1, SendCommand(4, 1, 2, 64))
            ack = coord.inbox.get(timeout=10)
            assert ack.key == (4, 1)
            expected = gf_mul(3, 5) ^ gf_mul(7, 9)
            assert agents[2].store.read(4) == bytes([expected] * 128)
        finally:
            for agent in agents.values():
                agent.stop()


class TestSynchronousRoundTrip:
    def test_sender_waits_for_write_complete(self, rig):
        net, coord, agents = rig
        payload = b"a" * 2048
        agents[0].store.put(1, payload)
        agents[0].store.put(2, payload)
        for stripe in (1, 2):
            net.send(
                COORD, 1, ReceiveCommand(stripe, 0, 2048, 512, sources={0: 1})
            )
            net.send(COORD, 0, SendCommand(stripe, 0, 1, 512))
        acks = {wait_ack(coord).key for _ in range(2)}
        assert acks == {(1, 0), (2, 0)}


class TestErrors:
    def test_early_packet_buffers_until_command(self, rig):
        """Packets racing ahead of their ReceiveCommand are not lost."""
        net, coord, agents = rig
        payload = b"e" * 256
        # Data first (as can happen on a pipelined path)...
        net.send(0, 1, DataPacket(9, 0, 0, 0, payload))
        time.sleep(0.05)
        assert not agents[1].errors
        # ...then the command arrives and drains the buffer.
        net.send(
            COORD, 1, ReceiveCommand(9, 0, 256, 256, sources={0: 1})
        )
        ack = wait_ack(coord)
        assert ack.key == (9, 0)
        assert agents[1].store.read(9) == payload

    def test_read_failure_nacks_and_send_loop_moves_on(self, rig, monkeypatch):
        # A disk read failing mid-stream must NACK its action and leave
        # the send loop free for the next command, not wedge it.
        net, coord, agents = rig
        payload = bytes(range(256)) * 16  # 4 packets of 1024 bytes
        sender = agents[0].store
        sender.put(7, payload)
        sender.put(8, payload)
        read_packet = sender.read_packet

        def failing(stripe_id, offset, length, **kwargs):
            if stripe_id == 7 and offset == 2048:
                raise OSError("injected read failure")
            return read_packet(stripe_id, offset, length, **kwargs)

        monkeypatch.setattr(sender, "read_packet", failing)
        for stripe in (7, 8):
            net.send(
                COORD,
                1,
                ReceiveCommand(stripe, 0, len(payload), 1024, sources={0: 1}),
            )
            net.send(COORD, 0, SendCommand(stripe, 0, 1, 1024))
        replies = [wait_ack(coord, timeout=5.0) for _ in range(2)]
        nacks = [reply for reply in replies if not reply.ok]
        assert [(r.key, r.node_id) for r in nacks] == [((7, 0), 0)]
        assert "injected read failure" in nacks[0].detail
        assert [r.key for r in replies if r.ok] == [(8, 0)]
        assert agents[1].store.read(8) == payload
        assert not agents[0].errors

    def test_stop_is_idempotent(self, rig):
        net, coord, agents = rig
        agents[0].stop()
        agents[0].stop()
