"""Property tests for pipelined framing: interleaved tagged streams.

The pipelining contract is additive -- a ``seq`` tag in the frame envelope,
no codec version bump -- and these tests pin its three load-bearing
properties over randomly drawn interleavings:

* **out-of-order completion**: replies may land in any order and still
  route to exactly the request that asked, byte-identically;
* **duplicate-tag rejection**: a tag may not be claimed twice while in
  flight, and the rejection touches nothing else;
* **cancellation isolation**: abandoning one in-flight tag leaves every
  sibling's reply intact (the late reply is counted, never misrouted).

They run against the real client-side components -- the
:class:`~repro.service.aio.PipelineDemux` registry and the zero-copy
:class:`~repro.service.net.FrameAssembler` -- driven directly, with no
sockets, so hypothesis can shrink failures to minimal interleavings.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import wire
from repro.engine.request import ReadoutRequest, ReadoutResult
from repro.service.aio import PipelineDemux
from repro.service.net import FrameAssembler


def _request_for(tag: int, n_shots: int) -> ReadoutRequest:
    rng = np.random.default_rng(tag)
    return ReadoutRequest(traces=rng.normal(size=(n_shots, 1, 3, 2)))


def _result_for(tag: int, n_shots: int) -> ReadoutResult:
    rng = np.random.default_rng(10_000 + tag)
    return ReadoutResult(
        qubits=(0,),
        output="logits",
        states=None,
        logits=rng.normal(size=(n_shots, 1)),
        n_shots=n_shots,
        elapsed_s=0.0,
        meta={"tag": tag},
    )


@st.composite
def interleavings(draw):
    """Distinct tags, a server completion order, and a stream chunking."""
    tags = draw(
        st.lists(
            st.integers(min_value=1, max_value=2**63 - 1),
            min_size=1,
            max_size=8,
            unique=True,
        )
    )
    completion = draw(st.permutations(tags))
    chunk_step = draw(st.integers(min_value=1, max_value=4096))
    return tags, completion, chunk_step


class TestTaggedStreams:
    @settings(max_examples=60, deadline=None)
    @given(plan=interleavings())
    def test_out_of_order_replies_route_byte_exactly(self, plan):
        tags, completion, chunk_step = plan
        demux = PipelineDemux()
        futures = {tag: demux.register(tag) for tag in tags}

        # Requests cross the wire tagged; the echo comes back verbatim even
        # though the "server" answers in a shuffled order.
        for tag in tags:
            chunks = wire.encode_request_chunks(
                _request_for(tag, n_shots=1 + tag % 3), wire_meta={"seq": tag}
            )
            frame = b"".join(bytes(chunk) for chunk in chunks)
            assert wire.frame_wire_meta(frame)["seq"] == tag

        # Replies arrive interleaved AND arbitrarily re-chunked: reassemble
        # through the zero-copy assembler, then demux by tag.
        stream = b""
        for tag in completion:
            chunks = wire.encode_result_chunks(
                _result_for(tag, n_shots=1 + tag % 3), wire_meta={"seq": tag}
            )
            stream += b"".join(bytes(chunk) for chunk in chunks)
        assembler = FrameAssembler()
        offset = 0
        while offset < len(stream):
            view = assembler.get_buffer(65536)
            take = min(chunk_step, len(view), len(stream) - offset)
            view[:take] = stream[offset : offset + take]
            offset += take
            frame = assembler.buffer_updated(take)
            if frame is not None:
                assert demux.resolve(frame)

        assert len(demux) == 0
        for tag in tags:
            result = wire.decode_reply(futures[tag].result(timeout=0))
            expected = _result_for(tag, n_shots=1 + tag % 3)
            assert result.meta["tag"] == tag
            assert np.array_equal(result.logits, expected.logits)

    @settings(max_examples=60, deadline=None)
    @given(plan=interleavings())
    def test_duplicate_tag_rejected_without_touching_siblings(self, plan):
        tags, _completion, _chunk_step = plan
        demux = PipelineDemux()
        futures = {tag: demux.register(tag) for tag in tags}
        duplicate = tags[0]
        with pytest.raises(ValueError, match="already in flight"):
            demux.register(duplicate)
        # The rejection changed nothing: every original future still pending
        # and still resolvable.
        assert len(demux) == len(tags)
        for tag in tags:
            frame = wire.encode_info({"tag": tag}, wire_meta={"seq": tag})
            assert demux.resolve(frame)
            assert wire.decode_info(futures[tag].result(timeout=0)) == {
                "tag": tag
            }

    @settings(max_examples=60, deadline=None)
    @given(plan=interleavings(), data=st.data())
    def test_cancelling_one_inflight_leaves_siblings_intact(self, plan, data):
        tags, completion, _chunk_step = plan
        demux = PipelineDemux()
        futures = {tag: demux.register(tag) for tag in tags}
        cancelled = data.draw(st.sampled_from(tags))
        assert demux.discard(cancelled)
        assert futures[cancelled].cancelled()
        # Every reply still arrives (the server does not know); the
        # cancelled tag's is counted late-and-dropped, the rest route fine.
        for tag in completion:
            frame = wire.encode_info({"tag": tag}, wire_meta={"seq": tag})
            delivered = demux.resolve(frame)
            assert delivered == (tag != cancelled)
        assert demux.late_replies == 1
        assert len(demux) == 0
        for tag in tags:
            if tag == cancelled:
                continue
            assert wire.decode_info(futures[tag].result(timeout=0)) == {
                "tag": tag
            }

    def test_discard_unknown_tag_is_a_noop(self):
        demux = PipelineDemux()
        assert not demux.discard(42)
        assert demux.late_replies == 0

    def test_register_requires_a_tag(self):
        with pytest.raises(ValueError, match="non-None"):
            PipelineDemux().register(None)

    def test_fail_all_fails_every_pending_future_once(self):
        demux = PipelineDemux()
        futures = [demux.register(tag) for tag in (1, 2, 3)]
        boom = ConnectionResetError("gone")
        assert demux.fail_all(boom) == 3
        for future in futures:
            with pytest.raises(ConnectionResetError):
                future.result(timeout=0)
        # Idempotent: nothing left to fail.
        assert demux.fail_all(boom) == 0

    def test_untagged_frames_do_not_match_tagged_waiters(self):
        """A FIFO (untagged) reply never routes to a tagged future: the two
        conventions coexist on one codec without a version bump."""
        demux = PipelineDemux()
        future = demux.register(1)
        untagged = wire.encode_info({"plain": True})
        assert not demux.resolve(untagged)
        assert demux.late_replies == 1
        assert not future.done()
