"""Unit tests for packets and flits."""

import pytest

from repro.router.flit import Packet


def make_packet(size=3, **kw):
    defaults = dict(src=0, dst=5, size=size, creation_time=10)
    defaults.update(kw)
    return Packet(**defaults)


class TestPacket:
    def test_invalid_size(self):
        with pytest.raises(ValueError):
            make_packet(size=0)

    def test_unique_ids(self):
        assert make_packet().packet_id != make_packet().packet_id

    def test_latency_requires_ejection(self):
        p = make_packet()
        with pytest.raises(ValueError):
            p.latency
        p.ejection_time = 42
        assert p.latency == 32

    def test_default_flow_and_measured(self):
        p = make_packet()
        assert p.flow == "default"
        assert p.measured


class TestFlitSerialization:
    def test_multi_flit_structure(self):
        flits = make_packet(size=4).flits()
        assert len(flits) == 4
        assert flits[0].is_head and not flits[0].is_tail
        assert flits[-1].is_tail and not flits[-1].is_head
        assert all(not f.is_head and not f.is_tail for f in flits[1:-1])

    def test_single_flit_is_head_and_tail(self):
        (flit,) = make_packet(size=1).flits()
        assert flit.is_head and flit.is_tail

    def test_flits_share_packet(self):
        p = make_packet(size=2)
        flits = p.flits()
        assert all(f.packet is p for f in flits)
        assert [f.index for f in flits] == [0, 1]

    def test_flit_accessors(self):
        flit = make_packet(src=3, dst=9, size=1).flits()[0]
        assert flit.src == 3
        assert flit.dst == 9

    def test_repr_marks_kinds(self):
        p = make_packet(size=3)
        head, body, tail = p.flits()
        assert "H" in repr(head)
        assert "B" in repr(body)
        assert "T" in repr(tail)
        single = make_packet(size=1).flits()[0]
        assert "HT" in repr(single)
