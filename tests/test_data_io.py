"""Tests for the archive I/O formats (RouteViews RIB, VRP CSV)."""

from __future__ import annotations

import io

import pytest

from repro.bgp import Announcement
from repro.data import (
    ArchiveFormatError,
    RibFormatError,
    read_origin_pairs,
    read_rib,
    read_vrp_csv,
    write_origin_pairs,
    write_rib,
    write_vrp_csv,
)
from repro.data.allocation import AddressAllocator, AllocationError
from repro.data.routeviews import dumps_rib
from repro.netbase import AF_INET, AF_INET6, Prefix
from repro.rpki import Vrp


def p(text: str) -> Prefix:
    return Prefix.parse(text)


ANNOUNCEMENTS = [
    Announcement(p("168.122.0.0/16"), (3356, 111)),
    Announcement(p("2001:db8::/32"), (6939, 64512)),
]

VRPS = [
    Vrp(p("168.122.0.0/16"), 24, 111),
    Vrp(p("2001:db8::/32"), 32, 64512),
]


class TestRibFormat:
    def test_round_trip_memory(self):
        buffer = io.StringIO()
        assert write_rib(ANNOUNCEMENTS, buffer) == 2
        buffer.seek(0)
        assert list(read_rib(buffer)) == ANNOUNCEMENTS

    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "rib.txt"
        write_rib(ANNOUNCEMENTS, path)
        assert list(read_rib(path)) == ANNOUNCEMENTS

    def test_line_shape_matches_bgpdump(self):
        text = dumps_rib(ANNOUNCEMENTS[:1])
        fields = text.strip().split("|")
        assert fields[0] == "TABLE_DUMP2"
        assert fields[5] == "168.122.0.0/16"
        assert fields[6] == "3356 111"

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n" + dumps_rib(ANNOUNCEMENTS[:1])
        assert len(list(read_rib(io.StringIO(text)))) == 1

    def test_bad_prefix_raises_with_line_number(self):
        text = "TABLE_DUMP2|0|B|1.1.1.1|5|999.1.1.0/24|5 4|IGP\n"
        with pytest.raises(RibFormatError, match="line 1"):
            list(read_rib(io.StringIO(text)))

    def test_too_few_fields(self):
        with pytest.raises(RibFormatError):
            list(read_rib(io.StringIO("TABLE_DUMP2|0|B\n")))


class TestOriginPairsFormat:
    def test_round_trip(self, tmp_path):
        pairs = [(p("10.0.0.0/16"), 1), (p("2a00::/12"), 65000)]
        path = tmp_path / "pairs.txt"
        assert write_origin_pairs(pairs, path) == 2
        assert list(read_origin_pairs(path)) == pairs

    def test_bad_line(self):
        with pytest.raises(RibFormatError):
            list(read_origin_pairs(io.StringIO("10.0.0.0/16|x\n")))

    @pytest.mark.parametrize("origin", ["-5", "99999999999", ""])
    def test_origin_outside_32_bits_is_rejected_with_its_line(self, origin):
        text = f"# prefix|origin_as\n10.0.0.0/8|1\n10.0.0.0/8|{origin}\n"
        with pytest.raises(RibFormatError, match="line 3"):
            list(read_origin_pairs(io.StringIO(text)))


class TestVrpCsv:
    def test_round_trip_memory(self):
        buffer = io.StringIO()
        assert write_vrp_csv(VRPS, buffer) == 2
        buffer.seek(0)
        assert list(read_vrp_csv(buffer)) == VRPS

    def test_round_trip_file(self, tmp_path):
        path = tmp_path / "vrps.csv"
        write_vrp_csv(VRPS, path)
        assert list(read_vrp_csv(path)) == VRPS

    def test_header_is_validator_compatible(self):
        buffer = io.StringIO()
        write_vrp_csv(VRPS, buffer)
        header = buffer.getvalue().splitlines()[0]
        assert header == "URI,ASN,IP Prefix,Max Length,Not Before,Not After"

    def test_asn_prefix_tolerated(self):
        text = "URI,ASN,IP Prefix,Max Length\nx,111,10.0.0.0/16,24\n"
        assert list(read_vrp_csv(io.StringIO(text))) == [
            Vrp(p("10.0.0.0/16"), 24, 111)
        ]

    def test_bad_row_raises_with_row_number(self):
        text = "x,AS111,10.0.0.0/16,8\n"  # maxLength below prefix length
        with pytest.raises(ArchiveFormatError, match="row 1"):
            list(read_vrp_csv(io.StringIO(text)))

    def test_short_row_rejected(self):
        with pytest.raises(ArchiveFormatError):
            list(read_vrp_csv(io.StringIO("a,b\n")))

    def test_snapshot_round_trip(self, tiny_snapshot, tmp_path):
        path = tmp_path / "snapshot.csv"
        write_vrp_csv(tiny_snapshot.vrps, path)
        assert list(read_vrp_csv(path)) == tiny_snapshot.vrps


class TestAllocator:
    def test_blocks_are_disjoint_and_aligned(self):
        import random

        allocator = AddressAllocator()
        rng = random.Random(1)
        blocks = [
            allocator.allocate_random_size(AF_INET, rng) for _ in range(500)
        ]
        blocks.sort()
        for left, right in zip(blocks, blocks[1:]):
            assert not left.overlaps(right)
        for block in blocks:
            assert block.value % (1 << (32 - block.length)) == 0

    def test_ipv6_pool(self):
        import random

        allocator = AddressAllocator()
        block = allocator.allocate_random_size(AF_INET6, random.Random(1))
        assert block.family == AF_INET6
        assert p("2a00::/12").covers(block) or p("2c00::/12").covers(block)

    def test_request_larger_than_pool_rejected(self):
        allocator = AddressAllocator()
        with pytest.raises(AllocationError):
            allocator.allocate(AF_INET, 4)

    def test_exhaustion_raises(self):
        allocator = AddressAllocator()
        with pytest.raises(AllocationError):
            for _ in range(200):  # 126 /8 pools of /8 requests
                allocator.allocate(AF_INET, 8)
