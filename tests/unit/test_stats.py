"""Unit tests for latency statistics."""

import base64
import math

import pytest

from repro.metrics.stats import LatencyStats, pack_samples, unpack_samples


def filled(values):
    stats = LatencyStats()
    stats.extend(values)
    return stats


class TestBasics:
    def test_empty(self):
        stats = LatencyStats()
        assert stats.count == 0
        assert math.isnan(stats.mean)
        # Regression: empty stddev used to report 0.0 while mean reported
        # NaN; empty aggregates must agree that there is no data.
        assert math.isnan(stats.stddev)
        with pytest.raises(ValueError):
            stats.minimum
        with pytest.raises(ValueError):
            stats.percentile(50)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats().add(-1)

    def test_extend_names_the_first_negative_sample_like_add(self):
        with pytest.raises(ValueError) as one:
            LatencyStats().add(-3)
        stats = filled([4])
        with pytest.raises(ValueError) as bulk:
            stats.extend([5, -3, 7, -9])
        assert str(bulk.value) == str(one.value) == "negative latency -3"
        # All or nothing: a rejected batch leaves the accumulator alone.
        assert stats.samples() == [4] and stats.mean == 4

    def test_extend_matches_repeated_add(self):
        values = [9, 0, 4, 4, 17]
        one_by_one = LatencyStats()
        for value in values:
            one_by_one.add(value)
        bulk = filled(values)
        assert bulk.samples() == one_by_one.samples()
        assert bulk.mean == one_by_one.mean
        assert bulk.percentile(99) == one_by_one.percentile(99) == 17

    def test_extend_consumes_a_generator_once(self):
        stats = filled(v * v for v in range(5))
        assert stats.samples() == [0, 1, 4, 9, 16]
        assert stats.mean == 6
        assert stats.percentile(100) == 16
        stats.extend(iter([3]))
        assert stats.percentile(100) == 16 and stats.percentile(0) == 0
        assert stats.count == 6

    def test_queries_never_reorder_samples(self):
        # A serialized result is compared and written by its sample
        # order, so reading a percentile (the CLI's p99, repr) must not
        # change what samples() returns afterwards.
        stats = filled([9, 0, 4, 17, 4])
        assert stats.percentile(50) == 4 and stats.percentile(100) == 17
        assert "p99=17" in repr(stats)
        assert stats.samples() == [9, 0, 4, 17, 4]

    def test_from_samples_copies_its_input(self):
        values = [3, 1, 2]
        stats = LatencyStats.from_samples(values)
        values.append(50)
        stats.add(7)
        assert values == [3, 1, 2, 50]
        assert stats.samples() == [3, 1, 2, 7] and stats.mean == 3.25

    def test_extend_with_nothing_changes_nothing(self):
        stats = filled([])
        assert stats.count == 0 and math.isnan(stats.mean)
        stats = filled([2, 1])
        stats.extend(iter(()))
        assert stats.samples() == [2, 1] and stats.mean == 1.5

    def test_mean_min_max(self):
        stats = filled([1, 2, 3, 4])
        assert stats.mean == 2.5
        assert stats.minimum == 1
        assert stats.maximum == 4

    def test_single_sample(self):
        stats = filled([7])
        assert stats.mean == 7
        assert stats.percentile(50) == 7
        assert stats.stddev == 0.0


class TestPercentiles:
    def test_median(self):
        assert filled(range(1, 101)).percentile(50) == 50

    def test_extremes(self):
        stats = filled(range(1, 101))
        assert stats.percentile(0) == 1
        assert stats.percentile(100) == 100

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            filled([1]).percentile(101)

    def test_order_independent(self):
        a = filled([5, 1, 9, 3])
        b = filled([1, 3, 5, 9])
        assert a.percentile(75) == b.percentile(75)

    def test_adding_after_query(self):
        stats = filled([1, 2, 3])
        stats.percentile(50)
        stats.add(100)
        assert stats.maximum == 100
        assert stats.percentile(100) == 100


class TestAggregation:
    def test_stddev(self):
        stats = filled([2, 4, 4, 4, 5, 5, 7, 9])
        assert stats.stddev == pytest.approx(2.138, abs=0.01)

    def test_merge(self):
        a = filled([1, 2])
        b = filled([3, 4])
        a.merge(b)
        assert a.count == 4
        assert a.mean == 2.5

    def test_repr(self):
        assert "empty" in repr(LatencyStats())
        assert "n=3" in repr(filled([1, 2, 3]))


class TestPackedForm:
    def test_empty_list_is_the_bare_typecode(self):
        assert pack_samples([]) == "B"
        assert unpack_samples("B") == []

    @pytest.mark.parametrize("top, code", [
        (0, "B"), (255, "B"), (256, "H"), (65_535, "H"), (65_536, "I"),
        (2**32 - 1, "I"), (2**32, "Q"), (2**64 - 1, "Q"),
    ])
    def test_narrowest_typecode_holds_the_largest_sample(self, top, code):
        text = pack_samples([3, top, 0])
        assert text[0] == code
        assert unpack_samples(text) == [3, top, 0]

    def test_bytes_are_little_endian(self):
        assert pack_samples([1, 256]) == "H" + base64.b64encode(
            b"\x01\x00\x00\x01"
        ).decode()

    @pytest.mark.parametrize("text", [
        "",  # no typecode
        "L" + base64.b64encode(bytes(8)).decode(),  # not one of BHIQ
        "HAA==",  # one byte: half an 'H' item
        "QAAAAAAAAAA=",  # seven bytes
        "BAA=!",  # non-alphabet character
        "BAA==!",  # the same after a whole item
        "B AA=",  # whitespace is not base64 either
        "BAA",  # missing padding
        "Bé",  # non-ASCII
    ])
    def test_malformed_text_is_a_value_error(self, text):
        with pytest.raises(ValueError):
            unpack_samples(text)

    def test_samples_past_64_bits_do_not_pack(self):
        with pytest.raises(OverflowError):
            pack_samples([2**64])

    def test_from_packed_rebuilds_the_accumulator(self):
        stats = filled([9, 0, 4, 17, 4])
        again = LatencyStats.from_packed(pack_samples(stats.samples()))
        assert again.samples() == [9, 0, 4, 17, 4]
        assert again.mean == stats.mean and again.count == 5

    def test_copy_is_independent(self):
        stats = filled([2, 1])
        twin = stats.copy()
        twin.add(9)
        assert stats.samples() == [2, 1] and stats.mean == 1.5
        assert twin.samples() == [2, 1, 9] and twin.mean == 4
