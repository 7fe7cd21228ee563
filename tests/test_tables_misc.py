"""Tests for the endurance table, write counter table and WNT."""

import pytest

from repro.errors import AddressError, TableError
from repro.tables.endurance_table import EnduranceTable
from repro.tables.write_counter import WriteCounterTable
from repro.tables.wnt import WriteNumberTable


class TestEnduranceTable:
    def test_lookup(self):
        table = EnduranceTable([100, 200, 300])
        assert table.lookup(1) == 200

    def test_entry_bits_default(self):
        assert EnduranceTable([1]).entry_bits == 27  # the paper's ET width

    def test_saturation_at_entry_width(self):
        table = EnduranceTable([1 << 30], bits=27)
        assert table.lookup(0) == (1 << 27) - 1
        assert table.saturated_entries == 1

    def test_paper_endurance_fits_27_bits(self):
        table = EnduranceTable([100_000_000], bits=27)
        assert table.saturated_entries == 0

    def test_as_array_is_copy(self):
        table = EnduranceTable([5, 6])
        copy = table.as_array()
        copy[0] = 999
        assert table.lookup(0) == 5

    def test_rejects_nonpositive(self):
        with pytest.raises(TableError):
            EnduranceTable([0, 1])

    def test_rejects_bad_width(self):
        with pytest.raises(TableError):
            EnduranceTable([1], bits=0)

    def test_out_of_range(self):
        with pytest.raises(AddressError):
            EnduranceTable([1]).lookup(1)


class TestWriteCounterTable:
    def test_triggers_at_interval(self):
        table = WriteCounterTable(2, bits=7, interval=4)
        results = [table.record_write(0) for _ in range(8)]
        assert results == [False, False, False, True, False, False, False, True]

    def test_interval_one_always_triggers(self):
        table = WriteCounterTable(1, bits=7, interval=1)
        assert all(table.record_write(0) for _ in range(10))

    def test_counters_independent(self):
        table = WriteCounterTable(2, interval=2)
        table.record_write(0)
        assert table.value(0) == 1
        assert table.value(1) == 0

    def test_force_trigger_next(self):
        table = WriteCounterTable(1, interval=32)
        table.force_trigger_next(0)
        assert table.record_write(0) is True
        assert table.record_write(0) is False

    def test_reset(self):
        table = WriteCounterTable(1, interval=8)
        table.record_write(0)
        table.reset(0)
        assert table.value(0) == 0

    def test_assign_sets_only_the_given_pages(self):
        table = WriteCounterTable(4, interval=8)
        table.record_write(1)
        table.record_write(3)
        table.assign({0: 5, 3: 7})
        assert [table.value(page) for page in range(4)] == [5, 1, 0, 7]
        assert table.record_write(3) is True

    def test_entry_bits(self):
        assert WriteCounterTable(1, bits=7, interval=32).entry_bits == 7

    def test_rejects_interval_exceeding_counter(self):
        with pytest.raises(TableError):
            WriteCounterTable(1, bits=3, interval=8)

    def test_out_of_range(self):
        with pytest.raises(AddressError):
            WriteCounterTable(2, interval=2).record_write(2)


class TestWriteNumberTable:
    def test_records_counts(self):
        table = WriteNumberTable(4)
        for _ in range(3):
            table.record_write(2)
        assert table.count(2) == 3
        assert table.total == 3

    def test_hottest_first_ordering(self):
        table = WriteNumberTable(4)
        for page, count in ((0, 2), (1, 5), (2, 1), (3, 5)):
            for _ in range(count):
                table.record_write(page)
        order = list(table.hottest_first())
        assert order[:2] == [1, 3]  # ties break toward lower addresses
        assert order[2:] == [0, 2]

    def test_saturates(self):
        table = WriteNumberTable(1, bits=2)
        for _ in range(10):
            table.record_write(0)
        assert table.count(0) == 3

    def test_clear(self):
        table = WriteNumberTable(2)
        table.record_write(0)
        table.clear()
        assert table.count(0) == 0
        assert table.total == 0

    def test_counts_copy(self):
        table = WriteNumberTable(2)
        counts = table.counts()
        counts[0] = 99
        assert table.count(0) == 0

    def test_rejects_empty(self):
        with pytest.raises(TableError):
            WriteNumberTable(0)

    def test_out_of_range(self):
        with pytest.raises(AddressError):
            WriteNumberTable(2).record_write(5)
