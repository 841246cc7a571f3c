"""Tests for figure-data CSV export."""

import csv
import io
import itertools

import pytest

from repro.core.parallel import verify_table
from repro.stats.verification import VerificationStats
from repro.stats.export import (
    fig1_rows,
    fig2_rows,
    fig3_rows,
    fig4_rows,
    fig5_rows,
    fig6_rows,
    write_csv,
)


@pytest.fixture(scope="module")
def stats(tiny_ir, tiny_world, tiny_routes):
    return verify_table(tiny_ir, tiny_world.topology, tiny_routes[:4000])


class TestFigureRows:
    def test_fig1_monotone_ccdf(self, tiny_ir):
        rows = fig1_rows(tiny_ir)
        assert rows[0]["rules"] == 0 and rows[0]["ccdf_all"] == 1.0
        values = [row["ccdf_all"] for row in rows]
        assert values == sorted(values, reverse=True)
        for row in rows:
            assert row["ccdf_bgpq4"] <= row["ccdf_all"] + 1e-9

    def test_fig2_one_row_per_as(self, stats):
        rows = fig2_rows(stats)
        assert len(rows) == len(stats.per_as)
        for row in rows:
            total = sum(
                row[label]
                for label in ("verified", "skip", "unrecorded", "relaxed", "safelisted", "unverified")
            )
            assert total == pytest.approx(1.0, abs=1e-3)
        assert [row["x"] for row in rows] == list(range(len(rows)))
        # correctness-ordered: verified fraction non-increasing
        verified = [row["verified"] for row in rows]
        assert verified == sorted(verified, reverse=True)

    def test_fig3_directions(self, stats):
        rows = fig3_rows(stats)
        assert {row["direction"] for row in rows} == {"import", "export"}
        assert len(rows) == len(stats.per_pair)

    def test_fig4_series(self, stats):
        rows = fig4_rows(stats)
        series = {row["series"] for row in rows}
        assert series == {"hop_fraction", "statuses_per_route", "single_status_route"}
        hop_fractions = [r["value"] for r in rows if r["series"] == "hop_fraction"]
        assert sum(hop_fractions) == pytest.approx(1.0, abs=1e-6)

    def test_fig5_fig6_complete(self, stats):
        assert len(fig5_rows(stats)) == 4
        assert len(fig6_rows(stats)) == 6


class TestFiguresDoNotDependOnMergeOrder:
    """A pooled run merges chunk stats in completion order; the figures may
    not show it.  (Figure 3's sort key used to stop at ``from_asn``, so pairs
    that tie kept whichever order ``per_pair`` had met them in.)"""

    _FIGURES = (fig2_rows, fig3_rows, fig4_rows, fig5_rows, fig6_rows)

    def test_every_figure_is_the_serial_folds_in_every_merge_order(
        self, tiny_verifier, tiny_routes
    ):
        reports = [tiny_verifier.verify_entry(entry) for entry in tiny_routes]
        serial = VerificationStats()
        for report in reports:
            serial.add_report(report)
        expected = [figure(serial) for figure in self._FIGURES]
        size = -(-len(reports) // 4)
        chunks = [reports[start : start + size] for start in range(0, len(reports), size)]
        assert len(chunks) == 4
        for order in itertools.permutations(range(4)):
            merged = VerificationStats()
            for index in order:
                partial = VerificationStats()
                for report in chunks[index]:
                    partial.add_report(report)
                merged.merge(partial)
            assert merged.summary() == serial.summary()
            if order != (0, 1, 2, 3):  # the tables really were built in another order
                assert list(merged.per_pair) != list(serial.per_pair)
            for figure, rows in zip(self._FIGURES, expected):
                assert figure(merged) == rows, (figure.__name__, order)


class TestCsvWriter:
    def test_roundtrip(self, stats):
        buffer = io.StringIO()
        write_csv(fig5_rows(stats), buffer)
        buffer.seek(0)
        rows = list(csv.DictReader(buffer))
        assert len(rows) == 4
        assert set(rows[0]) == {"reason", "ases"}

    def test_to_file(self, stats, tmp_path):
        path = tmp_path / "fig6.csv"
        write_csv(fig6_rows(stats), path)
        assert path.read_text().startswith("case,ases")

    def test_union_of_keys(self):
        buffer = io.StringIO()
        write_csv([{"a": 1}, {"a": 2, "b": 3}], buffer)
        buffer.seek(0)
        rows = list(csv.DictReader(buffer))
        assert rows[0]["b"] == "" and rows[1]["b"] == "3"

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            write_csv([], io.StringIO())
