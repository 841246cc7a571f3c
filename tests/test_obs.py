"""Tests for the observability subsystem (repro.obs)."""

import io
import json
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    SpanStore,
    build_manifest,
    cache_summary,
    digest_inputs,
    get_registry,
    load_manifest,
    parse_prometheus,
    render_prometheus,
    render_prometheus_snapshot,
    set_registry,
    timed_iter,
    use_registry,
    write_manifest,
)


class TestNullRegistry:
    def test_default_registry_is_null(self):
        registry = get_registry()
        assert isinstance(registry, NullRegistry)
        assert registry.enabled is False

    def test_instruments_have_zero_side_effects(self):
        registry = NULL_REGISTRY
        counter = registry.counter("anything", label="x")
        counter.inc()
        counter.inc(100)
        registry.gauge("g").set(3.5)
        registry.histogram("h").observe(0.25)
        snapshot = registry.snapshot()
        assert snapshot == {"counters": [], "gauges": [], "histograms": [], "spans": []}
        assert counter.value == 0

    def test_span_is_noop_context_manager(self):
        with NULL_REGISTRY.span("phase") as span:
            with NULL_REGISTRY.span("nested"):
                pass
        assert NULL_REGISTRY.snapshot()["spans"] == []
        assert span is not None

    def test_merge_snapshot_is_noop(self):
        live = MetricsRegistry()
        live.counter("c").inc(5)
        NULL_REGISTRY.merge_snapshot(live.snapshot())
        assert NULL_REGISTRY.snapshot()["counters"] == []


class TestRegistryInstallation:
    def test_use_registry_restores_previous(self):
        before = get_registry()
        with use_registry() as registry:
            assert get_registry() is registry
            assert registry.enabled
        assert get_registry() is before

    def test_use_registry_nests_and_resets_on_an_exception(self):
        before = get_registry()
        outer_registry, inner_registry = MetricsRegistry(), MetricsRegistry()
        with use_registry(outer_registry) as outer:
            assert outer is outer_registry
            with pytest.raises(RuntimeError):
                with use_registry(inner_registry) as inner:
                    assert inner is inner_registry
                    assert get_registry() is inner_registry
                    raise RuntimeError("inside the inner scope")
            assert get_registry() is outer_registry
        assert get_registry() is before

    def test_set_registry_none_restores_null(self):
        previous = set_registry(MetricsRegistry())
        try:
            assert get_registry().enabled
        finally:
            set_registry(None)
        assert not get_registry().enabled
        set_registry(previous)


class TestCounterGauge:
    def test_counter_accumulates_and_is_keyed_by_labels(self):
        registry = MetricsRegistry()
        registry.counter("objects", irr="RIPE").inc(3)
        registry.counter("objects", irr="RIPE").inc(4)
        registry.counter("objects", irr="RADB").inc(1)
        assert registry.counter("objects", irr="RIPE").value == 7
        assert registry.counter("objects", irr="RADB").value == 1

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("dual")
        with pytest.raises(TypeError):
            registry.gauge("dual")


class TestHistogramBuckets:
    def test_boundary_values_land_in_their_le_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0, 1.0001, 2.0, 4.0, 4.5, 100.0):
            histogram.observe(value)
        # le=1: {0.5, 1.0}; le=2: {1.0001, 2.0}; le=4: {4.0}; +Inf: {4.5, 100}
        assert histogram.bucket_counts == [2, 2, 1, 2]
        assert histogram.count == 7
        assert histogram.sum == pytest.approx(113.0001)

    def test_cumulative_ends_with_total(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        for value in (0.1, 1.5, 9.0):
            histogram.observe(value)
        assert histogram.cumulative() == [(1.0, 1), (2.0, 2), (float("inf"), 3)]

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("bad", buckets=(2.0, 1.0))


class TestSpans:
    def test_nested_paths_and_monotonic_timing(self):
        store = SpanStore()
        with store.span("parse"):
            with store.span("lex"):
                time.sleep(0.01)
            time.sleep(0.01)
        parent = store.get("parse")
        child = store.get("parse/lex")
        assert parent.count == 1 and child.count == 1
        assert child.wall_s > 0
        # A parent span's wall time includes all of its children's.
        assert parent.wall_s >= child.wall_s
        assert parent.cpu_s >= 0 and child.cpu_s >= 0

    def test_repeat_spans_aggregate(self):
        store = SpanStore()
        for _ in range(3):
            with store.span("phase"):
                pass
        assert store.get("phase").count == 3

    def test_add_timing_folds_external_measurements(self):
        store = SpanStore()
        store.add_timing("verify/worker", 1.5, 0.5, count=2)
        store.add_timing("verify/worker", 0.5, 0.25, count=1)
        aggregate = store.get("verify/worker")
        assert aggregate.count == 3
        assert aggregate.wall_s == pytest.approx(2.0)
        assert aggregate.cpu_s == pytest.approx(0.75)

    def test_timed_iter_charges_producer_time(self):
        store = SpanStore()

        def slow_gen():
            for item in range(3):
                time.sleep(0.002)
                yield item

        with store.span("parse"):
            assert list(timed_iter(slow_gen(), store, "lex")) == [0, 1, 2]
        lex = store.get("parse/lex")
        assert lex.count == 3
        assert 0 < lex.wall_s <= store.get("parse").wall_s


class TestSnapshotMerge:
    def test_merge_sums_counters_and_histograms(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        for registry, n in ((a, 2), (b, 5)):
            registry.counter("c", k="v").inc(n)
            h = registry.histogram("h", buckets=(1.0, 2.0))
            h.observe(0.5)
            registry.spans.add_timing("phase", float(n))
        a.merge_snapshot(b.snapshot())
        assert a.counter("c", k="v").value == 7
        assert a.histogram("h", buckets=(1.0, 2.0)).count == 2
        assert a.spans.get("phase").wall_s == pytest.approx(7.0)
        assert a.spans.get("phase").count == 2

    def test_merge_round_trips_through_json(self):
        source = MetricsRegistry()
        source.counter("c").inc(3)
        source.gauge("g").set(0.5)
        wire = json.loads(json.dumps(source.snapshot()))
        target = MetricsRegistry()
        target.merge_snapshot(wire)
        assert target.counter("c").value == 3
        assert target.gauge("g").value == 0.5

    def test_merge_keeps_label_sets_distinct(self):
        source = MetricsRegistry()
        source.counter("hops", status="verified").inc(2)
        source.counter("hops", status="skip").inc(5)
        source.counter("hops", status="verified", irr="RIPE").inc(1)
        target = MetricsRegistry()
        target.counter("hops", status="verified").inc(10)
        target.merge_snapshot(source.snapshot())
        assert target.counter("hops", status="verified").value == 12
        assert target.counter("hops", status="skip").value == 5
        assert target.counter("hops", status="verified", irr="RIPE").value == 1

    def test_merge_rejects_histogram_bucket_mismatch(self):
        source = MetricsRegistry()
        source.histogram("h", buckets=(1.0, 2.0, 4.0)).observe(0.5)
        target = MetricsRegistry()
        target.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
        with pytest.raises(ValueError, match="bucket bounds differ"):
            target.merge_snapshot(source.snapshot())

    def test_merge_rejects_kind_conflict(self):
        source = MetricsRegistry()
        source.counter("dual").inc(1)
        target = MetricsRegistry()
        target.gauge("dual").set(1.0)
        with pytest.raises(TypeError):
            target.merge_snapshot(source.snapshot())

    def test_merge_null_snapshot_changes_nothing(self):
        target = MetricsRegistry()
        target.counter("c").inc(4)
        before = target.snapshot()
        target.merge_snapshot(NULL_REGISTRY.snapshot())
        assert target.snapshot() == before

    def test_merge_empty_and_partial_snapshots(self):
        target = MetricsRegistry()
        target.merge_snapshot({})  # no sections at all
        target.merge_snapshot({"counters": [{"name": "c", "labels": {}, "value": 2}]})
        assert target.counter("c").value == 2
        assert target.snapshot()["gauges"] == []


class TestDrain:
    """``drain`` hands over what was recorded since the last drain: a pool
    worker ships one per chunk and the parent merges them."""

    def test_deltas_are_exact_across_three_drains(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", k="v")
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        merged = MetricsRegistry()
        for n in (2, 3, 4):
            counter.inc(n)
            for _ in range(n):
                histogram.observe(1.5)
            registry.spans.add_timing("phase", float(n), cpu_s=0.5)
            drained = registry.drain()
            (c,) = drained["counters"]
            (h,) = drained["histograms"]
            (span,) = drained["spans"]
            assert c["value"] == n
            assert h["bucket_counts"] == [0, n, 0]
            assert h["count"] == n and h["sum"] == pytest.approx(1.5 * n)
            assert span == {"path": "phase", "count": 1, "wall_s": n, "cpu_s": 0.5}
            merged.merge_snapshot(json.loads(json.dumps(drained)))
        assert merged.counter("c", k="v").value == 9
        assert merged.histogram("h", buckets=(1.0, 2.0)).bucket_counts == [0, 9, 0]
        assert merged.spans.get("phase").count == 3
        assert merged.spans.get("phase").wall_s == pytest.approx(9.0)

    def test_gauges_pass_through(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(0.25)
        assert registry.drain()["gauges"] == [{"name": "g", "labels": {}, "value": 0.25}]
        assert registry.drain()["gauges"] == [{"name": "g", "labels": {}, "value": 0.25}]
        assert registry.gauge("g").value == 0.25

    def test_nothing_new_gives_no_records(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(0.1)
        with registry.span("phase"):
            pass
        registry.drain()
        assert registry.drain() == {
            "counters": [],
            "gauges": [],
            "histograms": [],
            "spans": [],
        }

    def test_a_fresh_instrument_is_drained_even_at_zero(self):
        """So the receiving registry holds it too, as the sender's does."""
        registry = MetricsRegistry()
        registry.drain()
        registry.counter("idle")
        (record,) = registry.drain()["counters"]
        assert record == {"name": "idle", "labels": {}, "value": 0}
        assert registry.drain()["counters"] == []

    def test_a_pre_bound_counter_still_records_after_a_drain(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")  # bound once, like a verifier's
        counter.inc(5)
        registry.drain()
        counter.inc(2)
        assert registry.counter("c") is counter
        assert registry.drain()["counters"] == [{"name": "c", "labels": {}, "value": 2}]

    def test_null_registry_drains_empty(self):
        NULL_REGISTRY.counter("c").inc()
        with NULL_REGISTRY.span("phase"):
            pass
        assert NULL_REGISTRY.drain() == NULL_REGISTRY.snapshot()
        assert NULL_REGISTRY.drain() == {
            "counters": [],
            "gauges": [],
            "histograms": [],
            "spans": [],
        }


class TestPrometheusRoundTrip:
    def _snapshot(self):
        registry = MetricsRegistry()
        registry.counter("verify_hops_total", status="verified").inc(7)
        registry.counter("verify_hops_total", status="unverified").inc(3)
        registry.counter("lex_objects_total").inc(100)
        registry.gauge("verify_hop_cache_hit_rate").set(0.625)
        histogram = registry.histogram("verify_hop_seconds", buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.005, 0.05, 5.0):
            histogram.observe(value)
        return registry.snapshot()

    def test_text_round_trips_to_snapshot_shape(self):
        snapshot = self._snapshot()
        text = render_prometheus_snapshot(snapshot)
        parsed = parse_prometheus(text)

        def by_key(records):
            return {
                (r["name"], tuple(sorted(r["labels"].items()))): r for r in records
            }

        assert by_key(parsed["counters"]) == by_key(snapshot["counters"])
        assert by_key(parsed["gauges"]) == by_key(snapshot["gauges"])
        (histogram,) = parsed["histograms"]
        (original,) = snapshot["histograms"]
        assert histogram["buckets"] == original["buckets"]
        assert histogram["bucket_counts"] == original["bucket_counts"]
        assert histogram["count"] == original["count"]
        assert histogram["sum"] == pytest.approx(original["sum"])

    def test_merged_parse_result_is_mergeable(self):
        # The parsed snapshot must satisfy merge_snapshot's expectations.
        parsed = parse_prometheus(render_prometheus_snapshot(self._snapshot()))
        registry = MetricsRegistry()
        registry.merge_snapshot(parsed)
        assert registry.counter("verify_hops_total", status="verified").value == 7

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus_snapshot(
            {"counters": [], "gauges": [], "histograms": []}
        ) == ""
        assert parse_prometheus("") == {"counters": [], "gauges": [], "histograms": []}


class TestCacheSummary:
    def test_missing_cache_dir_reports_none(self, tmp_path):
        manifest = build_manifest("run", MetricsRegistry())
        absent = tmp_path / "never-created"
        caches = cache_summary(manifest, cache_dir=absent)
        assert caches["disk_cache_entries"] is None
        assert caches["disk_cache_bytes"] == 0
        assert caches["disk_cache_dir"] == str(absent)

    def test_rule_plans_account_for_every_hop_cache_miss(
        self, tiny_ir, tiny_world, tiny_routes, tmp_path
    ):
        from repro.core.verify import Verifier

        with use_registry(MetricsRegistry()) as registry:
            verifier = Verifier(tiny_ir, tiny_world.topology)
            for entry in tiny_routes[:400]:
                verifier.verify_entry(entry)
            caches = cache_summary(build_manifest("run", registry), cache_dir=tmp_path)
        assert caches["rule_plans_built"] == len(verifier._rule_plans) > 0
        assert caches["rule_plan_hits"] > caches["rule_plans_built"]
        assert (
            caches["rule_plans_built"] + caches["rule_plan_hits"]
            == caches["hop_cache_misses"]
            == verifier.hop_cache_misses
        )
        # Checks a verdict plan answered are neither hits nor misses.
        hops = caches["hop_cache_hits"] + caches["hop_cache_misses"]
        assert caches["rule_plan_verdicts"] == verifier.plan_verdicts > 0
        assert caches["rule_plan_verdicts"] + hops == sum(
            record["value"]
            for record in registry.snapshot()["counters"]
            if record["name"] == "verify_hops_total"
        )

    def test_populated_cache_dir_is_counted(self, tmp_path):
        (tmp_path / "a.idx").write_bytes(b"x" * 10)
        (tmp_path / "b.idx").write_bytes(b"y" * 5)
        caches = cache_summary(build_manifest("run", MetricsRegistry()), cache_dir=tmp_path)
        assert caches["disk_cache_entries"] == 2
        assert caches["disk_cache_bytes"] == 15


class TestManifest:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("verify_hops_total", status="verified").inc(10)
        registry.gauge("verify_hop_cache_hit_rate").set(0.75)
        registry.histogram("verify_hop_seconds", buckets=(0.001, 0.01)).observe(0.005)
        with registry.span("verify"):
            pass
        return registry

    def test_round_trips_through_json(self, tmp_path):
        manifest = build_manifest("test-run", self._registry(), config={"seed": 42})
        path = tmp_path / "run.json"
        write_manifest(path, manifest)
        assert load_manifest(path) == json.loads(json.dumps(manifest))

    def test_stream_round_trip(self):
        manifest = build_manifest("test-run", self._registry())
        buffer = io.StringIO()
        write_manifest(buffer, manifest)
        buffer.seek(0)
        assert load_manifest(buffer) == manifest

    def test_load_rejects_foreign_documents(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError):
            load_manifest(path)

    def test_contains_versions_phases_and_digests(self, tmp_path):
        data = tmp_path / "input.txt"
        data.write_text("hello\n")
        manifest = build_manifest("run", self._registry(), inputs=[data])
        assert manifest["versions"]["repro"]
        assert manifest["versions"]["python"]
        assert "verify" in manifest["phases"]
        assert set(manifest["phases"]["verify"]) == {"count", "wall_s", "cpu_s"}
        (record,) = manifest["inputs"]
        assert record["bytes"] == 6
        assert len(record["sha256"]) == 64

    def test_missing_input_digested_as_absent(self):
        records = digest_inputs(["/nonexistent/file.txt"])
        assert records[0]["sha256"] is None

    def test_prometheus_rendering(self):
        manifest = build_manifest("run", self._registry())
        text = render_prometheus(manifest)
        assert '# TYPE verify_hops_total counter' in text
        assert 'verify_hops_total{status="verified"} 10' in text
        assert "verify_hop_cache_hit_rate 0.75" in text
        assert 'verify_hop_seconds_bucket{le="+Inf"} 1' in text
        assert 'repro_phase_wall_seconds{phase="verify"}' in text


class TestCliMetrics:
    @pytest.fixture(scope="class")
    def world_dir(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("obs-world")
        assert main(["synth", str(directory), "--preset", "tiny", "--routes"]) == 0
        return directory

    def test_verify_writes_manifest(self, world_dir, tmp_path, capsys):
        ir_path = tmp_path / "ir.json"
        assert main(["parse", str(world_dir), "-o", str(ir_path)]) == 0
        manifest_path = tmp_path / "run.json"
        code = main(
            [
                "verify",
                "--ir", str(ir_path),
                "--as-rel", str(world_dir / "as-rel.txt"),
                "--table", str(world_dir / "table.txt"),
                "--metrics", str(manifest_path),
            ]
        )
        assert code == 0
        capsys.readouterr()
        manifest = load_manifest(manifest_path)
        # per-phase wall/CPU timings
        assert manifest["phases"]["verify"]["wall_s"] > 0
        assert manifest["phases"]["verify"]["cpu_s"] >= 0
        # per-status hop counters
        statuses = {
            record["labels"]["status"]: record["value"]
            for record in manifest["metrics"]["counters"]
            if record["name"] == "verify_hops_total"
        }
        assert sum(statuses.values()) > 0
        # hop-cache hit rate gauge
        (rate,) = [
            record["value"]
            for record in manifest["metrics"]["gauges"]
            if record["name"] == "verify_hop_cache_hit_rate"
        ]
        assert 0.0 <= rate <= 1.0
        # input digests cover all three files
        assert len(manifest["inputs"]) == 3
        assert all(record["sha256"] for record in manifest["inputs"])

    def test_parse_manifest_has_lex_phases(self, world_dir, tmp_path, capsys):
        manifest_path = tmp_path / "parse.json"
        ir_path = tmp_path / "ir.json"
        assert main(
            ["parse", str(world_dir), "-o", str(ir_path), "--metrics", str(manifest_path)]
        ) == 0
        capsys.readouterr()
        manifest = load_manifest(manifest_path)
        assert any(path.startswith("parse/") for path in manifest["phases"])
        assert any(path.endswith("/lex") for path in manifest["phases"])
        assert "merge" in manifest["phases"]
        counters = {record["name"] for record in manifest["metrics"]["counters"]}
        assert "lex_objects_total" in counters
        assert "merge_wins_total" in counters

    def test_metrics_subcommand_renders(self, world_dir, tmp_path, capsys):
        ir_path = tmp_path / "ir.json"
        manifest_path = tmp_path / "run.json"
        main(["parse", str(world_dir), "-o", str(ir_path), "--metrics", str(manifest_path)])
        capsys.readouterr()
        assert main(["metrics", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE lex_objects_total counter" in out
        assert "repro_phase_wall_seconds" in out

    def test_no_metrics_flag_leaves_registry_null(self, world_dir, tmp_path, capsys):
        ir_path = tmp_path / "ir.json"
        assert main(["parse", str(world_dir), "-o", str(ir_path)]) == 0
        capsys.readouterr()
        assert not get_registry().enabled


class TestCliMetricsFormats:
    @pytest.fixture(scope="class")
    def manifest_path(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("metrics-world")
        assert main(["synth", str(directory), "--preset", "tiny"]) == 0
        path = tmp_path_factory.mktemp("metrics-out") / "parse.json"
        ir_path = path.parent / "ir.json"
        assert main(
            ["parse", str(directory), "-o", str(ir_path), "--metrics", str(path)]
        ) == 0
        return path

    def test_format_json_dumps_whole_manifest(self, manifest_path, capsys):
        assert main(["metrics", str(manifest_path), "--format", "json"]) == 0
        out = capsys.readouterr().out
        document = json.loads(out)
        assert document == load_manifest(manifest_path)

    def test_prom_output_round_trips(self, manifest_path, capsys):
        assert main(["metrics", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        parsed = parse_prometheus(out)
        counters = {record["name"] for record in parsed["counters"]}
        assert "lex_objects_total" in counters
        # repro_phase_* gauges ride along in the same parseable text.
        gauges = {record["name"] for record in parsed["gauges"]}
        assert any(name.startswith("repro_phase_") for name in gauges)

    def test_json_histograms_carry_cumulative_buckets(self, tmp_path, capsys):
        """``--format json`` must spell out each histogram's cumulative
        [le, count] pairs, aligned with what the Prometheus rendering
        exposes — external percentile math never reverse-engineers the
        implicit +Inf bucket."""
        from repro.obs import cumulative_view

        registry = MetricsRegistry()
        histogram = registry.histogram(
            "demo_seconds", buckets=(0.1, 1.0), stage="queue"
        )
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        manifest = build_manifest("verify", registry)
        path = tmp_path / "hist.json"
        write_manifest(path, manifest)
        assert main(["metrics", str(path), "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        record = next(
            r
            for r in document["metrics"]["histograms"]
            if r["name"] == "demo_seconds"
        )
        assert record["cumulative"] == [[0.1, 1], [1.0, 3], ["+Inf", 4]]
        assert record["cumulative"] == cumulative_view(record)
        # round-trip: the prom text's cumulative bucket samples agree
        parsed = parse_prometheus(render_prometheus(manifest))
        prom = next(
            r for r in parsed["histograms"] if r["name"] == "demo_seconds"
        )
        assert prom["count"] == record["count"] == 4

    def test_out_writes_file_instead_of_stdout(self, manifest_path, tmp_path, capsys):
        out_path = tmp_path / "metrics.prom"
        assert main(
            ["metrics", str(manifest_path), "--out", str(out_path)]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(out_path) in captured.err
        assert "# TYPE" in out_path.read_text(encoding="utf-8")

    def test_missing_cache_dir_prints_no_cache_line(
        self, manifest_path, tmp_path, capsys
    ):
        absent = tmp_path / "no-such-cache"
        assert main(
            ["metrics", str(manifest_path), "--cache-dir", str(absent)]
        ) == 0
        err = capsys.readouterr().err
        assert f"index disk cache: none ({absent} does not exist)" in err

    def test_existing_cache_dir_prints_artifact_count(
        self, manifest_path, tmp_path, capsys
    ):
        (tmp_path / "one.idx").write_bytes(b"abc")
        assert main(
            ["metrics", str(manifest_path), "--cache-dir", str(tmp_path)]
        ) == 0
        err = capsys.readouterr().err
        assert "index disk cache: 1 artifact(s), 3 bytes" in err


class TestManifestResources:
    """``peak_rss_kb`` replaced the ``--profile`` resource timeline (1.20.0)."""

    OLD_MANIFEST = Path(__file__).parent / "data" / "run-manifest-1.19.0-profile.json"

    def test_every_metrics_manifest_records_peak_rss(self, tmp_path, capsys):
        directory = tmp_path / "world"
        assert main(["synth", str(directory), "--preset", "tiny"]) == 0
        manifest_path = tmp_path / "run.json"
        assert main(
            [
                "parse", str(directory),
                "-o", str(tmp_path / "ir.json"),
                "--metrics", str(manifest_path),
            ]
        ) == 0
        capsys.readouterr()
        manifest = load_manifest(manifest_path)
        assert manifest["peak_rss_kb"] > 0
        assert "profile" not in manifest

    def test_manifest_with_a_profile_still_loads_and_prints(self, capsys):
        """A manifest written by 1.19.0's ``verify --metrics --profile``."""
        manifest = load_manifest(self.OLD_MANIFEST)
        assert manifest["profile"]["sample_count"] == 1
        assert main(["metrics", str(self.OLD_MANIFEST)]) == 0
        out = capsys.readouterr().out
        assert 'repro_phase_wall_seconds{phase="verify"}' in out
        assert main(["metrics", str(self.OLD_MANIFEST), "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["profile"] == manifest["profile"]

    def test_profile_flag_is_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "parse", str(tmp_path),
                    "-o", str(tmp_path / "ir.json"),
                    "--metrics", str(tmp_path / "run.json"),
                    "--profile",
                ]
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: --profile" in capsys.readouterr().err
        assert not (tmp_path / "run.json").exists()

