"""Tests for bulk verification: serial/parallel parity and merging."""

import gc
import multiprocessing
import threading
from functools import partial

import pytest

from repro.chaos.faults import KillWorkerChunk, RaiseOnChunk, hang_a_worker_at
from repro.core import parallel, pool
from repro.core.parallel import verify_table
from repro.core.pool import SupervisorConfig, _verify_chunk
from repro.core.verify import Verifier
from repro.obs import MetricsRegistry, use_registry
from repro.stats.verification import VerificationStats


def _serial(ir, world, routes):
    return verify_table(ir, world.topology, routes, processes=1)


@pytest.fixture(scope="module")
def baseline(tiny_ir, tiny_world, tiny_routes):
    return _serial(tiny_ir, tiny_world, tiny_routes)


class TestSequential:
    def test_aggregates_whole_table(self, baseline, tiny_routes):
        assert baseline.routes_total == len(tiny_routes)
        assert sum(baseline.hop_totals.values()) > 0

    def test_accepts_streaming_iterable(self, tiny_ir, tiny_world, tiny_routes, baseline):
        stats = verify_table(tiny_ir, tiny_world.topology, iter(tiny_routes))
        assert stats.hop_totals == baseline.hop_totals

    def test_on_report_sees_every_route(self, tiny_ir, tiny_world, tiny_routes):
        seen = []
        verify_table(
            tiny_ir, tiny_world.topology, tiny_routes[:100], on_report=seen.append
        )
        assert len(seen) == 100


class TestSerialPassPausesTheCyclicCollector:
    """The pause is bounded, never covers the caller's iterator, and is undone."""

    def _run(self, tiny_ir, tiny_world, tiny_routes, monkeypatch, on_report=None):
        monkeypatch.setattr(parallel, "_GC_PAUSE_ROUTES", 40)
        during_iteration = []

        def entries():
            for entry in tiny_routes[:100]:
                during_iteration.append(gc.isenabled())
                yield entry

        during_reports = []

        def report(route_report):
            during_reports.append(gc.isenabled())
            if on_report is not None:
                on_report(route_report)

        stats = verify_table(tiny_ir, tiny_world.topology, entries(), on_report=report)
        return stats, during_iteration, during_reports

    def test_paused_per_batch_and_restored(
        self, tiny_ir, tiny_world, tiny_routes, baseline, monkeypatch
    ):
        assert gc.isenabled()
        stats, during_iteration, during_reports = self._run(
            tiny_ir, tiny_world, tiny_routes, monkeypatch
        )
        assert gc.isenabled()
        assert during_iteration == [True] * 100  # the caller's generator: never paused
        assert during_reports == [False] * 100
        assert stats.summary() == _serial(tiny_ir, tiny_world, tiny_routes[:100]).summary()

    def test_restored_when_a_callback_raises(
        self, tiny_ir, tiny_world, tiny_routes, monkeypatch
    ):
        def boom(route_report):
            raise RuntimeError("callback failed")

        with pytest.raises(RuntimeError, match="callback failed"):
            self._run(tiny_ir, tiny_world, tiny_routes, monkeypatch, on_report=boom)
        assert gc.isenabled()

    def test_a_collector_the_caller_disabled_stays_disabled(
        self, tiny_ir, tiny_world, tiny_routes, monkeypatch
    ):
        gc.disable()
        try:
            _, during_iteration, _ = self._run(tiny_ir, tiny_world, tiny_routes, monkeypatch)
            assert not gc.isenabled()
            assert during_iteration == [False] * 100
        finally:
            gc.enable()


class TestMerge:
    def test_merge_equals_whole(self, tiny_ir, tiny_world, tiny_routes):
        half = len(tiny_routes) // 2
        first = _serial(tiny_ir, tiny_world, tiny_routes[:half])
        second = _serial(tiny_ir, tiny_world, tiny_routes[half:])
        first.merge(second)
        whole = _serial(tiny_ir, tiny_world, tiny_routes)
        assert first.hop_totals == whole.hop_totals
        assert first.routes_total == whole.routes_total
        assert first.route_single_status == whole.route_single_status
        assert first.summary() == whole.summary()

    def test_merge_into_empty(self, baseline):
        empty = VerificationStats()
        empty.merge(baseline)
        assert empty.hop_totals == baseline.hop_totals
        assert empty.unverified_hops == baseline.unverified_hops


class TestParallel:
    def test_parallel_matches_sequential(self, tiny_ir, tiny_world, tiny_routes):
        sample = tiny_routes[:3000]
        expected = _serial(tiny_ir, tiny_world, sample)
        parallel = verify_table(
            tiny_ir, tiny_world.topology, sample, processes=2, chunk_size=500
        )
        assert parallel.hop_totals == expected.hop_totals
        assert parallel.routes_total == expected.routes_total
        assert parallel.per_as.keys() == expected.per_as.keys()
        for asn in expected.per_as:
            assert parallel.per_as[asn].counts == expected.per_as[asn].counts

    def test_parallel_streams_chunks_lazily(self, tiny_ir, tiny_world, tiny_routes):
        sample = tiny_routes[:1500]
        expected = _serial(tiny_ir, tiny_world, sample)
        stats = verify_table(
            tiny_ir, tiny_world.topology, iter(sample), processes=2, chunk_size=300
        )
        assert stats.hop_totals == expected.hop_totals

    def test_small_input_falls_back(self, tiny_ir, tiny_world, tiny_routes):
        stats = verify_table(
            tiny_ir, tiny_world.topology, tiny_routes[:10], processes=4, chunk_size=2000
        )
        assert stats.routes_total == 10

    def test_empty_input(self, tiny_ir, tiny_world):
        stats = verify_table(tiny_ir, tiny_world.topology, [], processes=4)
        assert stats.routes_total == 0

    def test_single_process_requested(self, tiny_ir, tiny_world, tiny_routes):
        stats = verify_table(tiny_ir, tiny_world.topology, tiny_routes[:50], processes=1)
        assert stats.routes_total == 50


class TestStartMethods:
    """The parallel path must not depend on fork being available."""

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_start_method_matches_serial(
        self, tiny_ir, tiny_world, tiny_routes, start_method
    ):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {start_method!r} unavailable here")
        sample = tiny_routes[:1200]
        expected = _serial(tiny_ir, tiny_world, sample)
        stats = verify_table(
            tiny_ir,
            tiny_world.topology,
            sample,
            processes=2,
            chunk_size=300,
            start_method=start_method,
        )
        assert stats.hop_totals == expected.hop_totals
        assert stats.summary() == expected.summary()
        assert _live_pool_workers() == []


def _live_pool_workers() -> list:
    return [
        child
        for child in multiprocessing.active_children()
        if child.name.startswith("rpslyzer-verify-worker")
    ]


def _counter_values(registry: MetricsRegistry, name: str) -> dict:
    return {
        tuple(sorted(record["labels"].items())): record["value"]
        for record in registry.snapshot()["counters"]
        if record["name"] == name
    }


class TestWorkerMetricsResilience:
    """Degraded parallel runs must still report *exact* metrics.

    The per-chunk drained deltas shipped back to the parent have to stay
    an exact sum under every failure mode: a SIGKILLed worker (whole
    attempt lost, chunk re-verified elsewhere), a SIGSTOPped one (caught
    by the chunk's hang bound or the heartbeat), an in-worker exception
    (chunk handed back by a worker that survives), and a mid-chunk
    failure after some hops were already recorded into the worker's
    registry.
    """

    def test_killed_worker_metrics_match_serial(self, tiny_ir, tiny_world, tiny_routes):
        with use_registry(MetricsRegistry()) as expected_registry:
            expected = verify_table(
                tiny_ir, tiny_world.topology, tiny_routes, processes=1
            )
        with use_registry(MetricsRegistry()) as observed_registry:
            observed = verify_table(
                tiny_ir,
                tiny_world.topology,
                tiny_routes,
                processes=2,
                chunk_size=max(1, len(tiny_routes) // 8),
                fault_hook=KillWorkerChunk(1),
            )
        assert observed.hop_totals == expected.hop_totals
        for name in ("verify_routes_total", "verify_hops_total"):
            assert _counter_values(observed_registry, name) == _counter_values(
                expected_registry, name
            ), name
        kinds = observed.degradation.by_kind()
        assert kinds.get("verify/worker-crashed", 0) >= 1

    def test_raised_chunk_metrics_match_serial(self, tiny_ir, tiny_world, tiny_routes):
        sample = tiny_routes[:600]
        with use_registry(MetricsRegistry()) as expected_registry:
            expected = verify_table(tiny_ir, tiny_world.topology, sample, processes=1)
        with use_registry(MetricsRegistry()) as observed_registry:
            observed = verify_table(
                tiny_ir,
                tiny_world.topology,
                sample,
                processes=2,
                chunk_size=100,
                fault_hook=RaiseOnChunk(1),
            )
        assert observed.hop_totals == expected.hop_totals
        for name in ("verify_routes_total", "verify_hops_total"):
            assert _counter_values(observed_registry, name) == _counter_values(
                expected_registry, name
            ), name
        # The worker survived and nothing was retried in the pool: the one
        # event is the chunk's in-process verification.
        assert observed.degradation.by_kind() == {"verify/chunk-serial-fallback": 1}

    def test_mid_chunk_failure_is_drained_and_discarded(
        self, tiny_ir, tiny_world, tiny_routes
    ):
        # Drive the worker's chunk function in-process: a chunk that dies
        # halfway records its partial work into the worker's registry, so
        # the failure must drain it away or the next chunk's deltas
        # double-count.
        chunk_a = tiny_routes[:40]
        chunk_b = tiny_routes[40:80]
        with use_registry(MetricsRegistry()) as worker_registry:
            verifier = Verifier(tiny_ir, tiny_world.topology)  # binds its instruments
            _, _, delta_a, _ = _verify_chunk(verifier, 0, chunk_a, None)
            with pytest.raises(AttributeError):
                _verify_chunk(verifier, 1, chunk_b[:10] + [None], None)  # poisoned
            _, _, delta_b, _ = _verify_chunk(verifier, 1, chunk_b, None)
            # The drains zeroed the worker's registry in place.
            assert worker_registry.counter("verify_routes_total").value == 0
        merged = MetricsRegistry()
        merged.merge_snapshot(delta_a)
        merged.merge_snapshot(delta_b)
        assert merged.counter("verify_routes_total").value == len(chunk_a) + len(
            chunk_b
        )

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_hung_worker_mid_table_matches_serial(
        self, tiny_ir, tiny_world, tiny_routes, start_method, monkeypatch
    ):
        """SIGSTOP one worker, by pid, while the table is in flight: its
        chunk is re-verified elsewhere and the run stays exact."""
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {start_method!r} unavailable here")
        # Only the waiting is shortened: the table client builds its pool
        # from SupervisorConfig's defaults.
        monkeypatch.setattr(
            pool,
            "SupervisorConfig",
            partial(
                SupervisorConfig,
                hang_timeout=1.0,
                heartbeat_interval=0.1,
                heartbeat_timeout=0.5,
            ),
        )
        sample = tiny_routes[:1500]
        with use_registry(MetricsRegistry()) as expected_registry:
            expected = verify_table(tiny_ir, tiny_world.topology, sample, processes=1)
        outcome = {}

        def pooled():
            with use_registry(MetricsRegistry()) as registry:
                outcome["stats"] = verify_table(
                    tiny_ir,
                    tiny_world.topology,
                    hang_a_worker_at(sample, 500),
                    processes=2,
                    chunk_size=200,
                    start_method=start_method,
                )
            outcome["registry"] = registry

        # A worker pool without hang detection waits on the stopped worker
        # for ever; bound the wait so that failure is a failure.
        run = threading.Thread(target=pooled, daemon=True)
        run.start()
        run.join(timeout=120)
        assert not run.is_alive(), "the pooled run hung on its stopped worker"
        observed = outcome["stats"]
        summaries = [expected.summary(), observed.summary()]
        for summary in summaries:
            summary.pop("degradation")
        assert summaries[0] == summaries[1]
        for name in ("verify_routes_total", "verify_hops_total"):
            assert _counter_values(outcome["registry"], name) == _counter_values(
                expected_registry, name
            ), name
        assert observed.degradation.by_kind().get("verify/worker-hung", 0) >= 1
        assert _live_pool_workers() == []

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize(
        "fault, recorded",
        [
            (KillWorkerChunk(2), "verify/worker-crashed"),
            (RaiseOnChunk(2), "verify/chunk-serial-fallback"),
        ],
        ids=["killed", "raised"],
    )
    def test_faulted_run_is_exact_and_leaves_no_worker(
        self, tiny_ir, tiny_world, tiny_routes, start_method, fault, recorded
    ):
        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {start_method!r} unavailable here")
        sample = tiny_routes[:1200]
        with use_registry(MetricsRegistry()) as expected_registry:
            expected = verify_table(tiny_ir, tiny_world.topology, sample, processes=1)
        with use_registry(MetricsRegistry()) as observed_registry:
            observed = verify_table(
                tiny_ir,
                tiny_world.topology,
                sample,
                processes=2,
                chunk_size=200,
                start_method=start_method,
                fault_hook=fault,
            )
        summaries = [expected.summary(), observed.summary()]
        for summary in summaries:
            summary.pop("degradation")
        assert summaries[0] == summaries[1]
        for name in ("verify_routes_total", "verify_hops_total"):
            assert _counter_values(observed_registry, name) == _counter_values(
                expected_registry, name
            ), name
        assert observed.degradation.by_kind().get(recorded, 0) >= 1
        assert _live_pool_workers() == []


class TestRemovedAliases:
    def test_verify_entries_aliases_are_gone(self):
        """The long-deprecated 1.x aliases were removed in 1.4."""
        assert not hasattr(parallel, "verify_entries")
        assert not hasattr(parallel, "verify_entries_parallel")
        assert "verify_entries" not in parallel.__all__
