"""Tests for multi-feedline sharding, the shard executors and fixed
micro-batching."""

from __future__ import annotations

import os
import signal
import threading
import time
from multiprocessing.connection import wait

import numpy as np
import pytest

from repro.config import Profile
from repro.discriminators import MLRDiscriminator
from repro.exceptions import ConfigurationError, ShardCrashedError
from repro.physics.device import (
    default_five_qubit_chip,
    make_feedline_chip,
    multi_feedline_chips,
)
from repro.physics.drift import DEMO_DRIFT
from repro.pipeline import (
    EXECUTOR_NAMES,
    CalibrationKey,
    CalibrationRegistry,
    ClusterReport,
    FeedlineSpec,
    MultiFeedlineRunner,
    PipelineConfig,
    ProcessShardExecutor,
)
from repro.pipeline.cluster import validate_executor


def tiny_profile(**overrides) -> Profile:
    """A fast sizing profile for cluster tests (not a named CLI profile)."""
    params = dict(
        name="tiny",
        shots_per_state=10,
        calibration_shots=100,
        nn_epochs=8,
        fnn_epochs=2,
        batch_size=64,
        qec_shots=10,
        qudit_shots=10,
        spectral_max_points=100,
        seed=601,
    )
    params.update(overrides)
    return Profile(**params)


def run_cluster(profile, n_shots, feedlines, **runner_kwargs):
    """Build a runner, stream ``n_shots`` per feedline, close it."""
    with MultiFeedlineRunner(feedlines, profile, **runner_kwargs) as runner:
        return runner.run(n_shots)


@pytest.fixture(scope="module")
def feedline_chips():
    """Two light two-qubit feedlines (short traces keep fits fast)."""
    return multi_feedline_chips(2, n_qubits=2, trace_len=120)


@pytest.fixture(scope="module")
def warm_registry(tmp_path_factory, feedline_chips):
    """A registry pre-fitted for both feedlines (serial cold run)."""
    registry_dir = tmp_path_factory.mktemp("cluster-registry")
    run_cluster(
        tiny_profile(),
        20,
        feedline_chips,
        executor="serial",
        config=PipelineConfig(batch_size=20),
        registry_dir=registry_dir,
    )
    return registry_dir


class TestFeedlineChipFactory:
    def test_feedline_zero_is_the_default_chip(self):
        chip = make_feedline_chip(0, n_qubits=5)
        assert chip.to_dict() == default_five_qubit_chip().to_dict()

    def test_feedlines_are_distinct_devices(self):
        a, b = multi_feedline_chips(2, n_qubits=3)
        assert a.n_qubits == b.n_qubits == 3
        assert [q.name for q in b.qubits] == ["F1Q1", "F1Q2", "F1Q3"]
        assert b.qubits[0].chi != a.qubits[0].chi
        assert b.to_dict() != a.to_dict()

    def test_qubit_slice_keeps_crosstalk_block(self):
        full = default_five_qubit_chip()
        sliced = make_feedline_chip(0, n_qubits=2)
        assert np.array_equal(
            sliced.crosstalk, np.asarray(full.crosstalk)[:2, :2]
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ConfigurationError):
            make_feedline_chip(-1)
        with pytest.raises(ConfigurationError):
            make_feedline_chip(0, n_qubits=0)
        with pytest.raises(ConfigurationError):
            make_feedline_chip(0, n_qubits=6)
        with pytest.raises(ConfigurationError):
            multi_feedline_chips(0)


def _task_name(worker, task) -> str:
    """Module-level so process workers unpickle it by reference."""
    # Every task runs on the worker that owns its feedline.
    assert task.name in worker.feedlines
    return task.name


class TestShardExecutors:
    def test_names_cover_all_backends(self):
        assert EXECUTOR_NAMES == ("serial", "process")

    @pytest.mark.parametrize("name", EXECUTOR_NAMES)
    def test_map_preserves_task_order(self, name):
        # Results come back in declared order on either path, each task
        # run by the worker that owns its feedline (``_task_name``
        # checks), whatever the placement weights.
        light = make_feedline_chip(0, n_qubits=1, trace_len=80)
        heavy = make_feedline_chip(1, n_qubits=2, trace_len=200)
        specs = [
            FeedlineSpec("light", light),
            FeedlineSpec("heavy", heavy),
            FeedlineSpec("light-too", light),
        ]
        with MultiFeedlineRunner(
            specs, tiny_profile(), executor=name, workers=2
        ) as runner:
            tasks = runner._tasks(runner._simulated_traffic(10, None))
            assert runner._map(_task_name, tasks) == [
                "light", "heavy", "light-too"
            ]

    def test_unknown_executor_raises(self):
        # "thread" is not an executor: it fails like any unknown name.
        for name in ("gpu", "thread"):
            with pytest.raises(
                ConfigurationError, match="unknown shard executor"
            ):
                validate_executor(name)

    def test_pool_executors_reject_bad_workers(self):
        with pytest.raises(ConfigurationError):
            ProcessShardExecutor(0)

    def test_serial_close_is_idempotent(self, feedline_chips, warm_registry):
        for executor in EXECUTOR_NAMES:
            runner = MultiFeedlineRunner(
                feedline_chips,
                tiny_profile(),
                executor=executor,
                config=PipelineConfig(batch_size=10),
                registry_dir=warm_registry,
            )
            runner.close()  # before any call: nothing to close
            runner.run(10)
            if executor == "process":
                assert runner._pool is not None
            else:
                assert runner._serial is not None
            runner.close()
            runner.close()
            assert runner._pool is None, executor
            assert runner._serial is None, executor


class TestClusterValidation:
    def test_requires_feedlines(self):
        with pytest.raises(ConfigurationError, match="at least one feedline"):
            MultiFeedlineRunner([], tiny_profile())

    def test_rejects_duplicate_names(self, feedline_chips):
        specs = [FeedlineSpec("f", chip) for chip in feedline_chips]
        with pytest.raises(ConfigurationError, match="unique"):
            MultiFeedlineRunner(specs, tiny_profile())

    def test_rejects_unknown_executor(self, feedline_chips):
        for name in ("gpu", "thread"):
            with pytest.raises(
                ConfigurationError, match=f"unknown shard executor '{name}'"
            ):
                MultiFeedlineRunner(
                    feedline_chips, tiny_profile(), executor=name
                )

    def test_rejects_non_streamable_design(self, feedline_chips):
        # Checked once at construction, not per shard at dispatch time.
        with pytest.raises(ConfigurationError, match="cannot stream"):
            MultiFeedlineRunner(feedline_chips, tiny_profile(), design="fnn")

    def test_rejects_bad_shot_count(self, feedline_chips):
        runner = MultiFeedlineRunner(feedline_chips, tiny_profile())
        with pytest.raises(ConfigurationError):
            runner.run(0)

    def test_dispatch_needs_traffic_for_every_feedline(self, feedline_chips):
        runner = MultiFeedlineRunner(
            feedline_chips, tiny_profile(), executor="serial"
        )
        traffic = runner._simulated_traffic(10, None)
        with pytest.raises(ConfigurationError, match="2 feedlines"):
            runner.dispatch(traffic[:1])

    def test_spec_device_defaults_to_name(self, feedline_chips):
        spec = FeedlineSpec("fl-a", feedline_chips[0])
        assert spec.registry_device == "fl-a"
        named = FeedlineSpec("fl-a", feedline_chips[0], device="shared")
        assert named.registry_device == "shared"


class TestClusterDeterminism:
    """The same seeded traffic must discriminate identically everywhere."""

    def _run(self, chips, registry_dir, executor, workers=None):
        return run_cluster(
            tiny_profile(),
            30,
            chips,
            executor=executor,
            workers=workers,
            config=PipelineConfig(batch_size=16),
            chunk_size=10,
            registry_dir=registry_dir,
        )

    @pytest.fixture(scope="class")
    def per_executor(self, feedline_chips, warm_registry):
        return {
            executor: self._run(feedline_chips, warm_registry, executor)
            for executor in EXECUTOR_NAMES
        }

    def test_identical_assignment_counts_across_executors(self, per_executor):
        serial = per_executor["serial"]
        process = per_executor["process"]
        for name, report in serial.feedline_reports.items():
            assert (
                process.feedline_reports[name].assignment_counts
                == report.assignment_counts
            ), f"process diverged on {name}"

    def test_identical_accuracy_across_executors(self, per_executor):
        accuracies = {
            executor: report.accuracy
            for executor, report in per_executor.items()
        }
        assert len(set(accuracies.values())) == 1, accuracies

    def test_all_executors_served_from_warm_registry(self, per_executor):
        for report in per_executor.values():
            for feedline in report.feedline_reports.values():
                assert feedline.calibration_cached is True

    def test_partitioning_does_not_change_results(
        self, feedline_chips, warm_registry, per_executor
    ):
        # One shard worker vs one worker per feedline: same traffic,
        # same labels, only the schedule differs.
        narrow = self._run(
            feedline_chips, warm_registry, "process", workers=1
        )
        wide = per_executor["process"]
        for name, report in narrow.feedline_reports.items():
            assert (
                wide.feedline_reports[name].assignment_counts
                == report.assignment_counts
            )

    def test_single_feedline_partition_matches_cluster_member(
        self, feedline_chips, warm_registry, per_executor
    ):
        # Feedline 0 streamed alone must behave exactly as it does
        # inside the two-feedline partition (seed = base + index).
        alone = self._run(feedline_chips[:1], warm_registry, "serial")
        member = per_executor["serial"].feedline_reports["feedline-0"]
        solo = alone.feedline_reports["feedline-0"]
        assert solo.assignment_counts == member.assignment_counts
        assert solo.accuracy == member.accuracy


class TestHeterogeneousPlacement:
    """Greedy longest-first placement of unequal feedlines on workers."""

    def test_heaviest_feedline_dispatches_first(self):
        from repro.pipeline.cluster import _assign_workers

        light = make_feedline_chip(0, n_qubits=1, trace_len=80)
        heavy = make_feedline_chip(1, n_qubits=2, trace_len=200)
        owners = _assign_workers(
            [FeedlineSpec("light", light), FeedlineSpec("heavy", heavy)], 2
        )
        # Keys keep declared order; the heaviest takes worker 0.
        assert list(owners.items()) == [("light", 1), ("heavy", 0)]

    def test_weight_is_qubits_times_trace_length(self):
        from repro.pipeline.cluster import _assign_workers

        # 2 qubits x 100 samples outweighs 1 qubit x 150 samples.
        wide = make_feedline_chip(0, n_qubits=2, trace_len=100)
        long = make_feedline_chip(1, n_qubits=1, trace_len=150)
        owners = _assign_workers(
            [FeedlineSpec("long", long), FeedlineSpec("wide", wide)], 2
        )
        assert owners == {"wide": 0, "long": 1}

    def test_equal_weights_keep_declared_order(self):
        from repro.pipeline.cluster import _assign_workers

        chips = multi_feedline_chips(4, n_qubits=2, trace_len=120)
        specs = [FeedlineSpec(f"f{i}", chip) for i, chip in enumerate(chips)]
        # Equal feedlines deal out round-robin in declared order.
        assert _assign_workers(specs, 2) == {
            "f0": 0, "f1": 1, "f2": 0, "f3": 1
        }
        assert _assign_workers(specs, 1) == dict.fromkeys(
            ["f0", "f1", "f2", "f3"], 0
        )

    def test_seeds_stay_pinned_to_declared_index(self):
        light = make_feedline_chip(0, n_qubits=1, trace_len=80)
        heavy = make_feedline_chip(1, n_qubits=2, trace_len=200)
        # Built, not started: a process runner forks at its first call.
        runner = MultiFeedlineRunner(
            [FeedlineSpec("light", light), FeedlineSpec("heavy", heavy)],
            tiny_profile(),
            executor="process",
            workers=2,
        )
        assert runner._owners == {"light": 1, "heavy": 0}
        tasks = runner._tasks(runner._simulated_traffic(10, seed=100))
        by_name = {t.name: t.source().seed for t in tasks}
        # Declared order assigns seeds; placement must not.
        assert by_name == {"light": 100, "heavy": 101}

    def test_reports_keep_declared_order_despite_placement(self, tmp_path):
        light = make_feedline_chip(0, n_qubits=1, trace_len=80)
        heavy = make_feedline_chip(1, n_qubits=2, trace_len=200)
        report = run_cluster(
            tiny_profile(),
            10,
            [FeedlineSpec("light", light), FeedlineSpec("heavy", heavy)],
            executor="serial",
            config=PipelineConfig(batch_size=10),
            chunk_size=10,
            registry_dir=tmp_path,
        )
        assert list(report.feedline_reports) == ["light", "heavy"]
        assert (
            report.feedline_reports["heavy"].details["feedline"] == "heavy"
        )


class TestPrefit:
    """Calibration-only dispatch through the shard pool."""

    def test_prefit_fits_cold_then_loads_warm(self, feedline_chips, tmp_path):
        with MultiFeedlineRunner(
            feedline_chips,
            tiny_profile(),
            executor="process",
            registry_dir=tmp_path,
        ) as runner:
            assert runner.prefit() == 2, "one cold fit per feedline"
            assert runner.prefit() == 0, "second prefit serves artifacts"
            # Serving after prefit is fully warm.
            report = runner.run(20)
            assert all(
                r.calibration_cached
                for r in report.feedline_reports.values()
            )

    def test_prefit_requires_registry(self, feedline_chips):
        with MultiFeedlineRunner(
            feedline_chips, tiny_profile(), executor="serial"
        ) as runner:
            with pytest.raises(ConfigurationError, match="registry"):
                runner.prefit()


class TestBrokenPoolRecovery:
    """A dead process shard costs one failed call, never a dead runner."""

    @pytest.mark.parametrize("call", ["prefit", "recalibrate"])
    def test_call_after_shard_kill_forks_a_fresh_pool(
        self, call, feedline_chips, tmp_path
    ):
        calls = {
            "prefit": lambda runner: runner.prefit(),
            "recalibrate": lambda runner: runner.recalibrate(
                DEMO_DRIFT, 1000
            ),
        }
        with MultiFeedlineRunner(
            feedline_chips,
            tiny_profile(),
            executor="process",
            workers=2,
            config=PipelineConfig(batch_size=20),
            registry_dir=tmp_path,
        ) as runner:
            runner.prefit()
            victim = runner._pool._processes[0]
            os.kill(victim.pid, signal.SIGKILL)
            assert wait([victim.sentinel], timeout=10)
            # The error names the dead worker's feedline and exit code.
            with pytest.raises(
                ShardCrashedError, match=r"feedline-0.*exit code -9"
            ):
                calls[call](runner)
            calls[call](runner)
            report = runner.run(20)
        assert all(
            r.calibration_cached for r in report.feedline_reports.values()
        )


def _served_state(worker, task):
    """Probe: what the worker owning ``task``'s feedline keeps for it."""
    served = worker._served[task.name]
    return (
        task.name,
        served.version,
        served.pipeline is not None,
        len(worker._served) == len(worker.feedlines),
    )


def _unservable_traffic():
    """A traffic builder that fails where the worker runs."""
    raise ConfigurationError("no traffic for this feedline")


def _fail_or_hang(worker, task):
    """feedline-0 fails at once; every other feedline outlasts any test."""
    if task.name == "feedline-0":
        raise ConfigurationError("feedline-0 cannot serve")
    time.sleep(120)
    return task.name


class TestFeedlineWorkers:
    """Per warm cycle: one resolve per served version, one engine per
    feedline; failures keep their type and never hang a close."""

    def test_serial_cycle_builds_each_engine_once_and_resolves_once(
        self, feedline_chips, warm_registry, monkeypatch
    ):
        from collections import Counter

        from repro.pipeline.stages import BatchDiscriminationEngine

        engines = Counter()
        build = BatchDiscriminationEngine.__init__

        def counting_build(self, discriminator, chip):
            engines[chip.qubits[0].name] += 1
            build(self, discriminator, chip)

        resolves = Counter()
        get_or_fit = CalibrationRegistry.get_or_fit

        def counting_get_or_fit(self, key, *args, **kwargs):
            resolves[key.device] += 1
            return get_or_fit(self, key, *args, **kwargs)

        monkeypatch.setattr(
            BatchDiscriminationEngine, "__init__", counting_build
        )
        monkeypatch.setattr(
            CalibrationRegistry, "get_or_fit", counting_get_or_fit
        )
        with MultiFeedlineRunner(
            feedline_chips,
            tiny_profile(),
            executor="serial",
            config=PipelineConfig(batch_size=10),
            registry_dir=warm_registry,
        ) as runner:
            runner.prefit()
            reports = [runner.run(20) for _ in range(3)]
        assert sorted(engines.values()) == [1, 1], "one engine per feedline"
        assert sorted(resolves.values()) == [1, 1], "resolved at prefit only"
        assert all(
            feedline.calibration_cached
            for report in reports
            for feedline in report.feedline_reports.values()
        )

    def test_run_after_recalibrate_serves_the_new_version(
        self, feedline_chips, tmp_path
    ):
        from repro.pipeline.cluster import _PrefitTask

        with MultiFeedlineRunner(
            feedline_chips,
            tiny_profile(),
            executor="process",
            workers=2,
            config=PipelineConfig(batch_size=20),
            registry_dir=tmp_path,
        ) as runner:
            runner.prefit()
            runner.run(20)
            runner.recalibrate(DEMO_DRIFT, 1000)
            report = runner.run(20)
            probe = runner._map(
                _served_state,
                [_PrefitTask(s.name, s.chip) for s in runner.feedlines],
            )
        # The recalibration left version 1 in the workers: the run
        # fitted and resolved nothing, and built one pipeline for it.
        assert all(
            feedline.calibration_cached
            for feedline in report.feedline_reports.values()
        )
        assert probe == [
            ("feedline-0", 1, True, True),
            ("feedline-1", 1, True, True),
        ]

    def test_worker_error_keeps_its_type_and_next_call_succeeds(
        self, feedline_chips, warm_registry
    ):
        with MultiFeedlineRunner(
            feedline_chips,
            tiny_profile(),
            executor="process",
            workers=2,
            config=PipelineConfig(batch_size=10),
            registry_dir=warm_registry,
        ) as runner:
            with pytest.raises(
                ConfigurationError, match="no traffic for this feedline"
            ) as excinfo:
                runner.dispatch([_unservable_traffic] * 2)
            # The worker's traceback text is chained as the cause.
            assert "_unservable_traffic" in str(excinfo.value.__cause__)
            report = runner.run(10)
        assert report.n_shots == 20

    def test_failed_call_closes_a_busy_worker_without_waiting(
        self, feedline_chips, warm_registry
    ):
        from repro.pipeline.cluster import _PrefitTask

        with MultiFeedlineRunner(
            feedline_chips,
            tiny_profile(),
            executor="process",
            workers=2,
            config=PipelineConfig(batch_size=10),
            registry_dir=warm_registry,
        ) as runner:
            runner.prefit()
            workers = list(runner._pool._processes)
            start = time.monotonic()
            with pytest.raises(ConfigurationError, match="cannot serve"):
                runner._map(
                    _fail_or_hang,
                    [_PrefitTask(s.name, s.chip) for s in runner.feedlines],
                )
            # feedline-1's worker was still mid-call: close() stopped it
            # instead of waiting out its call.
            assert time.monotonic() - start < 30
            assert not any(worker.is_alive() for worker in workers)
            assert runner._pool is None
            report = runner.run(10)
        assert report.n_shots == 20


class TestClusterReportAggregation:
    def test_aggregate_report_shape(self, feedline_chips, warm_registry):
        report = run_cluster(
            tiny_profile(),
            25,
            feedline_chips,
            executor="serial",
            config=PipelineConfig(batch_size=10),
            registry_dir=warm_registry,
        )
        assert isinstance(report, ClusterReport)
        assert report.n_feedlines == 2
        assert report.n_shots == 50
        assert report.shots_per_second > 0
        worst = report.worst_p99_ms()
        assert set(worst) == {"matched_filter", "discriminate", "sink"}
        for name, feedline in report.feedline_reports.items():
            assert (
                worst["matched_filter"]
                >= feedline.stage_summaries["matched_filter"]["p99_ms"]
            )
        verdicts = report.budget_verdicts()
        assert set(verdicts) == {"feedline-0", "feedline-1"}
        for verdict in verdicts.values():
            assert verdict["slowdown_vs_fpga"] > 0
            assert isinstance(verdict["within_budget"], bool)
        assert 0.0 <= report.accuracy <= 1.0
        assert "multi-feedline pipeline" in report.format_table()

    def test_report_is_json_serializable(self, feedline_chips, warm_registry):
        import json

        report = run_cluster(
            tiny_profile(),
            10,
            feedline_chips,
            executor="serial",
            config=PipelineConfig(batch_size=10),
            registry_dir=warm_registry,
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n_feedlines"] == 2
        assert set(payload["feedlines"]) == {"feedline-0", "feedline-1"}
        for feedline in payload["feedlines"].values():
            assert set(feedline["stages"]) >= {
                "matched_filter",
                "discriminate",
            }
        assert payload["budget_verdicts"]["feedline-0"]["budget_ns"] > 0

    @pytest.mark.parametrize("workers", [None, 4])
    def test_serial_reports_the_one_worker_it_runs(
        self, feedline_chips, warm_registry, workers
    ):
        # Serial runs every feedline on the calling thread, whatever
        # worker count was asked for; the report must say so.
        with MultiFeedlineRunner(
            feedline_chips,
            tiny_profile(),
            executor="serial",
            workers=workers,
            config=PipelineConfig(batch_size=10),
            registry_dir=warm_registry,
        ) as runner:
            assert runner.workers == 1
            report = runner.run(10)
        assert report.workers == 1
        assert report.to_dict()["workers"] == 1
        assert "serial executor, 1 workers" in report.format_table()

    def test_process_reports_the_shards_it_forks(
        self, feedline_chips, warm_registry
    ):
        # Two feedlines fill two shards; the other two asked for would
        # own no feedline, so they are neither forked nor reported.
        with MultiFeedlineRunner(
            feedline_chips,
            tiny_profile(),
            executor="process",
            workers=4,
            config=PipelineConfig(batch_size=10),
            registry_dir=warm_registry,
        ) as runner:
            report = runner.run(10)
            forked = len(runner._pool._processes)
        assert runner.workers == report.workers == forked == 2
        assert report.to_dict()["workers"] == 2
        assert report.placement == {"feedline-0": 0, "feedline-1": 1}


class TestRegistryShardingIsolation:
    def test_concurrent_get_or_fit_same_key_fits_once(
        self, tmp_path, tiny_corpus
    ):
        registry = CalibrationRegistry(tmp_path)
        key = CalibrationKey("chip-a", "all", "tiny")
        fits: list[int] = []
        start = threading.Barrier(4)

        def factory():
            disc = MLRDiscriminator(epochs=4, seed=9)
            original = disc.fit

            def counting_fit(corpus, indices):
                fits.append(1)
                time.sleep(0.05)  # widen the race window
                return original(corpus, indices)

            disc.fit = counting_fit
            return disc

        results: list[tuple] = []

        def worker():
            start.wait()
            results.append(registry.get_or_fit(key, factory, tiny_corpus))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(fits) == 1, "same-key concurrent calls must fit once"
        assert sorted(cached for _, cached in results) == [False, True, True, True]

    def test_two_registry_instances_share_the_fit_lock(
        self, tmp_path, tiny_corpus
    ):
        # Sharded workers each build their own registry object over the
        # same root; the per-key lock must still serialize them.
        key = CalibrationKey("chip-b", "all", "tiny")
        fits: list[int] = []
        start = threading.Barrier(2)

        def factory():
            disc = MLRDiscriminator(epochs=4, seed=9)
            original = disc.fit

            def counting_fit(corpus, indices):
                fits.append(1)
                time.sleep(0.05)
                return original(corpus, indices)

            disc.fit = counting_fit
            return disc

        def worker():
            start.wait()
            CalibrationRegistry(tmp_path).get_or_fit(key, factory, tiny_corpus)

        threads = [threading.Thread(target=worker) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(fits) == 1

    def test_multi_feedline_cold_then_warm(
        self, tmp_path, feedline_chips, monkeypatch
    ):
        fits: list[int] = []
        original_fit = MLRDiscriminator.fit

        def counting_fit(self, corpus, indices):
            fits.append(1)
            return original_fit(self, corpus, indices)

        monkeypatch.setattr(MLRDiscriminator, "fit", counting_fit)
        kwargs = dict(
            # Serial: the fit counter lives in this process.
            executor="serial",
            config=PipelineConfig(batch_size=20),
            registry_dir=tmp_path,
        )
        cold = run_cluster(
            tiny_profile(), 20, feedline_chips, **kwargs
        )
        assert len(fits) == len(feedline_chips), "one fit per feedline"
        warm = run_cluster(
            tiny_profile(), 20, feedline_chips, **kwargs
        )
        assert len(fits) == len(feedline_chips), "warm cluster must not refit"
        for report in cold.feedline_reports.values():
            assert report.calibration_cached is False
        for report in warm.feedline_reports.values():
            assert report.calibration_cached is True
        assert warm.accuracy == cold.accuracy

    def test_identical_feedlines_share_one_artifact(
        self, tmp_path, feedline_chips
    ):
        # Two feedlines with the same chip and registry device resolve to
        # the same CalibrationKey: the cold run on two process shards
        # must fit exactly once (the registry's flock sidecar), with the
        # second shard served from the first's artifact.
        chip = feedline_chips[0]
        specs = [
            FeedlineSpec("fl-a", chip, device="shared-group"),
            FeedlineSpec("fl-b", chip, device="shared-group"),
        ]
        report = run_cluster(
            tiny_profile(),
            20,
            specs,
            executor="process",
            workers=2,
            config=PipelineConfig(batch_size=20),
            registry_dir=tmp_path,
        )
        # A second fit would report its feedline cold: [False, False].
        cached = sorted(
            r.calibration_cached for r in report.feedline_reports.values()
        )
        assert cached == [False, True]
        assert len(list(CalibrationRegistry(tmp_path).keys())) == 1


class TestAdaptiveBatcher:
    """The latency-adaptive batcher is retired: every run serves one
    fixed micro-batch size."""

    def test_fixed_path_when_adaptive_off(self, tiny_corpus):
        # The plain MicroBatcher is the only path: constant batch size,
        # no adaptive details, and no knob that turns adaptation on.
        import repro.pipeline
        from repro.discriminators import MLRDiscriminator as MLR
        from repro.ml import stratified_split
        from repro.pipeline import CorpusTraceSource, ReadoutPipeline

        train, _ = stratified_split(tiny_corpus.labels, 0.5, seed=21)
        disc = MLR(epochs=6, learning_rate=3e-3, seed=22).fit(
            tiny_corpus, train
        )
        pipeline = ReadoutPipeline(
            disc, tiny_corpus.chip, PipelineConfig(batch_size=50)
        )
        report = pipeline.run(CorpusTraceSource(tiny_corpus, chunk_size=45))
        assert report.details["batch_size"] == 50
        assert "adaptive_batching" not in report.details
        assert "adaptive" not in report.details
        assert report.n_batches == -(-tiny_corpus.n_traces // 50)
        with pytest.raises(TypeError, match="adaptive_batching"):
            PipelineConfig(batch_size=50, adaptive_batching=True)
        assert not hasattr(repro.pipeline, "AdaptiveBatcher")
