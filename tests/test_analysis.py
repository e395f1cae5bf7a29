"""Tests for repro.analysis: lint rules, pragmas, CLI, lock-order graph."""

from __future__ import annotations

import json
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import check_source, lint_paths, rule_names
from repro.analysis.checker import iter_python_files
from repro.analysis.cli import run_lint
from repro.analysis.findings import Finding, pragma_allowances
from repro.analysis.lockgraph import (
    ENV_FLAG,
    LockGraph,
    LockOrderError,
    TracedLock,
    enabled,
    trace_lock,
)
from repro.analysis.sanitizers import ENV_FLAG as SANITIZE_FLAG
from repro.analysis.sanitizers import (
    ReportLog,
    SanitizerReport,
    session_reports,
    shmaudit,
)
from repro.analysis.sanitizers.ring import (
    GuardedBufferRing,
    RingSlotView,
    UseAfterRecycleError,
)
from repro.exceptions import ConfigurationError
from repro.pipeline.batching import MicroBatcher
from repro.pipeline.buffers import BufferRing, make_buffer_ring
from repro.pipeline.shm import SharedMemoryTraceSource, SharedTraceBlock
from repro.pipeline.source import ShotChunk

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def rules_of(findings: list[Finding]) -> list[str]:
    return [finding.rule for finding in findings]


class TestPragmas:
    def test_parses_rules_and_ignores_reason(self):
        source = (
            "x = 1  # repro: allow(broad-except) recovery path\n"
            "y = 2\n"
            "z = 3  # repro: allow(fit-once, json-finite)\n"
        )
        allowances = pragma_allowances(source)
        assert allowances == {
            1: {"broad-except"},
            3: {"fit-once", "json-finite"},
        }

    def test_empty_pragma_allows_nothing(self):
        assert pragma_allowances("x = 1  # repro: allow()\n") == {1: set()}

    def test_suppresses_only_named_rule_on_its_line(self):
        source = textwrap.dedent(
            """
            try:
                pass
            except Exception:  # repro: allow(broad-except) test fixture
                pass
            try:
                pass
            except Exception:
                pass
            """
        )
        findings = check_source(source, "x.py", rules=["broad-except"])
        assert len(findings) == 1
        assert findings[0].line == 8


class TestFitOnceRule:
    def test_flags_fit_call_outside_calibration_layers(self):
        source = "def serve(model, X, y):\n    model.fit(X, y)\n"
        findings = check_source(
            source, "src/repro/serve/bad.py", rules=["fit-once"]
        )
        assert rules_of(findings) == ["fit-once"]

    def test_flags_get_trained_outside_calibration_layers(self):
        source = "def warm():\n    return get_trained('quick', 'ours')\n"
        findings = check_source(
            source, "src/repro/pipeline/cluster.py", rules=["fit-once"]
        )
        assert rules_of(findings) == ["fit-once"]

    def test_allows_fit_in_discriminators_and_registry(self):
        source = "def calibrate(model, X, y):\n    model.fit(X, y)\n"
        for path in (
            "src/repro/discriminators/nn.py",
            "src/repro/ml/logistic.py",
            "src/repro/pipeline/registry.py",
        ):
            assert check_source(source, path, rules=["fit-once"]) == []

    def test_pragma_suppresses(self):
        source = "model.fit(X, y)  # repro: allow(fit-once) bench fixture\n"
        assert check_source(
            source, "src/repro/serve/bad.py", rules=["fit-once"]
        ) == []


class TestFrozenSpecRule:
    def test_flags_setattr_outside_post_init(self):
        source = textwrap.dedent(
            """
            def rebind(spec):
                object.__setattr__(spec, "shots", 3)
            """
        )
        findings = check_source(source, "x.py", rules=["frozen-spec"])
        assert rules_of(findings) == ["frozen-spec"]

    def test_allows_setattr_in_post_init(self):
        source = textwrap.dedent(
            """
            class ServeSpec:
                def __post_init__(self):
                    object.__setattr__(self, "shots", 3)
            """
        )
        assert check_source(source, "x.py", rules=["frozen-spec"]) == []

    def test_flags_spec_field_assignment(self):
        source = "serve_spec.shots = 500\n"
        findings = check_source(source, "x.py", rules=["frozen-spec"])
        assert rules_of(findings) == ["frozen-spec"]

    def test_pragma_suppresses(self):
        source = (
            'object.__setattr__(r, "_name", n)'
            "  # repro: allow(frozen-spec) one-time bind\n"
        )
        assert check_source(source, "x.py", rules=["frozen-spec"]) == []


class TestJsonFiniteRule:
    def test_flags_unwrapped_nan_capable_value(self):
        source = textwrap.dedent(
            """
            class Stats:
                def to_dict(self):
                    return {"p99_ms": self.p99_ms}
            """
        )
        findings = check_source(source, "x.py", rules=["json-finite"])
        assert rules_of(findings) == ["json-finite"]

    def test_flags_nan_literal(self):
        source = textwrap.dedent(
            """
            def summary():
                return {"latency": float("nan")}
            """
        )
        findings = check_source(source, "x.py", rules=["json-finite"])
        assert rules_of(findings) == ["json-finite"]

    def test_wrapped_value_passes(self):
        source = textwrap.dedent(
            """
            class Stats:
                def to_dict(self):
                    return {"p99_ms": json_finite(self.p99_ms)}
            """
        )
        assert check_source(source, "x.py", rules=["json-finite"]) == []

    def test_only_payload_functions_are_checked(self):
        source = textwrap.dedent(
            """
            def debug_view(self):
                return {"p99_ms": self.p99_ms}
            """
        )
        assert check_source(source, "x.py", rules=["json-finite"]) == []

    def test_pragma_suppresses(self):
        source = textwrap.dedent(
            """
            def to_dict(self):
                return {
                    "margin": self.margin,  # repro: allow(json-finite) clamped
                }
            """
        )
        assert check_source(source, "x.py", rules=["json-finite"]) == []


class TestNoPickleRule:
    def test_flags_import_and_call(self):
        source = "import pickle\n\npayload = pickle.dumps(model)\n"
        findings = check_source(source, "x.py", rules=["no-pickle-fitted"])
        assert rules_of(findings) == ["no-pickle-fitted", "no-pickle-fitted"]

    def test_flags_from_import(self):
        source = "from pickle import dumps\n"
        findings = check_source(source, "x.py", rules=["no-pickle-fitted"])
        assert rules_of(findings) == ["no-pickle-fitted"]

    def test_pragma_suppresses(self):
        source = "import pickle  # repro: allow(no-pickle-fitted) test aid\n"
        assert check_source(source, "x.py", rules=["no-pickle-fitted"]) == []


class TestBroadExceptRule:
    def test_flags_bare_and_blanket_handlers(self):
        source = textwrap.dedent(
            """
            try:
                work()
            except Exception:
                pass
            try:
                work()
            except:
                pass
            try:
                work()
            except (ValueError, BaseException):
                pass
            """
        )
        findings = check_source(source, "x.py", rules=["broad-except"])
        assert rules_of(findings) == ["broad-except"] * 3

    def test_reraising_handler_passes(self):
        source = textwrap.dedent(
            """
            try:
                work()
            except BaseException:
                cleanup()
                raise
            """
        )
        assert check_source(source, "x.py", rules=["broad-except"]) == []

    def test_narrow_handler_passes(self):
        source = "try:\n    work()\nexcept ValueError:\n    pass\n"
        assert check_source(source, "x.py", rules=["broad-except"]) == []

    def test_pragma_suppresses(self):
        source = textwrap.dedent(
            """
            try:
                work()
            except Exception:  # repro: allow(broad-except) deferred to close()
                pass
            """
        )
        assert check_source(source, "x.py", rules=["broad-except"]) == []


class TestAllConsistencyRule:
    def test_flags_dead_export(self):
        source = '__all__ = ["missing"]\n\nx = 1\n'
        findings = check_source(source, "x.py", rules=["all-consistency"])
        assert rules_of(findings) == ["all-consistency"]
        assert "missing" in findings[0].message

    def test_flags_unexported_public_def(self):
        source = '__all__ = ["f"]\n\n\ndef f():\n    pass\n\n\ndef g():\n    pass\n'
        findings = check_source(source, "x.py", rules=["all-consistency"])
        assert rules_of(findings) == ["all-consistency"]
        assert "'g'" in findings[0].message

    def test_private_defs_and_gated_imports_pass(self):
        source = textwrap.dedent(
            """
            __all__ = ["flocked"]

            try:
                import fcntl as flocked
            except ImportError:
                flocked = None


            def _helper():
                pass
            """
        )
        assert check_source(source, "x.py", rules=["all-consistency"]) == []

    def test_module_without_all_is_unchecked(self):
        assert check_source(
            "def anything():\n    pass\n", "x.py", rules=["all-consistency"]
        ) == []


class TestCheckerDrivers:
    def test_syntax_error_is_a_parse_error_finding(self):
        findings = check_source("def broken(:\n", "x.py")
        assert rules_of(findings) == ["parse-error"]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ConfigurationError):
            check_source("x = 1\n", "x.py", rules=["no-such-rule"])

    def test_rule_names_cover_the_contract_set(self):
        assert set(rule_names()) >= {
            "fit-once",
            "frozen-spec",
            "json-finite",
            "no-pickle-fitted",
            "broad-except",
            "all-consistency",
            "guarded-by",
            "blocking-under-lock",
            "no-hidden-copy",
        }

    def test_iter_python_files_rejects_missing_path(self):
        with pytest.raises(ConfigurationError):
            iter_python_files(["definitely/not/here"])

    def test_finding_format_is_compiler_style(self):
        finding = Finding("fit-once", "a.py", 3, 7, "boom")
        assert finding.format() == "a.py:3:7: [fit-once] boom"

    def test_src_tree_is_clean(self):
        # The repo's own source must satisfy its own contracts; any new
        # finding here is either a real bug or needs a reasoned pragma.
        findings = lint_paths([REPO_SRC])
        assert findings == [], "\n".join(f.format() for f in findings)


class TestLintCli:
    def test_self_scan_exits_zero(self, capsys):
        assert run_lint([str(REPO_SRC)]) == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_findings_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import pickle\n")
        assert run_lint([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "[no-pickle-fitted]" in out
        assert "lint: 1 finding(s) in 1 file(s)" in out

    def test_rule_subset_filters(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import pickle\n")
        assert run_lint(["--rules", "broad-except", str(bad)]) == 0
        capsys.readouterr()

    def test_json_record_schema(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import pickle\n")
        out_path = tmp_path / "lint.json"
        assert run_lint(["--json", str(out_path), str(bad)]) == 1
        capsys.readouterr()
        record = json.loads(out_path.read_text())
        assert record["n_findings"] == 1
        (finding,) = record["findings"]
        assert finding["rule"] == "no-pickle-fitted"
        assert finding["path"].endswith("bad.py")
        assert {"line", "col", "message"} <= set(finding)
        # Strict JSON round-trip: the payload itself obeys json-finite.
        json.dumps(record, allow_nan=False)

    def test_list_rules(self, capsys):
        assert run_lint(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "fit-once" in out and "all-consistency" in out


class TestLockGraph:
    def test_inversion_detected_with_witnesses(self):
        # Seed the classic A -> B / B -> A inversion on a private graph
        # (the global graph must stay clean for the armed-suite check).
        graph = LockGraph()
        a = TracedLock("A", graph)
        b = TracedLock("B", graph)
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        (violation,) = graph.violations()
        assert violation.cycle == ("A", "B")
        assert {(w.source, w.target) for w in violation.witnesses} == {
            ("A", "B"),
            ("B", "A"),
        }
        witness = next(w for w in violation.witnesses if w.source == "A")
        assert witness.held == ("A",)
        assert witness.thread
        assert ":" in witness.site
        formatted = violation.format()
        assert "lock-order cycle: A -> B -> A" in formatted
        assert "witness:" in formatted

    def test_check_raises_with_witness_text(self):
        graph = LockGraph()
        a, b = TracedLock("A", graph), TracedLock("B", graph)
        with a, b:
            pass
        with b, a:
            pass
        with pytest.raises(LockOrderError) as excinfo:
            graph.check()
        assert "A -> B -> A" in str(excinfo.value)

    def test_consistent_order_is_clean(self):
        graph = LockGraph()
        a, b, c = (TracedLock(n, graph) for n in "ABC")
        for _ in range(3):
            with a, b, c:
                pass
        assert graph.violations() == []
        graph.check()

    def test_three_node_cycle_reported_once(self):
        graph = LockGraph()
        a, b, c = (TracedLock(n, graph) for n in "ABC")
        with a, b:
            pass
        with b, c:
            pass
        with c, a:
            pass
        (violation,) = graph.violations()
        assert violation.cycle == ("A", "B", "C")
        assert len(violation.witnesses) == 3

    def test_rlock_reentry_adds_no_self_edge(self):
        graph = LockGraph()
        lock = TracedLock("R", graph, rlock=True)
        with lock:
            with lock:
                pass
        assert graph.edges() == {}
        assert graph.violations() == []

    def test_release_restores_held_stack(self):
        graph = LockGraph()
        a, b = TracedLock("A", graph), TracedLock("B", graph)
        with a:
            with b:
                assert graph.held_by_current_thread() == ("A", "B")
            assert graph.held_by_current_thread() == ("A",)
        assert graph.held_by_current_thread() == ()

    def test_edges_recorded_across_threads(self):
        graph = LockGraph()
        a, b = TracedLock("A", graph), TracedLock("B", graph)

        def worker():
            with b:
                with a:
                    pass

        with a:
            with b:
                pass
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        (violation,) = graph.violations()
        threads = {w.thread for w in violation.witnesses}
        assert len(threads) == 2

    def test_traced_lock_mutual_exclusion(self):
        lock = TracedLock("X", LockGraph())
        assert lock.acquire()
        assert lock.locked()
        assert not lock.acquire(blocking=False)
        lock.release()
        assert not lock.locked()


class TestTraceLockFactory:
    def test_plain_lock_when_disabled(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        assert not enabled()
        lock = trace_lock("plain")
        assert not isinstance(lock, TracedLock)
        with lock:
            pass

    def test_traced_when_armed(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        assert enabled()
        graph = LockGraph()
        lock = trace_lock("armed", graph=graph)
        assert isinstance(lock, TracedLock)

    def test_explicit_graph_always_traces(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        lock = trace_lock("seeded", graph=LockGraph())
        assert isinstance(lock, TracedLock)

    @pytest.mark.parametrize("value", ["", "0", "false", "off", "OFF"])
    def test_flag_off_values(self, monkeypatch, value):
        monkeypatch.setenv(ENV_FLAG, value)
        assert not enabled()

    def test_flock_notes_respect_flag(self, monkeypatch):
        import repro.analysis.lockgraph as lockgraph

        graph = LockGraph()
        monkeypatch.setattr(lockgraph, "GLOBAL_GRAPH", graph)
        monkeypatch.setenv(ENV_FLAG, "1")
        gate = TracedLock("registry.fit-lock:dev/all/quick.v0", graph)
        with gate:
            lockgraph.note_flock_acquire("/store/dev/all.v1.npz")
            lockgraph.note_flock_release("/store/dev/all.v1.npz")
        edges = graph.edges()
        assert (
            "registry.fit-lock:dev/all/quick.v0",
            "flock:store/dev/all.v1.npz",
        ) in edges
        assert graph.violations() == []

    def test_flock_notes_noop_when_disarmed(self, monkeypatch):
        import repro.analysis.lockgraph as lockgraph

        graph = LockGraph()
        monkeypatch.setattr(lockgraph, "GLOBAL_GRAPH", graph)
        monkeypatch.delenv(ENV_FLAG, raising=False)
        lockgraph.note_flock_acquire("/store/dev/all.npz")
        assert graph.held_by_current_thread() == ()
        assert graph.edges() == {}


class TestGuardedByRule:
    LOCKED_CLASS = textwrap.dedent(
        """
        import threading

        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self._closed = False

            def close(self):
                with self._lock:
                    self._closed = True

            def reset(self):
                self._closed = False
        """
    )

    def test_flags_unguarded_write_of_guarded_attribute(self):
        findings = check_source(
            self.LOCKED_CLASS, "src/repro/pipeline/pool.py",
            rules=["guarded-by"],
        )
        assert rules_of(findings) == ["guarded-by"]
        assert "self._closed" in findings[0].message
        # The unguarded site (in reset, the last occurrence) is the
        # finding — not the exempt __init__ write, not the guarded one.
        lines = self.LOCKED_CLASS.splitlines()
        assert findings[0].line == max(
            i for i, line in enumerate(lines, 1)
            if line.strip() == "self._closed = False"
        )

    def test_trace_lock_factory_counts_as_a_lock(self):
        source = self.LOCKED_CLASS.replace(
            "threading.Lock()", 'trace_lock("pool")'
        )
        findings = check_source(source, "x.py", rules=["guarded-by"])
        assert rules_of(findings) == ["guarded-by"]

    def test_clean_when_every_write_is_guarded(self):
        source = self.LOCKED_CLASS.replace(
            "    def reset(self):\n        self._closed = False",
            "    def reset(self):\n        with self._lock:\n"
            "            self._closed = False",
        )
        assert check_source(source, "x.py", rules=["guarded-by"]) == []

    def test_init_writes_are_exempt(self):
        # __init__ publishes before any reader exists: the bare
        # ``self._closed = False`` there is not a race.
        source = self.LOCKED_CLASS.replace(
            "    def reset(self):\n        self._closed = False\n", ""
        )
        assert check_source(source, "x.py", rules=["guarded-by"]) == []

    def test_attr_never_guarded_is_not_flagged(self):
        # Writes never made under the lock carry no guarded-by claim;
        # only both-sides attributes are races this rule can prove.
        source = textwrap.dedent(
            """
            import threading

            class Pool:
                def __init__(self):
                    self._lock = threading.Lock()

                def bump(self):
                    self._hits = 1

                def reset(self):
                    self._hits = 0
            """
        )
        assert check_source(source, "x.py", rules=["guarded-by"]) == []

    def test_augassign_under_lock_pairs_with_bare_write(self):
        source = textwrap.dedent(
            """
            import threading

            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._n = 0

                def hit(self):
                    with self._lock:
                        self._n += 1

                def undo(self):
                    self._n -= 1
            """
        )
        findings = check_source(source, "x.py", rules=["guarded-by"])
        assert rules_of(findings) == ["guarded-by"]

    def test_pragma_suppresses(self):
        source = self.LOCKED_CLASS.replace(
            "        self._closed = False",
            "        self._closed = False  "
            "# repro: allow(guarded-by) teardown is single-threaded",
        )
        assert check_source(source, "x.py", rules=["guarded-by"]) == []


class TestBlockingUnderLockRule:
    def test_flags_sleep_and_result_inside_lock_body(self):
        source = textwrap.dedent(
            """
            import time

            class Pool:
                def refresh(self):
                    with self._lock:
                        time.sleep(0.1)
                        return self._future.result()
            """
        )
        findings = check_source(
            source, "src/repro/pipeline/pool.py",
            rules=["blocking-under-lock"],
        )
        assert rules_of(findings) == ["blocking-under-lock"] * 2
        assert "time.sleep" in findings[0].message
        assert "self._future.result" in findings[1].message

    def test_flags_flock_and_recv_under_gate(self):
        source = textwrap.dedent(
            """
            import fcntl

            def pull(sock, gate, fh):
                with gate:
                    fcntl.flock(fh, fcntl.LOCK_EX)
                    return sock.recv(4096)
            """
        )
        findings = check_source(source, "x.py", rules=["blocking-under-lock"])
        assert rules_of(findings) == ["blocking-under-lock"] * 2

    def test_clean_outside_the_lock(self):
        source = textwrap.dedent(
            """
            import time

            def refresh(pool):
                with pool._lock:
                    token = pool.token
                time.sleep(0.1)
                return token
            """
        )
        assert check_source(
            source, "x.py", rules=["blocking-under-lock"]
        ) == []

    def test_non_lock_context_is_not_a_region(self):
        source = textwrap.dedent(
            """
            import time

            def run(path):
                with open(path) as fh:
                    time.sleep(0.1)
                    return fh.read()
            """
        )
        assert check_source(
            source, "x.py", rules=["blocking-under-lock"]
        ) == []

    def test_closure_defined_under_lock_is_exempt(self):
        source = textwrap.dedent(
            """
            import time

            def plan(lock):
                with lock:
                    def later():
                        time.sleep(1.0)
                    return later
            """
        )
        assert check_source(
            source, "x.py", rules=["blocking-under-lock"]
        ) == []

    def test_pragma_suppresses(self):
        source = textwrap.dedent(
            """
            import time

            def refresh(lock):
                with lock:
                    time.sleep(0.01)  # repro: allow(blocking-under-lock) settle window is the contract
            """
        )
        assert check_source(
            source, "x.py", rules=["blocking-under-lock"]
        ) == []


class TestNoHiddenCopyRule:
    ALLOCATING = textwrap.dedent(
        """
        import numpy as np

        def stage(x):
            a = np.concatenate([x, x])
            b = x.copy()
            c = x.astype(float)
            d = x[[0, 2]]
            return a, b, c, d
        """
    )

    def test_flags_every_allocation_in_hot_path_module(self):
        findings = check_source(
            self.ALLOCATING, "src/repro/dsp/demod.py",
            rules=["no-hidden-copy"],
        )
        assert rules_of(findings) == ["no-hidden-copy"] * 4

    def test_pipeline_hot_modules_are_hot(self):
        for path in (
            "src/repro/pipeline/stages.py",
            "src/repro/pipeline/buffers.py",
            "src/repro/pipeline/shm.py",
        ):
            findings = check_source(
                self.ALLOCATING, path, rules=["no-hidden-copy"]
            )
            assert rules_of(findings) == ["no-hidden-copy"] * 4

    def test_cold_modules_are_exempt(self):
        # The same allocations off the hot path are ordinary numpy.
        for path in (
            "src/repro/serve/service.py",
            "src/repro/pipeline/runner.py",
            "src/repro/ml/scaler.py",
        ):
            assert check_source(
                self.ALLOCATING, path, rules=["no-hidden-copy"]
            ) == []

    def test_basic_slicing_is_not_fancy_indexing(self):
        source = "def stage(x):\n    return x[2:5, ::2]\n"
        assert check_source(
            source, "src/repro/dsp/demod.py", rules=["no-hidden-copy"]
        ) == []

    def test_pragma_suppresses(self):
        source = (
            "def prep(x):\n"
            "    return x.copy()  "
            "# repro: allow(no-hidden-copy) load-time, not per-batch\n"
        )
        assert check_source(
            source, "src/repro/dsp/demod.py", rules=["no-hidden-copy"]
        ) == []


class TestLintCliSchema:
    def test_unknown_rule_exits_2_and_names_it(self, capsys, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        code = run_lint(["--rules", "no-such-rule", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert "no-such-rule" in captured.err
        assert "registered rules" in captured.err
        # Usage errors never masquerade as a clean (or dirty) verdict.
        assert captured.out == ""

    def test_list_rules_json_documents_all_nine(self, capsys):
        code = run_lint(["--list-rules", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        record = json.loads(captured.out)
        assert record["n_rules"] == 9
        names = {rule["name"] for rule in record["rules"]}
        assert names == {
            "fit-once",
            "frozen-spec",
            "json-finite",
            "no-pickle-fitted",
            "broad-except",
            "all-consistency",
            "guarded-by",
            "blocking-under-lock",
            "no-hidden-copy",
        }
        assert all(rule["description"] for rule in record["rules"])


class TestSanitizerReports:
    def test_report_converts_to_finding(self):
        report = SanitizerReport(
            "ring-recycle", "stale view touched", "runner.py:277"
        )
        finding = report.to_finding()
        assert finding.rule == "sanitize:ring-recycle"
        assert finding.path == "runner.py"
        assert finding.line == 277
        assert finding.col == 0
        assert report.format() == (
            "runner.py:277:0: [sanitize:ring-recycle] stale view touched"
        )

    def test_drain_empties_the_log(self):
        log = ReportLog()
        log.report("ring-recycle", "one", site="a.py:1")
        log.report("shm-leak", "two", site="b.py:2")
        assert len(log.outstanding()) == 2
        drained = log.drain()
        assert [r.sanitizer for r in drained] == ["ring-recycle", "shm-leak"]
        assert log.outstanding() == ()

    def test_session_reports_merges_log_and_ledger(self, monkeypatch):
        log = ReportLog()
        monkeypatch.setattr("repro.analysis.sanitizers.GLOBAL_LOG", log)
        monkeypatch.setattr(
            shmaudit, "GLOBAL_LEDGER", shmaudit.ShmLedger(log=log)
        )
        log.report("ring-recycle", "stale view", site="x.py:1")
        shmaudit.GLOBAL_LEDGER.note_create("seg", 64, label="leak-me")
        reports = session_reports()
        assert sorted(r.sanitizer for r in reports) == [
            "ring-recycle",
            "shm-leak",
        ]


class TestRingSanitizer:
    def test_use_after_wrap_raises_with_acquisition_site(self):
        log = ReportLog()
        ring = GuardedBufferRing(4, 3, slots=2, log=log)
        stale = ring.acquire(4, 5)
        stale[:] = 1.0
        ring.acquire(4, 5)
        ring.acquire(4, 5)  # wraps; slot 0 recycled
        with pytest.raises(UseAfterRecycleError) as err:
            stale[0, 0]
        message = str(err.value)
        assert "use-after-recycle" in message
        assert "test_analysis.py" in message  # original acquisition site
        assert [r.sanitizer for r in log.drain()] == ["ring-recycle"]

    def test_stale_write_and_ufunc_also_raise(self):
        log = ReportLog()
        ring = GuardedBufferRing(2, 3, slots=2, log=log)
        stale = ring.acquire(2, 4)
        ring.acquire(2, 4)
        ring.acquire(2, 4)
        with pytest.raises(UseAfterRecycleError):
            stale[0, 0] = 9.0
        with pytest.raises(UseAfterRecycleError):
            stale + 1
        assert len(log.drain()) == 2

    def test_recycled_slot_is_poison_filled(self):
        log = ReportLog()
        ring = GuardedBufferRing(2, 3, slots=2, log=log)
        first = ring.acquire(2, 4)
        first[:] = 7.0
        raw = np.asarray(first)  # plain view: guard shed, poison backstop
        ring.acquire(2, 4)
        ring.acquire(2, 4)  # wrap repoisons slot 0
        assert np.isnan(raw).all()
        assert log.outstanding() == ()

    def test_current_handle_behaves_like_its_array(self):
        log = ReportLog()
        ring = GuardedBufferRing(3, 4, slots=2, log=log)
        handle = ring.acquire(3, 5)
        handle[:] = 2.0
        assert isinstance(handle, RingSlotView)
        total = np.add(handle, 1)
        # Derived results are plain arrays — fresh data never inherits
        # a slot's generation stamp.
        assert type(total) is np.ndarray
        assert np.all(total == 3.0)
        assert log.outstanding() == ()

    def test_copy_is_the_sanctioned_way_to_retain(self):
        log = ReportLog()
        ring = GuardedBufferRing(2, 3, slots=2, log=log)
        handle = ring.acquire(2, 3)
        handle[:] = 3.0
        keep = handle.copy()
        ring.acquire(2, 3)
        ring.acquire(2, 3)
        assert np.all(keep == 3.0)  # owning copy carries no guard
        assert log.outstanding() == ()

    def test_sealed_view_rejects_writes(self):
        log = ReportLog()
        ring = GuardedBufferRing(2, 3, slots=2, log=log)
        handle = ring.acquire(2, 3)
        handle[:] = 1.0
        sealed = ring.seal(handle)
        assert sealed is handle
        with pytest.raises(ValueError):
            sealed[0, 0] = 5.0
        # The slot itself stays writable: the next wrap repoisons it.
        fresh = ring.acquire(2, 3)
        ring.acquire(2, 3)
        fresh[:] = 2.0
        assert log.outstanding() == ()

    def test_paired_features_resolves_through_the_guard(self):
        log = ReportLog()
        ring = GuardedBufferRing(4, 6, slots=2, log=log)
        handle = ring.acquire(2, 5)
        features = ring.paired_features(handle)
        assert features is not None
        assert features.shape == (2, 6)
        ring.acquire(2, 5)
        ring.acquire(2, 5)
        with pytest.raises(UseAfterRecycleError):
            ring.paired_features(handle)
        assert [r.sanitizer for r in log.drain()] == ["ring-recycle"]

    def test_plain_ring_seal_is_a_no_op(self):
        ring = BufferRing(2, 3)
        view = ring.acquire(2, 3)
        assert ring.seal(view) is view
        assert view.flags.writeable
        view[0, 0] = 1.0

    def test_make_buffer_ring_arms_on_the_env_flag(self, monkeypatch):
        monkeypatch.delenv(SANITIZE_FLAG, raising=False)
        assert type(make_buffer_ring(2, 3)) is BufferRing
        monkeypatch.setenv(SANITIZE_FLAG, "1")
        assert isinstance(make_buffer_ring(2, 3), GuardedBufferRing)

    def test_rebatch_hands_off_sealed_guarded_batches(self):
        """3-shot chunks under 4-shot batches: every batch spans two
        chunks, so each is assembled into a guarded ring slot."""
        log = ReportLog()
        ring = GuardedBufferRing(4, 6, slots=2, log=log)
        chunks = [
            ShotChunk(
                feedline=np.full((3, 5), i + 1, dtype=np.complex64),
                prepared_levels=np.zeros((3, 2), dtype=np.int64),
                chunk_id=i,
            )
            for i in range(4)
        ]
        batches = list(MicroBatcher(4).rebatch(chunks, ring=ring))
        assert len(batches) == ring.acquired == 3
        last = batches[-1].feedline
        assert isinstance(last, RingSlotView)
        assert not last.flags.writeable  # sealed at hand-off
        # Shots 8..11: the last of chunk 2, then all of chunk 3.
        assert np.all(np.asarray(last)[:1] == 3.0)
        assert np.all(np.asarray(last)[1:] == 4.0)
        assert ring.paired_features(last) is not None
        # batches[0] used slot 0, recycled by batches[2]: retaining it
        # past the wrap is the seeded bug.
        with pytest.raises(UseAfterRecycleError):
            batches[0].feedline[0, 0]
        assert [r.sanitizer for r in log.drain()] == ["ring-recycle"]


class TestShmLifetimeAuditor:
    def test_leaked_block_is_witnessed_until_unlinked(self, monkeypatch):
        log = ReportLog()
        monkeypatch.setenv(SANITIZE_FLAG, "1")
        monkeypatch.setattr(
            shmaudit, "GLOBAL_LEDGER", shmaudit.ShmLedger(log=log)
        )
        block = SharedTraceBlock(
            np.zeros((4, 8), dtype=complex),
            np.zeros((4, 2), dtype=np.int64),
            label="feed-a",
        )
        try:
            leaks = shmaudit.GLOBAL_LEDGER.leak_reports()
            assert len(leaks) == 1
            assert leaks[0].sanitizer == "shm-leak"
            assert "feed-a" in leaks[0].message
            assert "shm.py" in leaks[0].message  # creation site witness
        finally:
            block.unlink()
        assert shmaudit.GLOBAL_LEDGER.leak_reports() == []
        assert log.outstanding() == ()

    def test_block_unlink_is_idempotent_not_a_double_unlink(
        self, monkeypatch
    ):
        log = ReportLog()
        monkeypatch.setenv(SANITIZE_FLAG, "1")
        monkeypatch.setattr(
            shmaudit, "GLOBAL_LEDGER", shmaudit.ShmLedger(log=log)
        )
        block = SharedTraceBlock(
            np.zeros((2, 4), dtype=complex), np.zeros((2, 1), dtype=np.int64)
        )
        block.unlink()
        block.unlink()  # guarded by the block; never reaches the segment
        assert log.outstanding() == ()

    def test_ledger_reports_double_unlink(self):
        log = ReportLog()
        ledger = shmaudit.ShmLedger(log=log)
        ledger.note_create("seg", 64, label="x")
        ledger.note_unlink("seg")
        assert log.outstanding() == ()
        ledger.note_unlink("seg")
        reports = log.drain()
        assert [r.sanitizer for r in reports] == ["shm-double-unlink"]
        assert "seg" in reports[0].message
        ledger.note_unlink("ghost")
        reports = log.drain()
        assert [r.sanitizer for r in reports] == ["shm-double-unlink"]
        assert "ghost" in reports[0].message

    def test_ledger_reports_attach_after_unlink(self):
        log = ReportLog()
        ledger = shmaudit.ShmLedger(log=log)
        ledger.note_create("seg", 64)
        ledger.note_attach("seg")
        ledger.note_close("seg")
        ledger.note_unlink("seg")
        assert log.outstanding() == ()
        ledger.note_attach("seg")
        ledger.note_failed_attach("seg")
        assert [r.sanitizer for r in log.drain()] == [
            "shm-attach-after-unlink",
            "shm-attach-after-unlink",
        ]
        # A failed attach to a name we never saw carries no verdict.
        ledger.note_failed_attach("never-created")
        assert log.outstanding() == ()

    def test_attach_after_unlink_witnessed_end_to_end(
        self, monkeypatch, two_qubit_chip
    ):
        log = ReportLog()
        monkeypatch.setenv(SANITIZE_FLAG, "1")
        monkeypatch.setattr(
            shmaudit, "GLOBAL_LEDGER", shmaudit.ShmLedger(log=log)
        )
        block = SharedTraceBlock(
            np.zeros((4, 8), dtype=complex), np.zeros((4, 2), dtype=np.int64)
        )
        descriptor = block.descriptor
        block.unlink()
        with pytest.raises(FileNotFoundError):
            SharedMemoryTraceSource(descriptor, two_qubit_chip)
        assert [r.sanitizer for r in log.drain()] == [
            "shm-attach-after-unlink"
        ]

    def test_clean_lifecycle_leaves_no_reports(
        self, monkeypatch, two_qubit_chip, tiny_corpus
    ):
        log = ReportLog()
        monkeypatch.setenv(SANITIZE_FLAG, "1")
        monkeypatch.setattr(
            shmaudit, "GLOBAL_LEDGER", shmaudit.ShmLedger(log=log)
        )
        block = SharedTraceBlock(
            tiny_corpus.feedline, tiny_corpus.prepared_levels, label="corpus"
        )
        source = SharedMemoryTraceSource(
            block.descriptor, two_qubit_chip, chunk_size=128
        )
        total = sum(chunk.n_shots for chunk in source.chunks())
        source.close()
        block.unlink()
        assert total == tiny_corpus.feedline.shape[0]
        assert shmaudit.GLOBAL_LEDGER.leak_reports() == []
        assert log.outstanding() == ()

    def test_hooks_are_inert_when_disarmed(self, monkeypatch):
        log = ReportLog()
        monkeypatch.delenv(SANITIZE_FLAG, raising=False)
        monkeypatch.setattr(
            shmaudit, "GLOBAL_LEDGER", shmaudit.ShmLedger(log=log)
        )
        block = SharedTraceBlock(
            np.zeros((2, 4), dtype=complex), np.zeros((2, 1), dtype=np.int64)
        )
        assert shmaudit.GLOBAL_LEDGER.live() == ()
        block.unlink()
        assert log.outstanding() == ()
