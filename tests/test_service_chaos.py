"""Chaos suite: the service layer under injected faults (PR 9, satellite).

Every test here asserts the same contract from a different angle: no
matter what the service survives — a SIGKILLed worker, a hung shard, a
poison job, a corrupted cache entry, an interrupt at ~50% — the final
merged report is byte-identical (timing aside) to the uninterrupted
serial baseline, or visibly marked as partial/lost.  Determinism under
failure is what makes the harness trustworthy as a conformance oracle.
"""

import contextlib
import copy
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.analysis import fuzz
from repro.conformance import sweep_faults
from repro.conformance.faulty.check import (
    FaultSweepReport,
    SweepInterrupted,
    run_fault_sweep,
    run_fault_sweeps,
)
from repro.core.controller import ControllerCapabilities
from repro.faults.spec import parse_fault
from repro.march import library
from repro.service import (
    ChaosPlan,
    ResultStore,
    code_version,
    collect_session,
    corrupt_store_entry,
    list_sessions,
    run_session,
    session_status,
    submit_session,
)

CAPS = ControllerCapabilities(n_words=8, width=2, ports=1)
TESTS = [library.get(name) for name in ("MATS+", "March C", "March Y")]
FAULTS = [
    parse_fault(spec)
    for spec in ("saf:2:1:1", "tf:1:0:up", "cfin:1:0:2:0:up", "irf:2:0:1")
]


def sans_timing(payload):
    """Strip every volatile key so payloads compare structurally."""
    payload = copy.deepcopy(payload)

    def strip(node):
        if isinstance(node, dict):
            node.pop("timing", None)
            for value in node.values():
                strip(value)
        elif isinstance(node, list):
            for value in node:
                strip(value)

    strip(payload)
    return payload


@pytest.fixture(scope="module")
def baseline():
    """The uninterrupted serial oracle every chaos run must reproduce."""
    return run_fault_sweep(TESTS, CAPS, FAULTS, jobs=1)


class TestChaosPlanValidation:
    def test_unknown_behaviour_rejected(self):
        with pytest.raises(ValueError):
            ChaosPlan(behaviors={0: "explode"})

    def test_once_behaviours_need_sentinel_dir(self):
        with pytest.raises(ValueError):
            ChaosPlan(behaviors={0: "kill-once"})


class TestWorkerKill:
    def test_sigkilled_worker_mid_sweep_keeps_report_identical(
        self, baseline, tmp_path
    ):
        # Satellite regression: shard 0's worker takes a real SIGKILL
        # on first dispatch; the engine respawns the pool, requeues the
        # shard, and the merged report must not show a scar.
        chaos = ChaosPlan(
            behaviors={0: "kill-once"}, sentinel_dir=tmp_path
        )
        report = run_fault_sweep(
            TESTS, CAPS, FAULTS, jobs=2, chaos=chaos
        )
        assert report.ok, report.format()
        assert sans_timing(report.to_json()) == sans_timing(
            baseline.to_json()
        )
        stats = report.service_stats
        assert stats is not None
        assert stats["crashes"] >= 1

    def test_raised_shard_retries_to_identical_report(
        self, baseline, tmp_path
    ):
        chaos = ChaosPlan(
            behaviors={1: "raise-once"}, sentinel_dir=tmp_path
        )
        report = run_fault_sweep(
            TESTS, CAPS, FAULTS, jobs=2, chaos=chaos
        )
        assert report.ok
        assert sans_timing(report.to_json()) == sans_timing(
            baseline.to_json()
        )
        # The pooled dispatch raised once; the one rerun is in-process.
        assert report.service_stats["retries"] == 0
        assert report.service_stats["serial_retries"] == 1

    def test_hung_shard_times_out_then_completes(self, baseline, tmp_path):
        chaos = ChaosPlan(
            behaviors={0: "hang-once"}, sentinel_dir=tmp_path, hang_s=30.0
        )
        report = run_fault_sweep(
            TESTS, CAPS, FAULTS, jobs=2, chaos=chaos, shard_timeout=1.5
        )
        assert report.ok
        assert sans_timing(report.to_json()) == sans_timing(
            baseline.to_json()
        )
        assert report.service_stats["timeouts"] >= 1


class TestPoisonJobs:
    def test_persistent_killer_is_quarantined_not_fatal(self, baseline):
        # Shard 0 SIGKILLs its worker on *every* attempt: the engine
        # must quarantine it (never retry a crasher inline) and report
        # the loss instead of crashing or hanging the whole sweep.
        chaos = ChaosPlan(behaviors={0: "kill"})
        report = run_fault_sweep(TESTS, CAPS, FAULTS, jobs=2, chaos=chaos)
        assert not report.ok
        lost = [
            f for f in report.failures if f.get("kind") == "shard-lost"
        ]
        assert len(lost) == 1
        assert report.service_stats["quarantined"] == 1
        # Every other shard still completed.
        assert 0 < report.checked < baseline.checked
        assert "service:" in report.format()

    def test_persistent_raiser_falls_back_to_serial_retry(
        self, baseline
    ):
        # A shard that raises on every pooled attempt never crashed a
        # worker, so it is safe to re-run inline without chaos wrapping
        # — and the report comes out whole.
        chaos = ChaosPlan(behaviors={2: "raise"})
        report = run_fault_sweep(TESTS, CAPS, FAULTS, jobs=2, chaos=chaos)
        assert report.ok
        assert sans_timing(report.to_json()) == sans_timing(
            baseline.to_json()
        )
        assert report.service_stats["serial_retries"] == 1


class TestUnspawnablePool:
    """No worker can be spawned: the runner's serial retry runs it all."""

    @pytest.fixture
    def no_pool(self, monkeypatch):
        import repro.service.engine as engine_mod

        def _no_spawn(_context):
            raise OSError("no processes")

        monkeypatch.setattr(engine_mod, "_Worker", _no_spawn)

    def test_sweep_equals_serial_and_is_marked_degraded(
        self, baseline, no_pool
    ):
        report = run_fault_sweep(TESTS, CAPS, FAULTS, jobs=2)
        assert report.ok
        assert sans_timing(report.to_json()) == sans_timing(
            baseline.to_json()
        )
        stats = report.service_stats
        assert stats["degraded"] is True
        assert stats["serial_retries"] == stats["jobs"] > 0

    def test_chaos_wrapper_never_runs_in_the_orchestrator(
        self, baseline, monkeypatch, no_pool
    ):
        from repro.service import chaos as chaos_mod

        wrapped = []
        real_apply = chaos_mod.chaos_apply

        def counting_apply(args):
            wrapped.append(os.getpid())
            return real_apply(args)

        monkeypatch.setattr(chaos_mod, "chaos_apply", counting_apply)
        chaos = ChaosPlan(behaviors={0: "raise"})
        report = run_fault_sweep(TESTS, CAPS, FAULTS, jobs=2, chaos=chaos)
        assert wrapped == []
        assert sans_timing(report.to_json()) == sans_timing(
            baseline.to_json()
        )


class TestInterruptAndResume:
    def test_interrupt_yields_partial_mergeable_report(
        self, baseline, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        chaos = ChaosPlan(interrupt_after=3)
        with pytest.raises(SweepInterrupted) as exc_info:
            run_fault_sweep(
                TESTS, CAPS, FAULTS, jobs=1, store=store, chaos=chaos
            )
        partial = exc_info.value.report
        assert partial.interrupted
        assert 0 < partial.checked < baseline.checked
        payload = partial.to_json()
        assert payload["interrupted"] is True
        # The partial artifact round-trips: it is valid --resume input.
        reloaded = FaultSweepReport.from_json(payload)
        assert sans_timing(reloaded.to_json()) == sans_timing(payload)

    def test_resumed_sweep_equals_uninterrupted_serial(
        self, baseline, tmp_path
    ):
        # The headline acceptance criterion: interrupt at ~50%, resume
        # from the store, and the merged report is byte-identical
        # (timing aside) to the uninterrupted serial baseline.
        store = ResultStore(tmp_path / "store")
        with pytest.raises(SweepInterrupted):
            run_fault_sweep(
                TESTS,
                CAPS,
                FAULTS,
                jobs=1,
                store=store,
                chaos=ChaosPlan(interrupt_after=3),
            )
        resumed = run_fault_sweep(
            TESTS, CAPS, FAULTS, jobs=1, store=store, resume=True
        )
        assert resumed.ok
        assert sans_timing(resumed.to_json()) == sans_timing(
            baseline.to_json()
        )
        # The shards finished before the interrupt came back as hits.
        assert resumed.service_stats["store"]["hits"] >= 3

    def test_resume_across_worker_counts(self, baseline, tmp_path):
        # Interrupt a serial run, resume with a pool: jobs=1 and jobs=2
        # shard alike (max(jobs, 2) workers' worth), so the cache still
        # applies.
        store = ResultStore(tmp_path / "store")
        with pytest.raises(SweepInterrupted):
            run_fault_sweep(
                TESTS,
                CAPS,
                FAULTS,
                jobs=1,
                store=store,
                chaos=ChaosPlan(interrupt_after=2),
            )
        resumed = run_fault_sweep(
            TESTS, CAPS, FAULTS, jobs=2, store=store, resume=True
        )
        assert resumed.ok
        assert sans_timing(resumed.to_json()) == sans_timing(
            baseline.to_json()
        )

    def test_jobs_one_store_serves_every_jobs_two_shard(
        self, baseline, tmp_path
    ):
        # Shard start/count are part of each store key and the shard
        # count is max(jobs, 2) * shards_per_worker, so a jobs=1 store
        # is complete for a jobs=2 resume: every shard hits.
        store = ResultStore(tmp_path / "store")
        first = run_fault_sweep(TESTS, CAPS, FAULTS, jobs=1, store=store)
        puts = first.service_stats["store"]["puts"]
        assert puts > 1
        resumed = run_fault_sweep(
            TESTS, CAPS, FAULTS, jobs=2, store=store, resume=True
        )
        stats = resumed.service_stats["store"]
        assert (stats["hits"], stats["misses"]) == (puts, 0)
        assert sans_timing(resumed.to_json()) == sans_timing(
            baseline.to_json()
        )

    def test_multi_geometry_interrupt_marks_report(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(SweepInterrupted) as exc_info:
            run_fault_sweeps(
                [(8, 2, 1), (8, 1, 1)],
                TESTS,
                faults=FAULTS,
                store=store,
                chaos=ChaosPlan(interrupt_after=2),
            )
        partial = exc_info.value.report
        assert partial.interrupted
        assert partial.to_json()["interrupted"] is True


class TestStoreCorruption:
    def test_corrupted_entry_is_detected_and_recomputed(
        self, baseline, tmp_path
    ):
        store = ResultStore(tmp_path / "store")
        first = run_fault_sweep(TESTS, CAPS, FAULTS, jobs=1, store=store)
        assert first.ok
        assert len(store) > 0  # sanity: the sweep populated the store

        # Flip a bit in the first cached shard without fixing its hash.
        corrupt_store_entry(store, _first_key(store))
        rerun = run_fault_sweep(
            TESTS, CAPS, FAULTS, jobs=1, store=store, resume=True
        )
        assert rerun.ok
        assert sans_timing(rerun.to_json()) == sans_timing(
            baseline.to_json()
        )
        stats = rerun.service_stats["store"]
        assert stats["corruptions"] == 1
        assert stats["misses"] >= 1  # the evicted shard was recomputed


def _first_key(store):
    """Reconstruct a StoreKey shim for the first on-disk entry."""
    import json
    from repro.service.store import StoreKey

    path = sorted(store.entry_paths())[0]
    entry = json.loads(path.read_text())
    return StoreKey(fields=entry["key"], digest=path.stem)


class TestFuzzServiceIdentity:
    def test_check_sample_exercises_resumed_sweep_identity(self):
        from repro.analysis.fuzz import check_sample

        result = check_sample(11, 0)
        assert result.ok, result.mismatches
        assert result.identities["service_checked"]

    def test_run_fuzz_counts_service_identities(self):
        from repro.analysis.fuzz import run_fuzz

        report = run_fuzz(3, seed=5, jobs=1)
        assert report.ok
        assert report.counts["service_checked"] == 3

    def test_service_identity_can_be_disabled(self):
        from repro.analysis.fuzz import run_fuzz

        report = run_fuzz(2, seed=5, jobs=1, skip={"i"})
        assert report.ok
        assert report.counts["service_checked"] == 0


class TestVectorEngineService:
    def test_vector_sweep_store_roundtrip(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        first = run_fault_sweep(
            TESTS, CAPS, FAULTS, engine="vector", store=store
        )
        rerun = run_fault_sweep(
            TESTS, CAPS, FAULTS, engine="vector", store=store, resume=True
        )
        assert rerun.ok
        assert sans_timing(rerun.to_json()) == sans_timing(
            first.to_json()
        )
        assert rerun.service_stats["store"]["hits"] >= 1

    def test_vector_kill_once_identical(self, tmp_path):
        serial = run_fault_sweep(TESTS, CAPS, FAULTS, engine="vector")
        chaos = ChaosPlan(
            behaviors={0: "kill-once"}, sentinel_dir=tmp_path
        )
        chaotic = run_fault_sweep(
            TESTS, CAPS, FAULTS, engine="vector", jobs=2, chaos=chaos
        )
        assert chaotic.ok
        assert sans_timing(chaotic.to_json()) == sans_timing(
            serial.to_json()
        )


#: The sweep of the lost-shard and checkpoint tests: 4 library tests x
#: 14 faults on 4x1x1, 8 scalar shards or 4 vector shards at jobs=2.
SMALL_CAPS = ControllerCapabilities(n_words=4, width=1, ports=1)
SMALL_TESTS = ["MATS", "MATS+", "MATS++", "March X"]

#: Runs the small sweep with shard 7 hung (argv[1] is the store root).
HUNG_SWEEP = """
import sys
import repro.service.store as store_module
from repro.conformance import run_fault_sweep, sweep_faults
from repro.core.controller import ControllerCapabilities
from repro.march import library
from repro.service import ChaosPlan, ResultStore

# The store keys fold in the code version.  The resume runs in the
# test process, which may have cached its version before a source edit,
# so the sweep keys its checkpoints by that same version.
store_module._CODE_VERSION = sys.argv[2]
caps = ControllerCapabilities(n_words=4, width=1, ports=1)
run_fault_sweep(
    [library.get(name) for name in %r], caps,
    sweep_faults(caps, per_kind=1, seed=0), jobs=2,
    store=ResultStore(sys.argv[1]),
    chaos=ChaosPlan({7: "hang"}, hang_s=30.0),
)
""" % (SMALL_TESTS,)


def small_sweep(**options):
    tests = [library.get(name) for name in SMALL_TESTS]
    faults = sweep_faults(SMALL_CAPS, per_kind=1, seed=0)
    assert len(faults) == 14
    return run_fault_sweep(tests, SMALL_CAPS, faults, **options), (
        len(tests) * len(faults)
    )


class TestShardCheckpoints:
    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_lost_shard_counts_its_pairs(self, engine):
        # A lost shard names its (algorithm, fault) pairs, whatever the
        # engine shards by, so checked plus lost runs is the product.
        report, pairs = small_sweep(
            jobs=2, engine=engine, chaos=ChaosPlan({0: "kill"})
        )
        lost = [shard for shard in report.shards if shard.get("lost")]
        assert len(lost) == 1
        assert report.checked + lost[0]["runs"] == pairs
        (failure,) = [
            f for f in report.failures if f["kind"] == "shard-lost"
        ]
        assert failure["notation"] == (
            f"<shard 0: {lost[0]['runs']} run(s) at 0>"
        )

    def test_pooled_shards_are_checkpointed_as_they_complete(
        self, tmp_path
    ):
        # Shard 7 hangs; the seven others finish at once.  Each must be
        # in the store before the sweep ends, so SIGKILLing the whole
        # process group still leaves a resume something to hit.
        store = ResultStore(tmp_path / "store")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        log = tmp_path / "sweep.log"
        with open(log, "w") as output:
            sweep = subprocess.Popen(
                [sys.executable, "-c", HUNG_SWEEP, str(store.root),
                 code_version()],
                env=env, start_new_session=True, stdout=output,
                stderr=subprocess.STDOUT,
            )
        try:
            deadline = time.monotonic() + 20.0
            while (
                len(store) == 0
                and sweep.poll() is None
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            landed, state = len(store), sweep.poll()
        finally:
            with contextlib.suppress(ProcessLookupError):  # group gone
                os.killpg(sweep.pid, signal.SIGKILL)
            sweep.wait(timeout=10)
        if not landed:
            files = sorted(
                str(path.relative_to(store.root))
                for path in store.root.rglob("*")
            )
            pytest.fail(
                "no shard was checkpointed: the sweep "
                + ("was still running after 20 s" if state is None
                   else f"exited with {state}")
                + f"; store files {files}; sweep output:\n"
                + log.read_text()
            )
        resumed, pairs = small_sweep(jobs=2, store=store, resume=True)
        assert resumed.ok
        assert resumed.checked == pairs
        assert resumed.service_stats["store"]["hits"] > 0


def _raise_in_worker(args):
    """``_check_batch`` whose first batch raises in a pool worker."""
    if os.getpid() != _TEST_PID and args[1] == 0:
        raise RuntimeError("injected worker failure")
    return _CHECK_BATCH(args)


def _crash_in_worker(args):
    """``_check_batch`` whose first batch kills its pool worker."""
    if os.getpid() != _TEST_PID and args[1] == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return _CHECK_BATCH(args)


def _always_raise(args):
    """``_check_batch`` whose first batch raises in every process."""
    if args[1] == 0:
        raise RuntimeError("broken batch")
    return _CHECK_BATCH(args)


_TEST_PID = os.getpid()
_CHECK_BATCH = fuzz._check_batch


class TestFuzzPool:
    def test_raising_batch_is_retried_serially(self, monkeypatch):
        serial = fuzz.run_fuzz(4, seed=0, jobs=1)
        monkeypatch.setattr(fuzz, "_check_batch", _raise_in_worker)
        pooled = fuzz.run_fuzz(4, seed=0, jobs=2)
        assert pooled.to_json() == serial.to_json()
        assert pooled.service_stats["serial_retries"] == 1

    def test_crashing_batch_is_one_lost_entry(self, monkeypatch):
        monkeypatch.setattr(fuzz, "_check_batch", _crash_in_worker)
        report = fuzz.run_fuzz(4, seed=0, jobs=2)
        assert report.service_stats["quarantined"] == 1
        assert report.mismatch_count == 1
        (entry,) = report.mismatches
        assert entry["sample_seed"] == "<batch 0..1>"
        assert entry["mismatches"][0].startswith(
            "service: batch lost: quarantined: "
        )
        assert report.checked == 3  # the lost entry plus batch 2..3

    def test_failed_serial_retry_names_both_failures(self, monkeypatch):
        monkeypatch.setattr(fuzz, "_check_batch", _always_raise)
        report = fuzz.run_fuzz(4, seed=0, jobs=2)
        assert report.service_stats["serial_retries"] == 0
        (entry,) = report.mismatches
        assert entry["mismatches"] == [
            "service: batch lost: failed: RuntimeError: broken batch; "
            "serial retry: RuntimeError: broken batch"
        ]


class TestSessions:
    def test_submit_run_collect_lifecycle(self, tmp_path):
        root = tmp_path / "svc"
        sid = submit_session(
            root,
            {
                "algorithms": ["MATS+", "March C"],
                "geometries": [[8, 2, 1]],
                "per_kind": 1,
                "seed": 3,
            },
        )
        assert session_status(root, sid)["state"] == "submitted"

        payload = run_session(root, sid)
        assert payload["ok"] is True
        assert session_status(root, sid)["state"] == "complete"

        collected = collect_session(root, sid)
        assert collected["ok"] is True
        assert [s["session"] for s in list_sessions(root)] == [sid]

    def test_session_id_is_content_addressed(self, tmp_path):
        spec = {"algorithms": ["March C"], "per_kind": 1}
        first = submit_session(tmp_path / "a", spec)
        second = submit_session(tmp_path / "b", dict(spec))
        assert first == second

    def test_rerun_hits_session_store(self, tmp_path):
        root = tmp_path / "svc"
        sid = submit_session(
            root,
            {"algorithms": ["MATS+"], "per_kind": 1, "seed": 1},
        )
        run_session(root, sid)
        again = run_session(root, sid)
        assert again["ok"] is True
        # Sessions always run store-backed + resume: the second run is
        # answered from cache.
        stats = again["geometries"][0]["timing"]["service"]["store"]
        assert stats["hits"] >= 1
