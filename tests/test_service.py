"""Supervised session runtime: admission, failure policy, chaos parity.

The contract under test (docs/ROBUSTNESS.md): supervision and chaos may
change *when* work happens — wave boundaries, latency, retry counts,
staleness of shed reads — but never *what* the engine computes. Every
section below ends in a digest comparison against an unsupervised,
fault-free run of the same operation sequence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.session import BatchValidationError, open_session
from repro.data.database import DELETE, INSERT, Operation
from repro.service import (
    ChaosConfig,
    ChaosInjector,
    RetryPolicy,
    ServiceOptions,
    SessionSupervisor,
    SupervisedDriver,
    SupervisorConfig,
    TransientServiceError,
    VirtualClock,
    parse_chaos,
)
from repro.scenarios.replay import batch_slices
from repro.service.policy import CircuitBreaker, CostModel


def _mixed_ops(seed, n_insert=40, delete_ids=range(0, 30, 2), d=4):
    rng = np.random.default_rng(seed)
    ops = [Operation(INSERT, rng.random(d), None) for _ in range(n_insert)]
    ops += [Operation(DELETE, None, int(i)) for i in delete_ids]
    return ops


def _session(seed=0, n=120, d=4, **kwargs):
    rng = np.random.default_rng(seed)
    return open_session(rng.random((n, d)), r=6, algo="fd-rms", seed=0,
                        m_max=32, **kwargs)


def _reference_digest(ops, **kwargs):
    session = _session(**kwargs)
    try:
        session.apply_batch(ops)
        return session.engine.state_digest()
    finally:
        session.close()


# ----------------------------------------------------------------------
# Policy primitives
# ----------------------------------------------------------------------

class TestPolicy:
    def test_retry_schedule_is_deterministic_and_capped(self):
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.01,
                             factor=3.0, max_delay_s=0.05)
        assert list(policy.delays()) == [0.01, 0.03, 0.05, 0.05]
        assert list(policy.delays()) == list(policy.delays())
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_breaker_opens_probes_and_recovers(self):
        clock = VirtualClock()
        breaker = CircuitBreaker(clock, failure_threshold=2,
                                 reset_after_s=1.0)
        breaker.record_failure()
        assert not breaker.is_open
        breaker.record_failure()
        assert breaker.is_open and breaker.trips == 1
        assert not breaker.should_probe()  # cool-down not elapsed
        clock.advance(1.0)
        assert breaker.should_probe() and breaker.probes == 1
        assert not breaker.should_probe()  # one probe per interval
        breaker.record_success()
        assert not breaker.is_open and breaker.recoveries == 1

    def test_cost_model_prior_then_ewma(self):
        model = CostModel(prior_s=0.5, alpha=0.5)
        assert model.estimate("+") == 0.5
        model.observe("+", 0.2)
        assert model.estimate("+") == 0.2  # first observation replaces
        model.observe("+", 0.4)
        assert model.estimate("+") == pytest.approx(0.3)
        assert model.estimate_ops(["+", "-"]) == pytest.approx(0.8)


# ----------------------------------------------------------------------
# Admission, coalescing, backpressure
# ----------------------------------------------------------------------

class TestAdmission:
    def test_coalesced_waves_match_direct_apply(self):
        ops = _mixed_ops(1)
        session = _session()
        try:
            sup = SessionSupervisor(
                session, SupervisorConfig(max_wave=7),
                clock=VirtualClock())
            for i in range(0, len(ops), 13):
                sup.submit(ops[i:i + 13])
            sup.drain()
            assert sup.report.applied_ops == len(ops)
            assert sup.report.waves >= len(ops) // 7
            assert sup.state_digest() == _reference_digest(ops)
        finally:
            session.close()

    def test_result_digest_is_wave_boundary_invariant(self):
        # max_wave=1 forces singleton apply_batch calls, whose scoring
        # takes the vector path instead of the batch GEMM — the engine
        # state_digest may differ from the giant-batch reference in the
        # last ulp of member_scores/tau, but the observable state
        # (database content + result ids) must be bit-identical.
        ops = _mixed_ops(1)
        singleton = _session()
        reference = _session()
        try:
            sup = SessionSupervisor(
                singleton, SupervisorConfig(max_wave=1),
                clock=VirtualClock())
            sup.submit(ops)
            sup.drain()
            reference.apply_batch(ops)
            ref = SessionSupervisor(reference, clock=VirtualClock())
            assert sup.result_digest() == ref.result_digest()
            assert list(singleton.result()) == list(reference.result())
        finally:
            singleton.close()
            reference.close()

    def test_backpressure_drains_instead_of_dropping(self):
        ops = _mixed_ops(2, n_insert=60, delete_ids=())
        session = _session()
        try:
            sup = SessionSupervisor(
                session, SupervisorConfig(queue_limit=8, max_wave=4),
                clock=VirtualClock())
            for op in ops:
                sup.submit([op])
            sup.drain()
            assert sup.report.backpressure_events > 0
            assert sup.report.applied_ops == len(ops)
            assert sup.report.max_queue_depth <= 8
            assert sup.state_digest() == _reference_digest(ops)
        finally:
            session.close()

    def test_admission_record_is_bounded(self):
        from repro.service.supervisor import ADMISSION_WINDOW
        rng = np.random.default_rng(5)
        session = _session()
        try:
            sup = SessionSupervisor(session, clock=VirtualClock())
            for _ in range(5000):
                sup.submit([Operation(INSERT, rng.random(4), None)])
            assert ADMISSION_WINDOW == 4096
            assert len(sup.report.admission_ms) == 4096
            lat = sup.report.to_dict()["admission_latency_ms"]
            assert sorted(lat) == ["max", "p50", "p99"]
        finally:
            session.close()

    def test_malformed_request_rejected_atomically(self):
        session = _session()
        try:
            sup = SessionSupervisor(session, clock=VirtualClock())
            sup.submit(_mixed_ops(3, n_insert=10, delete_ids=()))
            sup.drain()
            before = sup.state_digest()
            # One good op riding with one bad op: the *whole* request
            # must be rejected and nothing queued.
            good = Operation(INSERT, np.full(4, 0.5), None)
            for bad in ({"kind": "mutate", "id": 0},
                        {"kind": "insert"},
                        {"kind": "insert", "point": [np.nan] * 4},
                        {"kind": "insert", "point": [0.1, 0.2]},
                        {"kind": "delete"},
                        {"kind": "delete", "id": -1},
                        object()):
                with pytest.raises(BatchValidationError):
                    sup.submit([good, bad])
            with pytest.raises(BatchValidationError):
                sup.submit([{"kind": "delete", "id": 3},
                            {"kind": "delete", "id": 3}])
            assert sup.pending_ops == 0
            assert sup.report.rejected_requests == 8
            assert sup.state_digest() == before
        finally:
            session.close()

    def test_session_apply_batch_rejects_before_any_mutation(self):
        # The same boundary guards direct Session.apply_batch calls —
        # including the recompute protocol — and the WAL never sees a
        # rejected wave.
        for algo in ("fd-rms", "greedy"):
            session = _session(n=60) if algo == "fd-rms" else open_session(
                np.random.default_rng(0).random((60, 4)), r=6, algo=algo)
            try:
                size = len(session.db)
                results = session.result()
                with pytest.raises(BatchValidationError) as err:
                    session.apply_batch([
                        Operation(INSERT, np.full(4, 0.9), None),
                        {"kind": "delete", "id": 1},
                        {"kind": "delete", "id": 1}])
                assert err.value.index == 2
                assert len(session.db) == size
                assert session.result() == results
            finally:
                closer = getattr(session, "close", None)
                if callable(closer):
                    closer()


# ----------------------------------------------------------------------
# Deadlines, time-boxed pumps, leftover resume
# ----------------------------------------------------------------------

class TestScheduling:
    def test_pump_time_box_resumes_leftover(self):
        clock = VirtualClock()
        session = _session()
        try:
            sup = SessionSupervisor(
                session,
                SupervisorConfig(max_wave=5, pump_budget_s=0.015),
                clock=clock,
                transport=lambda ops: (clock.advance(0.01),
                                       session.apply_batch(ops))[1])
            ops = _mixed_ops(4, n_insert=30, delete_ids=())
            sup.submit(ops)
            applied = sup.pump()
            # 0.01 virtual seconds per wave against a 0.015 budget:
            # exactly two waves fit, the rest resumes later.
            assert applied == 10
            assert sup.report.resumed_pumps == 1
            assert sup.pending_ops == len(ops) - applied
            sup.drain()
            assert sup.state_digest() == _reference_digest(ops)
        finally:
            session.close()

    def test_wave_sizing_follows_cost_estimates(self):
        clock = VirtualClock()
        session = _session()
        try:
            sup = SessionSupervisor(
                session,
                SupervisorConfig(max_wave=64, wave_budget_s=0.03,
                                 cost_prior_s=0.01),
                clock=clock)
            sup.submit(_mixed_ops(5, n_insert=12, delete_ids=()))
            assert len(sup._next_wave()) == 3  # 3 * prior fits the box
        finally:
            session.close()


# ----------------------------------------------------------------------
# Retry, witness, breaker, inline fallback
# ----------------------------------------------------------------------

class TestFailurePolicy:
    def test_transient_fault_retries_on_schedule(self):
        clock = VirtualClock()
        session = _session()
        try:
            failures = [TransientServiceError("flaky")] * 2

            def transport(ops):
                if failures:
                    raise failures.pop()
                return session.apply_batch(ops)

            sup = SessionSupervisor(
                session,
                SupervisorConfig(retry=RetryPolicy(
                    max_attempts=4, base_delay_s=0.005, factor=2.0,
                    max_delay_s=0.05)),
                clock=clock, transport=transport)
            ops = _mixed_ops(6, n_insert=8, delete_ids=())
            sup.submit(ops)
            sup.drain()
            assert sup.report.retries == 2
            assert clock.sleeps == [0.005, 0.01]  # the exact schedule
            assert sup.state_digest() == _reference_digest(ops)
        finally:
            session.close()

    def test_exhaustion_falls_back_inline_bit_exact(self):
        session = _session()
        try:
            def transport(ops):
                raise TransientServiceError("always down")

            sup = SessionSupervisor(session, clock=VirtualClock(),
                                    transport=transport)
            ops = _mixed_ops(7, n_insert=10, delete_ids=())
            sup.submit(ops)
            sup.drain()
            assert sup.report.retry_exhausted >= 1
            assert sup.report.inline_fallbacks >= 1
            assert sup.report.applied_ops == len(ops)
            assert sup.state_digest() == _reference_digest(ops)
        finally:
            session.close()

    def test_partial_mutation_is_never_retried(self):
        session = _session()
        try:
            calls = []

            def transport(ops):
                calls.append(len(ops))
                session.apply_batch(ops)  # mutates...
                raise TransientServiceError("fault after apply")

            sup = SessionSupervisor(session, clock=VirtualClock(),
                                    transport=transport)
            sup.submit(_mixed_ops(8, n_insert=4, delete_ids=()))
            # The witness sees the mutation: no retry, the fault
            # propagates (recovery is the WAL's job, not a re-apply).
            with pytest.raises(TransientServiceError):
                sup.drain()
            assert len(calls) == 1
            assert sup.report.retries == 0
        finally:
            session.close()

    def test_permanent_faults_propagate_unretried(self):
        session = _session()
        try:
            def transport(ops):
                raise KeyError("not transient")

            sup = SessionSupervisor(session, clock=VirtualClock(),
                                    transport=transport)
            sup.submit(_mixed_ops(9, n_insert=3, delete_ids=()))
            with pytest.raises(KeyError):
                sup.drain()
            assert sup.report.retries == 0
        finally:
            session.close()

    def test_breaker_degrades_then_recovers_transport(self):
        clock = VirtualClock()
        session = _session()
        try:
            state = {"down": True, "attempts": 0}

            def transport(ops):
                state["attempts"] += 1
                if state["down"]:
                    raise TransientServiceError("transport down")
                return session.apply_batch(ops)

            sup = SessionSupervisor(
                session,
                SupervisorConfig(
                    max_wave=4,
                    retry=RetryPolicy(max_attempts=2, base_delay_s=0.0),
                    breaker_threshold=2, breaker_reset_s=1.0),
                clock=clock, transport=transport)
            ops = _mixed_ops(10, n_insert=40, delete_ids=())
            sup.submit(ops)
            sup.pump(budget_s=1e9)  # drains: breaker opens along the way
            assert sup.breaker.trips >= 1
            attempts_while_open = state["attempts"]
            # While open, waves take the inline path: no new attempts.
            sup.submit(_mixed_ops(11, n_insert=8, delete_ids=()))
            sup.drain()
            assert state["attempts"] == attempts_while_open
            assert sup.report.inline_fallbacks > 0
            # Transport heals; after the cool-down a half-open probe
            # routes a wave through it again and the breaker closes.
            state["down"] = False
            clock.advance(1.0)
            sup.submit(_mixed_ops(12, n_insert=4, delete_ids=()))
            sup.drain()
            assert state["attempts"] > attempts_while_open
            assert sup.breaker.state == "closed"
            assert sup.breaker.recoveries == 1
        finally:
            session.close()


# ----------------------------------------------------------------------
# Reads: deadlines and staleness markers
# ----------------------------------------------------------------------

class TestReads:
    def test_first_read_materializes_then_deadline_sheds(self):
        session = _session()
        try:
            sup = SessionSupervisor(session)  # monotonic clock
            sup.submit(_mixed_ops(13, n_insert=10, delete_ids=()))
            fresh = sup.read()
            assert not fresh.stale and fresh.lag_ops == 0
            assert sup.report.forced_materializations == 1
            pending = _mixed_ops(14, n_insert=10, delete_ids=())
            sup.submit(pending)
            shed = sup.read(deadline_s=0.0)
            assert shed.stale
            assert shed.lag_ops == len(pending)
            assert shed.ids == fresh.ids  # last materialized result
            assert sup.report.stale_serves == 1
            # A later unconstrained read catches up and is fresh again.
            assert not sup.read().stale
        finally:
            session.close()


# ----------------------------------------------------------------------
# Checkpoint watchdog
# ----------------------------------------------------------------------

class TestCheckpointWatchdog:
    def test_watchdog_checkpoints_every_n_ops(self, tmp_path):
        session = _session()
        try:
            sup = SessionSupervisor(
                session,
                SupervisorConfig(max_wave=8, checkpoint_every_ops=16),
                clock=VirtualClock(), checkpoint_dir=tmp_path / "ckpt")
            # 32 ops in waves of 8: checkpoints at ops 16 and 32, so the
            # last checkpoint captures the final state exactly.
            sup.submit(_mixed_ops(17, n_insert=32, delete_ids=()))
            sup.drain()
            assert sup.report.checkpoints == 2
            from repro.persist.recovery import restore_engine
            restored, info = restore_engine(tmp_path / "ckpt")
            assert info["state_digest"] == sup.state_digest()
        finally:
            session.close()

    def test_failing_checkpoint_is_skipped_never_fatal(self, tmp_path):
        session = _session()
        try:
            def hook():
                raise OSError("disk full")

            sup = SessionSupervisor(
                session,
                SupervisorConfig(max_wave=8, checkpoint_every_ops=16,
                                 retry=RetryPolicy(max_attempts=2,
                                                   base_delay_s=0.0)),
                clock=VirtualClock(), checkpoint_dir=tmp_path / "ckpt",
                checkpoint_hook=hook)
            ops = _mixed_ops(18, n_insert=40, delete_ids=())
            sup.submit(ops)
            sup.drain()
            assert sup.report.checkpoints == 0
            assert sup.report.checkpoint_failures >= 2
            assert sup.report.applied_ops == len(ops)
            assert sup.state_digest() == _reference_digest(ops)
        finally:
            session.close()


# ----------------------------------------------------------------------
# Chaos: every injector, digest parity against a fault-free run
# ----------------------------------------------------------------------

CHAOS_CONFIGS = {
    "latency": ChaosConfig(seed=7, latency_rate=1.0, latency_s=0.001),
    "transient": ChaosConfig(seed=7, transient_rate=0.5,
                             transient_burst=2),
    "transient-exhausting": ChaosConfig(seed=7, transient_rate=0.4,
                                        transient_burst=9),
    "malformed": ChaosConfig(seed=7, malformed_rate=1.0),
    "checkpoint": ChaosConfig(seed=7, checkpoint_fail_rate=1.0),
    "everything": ChaosConfig(seed=7, latency_rate=0.3, latency_s=0.001,
                              transient_rate=0.2, malformed_rate=0.5,
                              checkpoint_fail_rate=0.5),
}

CHAOS_COUNTER = {
    "latency": "latency_spikes",
    "transient": "transient_faults",
    "transient-exhausting": "transient_faults",
    "malformed": "malformed_injected",
    "checkpoint": "checkpoint_faults",
    "everything": "latency_spikes",
}


class TestChaos:
    @pytest.mark.parametrize("name", sorted(CHAOS_CONFIGS))
    def test_injector_preserves_final_digest(self, name, tmp_path):
        ops = _mixed_ops(20)
        session = _session()
        try:
            driver = SupervisedDriver(session, ServiceOptions(
                config=SupervisorConfig(
                    max_wave=6, checkpoint_every_ops=16,
                    retry=RetryPolicy(max_attempts=3, base_delay_s=0.0)),
                chaos=CHAOS_CONFIGS[name], clock=VirtualClock(),
                checkpoint_dir=tmp_path / "ckpt", read_every=2))
            for i in range(0, len(ops), 9):
                driver.feed(ops[i:i + 9])
            driver.barrier()
            report = driver.service_report()
            assert report["chaos"][CHAOS_COUNTER[name]] > 0
            assert report["final_state_digest"] == _reference_digest(ops)
        finally:
            session.close()

    def test_parse_chaos_specs(self):
        config = parse_chaos("latency:rate=0.5:dur=0.01,transient:burst=3",
                             seed=9)
        assert config.seed == 9
        assert config.latency_rate == 0.5 and config.latency_s == 0.01
        assert config.transient_burst == 3
        assert parse_chaos("all").active == (
            "latency", "transient", "malformed", "checkpoint")
        for bad in ("", "warp-core", "latency:speed=3"):
            with pytest.raises(ValueError):
                parse_chaos(bad)


# ----------------------------------------------------------------------
# Replay / simulation integration
# ----------------------------------------------------------------------

class TestReplayIntegration:
    def test_supervised_replay_digest_matches_plain(self):
        from repro.scenarios.replay import replay_trace
        from repro.scenarios.spec import get_scenario
        trace = get_scenario("chaos-churn").compile(seed=0, n=200)
        plain = replay_trace(trace, r=6, eval_samples=200,
                             options={"m_max": 32})
        supervised = replay_trace(
            trace, r=6, eval_samples=200, options={"m_max": 32},
            service=ServiceOptions(config=SupervisorConfig(max_wave=5),
                                   read_every=3))
        assert supervised.determinism_digest() == plain.determinism_digest()
        assert supervised.service["waves"] > 0
        assert "final_state_digest" in supervised.service

    def test_supervised_replay_sheds_under_overload(self):
        from repro.scenarios.replay import replay_trace
        from repro.scenarios.spec import get_scenario
        scenario = get_scenario("overload-flashcrowd")
        trace = scenario.compile(seed=0, n=400)
        hints = dict(scenario.service)
        hints.pop("read_every", None)
        # Tighten the scenario's budgets to zero so the flash-crowd
        # bursts overload *any* machine: a pump applies one wave and a
        # read with no budget must shed whenever the queue is non-empty.
        hints.update(pump_budget_s=0.0, read_deadline_s=0.0)
        res = replay_trace(
            trace, r=6, eval_samples=100, options={"m_max": 32},
            service=ServiceOptions(config=SupervisorConfig(**hints),
                                   read_every=1))
        report = res.service
        assert report["stale_serves"] > 0  # shed, never blocked
        assert report["admission_latency_ms"]["p99"] >= 0.0
        # Shedding is presentation-only: the drained final state matches
        # an unsupervised replay of the same trace. The reference feeds
        # the trace's batch plan (not one giant batch): the engine's
        # state_digest hashes member_scores/tau bytes, and batch-GEMM vs
        # singleton scoring differ in the last ulp, so the bit-exact
        # digest is only comparable along the same batch boundaries.
        session = open_session(trace.workload.initial, 6, algo="fd-rms",
                               seed=0, m_max=32)
        try:
            ops = trace.workload.operations
            for s, e in batch_slices(trace):
                session.apply_batch(ops[s:e])
            assert report["final_state_digest"] == \
                session.engine.state_digest()
        finally:
            session.close()


# ----------------------------------------------------------------------
# Chaos injector unit behavior
# ----------------------------------------------------------------------

class TestChaosInjector:
    def test_transient_burst_counts_and_raises_before_delegate(self):
        clock = VirtualClock()
        injector = ChaosInjector(
            ChaosConfig(seed=0, transient_rate=1.0, transient_burst=2),
            clock)
        applied = []

        class FakeSession:
            engine = None

            @staticmethod
            def apply_batch(ops):
                applied.append(list(ops))

        transport = injector.transport(FakeSession())
        for _ in range(2):
            with pytest.raises(TransientServiceError):
                transport([1])
        assert applied == []  # faults fire strictly before delegation
        assert injector.counters["transient_faults"] == 2

    def test_poison_requests_always_invalid(self):
        from repro.api.session import validate_batch
        injector = ChaosInjector(ChaosConfig(seed=5, malformed_rate=1.0),
                                 VirtualClock())
        for _ in range(20):
            poison = injector.poison_request()
            assert poison is not None
            with pytest.raises(BatchValidationError):
                validate_batch(poison, d=2)
