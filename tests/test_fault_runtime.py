"""Fault-injection robustness: status classification, retry/backoff
accounting, quarantine, record-book hardening, and tuner survival under
every fault configuration (ISSUE #1)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.explore import (
    FlexTensorTuner,
    PMethodTuner,
    RandomSampleTuner,
    RandomWalkTuner,
)
from repro.model import V100
from repro.ops import conv2d_compute, gemm_compute
from repro.runtime import (
    BatchEngine,
    Evaluator,
    Fault,
    FaultInjector,
    MeasureConfig,
    MeasureStatus,
    RecordBook,
    TuningRecord,
)
from repro.schedule import LoweringError, NodeConfig

ALL_TUNERS = [FlexTensorTuner, PMethodTuner, RandomWalkTuner, RandomSampleTuner]


def smoke_evaluator(**kwargs):
    out = conv2d_compute(1, 8, 8, 8, 16, 3, padding=1, name="c")
    return Evaluator(out, V100, **kwargs)


def tiny_evaluator(**kwargs):
    return Evaluator(gemm_compute(4, 4, 4, name="g"), V100, **kwargs)


def a_point(ev, seed=0):
    return ev.space.random_point(np.random.default_rng(seed))


class FirstAttemptTransient(FaultInjector):
    """Deterministic test double: fail each point's first attempt only."""

    def decide(self, point, attempt):
        return Fault.TRANSIENT if attempt == 0 else Fault.NONE


class TestStatusClassification:
    def test_clean_measurement_is_ok(self):
        ev = smoke_evaluator()
        result = ev.measure(a_point(ev))
        assert result.status is MeasureStatus.OK
        assert result.attempts == 1
        assert result.performance > 0

    def test_model_rejection_is_compile_error(self):
        out = gemm_compute(2048, 64, 2048, name="g")
        ev = Evaluator(out, V100)
        config = NodeConfig(   # 2048 threads per block: toolchain rejects
            spatial_factors=((32, 1, 64, 1), (32, 1, 32, 2)),
            reduce_factors=((64, 1),),
        )
        result = ev.measure(ev.space.encode(config))
        assert result.status is MeasureStatus.COMPILE_ERROR
        assert result.performance == 0.0
        assert ev.clock > 0

    def test_lowering_failure_is_lower_error(self, monkeypatch):
        ev = smoke_evaluator()

        def boom(point):
            raise LoweringError("cannot lower")

        monkeypatch.setattr(ev, "lower_point", boom)
        result = ev.measure(a_point(ev))
        assert result.status is MeasureStatus.LOWER_ERROR
        assert "cannot lower" in result.error

    def test_exotic_exception_recorded_not_raised(self, monkeypatch):
        # ValidationError / arithmetic errors from exotic points must be
        # recorded as failed measurements, never crash the tuner.
        ev = smoke_evaluator()
        monkeypatch.setattr(
            ev.model, "estimate_seconds",
            lambda s: (_ for _ in ()).throw(ZeroDivisionError("weird point")),
        )
        assert ev.evaluate(a_point(ev)) == 0.0
        result = ev.records[-1]
        assert result.status is MeasureStatus.COMPILE_ERROR
        assert "ZeroDivisionError" in result.error

    def test_injected_compile_error(self):
        ev = smoke_evaluator(fault_injector=FaultInjector(compile_error_rate=1.0))
        point = a_point(ev)
        result = ev.measure(point)
        assert result.status is MeasureStatus.COMPILE_ERROR
        assert point in ev.cache  # permanent: cached, never re-measured

    def test_hang_charges_full_timeout_budget(self):
        config = MeasureConfig(timeout_seconds=0.5)
        ev = smoke_evaluator(
            fault_injector=FaultInjector(hang_rate=1.0), measure_config=config
        )
        result = ev.measure(a_point(ev))
        assert result.status is MeasureStatus.RUN_TIMEOUT
        assert ev.clock == pytest.approx(ev.model.measurement_seconds(0.5))

    def test_flaky_point_retried_to_success(self):
        ev = smoke_evaluator(fault_injector=FirstAttemptTransient())
        result = ev.measure(a_point(ev))
        assert result.status is MeasureStatus.FLAKY_RETRIED
        assert result.attempts == 2
        assert result.performance > 0

    def test_jitter_perturbs_measurement(self):
        point = a_point(smoke_evaluator())
        clean = smoke_evaluator().measure(point)
        noisy = smoke_evaluator(
            fault_injector=FaultInjector(jitter=0.3, seed=3)
        ).measure(point)
        assert noisy.status is MeasureStatus.OK
        assert noisy.seconds != clean.seconds


class TestRetryAccounting:
    def test_exhausted_retries_charge_clock_per_attempt(self):
        mc = MeasureConfig(max_retries=2, backoff_seconds=0.1)
        ev = smoke_evaluator(
            fault_injector=FaultInjector(transient_error_rate=1.0), measure_config=mc
        )
        result = ev.measure(a_point(ev))
        assert result.status is MeasureStatus.RUNTIME_ERROR
        assert result.attempts == 3
        # Two failed-then-retried attempts (compile cost + exponential
        # backoff) plus the final failed attempt billed at the charge cap.
        expected = (
            2 * ev.model.measurement_seconds(0.0)
            + 0.1 * (1 + 2)
            + ev.model.measurement_seconds(mc.charge_cap)
        )
        assert ev.clock == pytest.approx(expected)

    def test_transient_failure_not_cached(self):
        ev = smoke_evaluator(
            fault_injector=FaultInjector(transient_error_rate=1.0),
            measure_config=MeasureConfig(max_retries=0, quarantine_threshold=100),
        )
        point = a_point(ev)
        ev.evaluate(point)
        assert point not in ev.cache
        before = ev.num_measurements
        ev.evaluate(point)  # re-visit re-measures (fresh fault rolls)
        assert ev.num_measurements == before + 1


class TestRecordStreamPin:
    """Exact record stream and retry billing of one seeded fault mix
    (compile errors, hangs, transients, jitter, a timeout), through the
    serial ``Evaluator.evaluate`` loop and through ``BatchEngine(workers=4)``.

    Clocks are compared as ``float.hex`` strings, so any change in the
    order of the clock additions — not only in their sum — fails here.
    """

    @staticmethod
    def make():
        injector = FaultInjector(
            compile_error_rate=0.1, hang_rate=0.1, transient_error_rate=0.35,
            jitter=0.2, seed=11,
        )
        return Evaluator(
            gemm_compute(16, 16, 16, name="g"), V100,
            measure_config=MeasureConfig(timeout_seconds=2e-5),
            fault_injector=injector,
        )

    @staticmethod
    def stream(ev):
        """12 fresh points, then re-visits of the first 8 (one of which
        exhausted its retries) and one more of that retried point."""
        rng = np.random.default_rng(5)
        points = [ev.space.random_point(rng) for _ in range(12)]
        return points + points[:8] + points[7:8]

    @staticmethod
    def rows(ev):
        return [
            (r.status.value, r.attempts, r.clock.hex(), r.performance)
            for r in ev.records
        ]

    SERIAL = [
        ("run_timeout", 3, "0x1.a66cf41f212d8p+1", 0.0),
        ("flaky_retried", 3, "0x1.a66c516b343a1p+2", 0.6691867754660908),
        ("ok", 1, "0x1.e66d23224b92fp+2", 1.916484250616334),
        ("run_timeout", 1, "0x1.133763483d226p+3", 0.0),
        ("run_timeout", 1, "0x1.333834ff547b4p+3", 0.0),
        ("ok", 1, "0x1.53389ddae027bp+3", 0.9800973238889802),
        ("run_timeout", 1, "0x1.73396f91f7809p+3", 0.0),
        ("runtime_error", 3, "0x1.dcd4ac99bfcbep+3", 0.0),
        ("ok", 1, "0x1.fcd57ca28e478p+3", 0.4129093344139707),
        ("run_timeout", 1, "0x1.0e6b272cd2d03p+4", 0.0),
        ("ok", 1, "0x1.1e6b5b9a98a67p+4", 1.470984938190348),
        ("run_timeout", 1, "0x1.2e6bc4762452ep+4", 0.0),
        ("compile_error", 1, "0x1.3e6c2d51afff5p+4", 0.0),
    ]

    BATCHED = [
        ("ok", 1, "0x1.000346dc5d639p+0", 1.916484250616334),
        ("run_timeout", 1, "0x1.00068db8bac71p+0", 0.0),
        ("run_timeout", 1, "0x1.0004ea4a8c155p+1", 0.0),
        ("flaky_retried", 3, "0x1.a66baeb74746ap+1", 0.6691867754660908),
        ("run_timeout", 3, "0x1.a66cf41f212d8p+1", 0.0),
        ("ok", 1, "0x1.13374bc6a7efap+2", 0.9800973238889802),
        ("ok", 1, "0x1.13381a212d8e0p+2", 0.4129093344139707),
        ("run_timeout", 1, "0x1.13381d7dbf488p+2", 0.0),
        ("run_timeout", 1, "0x1.5338ef34d6a16p+2", 0.0),
        ("runtime_error", 3, "0x1.a66cf41f212d8p+2", 0.0),
        ("ok", 1, "0x1.e66dc5d638866p+2", 1.470984938190348),
        ("run_timeout", 1, "0x1.e66e978d4fdf4p+2", 0.0),
        ("compile_error", 1, "0x1.e66e978d4fdf4p+2", 0.0),
    ]

    def test_serial_loop(self):
        ev = self.make()
        for point in self.stream(ev):
            ev.evaluate(point)
        assert self.rows(ev) == self.SERIAL
        assert ev.clock.hex() == "0x1.3e6c2d51afff5p+4"

    def test_batch_engine_four_workers(self):
        ev = self.make()
        stream = self.stream(ev)
        engine = BatchEngine(ev, workers=4)
        # The middle batch repeats a point, so one job covers two slots.
        for batch in (stream[0:5], stream[5:10] + [stream[6]], stream[10:]):
            engine.evaluate_batch(batch)
        assert self.rows(ev) == self.BATCHED
        assert ev.clock.hex() == "0x1.e66e978d4fdf4p+2"


class TestQuarantine:
    def make(self, threshold=2, qmax=128):
        return smoke_evaluator(
            fault_injector=FaultInjector(transient_error_rate=1.0),
            measure_config=MeasureConfig(
                max_retries=0, quarantine_threshold=threshold, quarantine_max=qmax
            ),
        )

    def test_repeated_failures_quarantine(self):
        ev = self.make(threshold=2)
        point = a_point(ev)
        ev.evaluate(point)
        ev.evaluate(point)
        assert point in ev.quarantine
        clock = ev.clock
        measurements = ev.num_measurements
        assert ev.evaluate(point) == 0.0      # served from quarantine:
        assert ev.clock == clock              # no clock charge,
        assert ev.num_measurements == measurements  # no measurement
        assert ev.num_quarantine_hits == 1

    def test_quarantine_eviction_fifo(self):
        ev = self.make(threshold=1, qmax=2)
        rng = np.random.default_rng(0)
        points = []
        while len(points) < 3:
            p = ev.space.random_point(rng)
            if p not in points:
                points.append(p)
        for p in points:
            ev.evaluate(p)
        assert len(ev.quarantine) == 2
        assert points[0] not in ev.quarantine   # oldest evicted
        assert ev.quarantine == (points[1], points[2])
        # The evicted point gets a clean slate: measurable again.
        before = ev.num_measurements
        ev.evaluate(points[0])
        assert ev.num_measurements == before + 1

    def test_recent_error_rate_tracks_failures(self):
        ev = self.make(threshold=100)
        assert ev.recent_error_rate() == 0.0
        ev.evaluate(a_point(ev))
        assert ev.recent_error_rate() == 1.0

    @staticmethod
    def check_quarantine_invariant(ev):
        # The FIFO list and the membership set must mirror each other
        # exactly — a divergence would let an evicted point keep hitting
        # the quarantine fast-path (or a quarantined one be re-measured).
        assert set(ev._quarantine) == ev._quarantined
        assert len(ev._quarantine) == len(set(ev._quarantine))
        assert len(ev._quarantine) <= ev.measure_config.quarantine_max

    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 7), st.booleans()), min_size=1, max_size=30
        ),
        qmax=st.integers(1, 4),
    )
    def test_quarantine_list_set_never_diverge(self, ops, qmax):
        # Randomized interleavings of failures (which quarantine + evict)
        # and snapshot round-trips must preserve the list/set invariant.
        ev = self.make(threshold=1, qmax=qmax)
        rng = np.random.default_rng(0)
        points = []
        while len(points) < 8:
            p = ev.space.random_point(rng)
            if p not in points:
                points.append(p)
        for index, roundtrip in ops:
            ev.evaluate(points[index])
            if roundtrip:
                ev.set_state(json.loads(json.dumps(ev.get_state())))
            self.check_quarantine_invariant(ev)

    def test_resume_dedupes_a_corrupt_duplicate_snapshot(self):
        # A hand-edited (or older-version) snapshot may carry duplicate
        # quarantine entries; restoring must collapse them instead of
        # letting the FIFO list and the set disagree on length.
        ev = self.make(threshold=1)
        point = a_point(ev)
        ev.evaluate(point)
        state = ev.get_state()
        state["quarantine"] = state["quarantine"] * 3
        ev.set_state(state)
        self.check_quarantine_invariant(ev)
        assert ev.quarantine == (point,)

    def test_resume_with_shrunken_quarantine_max_rebounds(self):
        # quarantine_max may shrink between save and resume (config
        # change); the restored FIFO must re-apply the new bound.
        big = self.make(threshold=1, qmax=8)
        rng = np.random.default_rng(0)
        points = []
        while len(points) < 5:
            p = big.space.random_point(rng)
            if p not in points:
                points.append(p)
        for p in points:
            big.evaluate(p)
        assert len(big.quarantine) == 5
        small = self.make(threshold=1, qmax=2)
        small.set_state(big.get_state())
        self.check_quarantine_invariant(small)
        assert len(small.quarantine) == 2
        # newest entries survive, oldest are dropped
        assert small.quarantine == (points[3], points[4])


class TestRecordBookHardening:
    def test_corrupt_lines_skipped_with_warning(self, tmp_path):
        path = tmp_path / "records.jsonl"
        good = TuningRecord(
            key="k1", gflops=5.0,
            config=NodeConfig(spatial_factors=((1,),), reduce_factors=()),
        )
        path.write_text(
            good.to_json() + "\n"
            + "{not json at all\n"
            + '{"key": "missing-config"}\n'
            + good.to_json()[: len(good.to_json()) // 2]  # truncated append
        )
        with pytest.warns(UserWarning, match="corrupt record"):
            book = RecordBook(path)
        assert len(book) == 1
        assert book.best("k1").gflops == 5.0

    @staticmethod
    def two_records():
        config = NodeConfig(spatial_factors=((1,),), reduce_factors=())
        first = TuningRecord(key="k1", gflops=5.0, config=config)
        second = TuningRecord(key="k2", gflops=3.0, config=config, signature="s2")
        return first, second

    def test_non_utf8_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "records.jsonl"
        first, second = self.two_records()
        path.write_bytes(
            first.to_json().encode() + b"\n"
            + b"\xff\xfe\x80 garbage\n"
            + second.to_json().encode() + b"\n"
        )
        with pytest.warns(UserWarning, match="corrupt record"):
            book = RecordBook(path)
        assert len(book) == 2
        assert book.best("k1").gflops == 5.0
        assert book.best_for_signature("s2").key == "k2"

    def test_non_object_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "records.jsonl"
        first, second = self.two_records()
        path.write_text(first.to_json() + "\n[1, 2]\n" + second.to_json() + "\n")
        with pytest.warns(UserWarning, match="corrupt record"):
            book = RecordBook(path)
        assert len(book) == 2
        assert book.best("k1").gflops == 5.0
        assert book.best_for_signature("s2").key == "k2"

    def test_append_is_durable_line(self, tmp_path):
        path = tmp_path / "records.jsonl"
        book = RecordBook(path)
        record = TuningRecord(
            key="k", gflops=1.0,
            config=NodeConfig(spatial_factors=((1,),), reduce_factors=()),
        )
        book.add(record)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["key"] == "k"


@pytest.mark.faults
class TestTunersUnderFaults:
    @pytest.mark.parametrize("tuner_cls", ALL_TUNERS)
    def test_acceptance_rates_survive_20_trials(self, tuner_cls):
        # ISSUE #1 acceptance: 30% transient + 5% hang, 20-trial run.
        injector = FaultInjector(transient_error_rate=0.3, hang_rate=0.05, seed=1)
        ev = smoke_evaluator(
            fault_injector=injector,
            measure_config=MeasureConfig(timeout_seconds=0.5),
        )
        result = tuner_cls(ev, seed=0).tune(20, num_seeds=3)
        assert result.num_measurements == sum(result.status_counts.values())
        assert result.found

    def test_qmethod_within_2x_of_fault_free_best(self):
        clean = FlexTensorTuner(smoke_evaluator(), seed=0).tune(20, num_seeds=3)
        injector = FaultInjector(transient_error_rate=0.3, hang_rate=0.05, seed=1)
        faulty_ev = smoke_evaluator(
            fault_injector=injector,
            measure_config=MeasureConfig(timeout_seconds=0.5),
        )
        faulty = FlexTensorTuner(faulty_ev, seed=0).tune(20, num_seeds=3)
        assert faulty.found
        assert faulty.best_performance >= clean.best_performance / 2

    @settings(max_examples=10, deadline=None)
    @given(
        tuner_index=st.integers(min_value=0, max_value=len(ALL_TUNERS) - 1),
        transient=st.floats(min_value=0.0, max_value=0.5),
        compile_rate=st.floats(min_value=0.0, max_value=0.2),
        hang=st.floats(min_value=0.0, max_value=0.2),
        jitter=st.floats(min_value=0.0, max_value=0.2),
        timeout_on=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_all_tuners_complete(
        self, tuner_index, transient, compile_rate, hang, jitter, timeout_on, seed
    ):
        injector = FaultInjector(
            transient_error_rate=transient,
            compile_error_rate=compile_rate,
            hang_rate=hang,
            jitter=jitter,
            seed=seed,
        )
        measure = MeasureConfig(timeout_seconds=0.5 if timeout_on else None)
        ev = tiny_evaluator(fault_injector=injector, measure_config=measure)
        result = ALL_TUNERS[tuner_index](ev, seed=seed).tune(2, num_seeds=2)
        assert result.num_measurements == sum(result.status_counts.values())
        assert len(result.curve) == result.num_measurements
        assert result.exploration_seconds >= 0.0
        if result.found:
            assert result.best_performance > 0
        assert result.best_performance >= 0
