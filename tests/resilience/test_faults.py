"""Unit tests for the resilience layer: fault plans, retry, config."""

import math

import pytest

from repro.resilience import (
    FAULT_POINTS,
    InjectedFault,
    RetryPolicy,
    env_bool,
    env_float,
    env_int,
    parse_fault_plan,
)
from repro.resilience import faults


class TestParse:
    def test_empty_and_none_mean_no_plan(self):
        assert parse_fault_plan(None) is None
        assert parse_fault_plan("") is None
        assert parse_fault_plan("  ;  ") is None

    def test_full_spec_round_trips(self):
        plan = parse_fault_plan(
            "connect:fail_prob=0.3;chunk_reply:delay_ms=500;"
            "shard:crash_after_rounds=40;seed=7")
        assert plan.seed == 7
        assert plan.rules["connect"].fail_prob == 0.3
        assert plan.rules["chunk_reply"].delay_ms == 500.0
        assert plan.rules["shard"].crash_after_rounds == 40
        assert plan.crash_threshold("shard") == 40
        # describe() is itself a parseable spec
        again = parse_fault_plan(plan.describe())
        assert again.rules.keys() == plan.rules.keys()
        assert again.seed == plan.seed

    def test_multiple_knobs_one_rule(self):
        plan = parse_fault_plan("handshake:fail_first=2,delay_ms=1.5")
        rule = plan.rules["handshake"]
        assert rule.fail_first == 2
        assert rule.delay_ms == 1.5

    def test_unknown_point_names_the_known_ones(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            parse_fault_plan("warp_core:fail_prob=1")
        with pytest.raises(ValueError, match="connect"):
            parse_fault_plan("warp_core:fail_prob=1")

    def test_unhonoured_knob_is_refused(self):
        # connect never consults drop_prob: arming it would test nothing
        with pytest.raises(ValueError, match="does not honour"):
            parse_fault_plan("connect:drop_prob=0.5")
        with pytest.raises(ValueError, match="does not honour"):
            parse_fault_plan("chunk_reply:fail_prob=0.5")

    def test_out_of_range_values_are_refused(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            parse_fault_plan("connect:fail_prob=1.5")
        with pytest.raises(ValueError, match=">= 0"):
            parse_fault_plan("chunk_reply:delay_ms=-1")
        with pytest.raises(ValueError, match=">= 0"):
            parse_fault_plan("connect:fail_first=-2")
        with pytest.raises(ValueError, match="expected a number"):
            parse_fault_plan("connect:fail_prob=lots")
        with pytest.raises(ValueError, match="expected an integer"):
            parse_fault_plan("shard:crash_after_rounds=soon")

    def test_malformed_tokens_are_refused(self):
        with pytest.raises(ValueError, match="bad fault rule"):
            parse_fault_plan("justaword")
        with pytest.raises(ValueError, match="expected knob=value"):
            parse_fault_plan("connect:fail_prob")


class TestDeterminism:
    def _decisions(self, spec, n=64):
        plan = parse_fault_plan(spec)
        out = []
        for _ in range(n):
            try:
                out.append("drop" if plan.fire("connect") else "ok")
            except InjectedFault:
                out.append("fail")
        return out

    def test_same_plan_same_sequence(self):
        spec = "connect:fail_prob=0.4;seed=13"
        assert self._decisions(spec) == self._decisions(spec)

    def test_seed_changes_the_sequence(self):
        a = self._decisions("connect:fail_prob=0.4;seed=13")
        b = self._decisions("connect:fail_prob=0.4;seed=14")
        assert a != b

    def test_fail_first_fails_exactly_the_first_n(self):
        plan = parse_fault_plan("connect:fail_first=3")
        for _ in range(3):
            with pytest.raises(InjectedFault):
                plan.fire("connect")
        for _ in range(10):
            assert plan.fire("connect") is False

    def test_drop_first_drops_exactly_the_first_n(self):
        plan = parse_fault_plan("chunk_reply:drop_first=2")
        assert plan.fire("chunk_reply") is True
        assert plan.fire("chunk_reply") is True
        assert plan.fire("chunk_reply") is False

    def test_points_count_independently(self):
        plan = parse_fault_plan("connect:fail_first=1;handshake:fail_first=1")
        with pytest.raises(InjectedFault):
            plan.fire("connect")
        with pytest.raises(InjectedFault):
            plan.fire("handshake")
        assert plan.fire("connect") is False
        assert plan.fire("handshake") is False

    def test_fail_prob_rate_roughly_matches(self):
        plan = parse_fault_plan("connect:fail_prob=0.3;seed=5")
        fails = 0
        for _ in range(400):
            try:
                plan.fire("connect")
            except InjectedFault:
                fails += 1
        assert 0.2 < fails / 400 < 0.4


class TestProcessWidePlan:
    def test_fire_is_a_noop_with_no_plan(self):
        faults.install(None)
        assert faults.active_plan() is None
        assert faults.fire("connect") is False
        assert faults.crash_threshold() is None

    def test_install_accepts_spec_strings(self):
        try:
            plan = faults.install("shard:crash_after_rounds=5")
            assert faults.active_plan() is plan
            assert faults.crash_threshold() == 5
        finally:
            faults.install(None)

    def test_every_point_in_the_table_is_armable(self):
        for point, knobs in FAULT_POINTS.items():
            spec = f"{point}:{knobs[0]}=0"
            assert parse_fault_plan(spec).rules[point].point == point


class TestRetryPolicy:
    def test_exponential_and_capped(self):
        policy = RetryPolicy(retries=6, backoff=0.1, max_backoff=0.5,
                             jitter=0.0)
        delays = list(policy.delays("k"))
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5, 0.5]

    def test_deterministic_jitter(self):
        policy = RetryPolicy(retries=4, jitter=0.5)
        assert list(policy.delays("a")) == list(policy.delays("a"))
        assert list(policy.delays("a")) != list(policy.delays("b"))

    def test_jitter_stays_in_band(self):
        policy = RetryPolicy(retries=50, backoff=1.0, max_backoff=1.0,
                             jitter=0.25)
        for delay in policy.delays("band"):
            assert 0.75 <= delay <= 1.25

    def test_zero_retries_yields_nothing(self):
        assert list(RetryPolicy(retries=0).delays()) == []

    def test_validation(self):
        with pytest.raises(ValueError, match="retries"):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff=-0.1)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.0)


class TestEnvConfig:
    def test_defaults_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert env_float("REPRO_TEST_KNOB", 2.5) == 2.5
        assert env_int("REPRO_TEST_KNOB", 7) == 7
        assert env_bool("REPRO_TEST_KNOB", True) is True

    def test_parse_errors_name_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "2m")
        with pytest.raises(ValueError, match="REPRO_TEST_KNOB"):
            env_float("REPRO_TEST_KNOB", 1.0)
        with pytest.raises(ValueError, match="REPRO_TEST_KNOB"):
            env_int("REPRO_TEST_KNOB", 1)
        with pytest.raises(ValueError, match="REPRO_TEST_KNOB"):
            env_bool("REPRO_TEST_KNOB", True)

    def test_nan_is_not_a_number(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "nan")
        with pytest.raises(ValueError, match="expected a number"):
            env_float("REPRO_TEST_KNOB", 1.0)

    def test_clamping_is_silent(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "0")
        assert env_int("REPRO_TEST_KNOB", 4, lo=1, hi=10) == 1
        monkeypatch.setenv("REPRO_TEST_KNOB", "1e9")
        assert env_float("REPRO_TEST_KNOB", 1.0, lo=0.0, hi=3600.0) == 3600.0

    def test_bool_tokens(self, monkeypatch):
        for token, expected in (("1", True), ("true", True), ("ON", True),
                                ("0", False), ("no", False), ("off", False)):
            monkeypatch.setenv("REPRO_TEST_KNOB", token)
            assert env_bool("REPRO_TEST_KNOB", not expected) is expected


class TestBackendKnobValidation:
    """The cluster backend reads its env knobs through the validators."""

    def test_bad_timeout_fails_at_construction(self, monkeypatch):
        from repro.cluster.backend import ClusterBackend

        monkeypatch.setenv("REPRO_CLUSTER_TIMEOUT", "2m")
        with pytest.raises(ValueError, match="REPRO_CLUSTER_TIMEOUT"):
            ClusterBackend()

    def test_max_chunk_is_clamped_sane(self, monkeypatch):
        from repro.cluster.backend import ClusterBackend

        monkeypatch.setenv("REPRO_CLUSTER_MAX_CHUNK", "1000000")
        backend = ClusterBackend()
        assert backend.max_chunk == 8192

    def test_bad_fallback_flag_names_itself(self, monkeypatch):
        from repro.cluster.backend import ClusterBackend

        monkeypatch.setenv("REPRO_CLUSTER_FALLBACK", "maybe")
        with pytest.raises(ValueError, match="REPRO_CLUSTER_FALLBACK"):
            ClusterBackend()

    def test_retry_knobs_feed_the_policy(self, monkeypatch):
        from repro.cluster.backend import ClusterBackend

        monkeypatch.setenv("REPRO_CLUSTER_RETRIES", "7")
        monkeypatch.setenv("REPRO_CLUSTER_BACKOFF", "0.2")
        backend = ClusterBackend()
        assert backend.retry_policy.retries == 7
        assert math.isclose(backend.retry_policy.backoff, 0.2)
