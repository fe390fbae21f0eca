"""Unit tests for each analytical contention model."""

import pytest

from repro.contention import (ChenLinModel, ConstantModel, MD1Model,
                              MM1Model, NullModel, PriorityModel,
                              RoundRobinModel, SliceDemand)
from repro.contention.util import WindowTerms, open_wait, others

from _helpers import demand

QUEUE_MODELS = [ChenLinModel(), MM1Model(), MD1Model(), RoundRobinModel(),
                PriorityModel()]
ALL_MODELS = QUEUE_MODELS + [ConstantModel(1.0), NullModel()]


class TestSliceDemand:
    def test_duration_and_totals(self):
        d = demand(duration=500.0, service=2.0, a=10, b=20)
        assert d.duration == 500.0
        assert d.total_accesses == 30
        assert d.utilization() == pytest.approx(30 * 2.0 / 500.0)

    def test_zero_duration_utilization(self):
        d = SliceDemand(start=5, end=5, service_time=2.0,
                        demands={"a": 3})
        assert d.utilization() == 0.0


def utilization(d):
    """Offered utilization per demanding thread, from the window terms."""
    terms = WindowTerms(d)
    return dict(zip(terms.names, terms.rho))


class TestUtilHelpers:
    def test_per_thread_utilization(self):
        d = demand(duration=100.0, service=2.0, a=10, b=5)
        rho = utilization(d)
        assert rho["a"] == pytest.approx(0.2)
        assert rho["b"] == pytest.approx(0.1)

    def test_zero_duration_means_unit_utilization(self):
        d = SliceDemand(start=0, end=0, service_time=2.0,
                        demands={"a": 3, "b": 0})
        rho = utilization(d)
        assert rho == {"a": 1.0}

    def test_open_wait_md1_form(self):
        assert open_wait(4.0, 0.5, 0.98) == pytest.approx(2.0)

    def test_open_wait_clips_at_rho_max(self):
        capped = open_wait(4.0, 5.0, 0.9)
        assert capped == open_wait(4.0, 0.9, 0.9)

    def test_open_wait_mm1_doubles_md1(self):
        md1 = open_wait(4.0, 0.5, 0.98, deterministic=True)
        mm1 = open_wait(4.0, 0.5, 0.98, deterministic=False)
        assert mm1 == pytest.approx(2 * md1)

    def test_closed_wait_bounded_by_peers(self):
        # rho = {"a": 0.4, "b": 5.0, "c": 0.1}
        d = demand(duration=100.0, service=2.0, a=20, b=250, c=5)
        wait = WindowTerms(d).closed_waits()[0]
        assert wait == pytest.approx(2.0 * (1.0 + 0.1))

    def test_others_sums_in_list_order(self):
        values = [0.1, 0.2, 0.3, 1e16, -1e16]
        assert others(values) == [
            sum(v for j, v in enumerate(values) if j != i)
            for i in range(len(values))]
        assert others([0.5, 0.25]) == [0.25, 0.5]
        assert others([0.5]) == [0] and others([]) == []

    def test_saturation_floor_empty_below_knee(self):
        d = demand(duration=100.0, service=2.0, a=10, b=10)
        assert WindowTerms(d).saturation_floor() == {}

    def test_saturation_floor_grows_with_overload(self):
        d = demand(duration=100.0, service=2.0, a=40, b=40)
        floors = WindowTerms(d).saturation_floor()  # total rho = 3.2
        assert floors["a"] > 0
        # Bounded by the hard closed cap a * s * (N-1).
        assert floors["a"] <= 40 * 2.0 * 1


class TestSharedModelProperties:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_empty_demand_no_penalty(self, model):
        assert model.penalties(demand()) == {}

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.name)
    def test_single_thread_no_penalty(self, model):
        assert model.penalties(demand(a=50)) == {}

    @pytest.mark.parametrize("model", QUEUE_MODELS, ids=lambda m: m.name)
    def test_two_threads_penalized_symmetrically(self, model):
        result = model.penalties(demand(a=50, b=50))
        assert result["a"] == pytest.approx(result["b"])
        assert result["a"] > 0

    @pytest.mark.parametrize("model", QUEUE_MODELS, ids=lambda m: m.name)
    def test_penalties_nonnegative_finite(self, model):
        result = model.penalties(demand(duration=100, a=200, b=150, c=10))
        for value in result.values():
            assert value >= 0.0
            assert value == value  # not NaN
            assert value != float("inf")

    @pytest.mark.parametrize("model", QUEUE_MODELS, ids=lambda m: m.name)
    def test_monotone_in_interference(self, model):
        light = model.penalties(demand(a=50, b=10)).get("a", 0.0)
        heavy = model.penalties(demand(a=50, b=60)).get("a", 0.0)
        assert heavy >= light

    @pytest.mark.parametrize("model", QUEUE_MODELS, ids=lambda m: m.name)
    def test_zero_width_window_is_finite(self, model):
        d = SliceDemand(start=10, end=10, service_time=4.0,
                        demands={"a": 5, "b": 5})
        result = model.penalties(d)
        for value in result.values():
            assert value == value and value != float("inf")

    @pytest.mark.parametrize("model", QUEUE_MODELS, ids=lambda m: m.name)
    def test_expected_wait_consistent_with_penalties(self, model):
        d = demand(a=40, b=40)
        wait = model.expected_wait(d, "a")
        assert wait == pytest.approx(model.penalties(d)["a"] / 40)

    def test_expected_wait_zero_for_absent_thread(self):
        assert ChenLinModel().expected_wait(demand(a=40), "ghost") == 0.0


class TestChenLin:
    def test_md1_shape_at_low_load(self):
        model = ChenLinModel()
        d = demand(duration=1000.0, service=4.0, a=25, b=25)
        # interference rho = 0.1 -> W = 4*0.1/(2*0.9)
        expected = 25 * (4.0 * 0.1 / (2 * 0.9))
        assert model.penalties(d)["a"] == pytest.approx(expected)

    def test_residual_increases_wait(self):
        base = ChenLinModel(residual=False)
        extra = ChenLinModel(residual=True)
        d = demand(a=25, b=25)
        assert extra.penalties(d)["a"] > base.penalties(d)["a"]

    def test_invalid_rho_max_rejected(self):
        with pytest.raises(ValueError):
            ChenLinModel(rho_max=1.5)
        with pytest.raises(ValueError):
            ChenLinModel(rho_max=0.0)

    def test_saturation_floor_applies(self):
        model = ChenLinModel()
        d = demand(duration=100.0, service=4.0, a=40, b=40)
        result = model.penalties(d)
        # Offered load is 3.2x capacity; penalties must at least cover
        # the flow-balance stretch (capped by the hard bound).
        assert result["a"] >= min((3.2 - 0.95) * 100.0, 40 * 4.0)


class TestMM1MD1:
    def test_mm1_exceeds_md1(self):
        d = demand(a=40, b=40)
        assert MM1Model().penalties(d)["a"] >= MD1Model().penalties(d)["a"]

    def test_exclude_self_false_increases_wait(self):
        d = demand(a=40, b=40)
        incl = MD1Model(exclude_self=False).penalties(d)["a"]
        excl = MD1Model(exclude_self=True).penalties(d)["a"]
        assert incl > excl

    def test_invalid_rho_max(self):
        with pytest.raises(ValueError):
            MM1Model(rho_max=2.0)
        with pytest.raises(ValueError):
            MD1Model(rho_max=-1.0)


class TestRoundRobin:
    def test_linear_in_interference(self):
        model = RoundRobinModel()
        d1 = demand(duration=1000.0, service=4.0, a=50, b=25)
        d2 = demand(duration=1000.0, service=4.0, a=50, b=50)
        w1 = model.penalties(d1)["a"] / 50
        w2 = model.penalties(d2)["a"] / 50
        assert w2 == pytest.approx(2 * w1)


class TestPriorityModel:
    def test_high_priority_waits_less(self):
        model = PriorityModel()
        d = demand(a=50, b=50, priorities={"a": 10, "b": 0})
        result = model.penalties(d)
        assert result["a"] < result["b"]

    def test_equal_priorities_symmetric(self):
        model = PriorityModel()
        d = demand(a=50, b=50, priorities={"a": 1, "b": 1})
        result = model.penalties(d)
        assert result["a"] == pytest.approx(result["b"])

    def test_missing_priorities_default_to_zero(self):
        model = PriorityModel()
        d = demand(a=50, b=50)
        result = model.penalties(d)
        assert result["a"] == pytest.approx(result["b"])


class TestConstantAndNull:
    def test_constant_charges_only_when_shared(self):
        model = ConstantModel(2.0)
        assert model.penalties(demand(a=10)) == {}
        result = model.penalties(demand(a=10, b=1))
        assert result["a"] == pytest.approx(20.0)
        assert result["b"] == pytest.approx(2.0)

    def test_constant_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            ConstantModel(-1.0)

    def test_null_always_empty(self):
        assert NullModel().penalties(demand(a=100, b=100)) == {}
