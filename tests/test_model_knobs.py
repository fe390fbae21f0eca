"""Tests for the reconstructed model's calibration knobs."""

import pytest

from repro.contention import ChenLinModel, SliceDemand
from repro.contention.util import SATURATION_KNEE, WindowTerms


def saturated_demand(total_rho=1.4, threads=4, duration=1_000.0,
                     service=2.0):
    per_thread = total_rho / threads
    count = per_thread * duration / service
    return SliceDemand(start=0, end=duration, service_time=service,
                       demands={f"t{i}": count for i in range(threads)})


class TestKneeParameter:
    def test_default_uses_module_constant(self):
        terms = WindowTerms(saturated_demand())
        default = terms.saturation_floor()
        explicit = terms.saturation_floor(knee=SATURATION_KNEE)
        assert default == explicit

    def test_lower_knee_raises_floor(self):
        terms = WindowTerms(saturated_demand())
        early = terms.saturation_floor(knee=0.8)
        late = terms.saturation_floor(knee=1.0)
        for name in early:
            assert early[name] >= late.get(name, 0.0)

    def test_knee_above_total_disables_floor(self):
        terms = WindowTerms(saturated_demand(total_rho=1.2))
        assert terms.saturation_floor(knee=1.3) == {}

    def test_chenlin_knee_validation(self):
        with pytest.raises(ValueError):
            ChenLinModel(knee=0.0)
        with pytest.raises(ValueError):
            ChenLinModel(knee=2.0)
        assert ChenLinModel(knee=1.0).knee == 1.0
        assert ChenLinModel().knee is None

    def test_chenlin_knee_changes_saturated_penalties(self):
        demand = saturated_demand()
        eager = ChenLinModel(knee=0.8).penalties(demand)
        lazy = ChenLinModel(knee=1.0).penalties(demand)
        assert sum(eager.values()) > sum(lazy.values())

    def test_knee_irrelevant_below_saturation(self):
        demand = saturated_demand(total_rho=0.5)
        eager = ChenLinModel(knee=0.8).penalties(demand)
        default = ChenLinModel().penalties(demand)
        assert eager == pytest.approx(default)
