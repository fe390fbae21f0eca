"""Per-window thread terms: bit-identical to per-thread recomputation.

Every queueing model computes its "all threads but me" sums once per
window through :class:`~repro.contention.util.WindowTerms`.  Each
model's ``penalties`` must equal, float for float (compared as hex) and
key for key in the same order, its straightforward form in
``_reference.py``, which recomputes every sum per thread from the
:class:`SliceDemand` — across heterogeneous ``mean_service``,
zero-width windows, saturated windows, ``residual``, ``knee``,
``exclude_self=False``, priorities and (for the M/M/c model) ports.
"""

import dataclasses
import math

from hypothesis import given, settings, strategies as st

from _reference import REFERENCE_PENALTIES
from repro.contention import (ChenLinModel, MD1Model, MM1Model, MMcModel,
                              PriorityModel, RoundRobinModel, SliceDemand)
from repro.contention.util import WindowTerms, others

_RHO_MAX = st.floats(min_value=0.05, max_value=0.99)
MODELS = st.one_of(
    st.builds(ChenLinModel, rho_max=_RHO_MAX, residual=st.booleans(),
              knee=st.one_of(st.none(),
                             st.floats(min_value=0.1, max_value=1.5))),
    st.builds(MD1Model, rho_max=_RHO_MAX, exclude_self=st.booleans()),
    st.builds(MM1Model, rho_max=_RHO_MAX, exclude_self=st.booleans()),
    st.just(RoundRobinModel()),
    st.builds(PriorityModel, rho_max=_RHO_MAX),
)

_COUNT = st.one_of(st.just(0), st.just(0.0), st.just(-3.0),
                   st.integers(min_value=1, max_value=400),
                   st.floats(min_value=1e-6, max_value=5e3))


@st.composite
def demands(draw):
    count = draw(st.integers(min_value=0, max_value=16))
    names = [f"t{i}" for i in range(count)]
    start = draw(st.floats(min_value=0.0, max_value=1e5))
    width = draw(st.one_of(st.just(0.0), st.just(1e-13),
                           st.floats(min_value=1e-3, max_value=5e4)))
    service = draw(st.one_of(st.integers(min_value=1, max_value=20),
                             st.floats(min_value=0.25, max_value=64.0)))
    mean_service = {name: draw(st.floats(min_value=0.25, max_value=128.0))
                    for name in names if draw(st.booleans())}
    priorities = {name: draw(st.integers(min_value=-2, max_value=3))
                  for name in names if draw(st.booleans())}
    return SliceDemand(start=start, end=start + width,
                       service_time=service,
                       demands={name: draw(_COUNT) for name in names},
                       priorities=priorities,
                       mean_service=draw(st.sampled_from(
                           [mean_service, {}])))


def _exact(penalties):
    return [(name, value.hex() if isinstance(value, float) else value)
            for name, value in penalties.items()]


@settings(max_examples=600, deadline=None)
@given(model=MODELS, demand=demands())
def test_penalties_are_bit_identical_to_the_reference(model, demand):
    reference = REFERENCE_PENALTIES[type(model)](model, demand)
    assert _exact(model.penalties(demand)) == _exact(reference)


@settings(max_examples=400, deadline=None)
@given(rho_max=_RHO_MAX, ports=st.integers(min_value=1, max_value=6),
       demand=demands())
def test_mmc_penalties_are_bit_identical_to_the_reference(rho_max, ports,
                                                          demand):
    """M/M/c over ports, heterogeneous ``mean_service`` and zero-width
    windows: the c-server saturation floor is its own, so it is drawn
    apart from :data:`MODELS`."""
    model = MMcModel(rho_max=rho_max)
    demand = dataclasses.replace(demand, ports=ports)
    reference = REFERENCE_PENALTIES[MMcModel](model, demand)
    assert _exact(model.penalties(demand)) == _exact(reference)


@settings(max_examples=200, deadline=None)
@given(model=MODELS, threads=st.integers(min_value=2, max_value=12),
       load=st.floats(min_value=0.8, max_value=4.0))
def test_saturated_symmetric_windows(model, threads, load):
    """Oversubscribed windows, where the saturation floor binds."""
    count = load * 1000.0 / (threads * 2.0)
    demand = SliceDemand(start=0.0, end=1000.0, service_time=2.0,
                         demands={f"t{i}": count for i in range(threads)})
    reference = REFERENCE_PENALTIES[type(model)](model, demand)
    assert _exact(model.penalties(demand)) == _exact(reference)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.integers(min_value=-5, max_value=5)), max_size=10))
def test_others_is_the_per_entry_sum(values):
    expected = [sum(v for j, v in enumerate(values) if j != i)
                for i in range(len(values))]
    got = others(values)
    assert [type(v) for v in got] == [type(v) for v in expected]
    assert all(a == b or (math.isnan(a) and math.isnan(b))
               for a, b in zip(got, expected))


@given(demand=demands())
def test_window_terms_match_per_thread_utilization(demand):
    from _reference import per_thread_utilization

    terms = WindowTerms(demand)
    rho = per_thread_utilization(demand)
    assert terms.names == list(rho)
    assert [v.hex() for v in terms.rho] == [v.hex() for v in rho.values()]
