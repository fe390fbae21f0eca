"""Property-based bit-identity of the US analysis loop vs scalar calls.

:meth:`SharedResourceScheduler.analyze` evaluates one timeslice over
every shared resource.  Its contract is that for every closed-form
model, every number of resources sharing that model, and every demand
shape, the slice's totals and per-resource statistics equal calling
``model.penalties`` on each resource's demand by hand, in resource
order — with ``==`` meaning *exact float equality and exact dict key
order*, not approximate agreement.  These properties hammer that
contract with randomized slices.  Test names are kept as stable ids.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.contention import SliceDemand
from repro.contention.chenlin import ChenLinModel
from repro.contention.constant import ConstantModel
from repro.contention.md1 import MD1Model
from repro.contention.mm1 import MM1Model
from repro.contention.mmc import MMcModel
from repro.contention.roundrobin import RoundRobinModel
from repro.core.region import AnnotationRegion
from repro.core.resource import Processor
from repro.core.shared import SharedResource
from repro.core.thread import LogicalThread
from repro.core.us import SharedResourceScheduler

# One instance per closed-form model.  The variant rows exercise
# non-default knobs.
MODELS = [
    ConstantModel(0.5),
    ConstantModel(3.25),
    MM1Model(),
    MM1Model(rho_max=0.7),
    MD1Model(),
    MD1Model(rho_max=0.5),
    MMcModel(),
    RoundRobinModel(),
    ChenLinModel(),
    ChenLinModel(rho_max=0.9),
]

MODEL_IDS = [f"{type(m).__name__}-{i}" for i, m in enumerate(MODELS)]

#: Beats per transaction of thread ``t0`` when a resource entry asks
#: for a non-default per-transaction service time.
BURST = 1.5

_EPS = 1e-12

resource_strategy = st.tuples(
    st.floats(min_value=0.5, max_value=32.0, allow_nan=False),  # service
    st.lists(
        st.one_of(st.just(0.0),  # inactive thread edge case
                  st.floats(min_value=0.0, max_value=3_000.0,
                            allow_nan=False)),
        min_size=0, max_size=5),  # per-thread access counts
    st.integers(min_value=1, max_value=4),  # ports
    st.booleans(),  # t0 bursts on this resource
)

duration_strategy = st.one_of(
    st.just(0.0),  # zero-width window edge case
    st.floats(min_value=1.0, max_value=50_000.0, allow_nan=False))


def _analyze(models, duration, entries):
    """Run one slice through the US loop; return (totals, resources)."""
    resources = [SharedResource(f"r{i}", model, service_time=service,
                                ports=ports)
                 for i, (model, (service, _, ports, _)) in enumerate(
                     zip(models, entries))]
    scheduler = SharedResourceScheduler(resources)
    processor = Processor("p0", power=1.0)
    threads = max((len(counts) for _, counts, _, _ in entries), default=0)
    regions = []
    for t in range(threads):
        accesses, burst = {}, {}
        for i, (_, counts, _, bursty) in enumerate(entries):
            if t < len(counts):
                accesses[f"r{i}"] = counts[t]
                if bursty and t == 0:
                    burst[f"r{i}"] = BURST
        regions.append(AnnotationRegion(
            LogicalThread(f"t{t}", lambda: iter(())), processor,
            duration, accesses, 0.0, burst=burst))
    scheduler.collect(duration, regions)
    priorities = {f"t{t}": 0 for t in range(threads)}
    return scheduler.analyze(priorities), resources


def _scalar_loop(models, duration, entries):
    """Hand-built demands, one ``penalties()`` call per resource."""
    totals, outputs = {}, []
    for model, (service, counts, ports, bursty) in zip(models, entries):
        if not counts:
            outputs.append(None)
            continue
        demands = {f"t{t}": count for t, count in enumerate(counts)}
        mean_service = {}
        first = counts[0]
        if bursty and first > 0:
            beats = first * BURST
            if abs(beats - first) > _EPS * max(1.0, abs(first)):
                mean_service["t0"] = service * beats / first
        priorities = ({thread: 0 for thread in demands}
                      if model.uses_priorities else {})
        penalties = model.penalties(SliceDemand(
            0.0, duration, service, demands, priorities, ports,
            mean_service))
        outputs.append(penalties)
        for thread, penalty in penalties.items():
            if penalty > 0:
                totals[thread] = totals.get(thread, 0.0) + penalty
    return totals, outputs


def _assert_bit_identical(models, duration, entries):
    got, resources = _analyze(models, duration, entries)
    want, outputs = _scalar_loop(models, duration, entries)
    assert list(got) == list(want)
    for key in want:
        assert got[key] == want[key], (
            f"totals[{key}]: {got[key].hex()} != {want[key].hex()}")
    for resource, output in zip(resources, outputs):
        if output is None:
            assert resource.penalty_by_thread == {}
            continue
        assert list(resource.penalty_by_thread) == list(output)
        for key, value in output.items():
            assert resource.penalty_by_thread[key] == value, (
                f"{type(resource.model).__name__}[{key}]: "
                f"{resource.penalty_by_thread[key].hex()} != "
                f"{value.hex()}")
            assert isinstance(value, float)


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
@settings(max_examples=60, deadline=None)
@given(duration=duration_strategy,
       entries=st.lists(resource_strategy, min_size=0, max_size=8))
def test_batch_equals_scalar_loop(model, duration, entries):
    """Many resources sharing one model instance in one slice."""
    _assert_bit_identical([model] * len(entries), duration, entries)


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
@settings(max_examples=30, deadline=None)
@given(duration=duration_strategy,
       entries=st.lists(resource_strategy, min_size=0, max_size=8))
def test_batch_equals_scalar_loop_without_numpy(model, duration, entries):
    """The loop and the models import no NumPy while they run."""
    saved = sys.modules.get("numpy")
    sys.modules["numpy"] = None  # any ``import numpy`` now raises
    try:
        _assert_bit_identical([model] * len(entries), duration, entries)
    finally:
        if saved is None:
            del sys.modules["numpy"]
        else:
            sys.modules["numpy"] = saved


@pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
def test_empty_and_single_batches(model):
    got, resources = _analyze([model], 1_000.0, [(4.0, [], 1, False)])
    assert got == {}
    assert resources[0].penalty_by_thread == {}
    _assert_bit_identical([model], 1_000.0, [(4.0, [40.0, 60.0], 1, False)])


@settings(max_examples=40, deadline=None)
@given(duration=duration_strategy,
       entries=st.lists(resource_strategy, min_size=2, max_size=10))
def test_analyze_grouped_matches_per_model_loops(duration, entries):
    """Mixed models interleaved across resources, in resource order."""
    models = [ChenLinModel(), MM1Model(), ConstantModel(1.0)]
    _assert_bit_identical(
        [models[i % len(models)] for i in range(len(entries))],
        duration, entries)
