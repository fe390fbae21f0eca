"""Golden equivalence suite: the optimized kernel is bit-identical.

Two layers of defense around the kernel's incremental slice accounting
(:meth:`SharedResourceScheduler.advance`) and the hot-path rewrite of
the kernel core.  Both compare :class:`HybridKernel` ("incremental")
with :class:`RescanKernel` ("rescan"), a reference defined here whose
commits and final flush re-walk every in-flight region through
:meth:`SharedResourceScheduler.collect`:

* **Golden snapshots** — every scenario in ``golden_scenarios`` runs
  across the full configuration matrix (sync policy x min_timeslice x
  fault plan x memo cache) on *both* kernels, and the hex-float
  serialization of the entire outcome (statistics, trace stream, memo
  hit/miss/eviction counters) must equal the committed snapshot
  produced by the seed kernel.  Any float that drifts by even one ulp
  fails here.
* **Property-based cross-check** — hypothesis generates small random
  workloads and asserts the two kernels agree exactly on workloads
  nobody hand-picked.

If a deliberate behavior change is made, regenerate the snapshots with
``PYTHONPATH=src:tests python tests/generate_golden.py`` and say so in
the commit message; never loosen the equality to approx.
"""

import inspect
import json
import pathlib

import pytest

from golden_scenarios import (MIN_TIMESLICES, SYNC_POLICIES, config_key,
                              iter_configs, run_config, snapshot)
from repro.contention import ChenLinModel, ConstantModel
from repro.core import (HybridKernel, LogicalThread, Processor,
                        SharedResource)
from repro.core.errors import SimulationError
from repro.core.events import consume

GOLDEN_PATH = (pathlib.Path(__file__).parent / "data" /
               "golden_kernel.json")

_EPS = 1e-9


class RescanKernel(HybridKernel):
    """Reference kernel: every commit rescans the in-flight regions.

    :meth:`_commit` and :meth:`_flush_final_slice` match the kernel's
    except that window demand is gathered by
    :meth:`~repro.core.us.SharedResourceScheduler.collect` over the
    queue's regions (plus the committing one, last) instead of the
    incremental :meth:`~repro.core.us.SharedResourceScheduler.advance`.
    """

    def _commit(self, region):
        t_i = region.end_time
        if t_i < self.now - _EPS:
            raise SimulationError(
                f"non-monotonic commit: {t_i} < {self.now}")
        if t_i > self.now:
            self.now = t_i
        live = self._queue.regions()
        live.append(region)
        self.us.collect(self.now, live)
        penalties = self.us.analyze(self._priorities)
        if penalties:
            if self.trace is not None:
                self.trace.record("slice", self.now,
                                  detail_penalties=dict(penalties))
            if self._distribute_penalties(penalties, region):
                return
        self._finalize_region(region)

    def _flush_final_slice(self):
        self.us.collect(self.now, self._queue.regions())
        penalties = self.us.analyze(self._priorities, force=True)
        for thread_name, penalty in penalties.items():
            self._by_name[thread_name].total_penalty += penalty


#: Accounting mode (the test-id suffix) -> kernel class.
KERNELS = {"incremental": HybridKernel, "rescan": RescanKernel}

ACCOUNTING_MODES = tuple(KERNELS)

CONFIGS = list(iter_configs())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


class TestMatrixCoverage:
    """The committed snapshot file covers the matrix ISSUE demands."""

    def test_modes_match_kernel_contract(self):
        # The kernel has one accounting path; the rescan reference is a
        # subclass that only swaps how a commit gathers demand.
        assert "slice_accounting" not in inspect.signature(
            HybridKernel).parameters
        assert issubclass(RescanKernel, HybridKernel)
        assert set(RescanKernel.__dict__) >= {"_commit",
                                              "_flush_final_slice"}

    def test_matrix_spans_required_axes(self):
        assert set(SYNC_POLICIES) == {"eager", "deferred"}
        assert 0.0 in MIN_TIMESLICES
        assert any(mts > 0 for mts in MIN_TIMESLICES)
        faults = {cfg[3] for cfg in CONFIGS}
        memos = {cfg[4] for cfg in CONFIGS}
        assert faults == {False, True}
        assert memos == {False, True}

    def test_snapshot_file_complete(self, golden):
        assert set(golden) == {config_key(*cfg) for cfg in CONFIGS}


@pytest.mark.parametrize("mode", ACCOUNTING_MODES)
@pytest.mark.parametrize(
    "cfg", CONFIGS, ids=[config_key(*cfg) for cfg in CONFIGS])
def test_matches_seed_golden(cfg, mode, golden):
    """Both accounting paths reproduce the seed kernel bit-for-bit."""
    assert run_config(*cfg, kernel_class=KERNELS[mode]) == \
        golden[config_key(*cfg)]


def _run_random(threads, policy, mts, mode):
    """Build and run one generated workload; return its snapshot."""
    procs = [Processor("p0", 1.0), Processor("p1", 1.25)]
    resources = [
        SharedResource("bus", ChenLinModel(), service_time=2.0),
        SharedResource("mem", ConstantModel(0.5), service_time=3.0),
    ]
    kernel = KERNELS[mode](procs, resources, sync_policy=policy,
                           min_timeslice=mts, trace=True)

    def make_body(regions):
        def body():
            for duration, bus, mem in regions:
                demands = {}
                if bus:
                    demands["bus"] = bus
                if mem:
                    demands["mem"] = mem
                yield consume(duration, demands or None)
        return body

    for idx, (start, regions) in enumerate(threads):
        kernel.add_thread(LogicalThread(f"t{idx}", make_body(regions)),
                          start_time=start)
    return snapshot(kernel, kernel.run())


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis is in the image
    pass
else:
    _region = st.tuples(
        st.floats(min_value=0.0, max_value=60.0, allow_nan=False,
                  allow_infinity=False),
        st.one_of(st.just(0), st.integers(min_value=1, max_value=6),
                  st.floats(min_value=0.25, max_value=4.0)),
        st.one_of(st.just(0), st.integers(min_value=1, max_value=4)),
    )
    _thread = st.tuples(
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
        st.lists(_region, min_size=1, max_size=6),
    )
    _workload = st.lists(_thread, min_size=1, max_size=4)

    class TestPropertyEquivalence:
        """Incremental and rescan accounting agree on random workloads."""

        @settings(max_examples=40, deadline=None)
        @given(threads=_workload,
               policy=st.sampled_from(SYNC_POLICIES),
               mts=st.sampled_from((0.0, 4.0)))
        def test_incremental_equals_rescan(self, threads, policy, mts):
            fast = _run_random(threads, policy, mts, "incremental")
            slow = _run_random(threads, policy, mts, "rescan")
            assert fast == slow
