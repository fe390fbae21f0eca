"""Tests for the declarative scenario layer (ScenarioSpec, ModelSpec)."""

import json

import pytest

from repro.contention import make_model
from repro.core.errors import ConfigurationError
from repro.robustness import GuardedModel
from repro.scenario import (MemoSpec, ModelSpec, ScenarioSpec,
                            as_model_spec, available_generators,
                            generator_kind, load_spec, make_workload,
                            register_generator, save_spec)
from repro.workloads.io import workload_to_dict
from repro.workloads.synthetic import uniform_workload


class TestModelSpec:
    def test_build_named_model(self):
        model = ModelSpec(name="mm1").build()
        assert type(model).__name__ == "MM1Model"

    def test_knobs_reach_constructor(self):
        model = ModelSpec(name="mm1", knobs={"rho_max": 0.9}).build()
        assert model.rho_max == pytest.approx(0.9)

    def test_from_model_introspects_non_default_knobs(self):
        spec = ModelSpec.from_model(make_model("mm1", rho_max=0.9))
        assert spec.name == "mm1"
        assert spec.knobs == {"rho_max": 0.9}

    def test_from_model_omits_defaults(self):
        assert ModelSpec.from_model(make_model("mm1")).knobs == {}

    def test_from_model_guarded_chain(self):
        guarded = GuardedModel.from_names(["chenlin", "mm1", "constant"])
        spec = ModelSpec.from_model(guarded)
        assert spec.name == "guarded"
        assert spec.knobs["chain"] == ["chenlin", "mm1", "constant"]
        rebuilt = spec.build()
        assert isinstance(rebuilt, GuardedModel)
        assert [type(m).__name__ for m in rebuilt.models] == \
            [type(m).__name__ for m in guarded.models]

    def test_from_model_guarded_with_tuned_link_raises(self):
        guarded = GuardedModel([make_model("mm1", rho_max=0.5)])
        with pytest.raises(ConfigurationError):
            ModelSpec.from_model(guarded)

    def test_round_trip(self):
        spec = ModelSpec(name="md1", knobs={"rho_max": 0.8})
        assert ModelSpec.from_dict(spec.to_dict()) == spec

    def test_as_model_spec_coercions(self):
        assert as_model_spec(None) is None
        assert as_model_spec("mm1") == ModelSpec(name="mm1")
        assert as_model_spec({"name": "mm1"}) == ModelSpec(name="mm1")
        spec = ModelSpec(name="constant")
        assert as_model_spec(spec) is spec
        assert as_model_spec(make_model("mm1")).name == "mm1"


class TestMemoSpec:
    def test_defaults_round_trip_empty(self):
        spec = MemoSpec()
        assert spec.to_dict() == {}
        assert MemoSpec.from_dict({}) == spec

    def test_build(self):
        cache = MemoSpec(maxsize=32, digits=6).build()
        assert cache.maxsize == 32
        assert cache.digits == 6

    def test_unknown_key_raises(self):
        with pytest.raises(ConfigurationError):
            MemoSpec.from_dict({"size": 10})


class TestScenarioSpecRoundTrip:
    def spec(self):
        return ScenarioSpec(
            generator="uniform",
            params={"threads": 2, "phases": 3, "accesses": 40,
                    "seed": 5},
            model=ModelSpec(name="mm1", knobs={"rho_max": 0.9}),
            min_timeslice=4.0,
            sync_policy="deferred",
            scheduler="roundrobin",
            memo=MemoSpec(maxsize=16),
        )

    def test_to_from_dict_identity(self):
        spec = self.spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_preserves_hash(self):
        spec = self.spec()
        rebuilt = ScenarioSpec.from_dict(
            json.loads(spec.canonical_json()))
        assert rebuilt.spec_hash() == spec.spec_hash()

    def test_save_load(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = self.spec()
        save_spec(spec, str(path))
        assert load_spec(str(path)) == spec

    def test_defaults_are_omitted(self):
        data = ScenarioSpec(generator="uniform").to_dict()
        assert data == {"generator": "uniform"}

    def test_explicit_default_hashes_like_omitted(self):
        # Omit-default serialization keeps hashes stable as fields are
        # added: writing the default explicitly must not change the key.
        implicit = ScenarioSpec(generator="uniform")
        explicit = ScenarioSpec(generator="uniform", min_timeslice=0.0,
                                sync_policy="eager", annotation="phase")
        assert implicit.spec_hash() == explicit.spec_hash()

    def test_param_order_does_not_change_hash(self):
        a = ScenarioSpec(generator="uniform",
                         params={"threads": 2, "seed": 1})
        b = ScenarioSpec(generator="uniform",
                         params={"seed": 1, "threads": 2})
        assert a.spec_hash() == b.spec_hash()

    def test_param_value_changes_hash(self):
        a = ScenarioSpec(generator="uniform", params={"seed": 1})
        b = ScenarioSpec(generator="uniform", params={"seed": 2})
        assert a.spec_hash() != b.spec_hash()

    def test_tuple_params_normalize_to_lists(self):
        spec = ScenarioSpec(generator="phm",
                            params={"idle_fractions": (0.06, 0.9)})
        assert spec.params["idle_fractions"] == [0.06, 0.9]


class TestHashMemo:
    def spec(self):
        return ScenarioSpec(generator="uniform",
                            params={"threads": 2, "seed": 4},
                            model={"name": "mm1"})

    def test_each_digest_is_computed_once(self, monkeypatch):
        from repro.scenario import spec as spec_module

        calls = []
        digest = spec_module._digest
        monkeypatch.setattr(spec_module, "_digest",
                            lambda text: calls.append(text) or digest(text))
        spec = self.spec()
        assert spec.spec_hash() == spec.spec_hash()
        assert spec.workload_hash() == spec.workload_hash()
        assert len(calls) == 2

    def test_memo_stays_outside_the_spec_identity(self):
        import dataclasses
        import pickle

        spec, fresh = self.spec(), self.spec()
        digest = spec.spec_hash()
        spec.workload_hash()
        assert spec == fresh and repr(spec) == repr(fresh)
        assert spec.to_dict() == fresh.to_dict()
        assert pickle.dumps(spec) == pickle.dumps(fresh)
        clone = pickle.loads(pickle.dumps(spec))
        assert "_spec_hash" not in vars(clone)
        assert clone.spec_hash() == digest
        changed = dataclasses.replace(spec, min_timeslice=2.0)
        assert changed.spec_hash() != digest
        assert changed.workload_hash() == spec.workload_hash()


class TestScenarioSpecValidation:
    def test_unknown_field_raises(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec.from_dict({"generator": "uniform",
                                    "workload": "x"})

    def test_bad_sync_policy_raises(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(generator="uniform", sync_policy="psychic")

    def test_bad_scheduler_raises(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(generator="uniform", scheduler="magic")

    def test_bad_annotation_raises(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(generator="uniform", annotation="vibes")

    def test_non_serializable_param_raises(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(generator="uniform",
                         params={"callback": lambda: None})


class TestScenarioSpecBuild:
    def test_build_workload_matches_factory(self):
        spec = ScenarioSpec(generator="uniform",
                            params={"threads": 2, "phases": 3,
                                    "accesses": 40, "seed": 5})
        direct = uniform_workload(threads=2, phases=3, accesses=40,
                                  seed=5)
        assert (workload_to_dict(spec.build_workload())
                == workload_to_dict(direct))

    def test_build_scheduler(self):
        spec = ScenarioSpec(generator="uniform", scheduler="priority")
        assert type(spec.build_scheduler()).__name__ == \
            "PriorityScheduler"

    def test_run_produces_result(self):
        spec = ScenarioSpec(generator="uniform",
                            params={"threads": 2, "phases": 2,
                                    "accesses": 30},
                            model="mm1")
        result = spec.run()
        assert result.makespan > 0

    def test_build_kernel_override_beats_spec(self):
        spec = ScenarioSpec(generator="uniform",
                            params={"threads": 2, "phases": 2,
                                    "accesses": 30},
                            min_timeslice=2.0)
        kernel = spec.build_kernel(min_timeslice=9.0)
        assert kernel.us.min_timeslice == 9.0


class TestGeneratorRegistry:
    def test_builtins_registered(self):
        names = available_generators("workload")
        assert {"fft", "phm", "lu", "noc", "smp", "uniform", "bursty",
                "critical_section", "dma", "inline"} <= set(names)

    def test_duplicate_registration_raises(self):
        with pytest.raises(ConfigurationError):
            register_generator("uniform", uniform_workload)

    def test_unknown_kind_raises(self):
        with pytest.raises(ConfigurationError):
            register_generator("x", uniform_workload, kind="alien")

    def test_unknown_generator_raises_with_known_names(self):
        with pytest.raises(KeyError, match="uniform"):
            make_workload("no_such_generator")

    def test_inline_generator_round_trips_document(self):
        document = workload_to_dict(uniform_workload(threads=2,
                                                     phases=2))
        spec = ScenarioSpec(generator="inline",
                            params={"document": document})
        assert workload_to_dict(spec.build_workload()) == document


class TestKernelKindSpecs:
    def test_golden_generators_are_kernel_kind(self):
        import golden_scenarios  # noqa: F401 - registers on import

        assert generator_kind("golden-basic") == "kernel"

    def test_make_workload_rejects_kernel_kind(self):
        import golden_scenarios  # noqa: F401

        with pytest.raises(ConfigurationError):
            make_workload("golden-basic")

    def test_kernel_kind_rejects_model_field(self):
        import golden_scenarios  # noqa: F401

        spec = ScenarioSpec(generator="golden-basic", model="mm1")
        with pytest.raises(ConfigurationError):
            spec.build_kernel()

    def test_kernel_kind_rejects_annotation(self):
        import golden_scenarios  # noqa: F401

        spec = ScenarioSpec(generator="golden-basic",
                            annotation="barrier")
        with pytest.raises(ConfigurationError):
            spec.build_kernel()

    def test_kernel_kind_spec_runs(self):
        import golden_scenarios  # noqa: F401

        result = ScenarioSpec(generator="golden-spawny").run()
        assert result.makespan > 0
