"""Frozen, JSON-serializable scenario descriptions with content hashes.

Every entry point used to describe a run by threading ad-hoc kwargs
through ``run_hybrid``/``build_kernel``/``run_comparison``, so a
"scenario" had no first-class identity — nothing could be serialized,
diffed, shipped to a worker process, or cached across runs.
:class:`ScenarioSpec` is that identity: workload generator name and
parameters (including the seed), contention model and knobs, annotation
and scheduling policy, fault plan, budget and memoization, all as plain
JSON values.

Identity is *structural*: two specs are equal iff their canonical JSON
is equal, and :meth:`ScenarioSpec.spec_hash` (SHA-256 of the canonical
JSON) is the content address used by
:class:`~repro.scenario.store.RunStore`.  ``to_dict`` omits fields at
their defaults, so adding a new knob later does not change the hash of
every existing spec.

The spec stores *descriptions*, never live objects: models are
``(registry name, knobs)`` pairs, fault plans and budgets are their
``to_dict`` mappings, the workload is a generator name plus parameters.
``build_*`` methods materialize the live objects on demand, which is
what lets a spec pickle as a small dict for worker processes.
"""

from __future__ import annotations

import hashlib
import inspect
import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from ..core.errors import ConfigurationError, SpecValidationError
from .generators import generator_kind, make_workload, resolve_generator

#: Scheduler names accepted by :attr:`ScenarioSpec.scheduler`, mapping
#: to the execution schedulers in :mod:`repro.core.scheduler`.
SCHEDULERS = ("fifo", "roundrobin", "priority", "pinned", "least_loaded")

_SCALARS = (bool, int, float, str, type(None))


def _plain(value, context: str, path: str = ""):
    """Normalize ``value`` to JSON-plain data (tuples become lists).

    Raises :class:`SpecValidationError` — carrying a JSON-pointer-style
    ``path`` into the offending value — for anything that would not
    round-trip through JSON: a spec holding a live object would hash
    by ``repr`` accident instead of by content.
    """
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(item, context, f"{path}/{index}")
                for index, item in enumerate(value)]
    if isinstance(value, Mapping):
        plain = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise SpecValidationError(
                    f"{context}: mapping keys must be strings, "
                    f"got {key!r}", path or "/"
                )
            plain[key] = _plain(item, context, f"{path}/{key}")
        return plain
    raise SpecValidationError(
        f"{context}: value {value!r} of type {type(value).__name__} is "
        f"not JSON-serializable", path or "/"
    )


#: One shared encoder: ``json.dumps`` with non-default options builds
#: a new encoder per call, which is a sixth of a spec hash's cost.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _canonical(document: Mapping) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return _ENCODER.encode(document)


def _digest(text: str) -> str:
    """SHA-256 hex digest of ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _check_unknown(data: Mapping, allowed, what: str,
                   path: str = "") -> None:
    """Reject unknown mapping keys with a precise error message."""
    unknown = set(data) - set(allowed)
    if unknown:
        first = sorted(unknown)[0]
        raise SpecValidationError(
            f"unknown {what} key(s): {', '.join(sorted(unknown))}",
            f"{path}/{first}"
        )


def _as_mapping(value, what: str, path: str) -> Mapping:
    """Require a mapping, with a located error otherwise."""
    if not isinstance(value, Mapping):
        raise SpecValidationError(
            f"{what} must be a mapping, got "
            f"{type(value).__name__}", path
        )
    return value


@dataclass(frozen=True)
class ModelSpec:
    """A contention model as data: registry name plus constructor knobs.

    ``build()`` goes through
    :func:`repro.contention.registry.make_model`, so any model a spec
    can name is exactly a model the CLI can name.
    """

    name: str
    knobs: Mapping = field(default_factory=dict)

    def __post_init__(self):
        """Normalize knobs to JSON-plain data (tuples become lists)."""
        _as_mapping(self.knobs, f"model {self.name!r} knobs", "/knobs")
        object.__setattr__(
            self, "knobs",
            _plain(dict(self.knobs), f"model {self.name!r} knobs",
                   "/knobs"))

    def build(self):
        """Instantiate the named model with its knobs."""
        from ..contention.registry import make_model

        knobs = {key: tuple(value) if isinstance(value, list) else value
                 for key, value in self.knobs.items()}
        return make_model(self.name, **knobs)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        data: Dict[str, object] = {"name": self.name}
        if self.knobs:
            data["knobs"] = dict(self.knobs)
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ModelSpec":
        """Build a model spec from a plain mapping (e.g. parsed JSON)."""
        _check_unknown(data, {"name", "knobs"}, "model spec")
        if "name" not in data:
            raise SpecValidationError("model spec needs a 'name'",
                                      "/name")
        if not isinstance(data["name"], str) or not data["name"]:
            raise SpecValidationError(
                f"model name must be a non-empty string, "
                f"got {data['name']!r}", "/name")
        return cls(name=data["name"], knobs=data.get("knobs", {}))

    @classmethod
    def from_model(cls, model) -> "ModelSpec":
        """Derive the ``(name, knobs)`` description of a live instance.

        Works for every registry model by introspection: constructor
        parameters are read back from the attributes of the same name,
        and knobs still at their defaults are omitted (keeping the spec
        hash stable).  A :class:`~repro.robustness.guard.GuardedModel`
        serializes as its chain of registry names.  Raises
        :class:`ConfigurationError` for models whose configuration
        cannot be recovered — caching a run under an incomplete model
        description would poison the store.
        """
        from ..robustness.guard import GuardedModel

        if isinstance(model, GuardedModel):
            return cls._from_guarded(model)
        name = getattr(model, "name", None)
        if not isinstance(name, str):
            raise ConfigurationError(
                f"model {type(model).__name__} has no registry name; "
                f"register it and set a class-level 'name'"
            )
        knobs = {}
        signature = inspect.signature(type(model).__init__)
        for param_name, param in signature.parameters.items():
            if param_name == "self":
                continue
            if not hasattr(model, param_name):
                raise ConfigurationError(
                    f"cannot derive a spec for {name!r}: constructor "
                    f"parameter {param_name!r} is not stored as an "
                    f"attribute"
                )
            value = getattr(model, param_name)
            if not isinstance(value, _SCALARS + (list, tuple)):
                raise ConfigurationError(
                    f"cannot derive a spec for {name!r}: parameter "
                    f"{param_name!r} holds non-scalar {value!r}"
                )
            if param.default is not inspect.Parameter.empty \
                    and value == param.default:
                continue
            knobs[param_name] = value
        return cls(name=name, knobs=knobs)

    @classmethod
    def _from_guarded(cls, model) -> "ModelSpec":
        """Serialize a guarded chain as registry names plus the guard."""
        chain = []
        for link in model.models:
            link_spec = cls.from_model(link)
            if link_spec.knobs:
                raise ConfigurationError(
                    f"cannot derive a spec for a guarded chain whose "
                    f"{link_spec.name!r} link has non-default knobs "
                    f"{link_spec.knobs!r}; build the spec explicitly"
                )
            chain.append(link_spec.name)
        knobs: Dict[str, object] = {"chain": chain}
        if model.max_penalty_factor != 10.0:
            knobs["max_penalty_factor"] = model.max_penalty_factor
        return cls(name="guarded", knobs=knobs)


def as_model_spec(value) -> Optional[ModelSpec]:
    """Coerce ``None`` / name / mapping / instance to a model spec."""
    if value is None or isinstance(value, ModelSpec):
        return value
    if isinstance(value, str):
        return ModelSpec(name=value)
    if isinstance(value, Mapping):
        return ModelSpec.from_dict(value)
    return ModelSpec.from_model(value)


@dataclass(frozen=True)
class MemoSpec:
    """Slice-memoization configuration as data.

    Mirrors the :class:`~repro.perf.memo.SliceMemoCache` constructor;
    ``build()`` returns a fresh cache (one per run unless the caller
    shares one explicitly).
    """

    maxsize: int = 4096
    digits: Optional[int] = None

    def build(self):
        """Create the configured :class:`SliceMemoCache`."""
        from ..perf.memo import SliceMemoCache

        return SliceMemoCache(maxsize=self.maxsize, digits=self.digits)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        data: Dict[str, object] = {}
        if self.maxsize != 4096:
            data["maxsize"] = self.maxsize
        if self.digits is not None:
            data["digits"] = self.digits
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "MemoSpec":
        """Build a memo spec from a plain mapping (e.g. parsed JSON)."""
        _check_unknown(data, {"maxsize", "digits"}, "memo spec")
        for key in ("maxsize", "digits"):
            value = data.get(key)
            if value is not None and (isinstance(value, bool)
                                      or not isinstance(value, int)):
                raise SpecValidationError(
                    f"memo {key} must be an integer, got {value!r}",
                    f"/{key}")
        return cls(maxsize=data.get("maxsize", 4096),
                   digits=data.get("digits"))


#: ``to_dict`` key order and defaults for :class:`ScenarioSpec`.
_SPEC_FIELDS = ("generator", "params", "model", "models",
                "min_timeslice", "annotation", "sync_policy", "scheduler",
                "trace", "fault_plan", "budget", "memo")


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, hashable description of one simulation scenario.

    Attributes
    ----------
    generator:
        Registered workload-generator name (see
        :mod:`repro.scenario.generators`).
    params:
        Keyword arguments for the generator, including its seed.
    model:
        Default contention model for every shared resource (``None``
        means the kernel default, Chen-Lin).
    models:
        Per-resource model overrides (resource name -> model spec).
    min_timeslice / annotation / sync_policy / scheduler / trace:
        Kernel construction knobs, mirroring
        :func:`repro.workloads.to_mesh.build_kernel`.
    fault_plan / budget:
        Serialized robustness configuration
        (:meth:`FaultPlan.to_dict` / :meth:`RunBudget.to_dict` forms),
        stored as plain mappings so spec equality stays structural.
    memo:
        Slice-memoization configuration (``None`` disables memoization).

    No field selects the execution engine: ``"workload"``-kind specs lower
    through :func:`repro.workloads.to_mesh.build_kernel`, which always
    selects the SoA engine, so the content address is engine-agnostic.
    A document that still carries the deleted ``kernel_options`` field
    is rejected with a located error.  The mesh prepass knob
    ``batch_cells`` is likewise a pure execution parameter of the
    runner/sweep layer and never enters the spec or :meth:`spec_hash`.
    """

    generator: str
    params: Mapping = field(default_factory=dict)
    model: Optional[ModelSpec] = None
    models: Mapping = field(default_factory=dict)
    min_timeslice: float = 0.0
    annotation: str = "phase"
    sync_policy: str = "eager"
    scheduler: Optional[str] = None
    trace: bool = False
    fault_plan: Optional[Mapping] = None
    budget: Optional[Mapping] = None
    memo: Optional[MemoSpec] = None

    def __post_init__(self):
        """Normalize members to JSON-plain data and validate knobs.

        Every validation failure is a :class:`SpecValidationError`
        whose ``path`` points at the offending field of the spec
        document, so services can answer with the exact location.
        """
        if not isinstance(self.generator, str) or not self.generator:
            raise SpecValidationError(
                f"generator must be a non-empty string, "
                f"got {self.generator!r}", "/generator"
            )
        setter = object.__setattr__
        setter(self, "params",
               _plain(_as_mapping(self.params, "scenario params",
                                  "/params"),
                      "scenario params", "/params"))
        try:
            setter(self, "model", as_model_spec(self.model))
        except SpecValidationError as err:
            raise err.at("/model") from None
        models = {}
        for name, value in dict(
                _as_mapping(self.models, "models", "/models")).items():
            try:
                models[name] = as_model_spec(value)
            except SpecValidationError as err:
                raise err.at(f"/models/{name}") from None
        setter(self, "models", models)
        if self.fault_plan is not None:
            setter(self, "fault_plan",
                   _plain(_as_mapping(self.fault_plan, "fault_plan",
                                      "/fault_plan"),
                          "fault_plan", "/fault_plan"))
        if self.budget is not None:
            setter(self, "budget",
                   _plain(_as_mapping(self.budget, "budget", "/budget"),
                          "budget", "/budget"))
        if isinstance(self.memo, Mapping):
            try:
                setter(self, "memo", MemoSpec.from_dict(self.memo))
            except SpecValidationError as err:
                raise err.at("/memo") from None
        if not isinstance(self.min_timeslice, (int, float)) \
                or isinstance(self.min_timeslice, bool):
            raise SpecValidationError(
                f"min_timeslice must be a number, "
                f"got {self.min_timeslice!r}", "/min_timeslice"
            )
        if not self.min_timeslice >= 0:  # also rejects NaN
            raise SpecValidationError(
                f"min_timeslice must be >= 0, got {self.min_timeslice!r}",
                "/min_timeslice"
            )
        if self.scheduler is not None and self.scheduler not in SCHEDULERS:
            raise SpecValidationError(
                f"unknown scheduler {self.scheduler!r}; choose from "
                f"{SCHEDULERS}", "/scheduler"
            )
        if self.annotation not in ("phase", "barrier"):
            raise SpecValidationError(
                f"unknown annotation policy {self.annotation!r}",
                "/annotation"
            )
        if self.sync_policy not in ("eager", "deferred"):
            raise SpecValidationError(
                f"unknown sync policy {self.sync_policy!r}",
                "/sync_policy"
            )

    # -- serialization ------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form, omitting fields at their defaults.

        Omission is what keeps :meth:`spec_hash` stable when future
        versions add knobs: an old spec and a new spec that never set
        the knob serialize identically.
        """
        data: Dict[str, object] = {"generator": self.generator}
        if self.params:
            data["params"] = dict(self.params)
        if self.model is not None:
            data["model"] = self.model.to_dict()
        if self.models:
            data["models"] = {name: spec.to_dict()
                              for name, spec in self.models.items()}
        if self.min_timeslice != 0.0:
            data["min_timeslice"] = self.min_timeslice
        if self.annotation != "phase":
            data["annotation"] = self.annotation
        if self.sync_policy != "eager":
            data["sync_policy"] = self.sync_policy
        if self.scheduler is not None:
            data["scheduler"] = self.scheduler
        if self.trace:
            data["trace"] = True
        if self.fault_plan is not None:
            data["fault_plan"] = dict(self.fault_plan)
        if self.budget is not None:
            data["budget"] = dict(self.budget)
        if self.memo is not None:
            data["memo"] = self.memo.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSpec":
        """Build a spec from a plain mapping (e.g. parsed JSON).

        Validation failures raise :class:`SpecValidationError` with a
        JSON-pointer-style ``path`` into ``data`` — precise enough for
        a service to turn into a 400 response naming the exact field.
        """
        _as_mapping(data, "scenario spec", "/")
        if "kernel_options" in data:
            options = data["kernel_options"]
            names = sorted(options) if isinstance(options, Mapping) else []
            raise SpecValidationError(
                f"unknown kernel option(s) {names}: the kernel_options "
                f"field is deleted (workload-built kernels always run "
                f"the SoA engine)",
                "/kernel_options" + (f"/{names[0]}" if names else ""))
        _check_unknown(data, _SPEC_FIELDS, "scenario spec")
        if "generator" not in data:
            raise SpecValidationError("scenario spec needs a "
                                      "'generator'", "/generator")
        kwargs = dict(data)
        if "model" in kwargs and kwargs["model"] is not None:
            try:
                kwargs["model"] = ModelSpec.from_dict(
                    _as_mapping(kwargs["model"], "model spec", "/"))
            except SpecValidationError as err:
                raise err.at("/model") from None
        if "models" in kwargs:
            models = {}
            for name, value in _as_mapping(
                    kwargs["models"], "models", "/models").items():
                try:
                    models[name] = ModelSpec.from_dict(
                        _as_mapping(value, "model spec", "/"))
                except SpecValidationError as err:
                    raise err.at(f"/models/{name}") from None
            kwargs["models"] = models
        if "memo" in kwargs and kwargs["memo"] is not None:
            try:
                kwargs["memo"] = MemoSpec.from_dict(
                    _as_mapping(kwargs["memo"], "memo spec", "/"))
            except SpecValidationError as err:
                raise err.at("/memo") from None
        return cls(**kwargs)

    def validate(self) -> "ScenarioSpec":
        """Eagerly check buildability beyond structural validation.

        ``__post_init__`` validates structure (types, knob names,
        JSON-plainness); this resolves the *contents* without running
        anything: the generator must be registered, the models must
        build through the registry, and the fault plan / budget
        mappings must deserialize.  Each failure raises
        :class:`SpecValidationError` located at the offending field —
        the check the service runs at admission so a bad document is a
        400, never a worker-side crash.  Returns ``self`` for
        chaining.
        """
        from .generators import available_generators

        if self.generator not in available_generators():
            raise SpecValidationError(
                f"unknown generator {self.generator!r}; choose from "
                f"{available_generators()}", "/generator")
        factory, _kind = resolve_generator(self.generator)
        try:
            inspect.signature(factory).bind(**dict(self.params))
        except TypeError as err:
            raise SpecValidationError(
                f"params do not fit generator "
                f"{self.generator!r}: {err}", "/params") from None
        try:
            self.build_model()
        except Exception as err:
            raise SpecValidationError(str(err), "/model") from None
        for name, spec in self.models.items():
            try:
                spec.build()
            except Exception as err:
                raise SpecValidationError(
                    str(err), f"/models/{name}") from None
        try:
            self.build_fault_plan()
        except SpecValidationError:
            raise
        except Exception as err:
            raise SpecValidationError(str(err), "/fault_plan") from None
        try:
            self.build_budget()
        except SpecValidationError:
            raise
        except Exception as err:
            raise SpecValidationError(str(err), "/budget") from None
        return self

    def canonical_json(self) -> str:
        """Deterministic JSON encoding (sorted keys, no whitespace)."""
        return _canonical(self.to_dict())

    def spec_hash(self) -> str:
        """SHA-256 hex digest of the canonical JSON — the content address.

        Computed once per instance: the spec is frozen, so the digest
        is kept in the instance's ``__dict__``, outside its fields (and
        so outside :meth:`to_dict`, equality and ``repr``) and dropped
        when it is pickled.
        """
        digest = self.__dict__.get("_spec_hash")
        if digest is None:
            digest = _digest(self.canonical_json())
            object.__setattr__(self, "_spec_hash", digest)
        return digest

    def workload_hash(self) -> str:
        """SHA-256 of the canonical JSON of ``{generator, params}`` only.

        The content address of the workload alone: every other field
        (models, kernel knobs, fault plan, budget, memo) is left out.
        A spec that sets nothing but its generator and params has
        exactly this document, so its workload hash equals its
        :meth:`spec_hash`.  Computed once per instance, like
        :meth:`spec_hash`.
        """
        digest = self.__dict__.get("_workload_hash")
        if digest is None:
            document: Dict[str, object] = {"generator": self.generator}
            if self.params:
                document["params"] = dict(self.params)
            digest = _digest(_canonical(document))
            object.__setattr__(self, "_workload_hash", digest)
        return digest

    def __getstate__(self) -> Dict[str, object]:
        """Pickle the fields alone, without the memoized digests."""
        return {name: value for name, value in self.__dict__.items()
                if name not in ("_spec_hash", "_workload_hash")}

    # -- materialization ----------------------------------------------

    @property
    def kind(self) -> str:
        """The registered kind of this spec's generator."""
        return generator_kind(self.generator)

    def build_workload(self):
        """Instantiate the workload IR (``"workload"``-kind specs only)."""
        return make_workload(self.generator, self.params)

    def build_model(self):
        """Instantiate the default contention model, or ``None``."""
        return self.model.build() if self.model is not None else None

    def build_models(self) -> Optional[Dict[str, object]]:
        """Instantiate per-resource model overrides, or ``None``."""
        if not self.models:
            return None
        return {name: spec.build() for name, spec in self.models.items()}

    def build_scheduler(self):
        """Instantiate the named execution scheduler, or ``None``."""
        if self.scheduler is None:
            return None
        from ..core.scheduler import (FifoScheduler, LeastLoadedScheduler,
                                      PinnedScheduler, PriorityScheduler,
                                      RoundRobinScheduler)

        classes = {"fifo": FifoScheduler, "roundrobin": RoundRobinScheduler,
                   "priority": PriorityScheduler, "pinned": PinnedScheduler,
                   "least_loaded": LeastLoadedScheduler}
        return classes[self.scheduler]()

    def build_fault_plan(self):
        """Instantiate the serialized fault plan, or ``None``."""
        if self.fault_plan is None:
            return None
        from ..robustness.faults import FaultPlan

        return FaultPlan.from_dict(self.fault_plan)

    def build_budget(self):
        """Instantiate the serialized run budget, or ``None``."""
        if self.budget is None:
            return None
        from ..robustness.budget import RunBudget

        return RunBudget.from_dict(self.budget)

    def build_memo(self):
        """Instantiate a fresh memo cache, or ``None`` when disabled."""
        return self.memo.build() if self.memo is not None else None

    def kernel_kwargs(self, **overrides) -> Dict[str, object]:
        """Live keyword arguments for ``build_kernel`` from this spec.

        ``overrides`` replace spec-derived values — the main use is
        sharing one memo cache or fault plan object across the runs of
        a sweep instead of building one per cell.
        """
        kwargs: Dict[str, object] = {
            "model": self.build_model(),
            "models": self.build_models(),
            "min_timeslice": self.min_timeslice,
            "annotation": self.annotation,
            "scheduler": self.build_scheduler(),
            "trace": self.trace,
            "sync_policy": self.sync_policy,
            "fault_plan": self.build_fault_plan(),
            "budget": self.build_budget(),
            "memo_cache": self.build_memo(),
        }
        kwargs.update(overrides)
        return kwargs

    def build_kernel(self, workload=None, **overrides):
        """Assemble the ready-to-run hybrid kernel this spec describes.

        ``"workload"``-kind generators lower the workload IR through
        :func:`repro.workloads.to_mesh.build_kernel` (``workload``, when
        given, is this spec's already-built IR, lowered instead of
        building it again);
        ``"kernel"``-kind generators call their factory with the
        kernel-level knobs directly.
        """
        factory, kind = resolve_generator(self.generator)
        if kind == "workload":
            from ..workloads.to_mesh import build_kernel

            if workload is None:
                workload = self.build_workload()
            return build_kernel(workload,
                                **self.kernel_kwargs(**overrides))
        if workload is not None:
            raise ConfigurationError(
                f"kernel-kind generator {self.generator!r} has no "
                f"workload IR to reuse"
            )
        # Kernel-kind factories own their resources and models; the
        # spec fields that describe IR lowering have no meaning here.
        for forbidden in ("model", "models", "scheduler"):
            if getattr(self, forbidden):
                raise ConfigurationError(
                    f"kernel-kind generator {self.generator!r} does not "
                    f"accept the {forbidden!r} spec field"
                )
        if self.annotation != "phase":
            raise ConfigurationError(
                f"kernel-kind generator {self.generator!r} does not "
                f"accept an annotation policy"
            )
        kwargs: Dict[str, object] = {
            "min_timeslice": self.min_timeslice,
            "sync_policy": self.sync_policy,
            "trace": self.trace,
            "fault_plan": self.build_fault_plan(),
            "budget": self.build_budget(),
            "memo_cache": self.build_memo(),
        }
        kwargs.update(overrides)
        return factory(**self.params, **kwargs)

    def run(self, workload=None, **overrides):
        """Build the kernel and run it to completion."""
        return self.build_kernel(workload, **overrides).run()


def load_spec(path: str) -> ScenarioSpec:
    """Read a :class:`ScenarioSpec` from a JSON file."""
    with open(path, "r", encoding="utf-8") as handle:
        return ScenarioSpec.from_dict(json.load(handle))


def save_spec(spec: ScenarioSpec, path: str) -> None:
    """Write a spec to ``path`` as indented, sorted JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spec.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
