"""Serialisable run descriptions: one :class:`RunRequest` = one engine run.

A :class:`RunRequest` captures everything :func:`run_request` needs to
reproduce a :class:`~repro.engine.SimulationEngine` run — registered system
name, scheduling policy, synthetic-workload window and (optionally) the full
:class:`~repro.workloads.WorkloadSpec`, the sampling switch and the seed — and
round-trips losslessly through JSON. That is what lets a run cross a process
boundary: the sweep driver ships request dicts to pool workers, and the
planned simulation-as-a-service front end can accept the same payload over
the wire (the Balsam ``BatchJob`` schemas are the exemplar shape).

:attr:`RunRequest.run_id` is a content hash of the canonical JSON form, so
the same request always maps to the same id — across processes, sessions and
machines — which is what makes sweep resume idempotent: a results store row
keyed by ``run_id`` either exists (skip) or does not (run).

:func:`repro.engine.run_simulation` is a thin back-compat shim over
:func:`run_request`: serialisable calls are routed through a request, while
explicit ``workload=`` lists, ad-hoc :class:`~repro.config.SystemConfig`
instances and :class:`~repro.engine.Scheduler` instances keep the historical
direct path (those cannot cross a process boundary).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Any, Mapping

from ..config import get_system_config
from ..engine.engine import SimulationEngine, SimulationResult, resolve_policy_name
from ..exceptions import ConfigurationError, SimulationError
from ..obs import Observability
from ..power.signals import OperatingSignals
from ..workloads import (
    BurstArrivals,
    JobSizeDistribution,
    PoissonArrivals,
    RuntimeDistribution,
    SyntheticWorkloadGenerator,
    UserPopulation,
    WaveArrivals,
    WorkloadSpec,
    default_workload_spec,
)

__all__ = [
    "RunRequest",
    "run_request",
    "workload_spec_from_dict",
    "workload_spec_to_dict",
]

#: Engine switches retired from the request. Their O(R) baselines were
#: removed, but every stored request carries them as ``true`` and
#: :attr:`RunRequest.run_id` hashes them, so they stay in the wire format
#: as frozen constants: dropping the keys would re-hash every stored run id
#: and orphan existing stores' resume.
_FROZEN_TRUE_KEYS = ("event_index", "vectorized")

#: JSON type tag -> arrival-process class (the one union inside WorkloadSpec).
_ARRIVAL_KINDS: dict[str, type] = {
    "wave": WaveArrivals,
    "poisson": PoissonArrivals,
    "burst": BurstArrivals,
}

#: WorkloadSpec fields whose JSON lists must come back as tuples.
_SPEC_TUPLE_FIELDS = (
    "cpu_util_range",
    "gpu_util_range",
    "mem_util_range",
    "phase_count_range",
    "priority_range",
)


def _dataclass_from_dict(cls: type, data: Mapping[str, object], label: str) -> Any:
    """Rebuild a flat (non-nested) spec dataclass, rejecting unknown keys."""
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown {label} field(s) {', '.join(unknown)}; known: "
            + ", ".join(sorted(known))
        )
    return cls(**data)


def workload_spec_to_dict(spec: WorkloadSpec) -> dict[str, object]:
    """A JSON-ready dict that :func:`workload_spec_from_dict` inverts exactly."""
    arrival_kind = None
    for kind, cls in _ARRIVAL_KINDS.items():
        if type(spec.arrivals) is cls:
            arrival_kind = kind
            break
    if arrival_kind is None:
        raise ConfigurationError(
            f"arrival process {type(spec.arrivals).__name__} is not JSON-"
            "serialisable; use WaveArrivals, PoissonArrivals or BurstArrivals"
        )
    payload = asdict(spec)
    payload["sizes"] = asdict(spec.sizes)
    payload["runtimes"] = asdict(spec.runtimes)
    payload["arrivals"] = {"kind": arrival_kind, **asdict(spec.arrivals)}
    payload["users"] = asdict(spec.users)
    for name in _SPEC_TUPLE_FIELDS:
        payload[name] = list(getattr(spec, name))
    return payload


def workload_spec_from_dict(data: Mapping[str, object]) -> WorkloadSpec:
    """Rebuild a :class:`WorkloadSpec` from its JSON dict form."""
    known = {f.name for f in fields(WorkloadSpec)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown WorkloadSpec field(s) {', '.join(unknown)}; known: "
            + ", ".join(sorted(known))
        )
    kwargs: dict[str, Any] = dict(data)
    if "sizes" in kwargs:
        kwargs["sizes"] = _dataclass_from_dict(
            JobSizeDistribution, dict(kwargs["sizes"]), "JobSizeDistribution"
        )
    if "runtimes" in kwargs:
        kwargs["runtimes"] = _dataclass_from_dict(
            RuntimeDistribution, dict(kwargs["runtimes"]), "RuntimeDistribution"
        )
    if "users" in kwargs:
        kwargs["users"] = _dataclass_from_dict(
            UserPopulation, dict(kwargs["users"]), "UserPopulation"
        )
    if "arrivals" in kwargs:
        arrival_data = dict(kwargs["arrivals"])
        kind = arrival_data.pop("kind", None)
        if kind not in _ARRIVAL_KINDS:
            raise ConfigurationError(
                f"unknown arrival kind {kind!r}; known: "
                + ", ".join(sorted(_ARRIVAL_KINDS))
            )
        kwargs["arrivals"] = _dataclass_from_dict(
            _ARRIVAL_KINDS[str(kind)], arrival_data, f"{kind} arrivals"
        )
    for name in _SPEC_TUPLE_FIELDS:
        if name in kwargs:
            kwargs[name] = tuple(kwargs[name])
    return WorkloadSpec(**kwargs)


@dataclass(frozen=True)
class RunRequest:
    """Everything needed to reproduce one simulation run, JSON-serialisable.

    Attributes
    ----------
    system:
        Registered system name (``"tiny"``, ``"frontier"``, ...). Only
        registry names are allowed — an ad-hoc :class:`SystemConfig` cannot
        cross a process boundary (register it on both sides instead).
    policy:
        Scheduling policy name, or ``None`` for the system's default.
    backfill:
        The ``run_simulation`` convenience switch (``"easy"`` upgrades an
        FCFS/default policy to EASY backfill), validated identically.
    duration_s:
        Synthetic workload window in seconds.
    seed:
        Workload-generation and down-node seed; fixes the whole run.
    spec:
        Workload specification, or ``None`` for the system-scaled default
        (:func:`~repro.workloads.default_workload_spec`).
    horizon_s:
        Optional hard stop for the engine clock, seconds.
    dense_ticks:
        The engine's sampling switch, defaulted like the engine.
    signals:
        Optional :class:`~repro.power.signals.OperatingSignals` (or its
        JSON dict form) — power cap, electricity price and carbon
        intensity step series for power-aware operation. ``None`` (the
        default) is serialised by *omission* so every pre-existing
        request keeps its run id.
    """

    system: str = "tiny"
    policy: str | None = None
    backfill: str | None = None
    duration_s: float = 86400.0
    seed: int = 0
    spec: WorkloadSpec | None = None
    horizon_s: float | None = None
    dense_ticks: bool = False
    signals: OperatingSignals | None = None

    def __post_init__(self) -> None:
        if not self.system or not isinstance(self.system, str):
            raise ConfigurationError("RunRequest.system must be a registered system name")
        # Non-finite times would otherwise surface only later, as a raw
        # ValueError from the strict (allow_nan=False) run-id encoding.
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise SimulationError(
                "RunRequest.duration_s must be positive and finite, "
                f"got {self.duration_s!r}"
            )
        if self.horizon_s is not None and not (
            math.isfinite(self.horizon_s) and self.horizon_s > 0
        ):
            raise SimulationError(
                "RunRequest.horizon_s must be positive and finite, "
                f"got {self.horizon_s!r}"
            )
        # Canonicalise the numeric fields: the run id hashes the JSON form,
        # and json.dumps renders int 3600 and float 3600.0 differently, so
        # equal requests built from "1h" (int) and 3600.0 (float) would
        # otherwise hash apart. frozen=True requires the direct setattr.
        object.__setattr__(self, "duration_s", float(self.duration_s))
        object.__setattr__(self, "seed", int(self.seed))
        if self.horizon_s is not None:
            object.__setattr__(self, "horizon_s", float(self.horizon_s))
        if self.signals is not None and not isinstance(self.signals, OperatingSignals):
            object.__setattr__(
                self, "signals", OperatingSignals.from_json_dict(self.signals)
            )

    # -- serialisation ---------------------------------------------------------

    def to_json_dict(self) -> dict[str, object]:
        """A plain-JSON dict that :meth:`from_json_dict` inverts exactly."""
        payload: dict[str, object] = {
            "system": self.system,
            "policy": self.policy,
            "backfill": self.backfill,
            "duration_s": self.duration_s,
            "seed": self.seed,
            "spec": None if self.spec is None else workload_spec_to_dict(self.spec),
            "horizon_s": self.horizon_s,
            "dense_ticks": self.dense_ticks,
        }
        payload.update(dict.fromkeys(_FROZEN_TRUE_KEYS, True))
        # Serialised by omission when absent: the run id hashes this dict,
        # and a "signals": null key would re-hash every historical request.
        if self.signals is not None:
            payload["signals"] = self.signals.to_json_dict()
        return payload

    @classmethod
    def from_json_dict(cls, data: Mapping[str, object]) -> "RunRequest":
        """Rebuild a request from :meth:`to_json_dict` output.

        The frozen legacy keys (``event_index``, ``vectorized``) are
        accepted only as ``true``: ``false`` asked for an O(R) baseline
        engine that no longer exists.
        """
        kwargs: dict[str, Any] = dict(data)
        for key in _FROZEN_TRUE_KEYS:
            value = kwargs.pop(key, True)
            if value is not True:
                raise ConfigurationError(
                    f"RunRequest.{key} must be true, got {value!r}: its false "
                    "setting selected a baseline engine path that has been removed"
                )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(kwargs) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown RunRequest field(s) {', '.join(unknown)}; known: "
                + ", ".join(sorted(known))
            )
        spec_data = kwargs.get("spec")
        if spec_data is not None:
            kwargs["spec"] = workload_spec_from_dict(spec_data)
        return cls(**kwargs)

    def to_json(self) -> str:
        """Canonical JSON form (sorted keys, minimal separators).

        This exact byte string is what :attr:`run_id` hashes, so it must be
        deterministic: ``sort_keys`` fixes the field order and Python's
        shortest-repr float formatting is itself deterministic.
        """
        return json.dumps(
            self.to_json_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
        )

    @classmethod
    def from_json(cls, text: str) -> "RunRequest":
        return cls.from_json_dict(json.loads(text))

    @property
    def run_id(self) -> str:
        """Stable content-hash id of this request (16 hex chars).

        Two requests share a ``run_id`` exactly when their canonical JSON
        forms are byte-identical — the key the results store and the sweep
        driver's resume logic are built on.
        """
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()[:16]


def run_request(
    request: RunRequest, *, obs: Observability | None = None
) -> SimulationResult:
    """Execute one :class:`RunRequest` and return its result.

    This is the single execution path every front end funnels into:
    :func:`repro.engine.run_simulation` (back-compat shim), the ``repro-sim``
    CLI and the sweep driver's pool workers all end up here, so a stored
    sweep summary and a direct in-process run of the same request are the
    same computation.
    """
    config = get_system_config(request.system)
    policy = resolve_policy_name(
        request.policy if request.policy is not None else config.default_policy,
        request.backfill,
    )
    spec = request.spec if request.spec is not None else default_workload_spec(config)
    generator = SyntheticWorkloadGenerator(config, spec, seed=request.seed)
    workload = generator.generate(request.duration_s)
    engine = SimulationEngine(
        config,
        workload,
        policy,
        seed=request.seed,
        horizon_s=request.horizon_s,
        dense_ticks=request.dense_ticks,
        signals=request.signals,
        obs=obs,
    )
    return engine.run()
