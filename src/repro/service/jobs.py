"""Job specifications: JSON validation, app adapters, checkpoints.

A service job arrives as one JSON object::

    {"app": "advec",
     "params": {"nx": 12, "ny": 12, "ppc": 2, "n_steps": 20},
     "priority": 5,            # 0..10, higher is more urgent
     "tenant": "alice",        # fair-share accounting bucket
     "diag_every": 2,          # stream a diagnostics event every N steps
     "checkpoint_every": 4,    # ship a resume checkpoint every N steps
     "preemptible": true}

Validation is schema-driven and *structured*: every problem becomes a
``{"field": ..., "error": ...}`` record and all of them come back at
once (:class:`JobValidationError`), so clients can fix a whole payload
in one round trip.  Each app's parameter schema is derived from its
config dataclass — a field is accepted iff it exists on the config,
carries a JSON-simple type, and is not on the app's blocked list
(mesh/file paths, nested option dicts, RNG-bearing physics the resume
path cannot replay).

The adapter table also gives the pool worker a uniform execution
surface — ``build`` / ``step`` / ``history`` — plus the checkpoint
payload used for preemption, migration and rank-failure recovery:
:func:`job_checkpoint` captures the full restartable state (DSL dats,
particle maps, RNG, scalar carries, history-so-far),
:func:`restore_job` puts it into a simulation built from the same spec
and :func:`job_restore` rebuilds one mid-trajectory, bit-exactly.
"""
from __future__ import annotations

import copy
import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..util.checkpoint import CHECKPOINT_FORMAT, restore_state, state_payload

__all__ = ["JobSpec", "JobValidationError", "validate_job", "build_sim",
           "step_once", "run_steps", "job_checkpoint", "restore_job",
           "job_restore", "describe_schemas", "APPS", "SERVICE_BACKENDS",
           "MAX_PRIORITY"]

#: on-node backends a tenant may request (accelerator names are declared
#: in the DSL but not servable on a shared CPU pool)
SERVICE_BACKENDS = ("seq", "vec", "omp")

MAX_PRIORITY = 10

#: service-tier resource caps — one tenant's job cannot monopolise a
#: shared worker for unbounded time or memory
MAX_STEPS = 100_000
MAX_CELLS = 500_000
MAX_PARTICLES = 5_000_000


class JobValidationError(ValueError):
    """A job payload failed schema validation.

    ``errors`` is a list of ``{"field", "error"}`` dicts — every
    problem found, not just the first.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{e['field']}: {e['error']}"
                                   for e in self.errors))


@dataclass
class AppAdapter:
    """How the pool worker drives one application end to end."""

    name: str
    #: build a simulation object from validated params
    build: Callable[[dict], object]
    #: dataclass whose fields define the accepted parameter schema
    config_cls: type
    #: params accepted on top of (or instead of) config fields
    extra_params: Dict[str, type] = field(default_factory=dict)
    #: config fields tenants may not set (paths, nested dicts, physics
    #: with un-checkpointable runtime state)
    blocked: Tuple[str, ...] = ()
    #: scalar attributes beyond rng/step_count the checkpoint must carry
    extras: Tuple[str, ...] = ()
    #: whether checkpoints capture the full trajectory (preemption and
    #: kill-recovery are only offered for these apps)
    checkpointable: bool = True
    #: estimated cell/particle counts for the resource caps
    cost: Optional[Callable[[dict], Tuple[int, int]]] = None

    @functools.cached_property
    def schema(self) -> Dict[str, type]:
        """Accepted parameter name → python type (derived once)."""
        schema: Dict[str, type] = {}
        for f in dataclasses.fields(self.config_cls):
            if f.name in self.blocked:
                continue
            default = (f.default if f.default is not dataclasses.MISSING
                       else None)
            for t in (bool, int, float, str):   # bool first: bool < int
                if isinstance(default, t):
                    schema[f.name] = t
                    break
        schema.update(self.extra_params)
        return schema


def _build_advec(params: dict):
    from ..apps.advec import AdvecConfig, AdvecSimulation
    return AdvecSimulation(AdvecConfig(**params))


def _build_fempic(params: dict):
    from ..apps.fempic import FemPicConfig, FemPicSimulation
    return FemPicSimulation(FemPicConfig(**params))


def _build_cabana(params: dict):
    from ..apps.cabana import CabanaConfig, CabanaSimulation
    return CabanaSimulation(CabanaConfig(**params))


def _build_twod(params: dict):
    from ..apps.twod import TwoDConfig, TwoDSheetModel
    return TwoDSheetModel(TwoDConfig(**params))


def _build_landau(params: dict):
    from ..apps.landau import ElectrostaticSimulation, landau_config
    factory_keys = ("k_lambda_d", "ppc", "dt", "perturbation")
    factory = {k: params[k] for k in factory_keys if k in params}
    overrides = {k: v for k, v in params.items()
                 if k not in factory_keys}
    return ElectrostaticSimulation(landau_config(**factory, **overrides))


def _cost_advec(p: dict):
    from ..apps.advec import AdvecConfig
    cfg = AdvecConfig(**p)
    return cfg.n_cells, cfg.n_particles


def _cost_fempic(p: dict):
    from ..apps.fempic import FemPicConfig
    cfg = FemPicConfig(**p)
    # steady state holds roughly rate × transit steps particles
    transit = cfg.lz / (cfg.injection_velocity * cfg.dt)
    return cfg.n_cells, int(cfg.injection_rate * transit) + 1


def _cost_cabana(p: dict):
    from ..apps.cabana import CabanaConfig
    cfg = CabanaConfig(**p)
    return cfg.n_cells, cfg.n_particles


def _cost_twod(p: dict):
    from ..apps.twod import TwoDConfig
    cfg = TwoDConfig(**p)
    return cfg.n_cells, cfg.n_particles


def _cost_landau(p: dict):
    nz = int(p.get("nz", 64))
    return nz, nz * int(p.get("ppc", 300))


def _adapters() -> Dict[str, AppAdapter]:
    from ..apps.advec import AdvecConfig
    from ..apps.cabana import CabanaConfig
    from ..apps.fempic import FemPicConfig
    from ..apps.landau import LandauConfig
    from ..apps.twod import TwoDConfig
    return {
        "advec": AppAdapter(
            "advec", _build_advec, AdvecConfig,
            blocked=("backend_options",), cost=_cost_advec),
        "fempic": AppAdapter(
            "fempic", _build_fempic, FemPicConfig,
            blocked=("backend_options", "mesh_file",
                     "collision_frequency"),
            extras=("_inject_carry",), cost=_cost_fempic),
        "cabana": AppAdapter(
            "cabana", _build_cabana, CabanaConfig,
            blocked=("backend_options",), cost=_cost_cabana),
        "twod": AppAdapter(
            "twod", _build_twod, TwoDConfig,
            blocked=("backend_options",), cost=_cost_twod),
        "landau": AppAdapter(
            "landau", _build_landau, LandauConfig,
            # species dats live on nested _Species objects the generic
            # state discovery cannot see; landau jobs are short, so they
            # rerun from scratch instead of resuming
            blocked=("backend_options", "species", "diagnostic_mode",
                     "lz"),
            extra_params={"k_lambda_d": float, "ppc": int},
            checkpointable=False, cost=_cost_landau),
    }


_APPS: Optional[Dict[str, AppAdapter]] = None


def APPS() -> Dict[str, AppAdapter]:
    """The adapter registry (lazy: app imports are deferred)."""
    global _APPS
    if _APPS is None:
        _APPS = _adapters()
    return _APPS


@dataclass
class JobSpec:
    """A validated, normalised job."""

    app: str
    params: dict
    priority: int = 5
    tenant: str = "default"
    diag_every: int = 0
    checkpoint_every: int = 0
    preemptible: bool = True
    #: fault injection for tests/benchmarks: the worker process hard
    #: -exits when it *first* reaches this step (ignored on resume, so
    #: the injected death fires exactly once)
    die_at_step: Optional[int] = None

    @property
    def n_steps(self) -> int:
        n = self.params.get("n_steps")
        return int(self.adapter.config_cls().n_steps if n is None else n)

    @property
    def adapter(self) -> AppAdapter:
        return APPS()[self.app]

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_JSON_TYPES = {int: "integer", float: "number", str: "string",
               bool: "boolean"}


def describe_schemas() -> dict:
    """Machine-readable per-app schema (served to clients)."""
    out = {}
    for name, adapter in sorted(APPS().items()):
        out[name] = {
            "params": {k: _JSON_TYPES[t]
                       for k, t in sorted(adapter.schema.items())},
            "checkpointable": adapter.checkpointable,
        }
    return out


def _coerce(value, want: type):
    """JSON-friendly coercion: ints are acceptable floats; everything
    else must match exactly (no truthy strings, no bool-as-int, no
    ``NaN`` / ``Infinity``, which the server's JSON parser accepts)."""
    if want is float and isinstance(value, int) \
            and not isinstance(value, bool):
        return float(value)
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if want is int and isinstance(value, bool):
        return None
    return value if isinstance(value, want) else None


def validate_job(raw) -> JobSpec:
    """Validate one submitted job payload; raises
    :class:`JobValidationError` carrying *every* problem found."""
    errors = []
    if not isinstance(raw, dict):
        raise JobValidationError(
            [{"field": "", "error": "job must be a JSON object"}])
    known = {"app", "params", "priority", "tenant", "diag_every",
             "checkpoint_every", "preemptible", "die_at_step"}
    for key in sorted(set(raw) - known):
        errors.append({"field": key, "error": "unknown job field"})

    app = raw.get("app")
    adapter = None
    if not isinstance(app, str) or app not in APPS():
        errors.append({"field": "app",
                       "error": f"unknown app {app!r}; expected one of "
                                f"{sorted(APPS())}"})
    else:
        adapter = APPS()[app]

    params = raw.get("params", {})
    if not isinstance(params, dict):
        errors.append({"field": "params",
                       "error": "params must be a JSON object"})
        params = {}
    clean: dict = {}
    if adapter is not None:
        schema = adapter.schema
        for key in sorted(params):
            value = params[key]
            if key not in schema:
                why = ("not servable (blocked for multi-tenant jobs)"
                       if key in adapter.blocked else "unknown parameter")
                errors.append({"field": f"params.{key}", "error": why})
                continue
            got = _coerce(value, schema[key])
            if got is None:
                got = (value if isinstance(value, float)
                       and not math.isfinite(value)
                       else type(value).__name__)
                errors.append(
                    {"field": f"params.{key}",
                     "error": f"expected {_JSON_TYPES[schema[key]]}, "
                              f"got {got}"})
                continue
            clean[key] = got
        backend = clean.get("backend")
        if backend is not None and backend not in SERVICE_BACKENDS:
            errors.append({"field": "params.backend",
                           "error": f"backend {backend!r} not servable; "
                                    f"use one of {SERVICE_BACKENDS}"})
        n_steps = clean.get("n_steps")
        if n_steps is not None and not 1 <= n_steps <= MAX_STEPS:
            errors.append({"field": "params.n_steps",
                           "error": f"must be in [1, {MAX_STEPS}]"})
        if not errors and adapter.cost is not None:
            try:
                n_cells, n_parts = adapter.cost(clean)
            except Exception as exc:
                errors.append({"field": "params",
                               "error": f"unbuildable config: {exc}"})
            else:
                if n_cells > MAX_CELLS:
                    errors.append(
                        {"field": "params",
                         "error": f"{n_cells} cells exceeds the service "
                                  f"cap of {MAX_CELLS}"})
                if n_parts > MAX_PARTICLES:
                    errors.append(
                        {"field": "params",
                         "error": f"~{n_parts} particles exceeds the "
                                  f"service cap of {MAX_PARTICLES}"})

    priority = raw.get("priority", 5)
    if not isinstance(priority, int) or isinstance(priority, bool) \
            or not 0 <= priority <= MAX_PRIORITY:
        errors.append({"field": "priority",
                       "error": f"must be an integer in "
                                f"[0, {MAX_PRIORITY}]"})
        priority = 5
    tenant = raw.get("tenant", "default")
    if not isinstance(tenant, str) or not tenant:
        errors.append({"field": "tenant",
                       "error": "must be a non-empty string"})
        tenant = "default"
    intervals = {}
    for key in ("diag_every", "checkpoint_every"):
        v = raw.get(key, 0)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            errors.append({"field": key,
                           "error": "must be a non-negative integer"})
            v = 0
        intervals[key] = v
    preemptible = raw.get("preemptible", True)
    if not isinstance(preemptible, bool):
        errors.append({"field": "preemptible", "error": "must be a bool"})
        preemptible = True
    die_at = raw.get("die_at_step")
    if die_at is not None and (not isinstance(die_at, int)
                               or isinstance(die_at, bool) or die_at < 0):
        errors.append({"field": "die_at_step",
                       "error": "must be a non-negative integer or null"})
        die_at = None
    if adapter is not None and not adapter.checkpointable \
            and intervals["checkpoint_every"]:
        errors.append({"field": "checkpoint_every",
                       "error": f"app {app!r} does not support "
                                "checkpointed resume"})
    if errors:
        raise JobValidationError(errors)
    return JobSpec(app=app, params=clean, priority=priority,
                   tenant=tenant, preemptible=preemptible,
                   die_at_step=die_at, **intervals)


# -- execution surface (used inside the pool worker) -------------------------------


def build_sim(spec: JobSpec):
    """Build a fresh simulation plus the history its steps append to."""
    sim = spec.adapter.build(dict(spec.params))
    return sim, sim.history


def step_once(spec: JobSpec, sim, history) -> None:
    """Advance one step (the app appends to ``history`` itself)."""
    sim.step()


def run_steps(spec: JobSpec, sim, history, start: int, stop: int) -> None:
    for _ in range(start, stop):
        step_once(spec, sim, history)


# -- checkpoint payloads (preemption / migration / recovery) -----------------------


def job_checkpoint(spec: JobSpec, sim, history, step: int) -> dict:
    """Full restartable state of a running job as one picklable dict.

    Nothing in it aliases the live simulation: stepping on leaves the
    checkpoint as it was taken."""
    if not spec.adapter.checkpointable:
        raise ValueError(f"app {spec.app!r} is not checkpointable")
    rng = getattr(sim, "rng", None)
    return {
        "format": CHECKPOINT_FORMAT,
        "app": spec.app,
        "step": int(step),
        "state": state_payload(sim),
        "rng": None if rng is None else rng.bit_generator.state,
        "extras": {name: copy.deepcopy(getattr(sim, name))
                   for name in spec.adapter.extras},
        "history": {k: list(v) for k, v in history.items()},
    }


def restore_job(spec: JobSpec, sim, ckpt: dict):
    """Put :func:`job_checkpoint`'s state into ``sim``, a simulation
    built from the same spec (fresh, or stepped by another job).

    Returns ``(history, start_step)``; continuing the step loop from
    ``start_step`` reproduces the uninterrupted trajectory bit-for-bit.
    The sim shares no mutable object with ``ckpt``, so the checkpoint
    can be restored again.  The process-global constants are the
    caller's: :func:`build_sim` declares them.
    """
    if ckpt.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format "
                         f"{ckpt.get('format')!r}")
    if ckpt.get("app") != spec.app:
        raise ValueError(f"checkpoint is for app {ckpt.get('app')!r}, "
                         f"job is {spec.app!r}")
    restore_state(sim, ckpt["state"], source="service checkpoint")
    if ckpt["rng"] is not None:
        sim.rng.bit_generator.state = ckpt["rng"]
    for name, value in ckpt["extras"].items():
        setattr(sim, name, copy.deepcopy(value))
    step = int(ckpt["step"])
    if hasattr(sim, "step_count"):
        sim.step_count = step
    sim.history = {k: list(v) for k, v in ckpt["history"].items()}
    return sim.history, step


def job_restore(spec: JobSpec, ckpt: dict):
    """Rebuild a simulation mid-trajectory from :func:`job_checkpoint`.

    Returns ``(sim, history, start_step)`` (see :func:`restore_job`).
    """
    sim, _ = build_sim(spec)
    history, step = restore_job(spec, sim, ckpt)
    return sim, history, step
