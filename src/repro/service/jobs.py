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
(mesh/file paths, nested option dicts).

The adapter table also gives the pool worker a uniform execution
surface — ``build`` / ``step`` / ``history`` — plus the checkpoint
payload used for preemption, migration and rank-failure recovery:
:func:`job_checkpoint` captures the simulation's declared state
(:func:`repro.util.checkpoint.state`) and the history so far,
:func:`restore_job` puts it into a simulation built from the same spec
and :func:`job_restore` rebuilds one mid-trajectory, bit-exactly.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..util.checkpoint import CHECKPOINT_FORMAT, restore, state

__all__ = ["JobSpec", "JobValidationError", "validate_job", "build_sim",
           "step_once", "run_steps", "job_checkpoint", "restore_job",
           "job_restore", "describe_schemas", "APPS", "APP_NAMES",
           "adapter_for", "SERVICE_BACKENDS", "MAX_PRIORITY"]

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
    #: config fields tenants may not set (paths, nested option dicts)
    blocked: Tuple[str, ...] = ()
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


def _landau(params: dict):
    """Landau's config comes from its factory (``k_lambda_d``, ``ppc``)."""
    from ..apps.landau import ElectrostaticSimulation, landau_config
    factory_keys = ("k_lambda_d", "ppc", "dt", "perturbation")
    factory = {k: params[k] for k in factory_keys if k in params}
    overrides = {k: v for k, v in params.items()
                 if k not in factory_keys}
    return ElectrostaticSimulation(landau_config(**factory, **overrides))


def _landau_cost(p: dict):
    nz = int(p.get("nz", 64))
    return nz, nz * int(p.get("ppc", 300))


def _fempic_cost(cfg):
    # steady state holds roughly rate × transit steps particles
    transit = cfg.lz / (cfg.injection_velocity * cfg.dt)
    return cfg.n_cells, int(cfg.injection_rate * transit) + 1


def _cost(cfg):
    return cfg.n_cells, cfg.n_particles


#: app → (simulation class, or a builder of params; config class; blocked
#: fields; extra params; cost of the config, or of a builder's params).
#: An app's module is imported when its adapter is first used.
_TABLE = {
    "advec": ("AdvecSimulation", "AdvecConfig", ("backend_options",), {},
              _cost),
    "cabana": ("CabanaSimulation", "CabanaConfig", ("backend_options",),
               {}, _cost),
    "fempic": ("FemPicSimulation", "FemPicConfig",
               ("backend_options", "mesh_file"), {}, _fempic_cost),
    "landau": (_landau, "LandauConfig",
               ("backend_options", "species", "diagnostic_mode", "lz"),
               {"k_lambda_d": float, "ppc": int}, _landau_cost),
    "twod": ("TwoDSheetModel", "TwoDConfig", ("backend_options",), {},
             _cost),
}

#: the servable apps (checking a submit's app imports none of them)
APP_NAMES = tuple(_TABLE)

_ADAPTERS: Dict[str, AppAdapter] = {}


def adapter_for(app: str) -> AppAdapter:
    """The adapter of one app, built (and its app imported) on first
    use."""
    got = _ADAPTERS.get(app)
    if got is None:
        sim, config, blocked, extra, cost = _TABLE[app]
        module = importlib.import_module(f"..apps.{app}", __package__)
        config_cls = getattr(module, config)
        build = sim
        if isinstance(sim, str):    # the simulation takes its config
            sim_cls, of_config = getattr(module, sim), cost
            build = lambda p: sim_cls(config_cls(**p))
            cost = lambda p: of_config(config_cls(**p))
        got = _ADAPTERS[app] = AppAdapter(app, build, config_cls, extra,
                                          blocked, cost)
    return got


def APPS() -> Dict[str, AppAdapter]:
    """Every app's adapter (imports every app)."""
    return {name: adapter_for(name) for name in APP_NAMES}


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
        return adapter_for(self.app)

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
                       for k, t in sorted(adapter.schema.items())}}
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
    if not isinstance(app, str) or app not in APP_NAMES:
        errors.append({"field": "app",
                       "error": f"unknown app {app!r}; expected one of "
                                f"{sorted(APP_NAMES)}"})
    else:
        adapter = adapter_for(app)

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
    """Full restartable state of a running job as one picklable dict:
    the simulation's :func:`~repro.util.checkpoint.state` and the
    history so far.  Nothing in it aliases the live simulation: stepping
    on leaves the checkpoint as it was taken."""
    return {"format": CHECKPOINT_FORMAT, "app": spec.app, "step": int(step),
            "state": state(sim),
            "history": {k: list(v) for k, v in history.items()}}


def restore_job(spec: JobSpec, sim, ckpt: dict):
    """Put :func:`job_checkpoint`'s state into ``sim``, a simulation
    built from the same spec (fresh, or stepped by another job).

    Returns ``(history, start_step)``; continuing the step loop from
    ``start_step`` reproduces the uninterrupted trajectory bit-for-bit.
    The sim shares no mutable object with ``ckpt``, so the checkpoint
    can be restored again; the kernel constants are the checkpoint's.
    """
    if ckpt.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unsupported checkpoint format "
                         f"{ckpt.get('format')!r} (expected "
                         f"{CHECKPOINT_FORMAT})")
    if ckpt.get("app") != spec.app:
        raise ValueError(f"checkpoint is for app {ckpt.get('app')!r}, "
                         f"job is {spec.app!r}")
    restore(sim, ckpt["state"], source="service checkpoint")
    sim.history = {k: list(v) for k, v in ckpt["history"].items()}
    return sim.history, int(ckpt["step"])


def job_restore(spec: JobSpec, ckpt: dict):
    """Rebuild a simulation mid-trajectory from :func:`job_checkpoint`.

    Returns ``(sim, history, start_step)`` (see :func:`restore_job`).
    """
    sim, _ = build_sim(spec)
    history, step = restore_job(spec, sim, ckpt)
    return sim, history, step
