"""Job-spec validation and checkpoint payloads (repro.service.jobs)."""
import os
import subprocess
import sys

import pytest

from repro.service import jobs


def ok(payload):
    return jobs.validate_job(payload)


def errors_of(payload):
    with pytest.raises(jobs.JobValidationError) as err:
        jobs.validate_job(payload)
    return {e["field"]: e["error"] for e in err.value.errors}


ADVEC = {"app": "advec",
         "params": {"nx": 6, "ny": 6, "ppc": 2, "n_steps": 8}}
FEMPIC = {"app": "fempic",
          "params": {"nx": 2, "ny": 2, "nz": 6, "plasma_den": 2000.0,
                     "n0": 2000.0, "n_steps": 6}}


# -- schema validation -------------------------------------------------------


def test_minimal_valid_job_gets_defaults():
    spec = ok(ADVEC)
    assert spec.app == "advec"
    assert spec.priority == 5
    assert spec.tenant == "default"
    assert spec.preemptible is True
    assert spec.n_steps == 8


def test_non_object_and_unknown_field_and_unknown_app():
    with pytest.raises(jobs.JobValidationError):
        jobs.validate_job(["not", "a", "dict"])
    errs = errors_of({"app": "warpx", "bogus": 1})
    assert "app" in errs and "bogus" in errs


def test_all_errors_reported_at_once():
    errs = errors_of({"app": "nope", "priority": 99, "tenant": "",
                      "diag_every": -1, "preemptible": "yes"})
    assert set(errs) >= {"app", "priority", "tenant", "diag_every",
                         "preemptible"}


def test_param_type_errors_are_structured():
    errs = errors_of({"app": "advec",
                      "params": {"nx": "six", "ppc": 2.5,
                                 "unknown_knob": 1}})
    assert "expected integer" in errs["params.nx"]
    assert "expected integer" in errs["params.ppc"]
    assert "unknown parameter" in errs["params.unknown_knob"]


def test_int_accepted_where_float_expected_but_not_bool():
    spec = ok({"app": "advec", "params": {"dt": 1}})
    assert spec.params["dt"] == 1.0
    errs = errors_of({"app": "advec", "params": {"nx": True}})
    assert "params.nx" in errs


def test_blocked_params_rejected_with_reason():
    errs = errors_of({"app": "fempic",
                      "params": {"mesh_file": "/etc/passwd",
                                 "collision_frequency": 0.1}})
    assert "blocked" in errs["params.mesh_file"]
    errs = errors_of({"app": "landau", "params": {"species": []}})
    assert "params.species" in errs


def test_backend_whitelist():
    ok({"app": "advec", "params": {"backend": "omp"}})
    errs = errors_of({"app": "advec", "params": {"backend": "cuda"}})
    assert "not servable" in errs["params.backend"]


def test_resource_caps():
    errs = errors_of({"app": "advec",
                      "params": {"n_steps": jobs.MAX_STEPS + 1}})
    assert "params.n_steps" in errs
    errs = errors_of({"app": "advec",
                      "params": {"nx": 1000, "ny": 1000, "ppc": 100}})
    assert any("cap" in e for e in errs.values())


# -- FemPIC jobs whose field solve would never run ----------------------------


def fempic_with(**params):
    """A FemPIC payload as the server parses it: ``json.loads`` turns
    ``NaN`` / ``Infinity`` into floats."""
    import json
    payload = json.dumps({**FEMPIC, "params": {**FEMPIC["params"],
                                               **params}})
    return json.loads(payload)


def test_negative_newton_iters_rejected():
    errs = errors_of(fempic_with(newton_iters=-3))
    assert "newton_iters must be in [1, 100]" in errs["params"]


def test_nan_ksp_rtol_rejected():
    errs = errors_of(fempic_with(ksp_rtol=float("nan")))
    assert errs["params.ksp_rtol"] == "expected number, got nan"


def test_huge_newton_iters_rejected():
    errs = errors_of(fempic_with(newton_iters=1_000_000_000))
    assert "newton_iters must be in [1, 100]" in errs["params"]


def test_zero_electron_temperature_rejected():
    errs = errors_of(fempic_with(kTe=0))
    assert "kTe must be finite and positive" in errs["params"]


def test_zero_permittivity_rejected():
    errs = errors_of(fempic_with(eps0=0.0))
    assert "eps0 must be finite and positive" in errs["params"]


def test_non_finite_floats_rejected_for_every_app():
    errs = errors_of({"app": "advec",
                      "params": {"dt": float("inf"), "n_steps": 2}})
    assert errs["params.dt"] == "expected number, got inf"
    errs = errors_of(fempic_with(ksp_rtol=float("-inf"), kTe=float("nan")))
    assert set(errs) == {"params.ksp_rtol", "params.kTe"}
    ok(fempic_with(newton_iters=100, ksp_rtol=0.5, kTe=0.1, eps0=2))


def test_landau_takes_a_checkpoint_interval():
    spec = ok({"app": "landau",
               "params": {"nz": 24, "ppc": 30, "n_steps": 5,
                          "k_lambda_d": 0.4},
               "checkpoint_every": 5})
    assert spec.checkpoint_every == 5


def test_validating_a_submit_imports_only_its_app():
    code = ("import sys; from repro.service import jobs; "
            "jobs.validate_job({'app': 'advec', 'params': {'nx': 6}}); "
            "print(sorted({m.split('.')[2] for m in sys.modules "
            "if m.startswith('repro.apps.')}))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=dict(
                             os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    assert out.stdout.strip() == "['advec']"


def test_describe_schemas_covers_all_apps():
    schemas = jobs.describe_schemas()
    assert set(schemas) == set(jobs.APPS())
    assert schemas["advec"]["params"]["nx"] == "integer"
    for app, blocked in (("fempic", "mesh_file"),
                         ("landau", "species")):
        assert blocked not in schemas[app]["params"]


# -- checkpoint round trips --------------------------------------------------


LANDAU = {"app": "landau", "params": {"nz": 24, "ppc": 30, "n_steps": 5}}


@pytest.mark.parametrize("payload,mid", [(ADVEC, 4), (FEMPIC, 3),
                                         (LANDAU, 2)])
def test_checkpoint_resume_is_bit_equal(payload, mid):
    spec = ok(payload)
    n = spec.n_steps
    sim, hist = jobs.build_sim(spec)
    jobs.run_steps(spec, sim, hist, 0, mid)
    ckpt = jobs.job_checkpoint(spec, sim, hist, mid)
    jobs.run_steps(spec, sim, hist, mid, n)
    full = {k: list(v) for k, v in hist.items()}

    sim2, hist2, start = jobs.job_restore(spec, ckpt)
    assert start == mid
    jobs.run_steps(spec, sim2, hist2, start, n)
    assert hist2 == full


def test_checkpoint_shares_no_list_with_the_sim():
    """FemPIC's injection carry is a list the sim rewrites every step:
    a checkpoint holds a copy, and a restored sim gets its own."""
    spec = ok({"app": "fempic",
               "params": dict(FEMPIC["params"], plasma_den=1234.5)})
    sim, hist = jobs.build_sim(spec)
    jobs.run_steps(spec, sim, hist, 0, 1)
    ckpt = jobs.job_checkpoint(spec, sim, hist, 1)
    carry = list(sim._inject_carry)
    jobs.run_steps(spec, sim, hist, 1, 3)
    assert sim._inject_carry != carry

    sim2, _, _ = jobs.job_restore(spec, ckpt)
    assert sim2._inject_carry == carry
    jobs.run_steps(spec, sim2, sim2.history, 1, 3)
    jobs.restore_job(spec, sim, ckpt)
    assert sim._inject_carry == carry


def test_checkpoint_refuses_wrong_app_and_old_format():
    aspec = ok(ADVEC)
    asim, ahist = jobs.build_sim(aspec)
    ackpt = jobs.job_checkpoint(aspec, asim, ahist, 0)
    fspec = ok(FEMPIC)
    with pytest.raises(ValueError, match="checkpoint is for app"):
        jobs.job_restore(fspec, ackpt)
    with pytest.raises(ValueError, match="format 2"):
        jobs.job_restore(aspec, dict(ackpt, format=2))


def test_collisional_fempic_is_servable_and_resumes_bit_equal():
    spec = ok({"app": "fempic", "params": dict(
        FEMPIC["params"], plasma_den=1234.5, collision_frequency=2.0)})
    sim, hist = jobs.build_sim(spec)
    jobs.run_steps(spec, sim, hist, 0, 3)
    ckpt = jobs.job_checkpoint(spec, sim, hist, 3)
    jobs.run_steps(spec, sim, hist, 3, spec.n_steps)
    full = {k: list(v) for k, v in hist.items()}

    sim2, hist2, start = jobs.job_restore(spec, ckpt)
    jobs.run_steps(spec, sim2, hist2, start, spec.n_steps)
    assert hist2 == full
    assert sum(rk.collisions.total_collisions for rk in sim.ranks) > 0


def test_advec_history_is_the_apps_own():
    spec = ok(ADVEC)
    sim, hist = jobs.build_sim(spec)
    assert hist is sim.history
    jobs.run_steps(spec, sim, hist, 0, 2)
    assert set(hist) == {"mean_disp", "hops", "n_particles"}
    assert len(hist["mean_disp"]) == 2
