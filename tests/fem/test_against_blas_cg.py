"""The sequential-sum CG against the solver it replaced.

``blas_cg`` is the previous ``KSPSolver.solve`` (Jacobi or no
preconditioner), kept as an oracle: its dot products and norms go through
BLAS ``ddot``, whose blocked summation order depends on the CPU kernel.
Today's solver sums every reduction left to right instead, so the two
agree to round-off, not bit for bit — on the systems the apps solve they
take the same number of iterations and the app histories stay within
rtol 1e-9 with identical integer series.

FemPIC runs on the NumPy target here: there its Newton loop calls
``KSPSolver.solve`` once per iteration, while on the native tier the
whole loop is one C call, bit-equal to that (``tests/fem/test_newton.py``).
"""
import numpy as np
import pytest

from repro.apps.fempic import FemPicConfig, FemPicSimulation
from repro.apps.twod import TwoDConfig, TwoDSheetModel
from repro.fem import KSPResult, KSPSolver
from repro.translator import native


def blas_cg(self: KSPSolver, b, x0=None) -> KSPResult:
    """The previous ``KSPSolver.solve`` on ``self``'s matrix, inverse
    diagonal and controls."""
    a, inv = self.a, self.inv_diag
    pc = (lambda r: r) if inv is None else (lambda r: inv * r)
    n = a.shape[0]
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=np.float64)
    r = b - a @ x
    z = pc(r)
    p = z.copy()
    rz = float(r @ z)
    b_norm = float(np.linalg.norm(b)) or 1.0
    it = 0
    res = float(np.linalg.norm(r))
    while res > max(self.rtol * b_norm, self.atol) and it < self.max_it:
        ap = a @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            break
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        res = float(np.linalg.norm(r))
        z = pc(r)
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
    return KSPResult(x=x, iterations=it, residual_norm=res,
                     converged=res <= max(self.rtol * b_norm, self.atol))


APPS = {
    "fempic": (lambda: FemPicSimulation(FemPicConfig.smoke()), 8),
    "twod": (lambda: TwoDSheetModel(TwoDConfig(nx=8, ny=4, ppc=4)), 10),
}


@pytest.mark.parametrize("app", sorted(APPS))
def test_app_systems_take_the_same_iterations(app, monkeypatch):
    real, seen = KSPSolver.solve, []

    def both(self, b, x0=None):
        new = real(self, b, x0)
        seen.append((new, blas_cg(self, b, x0)))
        return new

    monkeypatch.setattr(KSPSolver, "solve", both)
    if app == "fempic":
        monkeypatch.setattr(native, "CC", None)
    make, steps = APPS[app]
    make().run(steps)
    assert len(seen) >= steps
    for new, old in seen:
        assert new.iterations == old.iterations
        assert np.linalg.norm(new.x - old.x) \
            <= 1e-12 * np.linalg.norm(old.x)


@pytest.mark.parametrize("app", sorted(APPS))
def test_app_history_matches_the_blas_order_run(app, monkeypatch):
    if app == "fempic":
        monkeypatch.setattr(native, "CC", None)
    make, steps = APPS[app]
    got = make().run(steps)
    monkeypatch.setattr(KSPSolver, "solve", blas_cg)
    want = make().run(steps)
    assert got.keys() == want.keys()
    for key in want:
        new, old = np.asarray(got[key]), np.asarray(want[key])
        if old.dtype.kind in "iu":
            np.testing.assert_array_equal(new, old, err_msg=key)
        else:
            np.testing.assert_allclose(new, old, rtol=1e-9, atol=0.0,
                                       err_msg=key)
