"""Mini-FEM-PIC elemental kernels (the "science source").

Each function below is written once against single-element views; the
translator generates the vectorized per-backend programs.  Kernel names
match the runtime-breakdown labels of paper Figure 9(a): ``CalcPosVel``,
``Move``, ``DepositCharge``, ``ComputeNodeChargeDensity``,
``ComputeElectricField``.  The Newton residual and Jacobian of the field
solve run inside the compiled nonlinear solve
(:class:`repro.fem.NewtonSystem`), the ``Solve`` row.

Constants (declared by the simulation via ``decl_const``):
``dt, qm, spwt, ion_charge, inv_eps0, n0, phi0, kTe, inj_velocity, tol``.
"""
from __future__ import annotations

from repro.core.api import CONST

__all__ = [
    "init_injected_kernel", "calc_pos_vel_kernel", "move_kernel",
    "deposit_charge_kernel", "compute_node_charge_density_kernel",
    "compute_electric_field_kernel", "field_energy_kernel",
    "reset_node_charge_kernel",
]


def init_injected_kernel(vel, lc):
    """Initialise newly injected ions: axial one-stream velocity."""
    vel[0] = 0.0
    vel[1] = 0.0
    vel[2] = CONST.inj_velocity
    lc[0] = 0.0
    lc[1] = 0.0
    lc[2] = 0.0
    lc[3] = 0.0


def calc_pos_vel_kernel(ef, pos, vel):
    """Electrostatic leapfrog push: the cell's (constant) E field directly
    accelerates the particle — no field-weighting step is needed, exactly
    the simplification the paper notes for Mini-FEM-PIC."""
    vel[0] = vel[0] + CONST.qm * ef[0] * CONST.dt
    vel[1] = vel[1] + CONST.qm * ef[1] * CONST.dt
    vel[2] = vel[2] + CONST.qm * ef[2] * CONST.dt
    pos[0] = pos[0] + vel[0] * CONST.dt
    pos[1] = pos[1] + vel[1] * CONST.dt
    pos[2] = pos[2] + vel[2] * CONST.dt


def move_kernel(move, pos, lc, xf):
    """One hop of the barycentric walk (paper Figure 6 structure).

    ``xf`` is the cell's 12-double affine transform ``[v0, A]``; the
    barycentric coordinates of the particle decide whether it is home
    (all non-negative — store weights, MOVE_DONE), or which face it left
    through (most negative coordinate — NEED_MOVE via c2c, or
    NEED_REMOVE at a domain boundary where c2c is -1).
    """
    dx = pos[0] - xf[0]
    dy = pos[1] - xf[1]
    dz = pos[2] - xf[2]
    l1 = xf[3] * dx + xf[4] * dy + xf[5] * dz
    l2 = xf[6] * dx + xf[7] * dy + xf[8] * dz
    l3 = xf[9] * dx + xf[10] * dy + xf[11] * dz
    l0 = 1.0 - l1 - l2 - l3
    if l0 >= -CONST.tol and l1 >= -CONST.tol and l2 >= -CONST.tol \
            and l3 >= -CONST.tol:
        lc[0] = l0
        lc[1] = l1
        lc[2] = l2
        lc[3] = l3
        move.done()
    else:
        m01 = 0 if l0 <= l1 else 1
        v01 = min(l0, l1)
        m23 = 2 if l2 <= l3 else 3
        v23 = min(l2, l3)
        worst = m01 if v01 <= v23 else m23
        move.move_to(move.c2c[worst])


def deposit_charge_kernel(lc, n0, n1, n2, n3):
    """Scatter the particle's barycentric weights to its cell's four nodes
    — the double-indirect increment that needs race handling."""
    n0[0] = n0[0] + lc[0]
    n1[0] = n1[0] + lc[1]
    n2[0] = n2[0] + lc[2]
    n3[0] = n3[0] + lc[3]


def reset_node_charge_kernel(w):
    w[0] = 0.0


def compute_node_charge_density_kernel(cd, w, vol):
    """Convert accumulated node weights to ion charge density."""
    cd[0] = w[0] * CONST.spwt * CONST.ion_charge / vol[0]


def compute_electric_field_kernel(ef, gradm, p0, p1, p2, p3):
    """Cell field from node potentials: ``E = -Σ_i φ_i ∇λ_i`` (paper
    Figure 5's loop: direct ef, indirect node potentials via c2n)."""
    ef[0] = -(gradm[0] * p0[0] + gradm[3] * p1[0]
              + gradm[6] * p2[0] + gradm[9] * p3[0])
    ef[1] = -(gradm[1] * p0[0] + gradm[4] * p1[0]
              + gradm[7] * p2[0] + gradm[10] * p3[0])
    ef[2] = -(gradm[2] * p0[0] + gradm[5] * p1[0]
              + gradm[8] * p2[0] + gradm[11] * p3[0])


def field_energy_kernel(ef, vol, energy):
    """Global reduction: electrostatic field energy over the mesh."""
    energy[0] = energy[0] + 0.5 * (ef[0] * ef[0] + ef[1] * ef[1]
                                   + ef[2] * ef[2]) * vol[0]

