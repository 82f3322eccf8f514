"""CabanaPIC elemental kernels.

Kernel names match the paper's Figure 9(b) breakdown: ``Interpolate``,
``Move_Deposit`` (Boris push + multi-hop walk + per-cell current deposit,
fused, as in the electromagnetic case the paper describes),
``AccumulateCurrent``, ``AdvanceB``, ``AdvanceE``.

Constants declared by the simulation: ``dt, half_dt, qdt_2mc, qsp, weight,
dtx, dty, dtz`` (displacement scale per axis: ``2·dt/Δ``), ``rx, ry, rz``
(inverse spacings), ``inv_cell_vol, cell_vol``.

Field layout per cell (9 DOFs): ``e = (ex, ey, ez)`` on the low edges,
``b = (bx, by, bz)`` on the low faces, ``j = (jx, jy, jz)``; particle
state (7 DOFs): fractional offsets in [-1, 1] (3), velocity (3),
weight (1), plus the cell map and the in-flight displacement dat.
"""
from __future__ import annotations

from repro.core.api import CONST

__all__ = ["interpolate_kernel", "move_deposit_kernel",
           "accumulate_current_kernel", "advance_b_kernel",
           "advance_e_kernel", "energy_kernel", "zero_accumulator_kernel",
           "push_velocity_verlet_kernel", "push_vay_kernel",
           "push_higuera_cary_kernel", "PUSHERS"]


def interpolate_kernel(ip, e0, b0, e_xp, e_yp, e_zp, e_ypzp, e_xpzp,
                       e_xpyp, b_xp, b_yp, b_zp):
    """Build the 18-coefficient per-cell interpolator from neighbouring
    edge/face field values (VPIC/CabanaPIC's interpolator structure)."""
    # ex varies over (y, z)
    w0 = e0[0]
    w1 = e_yp[0]
    w2 = e_zp[0]
    w3 = e_ypzp[0]
    ip[0] = 0.25 * (w0 + w1 + w2 + w3)
    ip[1] = 0.25 * ((w1 + w3) - (w0 + w2))
    ip[2] = 0.25 * ((w2 + w3) - (w0 + w1))
    ip[3] = 0.25 * ((w0 + w3) - (w1 + w2))
    # ey varies over (z, x)
    w0 = e0[1]
    w1 = e_zp[1]
    w2 = e_xp[1]
    w3 = e_xpzp[1]
    ip[4] = 0.25 * (w0 + w1 + w2 + w3)
    ip[5] = 0.25 * ((w1 + w3) - (w0 + w2))
    ip[6] = 0.25 * ((w2 + w3) - (w0 + w1))
    ip[7] = 0.25 * ((w0 + w3) - (w1 + w2))
    # ez varies over (x, y)
    w0 = e0[2]
    w1 = e_xp[2]
    w2 = e_yp[2]
    w3 = e_xpyp[2]
    ip[8] = 0.25 * (w0 + w1 + w2 + w3)
    ip[9] = 0.25 * ((w1 + w3) - (w0 + w2))
    ip[10] = 0.25 * ((w2 + w3) - (w0 + w1))
    ip[11] = 0.25 * ((w0 + w3) - (w1 + w2))
    # face-centred B, linear along the face normal
    ip[12] = 0.5 * (b_xp[0] + b0[0])
    ip[13] = 0.5 * (b_xp[0] - b0[0])
    ip[14] = 0.5 * (b_yp[1] + b0[1])
    ip[15] = 0.5 * (b_yp[1] - b0[1])
    ip[16] = 0.5 * (b_zp[2] + b0[2])
    ip[17] = 0.5 * (b_zp[2] - b0[2])


def move_deposit_kernel(move, pos, disp, vel, w, pushed, ip, acc):
    """The fused electromagnetic move (paper: ``Move_Deposit``).

    First touch per step (``pushed`` flag clear — hop 0, but *not* when a
    migrated particle resumes its walk on another rank): weight E/B to
    the particle from the cell interpolator, Boris push, convert the step
    displacement to cell-offset units.  Every hop: advance to the first
    cell-boundary crossing, deposit this segment's current into the
    *current* cell's accumulator, then either finish (MOVE_DONE) or enter
    the neighbour across the crossed face and carry the remaining
    displacement (NEED_MOVE).  Periodic mesh: no removals.
    """
    if pushed[0] < 0.5:
        pushed[0] = 1.0
        dxp = pos[0]
        dyp = pos[1]
        dzp = pos[2]
        ex = ip[0] + dyp * ip[1] + dzp * ip[2] + dyp * dzp * ip[3]
        ey = ip[4] + dzp * ip[5] + dxp * ip[6] + dzp * dxp * ip[7]
        ez = ip[8] + dxp * ip[9] + dyp * ip[10] + dxp * dyp * ip[11]
        cbx = ip[12] + dxp * ip[13]
        cby = ip[14] + dyp * ip[15]
        cbz = ip[16] + dzp * ip[17]
        # Boris: half electric kick
        umx = vel[0] + CONST.qdt_2mc * ex
        umy = vel[1] + CONST.qdt_2mc * ey
        umz = vel[2] + CONST.qdt_2mc * ez
        # magnetic rotation
        tbx = CONST.qdt_2mc * cbx
        tby = CONST.qdt_2mc * cby
        tbz = CONST.qdt_2mc * cbz
        tsq = tbx * tbx + tby * tby + tbz * tbz
        sfac = 2.0 / (1.0 + tsq)
        upx = umx + (umy * tbz - umz * tby)
        upy = umy + (umz * tbx - umx * tbz)
        upz = umz + (umx * tby - umy * tbx)
        umx = umx + sfac * (upy * tbz - upz * tby)
        umy = umy + sfac * (upz * tbx - upx * tbz)
        umz = umz + sfac * (upx * tby - upy * tbx)
        # half electric kick
        vel[0] = umx + CONST.qdt_2mc * ex
        vel[1] = umy + CONST.qdt_2mc * ey
        vel[2] = umz + CONST.qdt_2mc * ez
        disp[0] = vel[0] * CONST.dtx
        disp[1] = vel[1] * CONST.dty
        disp[2] = vel[2] * CONST.dtz

    # fraction of the remaining displacement until each face is crossed
    s0 = 1.0 if disp[0] >= 0.0 else -1.0
    s1 = 1.0 if disp[1] >= 0.0 else -1.0
    s2 = 1.0 if disp[2] >= 0.0 else -1.0
    tx = (1.0 - s0 * pos[0]) / (abs(disp[0]) + 1e-300)
    ty = (1.0 - s1 * pos[1]) / (abs(disp[1]) + 1e-300)
    tz = (1.0 - s2 * pos[2]) / (abs(disp[2]) + 1e-300)
    tmin = min(tx, ty, tz, 1.0)

    # deposit this segment's current to the cell being crossed
    qwt = CONST.qsp * w[0] * tmin
    acc[0] = acc[0] + qwt * vel[0]
    acc[1] = acc[1] + qwt * vel[1]
    acc[2] = acc[2] + qwt * vel[2]

    pos[0] = pos[0] + disp[0] * tmin
    pos[1] = pos[1] + disp[1] * tmin
    pos[2] = pos[2] + disp[2] * tmin
    disp[0] = disp[0] * (1.0 - tmin)
    disp[1] = disp[1] * (1.0 - tmin)
    disp[2] = disp[2] * (1.0 - tmin)

    if tmin >= 1.0:
        move.done()
    else:
        if tx <= ty and tx <= tz:
            pos[0] = -s0
            face = 1 if s0 > 0.0 else 0
        else:
            if ty <= tz:
                pos[1] = -s1
                face = 3 if s1 > 0.0 else 2
            else:
                pos[2] = -s2
                face = 5 if s2 > 0.0 else 4
        move.move_to(move.c2c[face])


# -- alternative particle pushers (paper §2: "Boris integration being the
# de facto method with a non-zero magnetic field.  Other methods such as
# Velocity Verlet (zero magnetic field giving second-order accuracy),
# Vay, Higuera, and Cary pushers can also be used").
#
# Each pusher is a standalone particle loop that weights E/B from the
# cell interpolator, updates the velocity, converts the step displacement
# and sets the ``pushed`` flag — the fused Move_Deposit then only walks
# and deposits.  The Boris push stays fused (the default, as benchmarked).


def push_velocity_verlet_kernel(pos, disp, vel, pushed, ip):
    """Velocity-Verlet kick: electric field only (second-order accurate
    for B = 0, per the paper's citation)."""
    dxp = pos[0]
    dyp = pos[1]
    dzp = pos[2]
    ex = ip[0] + dyp * ip[1] + dzp * ip[2] + dyp * dzp * ip[3]
    ey = ip[4] + dzp * ip[5] + dxp * ip[6] + dzp * dxp * ip[7]
    ez = ip[8] + dxp * ip[9] + dyp * ip[10] + dxp * dyp * ip[11]
    vel[0] = vel[0] + 2.0 * CONST.qdt_2mc * ex
    vel[1] = vel[1] + 2.0 * CONST.qdt_2mc * ey
    vel[2] = vel[2] + 2.0 * CONST.qdt_2mc * ez
    disp[0] = vel[0] * CONST.dtx
    disp[1] = vel[1] * CONST.dty
    disp[2] = vel[2] * CONST.dtz
    pushed[0] = 1.0


def push_vay_kernel(pos, disp, vel, pushed, ip):
    """Vay push (non-relativistic form): a full electromagnetic half-kick
    followed by the closed-form implicit-midpoint magnetic rotation."""
    dxp = pos[0]
    dyp = pos[1]
    dzp = pos[2]
    ex = ip[0] + dyp * ip[1] + dzp * ip[2] + dyp * dzp * ip[3]
    ey = ip[4] + dzp * ip[5] + dxp * ip[6] + dzp * dxp * ip[7]
    ez = ip[8] + dxp * ip[9] + dyp * ip[10] + dxp * dyp * ip[11]
    cbx = ip[12] + dxp * ip[13]
    cby = ip[14] + dyp * ip[15]
    cbz = ip[16] + dzp * ip[17]
    tbx = CONST.qdt_2mc * cbx
    tby = CONST.qdt_2mc * cby
    tbz = CONST.qdt_2mc * cbz
    # w = v + (q dt / m) E + (q dt / 2m) v x B
    wx = vel[0] + 2.0 * CONST.qdt_2mc * ex + (vel[1] * tbz - vel[2] * tby)
    wy = vel[1] + 2.0 * CONST.qdt_2mc * ey + (vel[2] * tbx - vel[0] * tbz)
    wz = vel[2] + 2.0 * CONST.qdt_2mc * ez + (vel[0] * tby - vel[1] * tbx)
    # v_new = (w + (w·t) t + w x t) / (1 + t²)
    tsq = tbx * tbx + tby * tby + tbz * tbz
    wdt = wx * tbx + wy * tby + wz * tbz
    inv = 1.0 / (1.0 + tsq)
    vel[0] = (wx + wdt * tbx + (wy * tbz - wz * tby)) * inv
    vel[1] = (wy + wdt * tby + (wz * tbx - wx * tbz)) * inv
    vel[2] = (wz + wdt * tbz + (wx * tby - wy * tbx)) * inv
    disp[0] = vel[0] * CONST.dtx
    disp[1] = vel[1] * CONST.dty
    disp[2] = vel[2] * CONST.dtz
    pushed[0] = 1.0


def push_higuera_cary_kernel(pos, disp, vel, pushed, ip):
    """Higuera–Cary push, non-relativistic form: half electric kick, the
    volume-preserving rotation built from the same τ vector as Boris but
    applied in its exact-rotation (tan-half-angle) formulation, half
    electric kick."""
    dxp = pos[0]
    dyp = pos[1]
    dzp = pos[2]
    ex = ip[0] + dyp * ip[1] + dzp * ip[2] + dyp * dzp * ip[3]
    ey = ip[4] + dzp * ip[5] + dxp * ip[6] + dzp * dxp * ip[7]
    ez = ip[8] + dxp * ip[9] + dyp * ip[10] + dxp * dyp * ip[11]
    cbx = ip[12] + dxp * ip[13]
    cby = ip[14] + dyp * ip[15]
    cbz = ip[16] + dzp * ip[17]
    umx = vel[0] + CONST.qdt_2mc * ex
    umy = vel[1] + CONST.qdt_2mc * ey
    umz = vel[2] + CONST.qdt_2mc * ez
    tbx = CONST.qdt_2mc * cbx
    tby = CONST.qdt_2mc * cby
    tbz = CONST.qdt_2mc * cbz
    tsq = tbx * tbx + tby * tby + tbz * tbz
    # exact rotation through 2·atan(|t|) about t̂ (u⁺ formulation):
    # u+ = [ (1 - t²) u- + 2 (u-·t) t + 2 u- x t ] / (1 + t²)
    udt = umx * tbx + umy * tby + umz * tbz
    inv = 1.0 / (1.0 + tsq)
    upx = ((1.0 - tsq) * umx + 2.0 * udt * tbx
           + 2.0 * (umy * tbz - umz * tby)) * inv
    upy = ((1.0 - tsq) * umy + 2.0 * udt * tby
           + 2.0 * (umz * tbx - umx * tbz)) * inv
    upz = ((1.0 - tsq) * umz + 2.0 * udt * tbz
           + 2.0 * (umx * tby - umy * tbx)) * inv
    vel[0] = upx + CONST.qdt_2mc * ex
    vel[1] = upy + CONST.qdt_2mc * ey
    vel[2] = upz + CONST.qdt_2mc * ez
    disp[0] = vel[0] * CONST.dtx
    disp[1] = vel[1] * CONST.dty
    disp[2] = vel[2] * CONST.dtz
    pushed[0] = 1.0


def zero_accumulator_kernel(acc):
    acc[0] = 0.0
    acc[1] = 0.0
    acc[2] = 0.0


def accumulate_current_kernel(j, acc):
    """Accumulator → current density (and reset for the next step)."""
    j[0] = acc[0] * CONST.inv_cell_vol
    j[1] = acc[1] * CONST.inv_cell_vol
    j[2] = acc[2] * CONST.inv_cell_vol
    acc[0] = 0.0
    acc[1] = 0.0
    acc[2] = 0.0


def advance_b_kernel(b, e0, e_xp, e_yp, e_zp):
    """Half-step Faraday update: ``B -= dt/2 · ∇×E`` (Yee forward
    differences through the +axis stencil neighbours)."""
    b[0] = b[0] - CONST.half_dt * ((e_yp[2] - e0[2]) * CONST.ry
                                   - (e_zp[1] - e0[1]) * CONST.rz)
    b[1] = b[1] - CONST.half_dt * ((e_zp[0] - e0[0]) * CONST.rz
                                   - (e_xp[2] - e0[2]) * CONST.rx)
    b[2] = b[2] - CONST.half_dt * ((e_xp[1] - e0[1]) * CONST.rx
                                   - (e_yp[0] - e0[0]) * CONST.ry)


def advance_e_kernel(e, b0, b_xm, b_ym, b_zm, j):
    """Full-step Ampère update: ``E += dt (∇×B − J)`` (c = eps0 = 1,
    backward differences through the −axis neighbours)."""
    e[0] = e[0] + CONST.dt * ((b0[2] - b_ym[2]) * CONST.ry
                              - (b0[1] - b_zm[1]) * CONST.rz) \
        - CONST.dt * j[0]
    e[1] = e[1] + CONST.dt * ((b0[0] - b_zm[0]) * CONST.rz
                              - (b0[2] - b_xm[2]) * CONST.rx) \
        - CONST.dt * j[1]
    e[2] = e[2] + CONST.dt * ((b0[1] - b_xm[1]) * CONST.rx
                              - (b0[0] - b_ym[0]) * CONST.ry) \
        - CONST.dt * j[2]


def energy_kernel(f, en):
    """Global reduction: Σ |f|² · V/2 over cells (E or B field energy)."""
    en[0] = en[0] + 0.5 * (f[0] * f[0] + f[1] * f[1] + f[2] * f[2]) \
        * CONST.cell_vol


#: selectable pushers (paper §2); "boris" stays fused inside Move_Deposit
PUSHERS = {
    "velocity_verlet": push_velocity_verlet_kernel,
    "vay": push_vay_kernel,
    "higuera_cary": push_higuera_cary_kernel,
}
