"""Static equilibrium of a single continuum segment with an insertable
equilibrium-modulation wire.

The segment has a central backbone (length L), n push-pull secondary
backbones on a pitch circle of radius r, and a thin wire inserted a depth
q_s into the central backbone.  The wire splits the segment at a
separation plane into an inserted subsegment (base angle theta0 to
theta_s) and an empty subsegment (theta_s to theta_prime).  Bending
moments carried across the separation plane plus an empirical actuation
uncertainty moment lambda determine (theta_s, theta_prime).

Units: mm, N, rad; moduli in MPa so E*I is N*mm^2 and stiffnesses are
N*mm/rad.  Angles follow the convention that the base angle
theta0 = THETA_BASE = pi/2 is straight and smaller theta means more bending.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonPhysicalLength, ValidationError

# base-disk angle of every segment: the straight configuration
THETA_BASE = math.pi / 2.0

# Insertion depths within this fraction of L from either end are treated as
# boundary cases: below q_min the analytic limit phi = (THETA_BASE, theta) is
# returned, above L - q_min the empty-side lengths are clamped at q_min.
Q_MIN_FRACTION = 1e-6

_SOLVER_TOL = 1e-12
_SOLVER_MAX_ITER = 200
_DAMP_FLOOR = 1.0 / 64.0


@dataclass(frozen=True)
class RobotParams:
    """Geometry and material constants of one segment.

    L: segment (central backbone) length, mm
    r: pitch-circle radius of the secondary backbones, mm
    E_p, I_p: modulus (MPa) and area moment (mm^4) of the central backbone
    E_i, I_i: same for each secondary backbone
    E_s, I_s: same for the insertable wire; zero allowed (wire absent)
    n: number of secondary backbones, evenly spaced
    """

    L: float
    r: float
    E_p: float
    E_i: float
    E_s: float
    I_p: float
    I_i: float
    I_s: float
    n: int = 3

    def __post_init__(self):
        if not (self.L > 0.0 and math.isfinite(self.L)):
            raise ValidationError(f"L must be positive, got {self.L}")
        if not (self.r > 0.0 and math.isfinite(self.r)):
            raise ValidationError(f"r must be positive, got {self.r}")
        if int(self.n) != self.n or self.n < 3:
            raise ValidationError(f"n must be an integer >= 3, got {self.n}")
        for name in ("E_p", "E_i", "I_p", "I_i"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValidationError(f"{name} must be positive, got {v}")
        for name in ("E_s", "I_s"):
            v = getattr(self, name)
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValidationError(f"{name} must be >= 0, got {v}")

    @property
    def beta(self) -> float:
        """Angular pitch 2 pi / n between secondary backbones."""
        return 2.0 * math.pi / self.n

    @property
    def EI_p(self) -> float:
        return self.E_p * self.I_p

    @property
    def EI_i(self) -> float:
        return self.E_i * self.I_i

    @property
    def EI_s(self) -> float:
        return self.E_s * self.I_s

    @property
    def q_min(self) -> float:
        return Q_MIN_FRACTION * self.L


@dataclass(frozen=True)
class ConfigState:
    """Nominal bend angle theta and bending-plane angle delta, rad."""

    theta: float
    delta: float

    def __post_init__(self):
        if not (0.0 < self.theta < math.pi):
            raise ValidationError(f"theta must lie in (0, pi), got {self.theta}")
        if not (-math.pi < self.delta <= math.pi):
            raise ValidationError(f"delta must lie in (-pi, pi], got {self.delta}")


@dataclass(frozen=True)
class UncertaintyParams:
    """Affine actuation-uncertainty moment lambda = k0 + k_theta*theta + k_q*q_s."""

    k_lambda0: float = 0.0
    k_lambda_theta: float = 0.0
    k_lambda_q: float = 0.0

    def __post_init__(self):
        for name in ("k_lambda0", "k_lambda_theta", "k_lambda_q"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.k_lambda0, self.k_lambda_theta, self.k_lambda_q])

    @classmethod
    def from_array(cls, a) -> "UncertaintyParams":
        a = np.asarray(a, dtype=float)
        return cls(float(a[0]), float(a[1]), float(a[2]))

    @classmethod
    def zero(cls) -> "UncertaintyParams":
        return cls(0.0, 0.0, 0.0)


@dataclass(frozen=True)
class EquilibriumConfig:
    """Equilibrium angles phi = (theta_s, theta_eps).

    theta_s is the separation-plane angle, theta_eps the empty-subsegment
    equivalent bend angle; the end-disk angle is
    theta_prime = theta_eps - (pi/2 - theta_s) by construction.
    """

    theta_s: float
    theta_eps: float

    def __post_init__(self):
        if not (math.isfinite(self.theta_s) and math.isfinite(self.theta_eps)):
            raise ValidationError(f"equilibrium angles must be finite, got {self.phi()}")

    @property
    def theta_prime(self) -> float:
        return self.theta_eps - (math.pi / 2.0 - self.theta_s)

    @classmethod
    def from_tip_angle(cls, theta_s: float, theta_prime: float) -> "EquilibriumConfig":
        return cls(theta_s, _theta_eps(theta_s, theta_prime))

    def phi(self) -> np.ndarray:
        return np.array([self.theta_s, self.theta_eps])


def _theta_eps(theta_s, theta_prime):
    """Empty-subsegment bend angle theta_eps = theta_prime + (pi/2 - theta_s)."""
    return theta_prime + (np.pi / 2.0 - theta_s)


def _sigma(params: RobotParams, delta):
    """Angular positions sigma_i = delta + (i - 1) * beta, shape (..., n)."""
    d = np.asarray(delta, dtype=float)
    return d[..., None] + params.beta * np.arange(params.n)


def projected_offsets(params: RobotParams, delta):
    """Delta_i = r cos(sigma_i): moment-arm projections onto the bending plane."""
    return params.r * np.cos(_sigma(params, delta))


def _arc_stiffness(params: RobotParams, D, length, bend):
    """Secondary-backbone lengths and angular stiffness of one arc.

    An arc whose central backbone has length `length` and bends by `bend`
    rad has secondary backbones L_x,i = length + Delta_i * bend, shape
    (..., n), and stiffness EI_p / length + sum_i EI_i / L_x,i (N*mm/rad).
    The balance has three such arcs: the whole segment (L, theta - theta0)
    gives k0, the empty subsegment (L - q_s, theta_prime - theta_s) k1 and
    the inserted one (q_s, theta_s - theta0) k2.  Lengths are not checked.
    """
    L_x = np.asarray(length, dtype=float)[..., None] + D * np.asarray(bend)[..., None]
    return L_x, params.EI_p / length + np.sum(params.EI_i / L_x, axis=-1)


def _arc_stiffness_partials(params: RobotParams, D, dD, length, bend):
    """Stiffness k of one arc (_arc_stiffness) and (dk/d length, dk/d bend, dk/d delta),
    given dD = d Delta_i / d delta, shape (..., n).  Squares are products: a
    numpy scalar's ** 2 calls pow, which can round differently from an array's."""
    L_x, k = _arc_stiffness(params, D, length, bend)
    w = params.EI_i / L_x**2
    return (k, -params.EI_p / (length * length) - np.sum(w, axis=-1), -np.sum(D * w, axis=-1),
            -bend * np.sum(dD * w, axis=-1))


def uncertainty_lambda(k: UncertaintyParams, q_s, theta):
    """lambda = k_lambda0 + k_lambda_theta * theta + k_lambda_q * q_s.

    theta is the nominal configuration angle, not an equilibrium angle.
    """
    return k.k_lambda0 + k.k_lambda_theta * np.asarray(theta, dtype=float) \
        + k.k_lambda_q * np.asarray(q_s, dtype=float)


def _broadcast_samples(theta, delta, q_s):
    """(theta, delta, q_s) as float arrays of one broadcast shape."""
    return np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (theta, delta, q_s)))


def _solve_equilibrium_arrays(
    params: RobotParams,
    theta,
    delta,
    q_s,
    k: UncertaintyParams,
):
    """Vectorized fixed-point solve of the two moment equations.

    Each sweep freezes the length-dependent stiffnesses at the current
    iterate and solves the frozen system exactly:

        theta_s = theta0 + (k0 (theta - theta0) - lambda) / (k2 + ks)
        theta_prime = theta_s + (k0 / k1) (theta - theta0)

    then re-evaluates the stiffnesses.  Each sample keeps its own damping
    factor, halved when its step grows, and is frozen (damping 0) once its
    proposed update falls below _SOLVER_TOL in both components; that last
    update is applied as a lone solve applies it, so a sample's angles do not
    depend on the batch it is solved in.  The sweeps stop when no sample is
    active.  k may hold per-sample coefficient arrays (uncertainty_lambda
    broadcasts).  Returns (theta_s, theta_prime) broadcast over the inputs.
    Every sample must satisfy the ConfigState rules and 0 <= q_s <= L; the
    first that does not (NaN included) is rejected by its flat index before
    any sweep.  NoConvergence names the active sample with the largest last
    step the same way and counts the samples still active.
    """
    theta, delta, q_s = _broadcast_samples(theta, delta, q_s)
    ok = ((theta > 0.0) & (theta < math.pi) & (delta > -math.pi) & (delta <= math.pi)
          & (q_s >= 0.0) & (q_s <= params.L))

    def sample(i):
        return (f"sample {i}: (theta, delta, q_s) = ({theta.flat[i]:.6g}, "
                f"{delta.flat[i]:.6g}, {q_s.flat[i]:.6g})")

    if not np.all(ok):
        raise ValidationError(f"{sample(int(np.argmin(ok)))} outside (0, pi) x (-pi, pi] x [0, L]")
    th0 = THETA_BASE
    lam = np.asarray(uncertainty_lambda(k, q_s, theta), dtype=float)

    small = q_s < params.q_min
    qs_eff = np.maximum(q_s, params.q_min)
    # near full insertion the empty side vanishes; clamp its lengths
    Lq_eff = np.maximum(params.L - q_s, params.q_min)

    D = projected_offsets(params, delta)
    L_i, k0 = _arc_stiffness(params, D, params.L, theta - th0)
    if np.any(L_i <= 0.0):
        raise NonPhysicalLength(f"backbone length <= 0 (min {np.min(L_i):.6g} mm)")
    m_base = k0 * (theta - th0)
    ks = params.EI_s / qs_eff

    # constant-curvature initialization
    th_s = th0 + (theta - th0) * q_s / params.L
    th_p = theta.copy()

    damp = np.ones(theta.shape)
    prev_step = np.inf
    for iteration in range(_SOLVER_MAX_ITER):
        L_si, k2 = _arc_stiffness(params, D, qs_eff, th_s - th0)
        L_ei, k1 = _arc_stiffness(params, D, Lq_eff, th_p - th_s)
        if np.any(L_si <= 0.0) or np.any(L_ei <= 0.0):
            raise NonPhysicalLength(
                f"subsegment length <= 0 during equilibrium iteration {iteration}"
            )
        th_s_new = th0 + (m_base - lam) / (k2 + ks)
        th_p_new = th_s_new + m_base / k1
        ds = th_s_new - th_s
        dp = th_p_new - th_p
        step = np.maximum(np.abs(ds), np.abs(dp))
        th_s = th_s + damp * ds
        th_p = th_p + damp * dp
        # frozen samples stay at damp 0: x + 0 * dx == x
        damp = np.where(step < _SOLVER_TOL, 0.0, damp)
        if not damp.any():
            break
        grew = step > prev_step
        if grew.any():
            # min(damp, floor) keeps a frozen sample at 0
            damp = np.where(grew, np.maximum(damp * 0.5, np.minimum(damp, _DAMP_FLOOR)), damp)
        prev_step = step
    else:
        active = damp > 0.0
        worst = int(np.argmax(np.where(active, step, -1.0)))
        raise NoConvergence(
            f"{sample(worst)}: equilibrium fixed point not converged after {_SOLVER_MAX_ITER} "
            f"iterations (last step {step.flat[worst]:.3g} rad); "
            f"{np.count_nonzero(active)} of {active.size} samples still active"
        )

    # analytic limit for vanishing insertion: the inserted side stiffens
    # without bound, so theta_s -> theta0 and theta_prime -> theta
    th_s = np.where(small, th0, th_s)
    th_p = np.where(small, theta, th_p)
    return th_s, th_p


def solve_equilibrium(
    params: RobotParams,
    psi: ConfigState,
    q_s: float,
    k: UncertaintyParams,
) -> EquilibriumConfig:
    """Equilibrium angles of the segment at configuration psi, depth q_s."""
    th_s, th_p = _solve_equilibrium_arrays(params, psi.theta, psi.delta, float(q_s), k)
    return EquilibriumConfig.from_tip_angle(float(th_s), float(th_p))
