"""Static equilibrium of a single continuum segment with an insertable
equilibrium-modulation wire.

The segment has a central backbone (length L), n push-pull secondary
backbones on a pitch circle of radius r, and a thin wire inserted a depth
q_s into the central backbone.  The wire splits the segment at a
separation plane into an inserted subsegment (base angle theta0 to
theta_s) and an empty subsegment (theta_s to theta_prime).  Bending
moments carried across the separation plane plus an empirical actuation
uncertainty moment lambda determine (theta_s, theta_prime).  The empty
subsegment keeps the whole segment's curvature, so the balance is one
increasing scalar equation in the inserted subsegment's curvature kappa,
solved per sample by safeguarded Newton.

Units: mm, N, rad; moduli in MPa so E*I is N*mm^2 and stiffnesses are
N*mm/rad.  Angles follow the convention that the base angle
theta0 = THETA_BASE = pi/2 is straight and smaller theta means more bending.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NoConvergence, NonPhysicalLength, ValidationError

# base-disk angle of every segment: the straight configuration
THETA_BASE = math.pi / 2.0

_SOLVER_TOL = 1e-12
_SOLVER_MAX_ITER = 200
# samples per block of a batch (_blocks).  Temporaries of a whole batch of 20,000 are
# handed back to the kernel when freed and faulted in again on the next call; a block's are
# reused from the heap block after block.  4,096 by measurement on the sweep workload:
# 2,048 reads slower, 8,192 no faster
_BLOCK = 4096


def _integer(name: str, value, low: int) -> int:
    """value as an int >= low; ValidationError for a bool or a non-integral or
    non-finite number.  An integral float such as 3.0 gives its int."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value != int(value) or value < low):
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def _real(name: str, value):
    """ValidationError naming the field unless value is a real scalar: a bool, an array (a
    0-d one too), a string or None is refused.  A float passes on its type alone."""
    if type(value) is not float and (isinstance(value, bool)
                                     or not isinstance(value, numbers.Real)):
        raise ValidationError(f"{name} must be a real number, got {value!r}")


def _float(a):
    """a as floats: a numpy scalar for a scalar, an array otherwise.  The one conversion of
    sample values in the core, so that a scalar sample is not a 0-d array, on which each
    numpy operation costs about ten times what it costs on a numpy scalar."""
    return np.asarray(a, dtype=float)[()]


def _blocks(n: int):
    """Slices of the consecutive blocks of at most _BLOCK of n samples, none for n = 0: the one
    place a batch is split.  A sample's bits are the same in any block; slice.start is the
    batch index of the block's first sample."""
    return [slice(i, min(i + _BLOCK, n)) for i in range(0, n, _BLOCK)]


@dataclass(frozen=True)
class RobotParams:
    """Geometry and material constants of one segment.

    L: segment (central backbone) length, mm
    r: pitch-circle radius of the secondary backbones, mm
    E_p, I_p: modulus (MPa) and area moment (mm^4) of the central backbone
    E_i, I_i: same for each secondary backbone
    E_s, I_s: same for the insertable wire; zero allowed (wire absent)
    n: number of secondary backbones, evenly spaced
    Each real field is a real scalar (_real) before its range is checked.
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
        for name in ("L", "r", "E_p", "E_i", "I_p", "I_i"):
            v = getattr(self, name)
            _real(name, v)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValidationError(f"{name} must be positive, got {v}")
        object.__setattr__(self, "n", _integer("n", self.n, 3))
        for name in ("E_s", "I_s"):
            v = getattr(self, name)
            _real(name, v)
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


@dataclass(frozen=True)
class ConfigState:
    """Nominal bend angle theta and bending-plane angle delta, rad: real scalars (_real) in
    the domain (_check_domain)."""

    theta: float
    delta: float

    def __post_init__(self):
        _real("theta", self.theta)
        _real("delta", self.delta)
        _check_domain((self.theta, self.delta), 0.0, None, "sample", 0)


@dataclass(frozen=True)
class UncertaintyParams:
    """Affine actuation-uncertainty moment lambda = k0 + k_theta*theta + k_q*q_s, of finite
    real scalars (_real)."""

    k_lambda0: float = 0.0
    k_lambda_theta: float = 0.0
    k_lambda_q: float = 0.0

    def __post_init__(self):
        for name in ("k_lambda0", "k_lambda_theta", "k_lambda_q"):
            v = getattr(self, name)
            _real(name, v)
            if not math.isfinite(v):
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
            raise ValidationError("equilibrium angles must be finite, got "
                                  f"({self.theta_s}, {self.theta_eps})")

    @property
    def theta_prime(self) -> float:
        return _theta_prime(self.theta_s, self.theta_eps)


_ARG_TYPES = {"params": RobotParams, "psi": ConfigState, "k": UncertaintyParams,
              "k0": UncertaintyParams}


def _check_types(**args):
    """ValidationError naming the first of the arguments, in their order, not of its type:
    params, psi, k and k0 of _ARG_TYPES, q_s a real scalar.  The one type rule of the calls."""
    for name, value in args.items():
        if name == "q_s":
            _real(name, value)
        elif not isinstance(value, cls := _ARG_TYPES[name]):
            raise ValidationError(f"{name} must be of type {cls.__name__}, got {value!r}")


def _theta_prime(theta_s, theta_eps):
    """End-disk angle theta_prime = theta_eps - (pi/2 - theta_s)."""
    return theta_eps - (np.pi / 2.0 - theta_s)


def _sigma(params: RobotParams, delta, ndim: int):
    """sigma_i = delta + (i - 1) * beta, backbone-major: (n,) + delta's shape padded to ndim."""
    d = _float(delta)
    return d + params.beta * np.arange(params.n).reshape((-1,) + (1,) * max(d.ndim, ndim))


def _offsets(params: RobotParams, delta, ndim: int):
    """Delta_i = r cos(sigma_i), backbone-major: (n,) + delta's shape padded to ndim."""
    return params.r * np.cos(_sigma(params, delta, ndim))


def _backbone_sum(a):
    """Sum over the leading backbone axis, row by row, so the bits do not depend on the
    batch (np.add.reduce sums a lone column of n >= 8 numbers pairwise)."""
    total = a[0] + a[1]
    for i in range(2, len(a)):
        total += a[i]
    return total


def _arc_moment(params: RobotParams, D, kappa, dD=None):
    """Backbone stretches, bending moment and its partials of an arc of curvature kappa.

    An arc of length l bent at curvature kappa (rad/mm) has secondary
    backbones l x_i with stretches x_i = 1 + Delta_i kappa, and stiffness
    EI_p / l + sum_i EI_i / (l x_i) (N*mm/rad).  Times its bend l kappa that
    is the moment M = (EI_p + sum_i EI_i / x_i) kappa (N*mm), free of l.
    Returns (x, M, dM/dkappa) with dM/dkappa = EI_p + sum_i EI_i / x_i^2, and
    with dD = d Delta_i / d delta also dM/d delta = -kappa^2 sum_i EI_i dD_i /
    x_i^2.  D, dD and x are backbone-major (_offsets).  Stretches are not checked.
    """
    kappa = _float(kappa)
    x = 1.0 + D * kappa
    M, M_k, wx = _stretched_moment(params, x, kappa)
    if dD is None:
        return x, M, M_k
    return x, M, M_k, -kappa * kappa * _backbone_sum(dD * wx)


def _stretched_moment(params: RobotParams, x, kappa):
    """(M, dM/dkappa, EI_i / x_i^2) of _arc_moment from its stretches x = 1 + Delta_i kappa."""
    w = params.EI_i / x
    wx = w / x
    M = (params.EI_p + _backbone_sum(w)) * kappa
    return M, params.EI_p + _backbone_sum(wx), wx


def uncertainty_lambda(k: UncertaintyParams, q_s, theta):
    """lambda = k_lambda0 + k_lambda_theta * theta + k_lambda_q * q_s.

    theta is the nominal configuration angle, not an equilibrium angle.
    """
    return k.k_lambda0 + k.k_lambda_theta * _float(theta) + k.k_lambda_q * _float(q_s)


def _broadcast_samples(*arrays):
    """The arrays (theta, delta, q_s, ...) as floats of one broadcast shape."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    shape = np.broadcast(*arrays).shape
    return [a if a.shape == shape else np.broadcast_to(a, shape) for a in arrays]


def _sample(samples, i):
    """'(theta, delta[, q_s]) = (...)' of flat index i of the broadcast samples."""
    values = ", ".join(f"{a.flat[i]:.6g}" for a in np.broadcast_arrays(*samples))
    return f"({', '.join(('theta', 'delta', 'q_s')[:len(samples)])}) = ({values})"


def _check_domain(samples, h, L, label, first):
    """ValidationError naming the first of the samples (theta, delta, q_s), or (theta, delta)
    without L, not h inside the domain, NaN included: '<label> <i + first>: ' and _sample of
    its flat index i.  The upper bounds compare samples stepped by +h, as the solver sees a
    finite-difference point's steps.  Scalars that pass give True, or numpy's True of numpy
    scalars, and count nothing."""
    theta, delta, *q_s = samples
    ok = (theta > h) & (theta + h < math.pi) & (delta > -math.pi) & (delta <= math.pi)
    if q_s:
        ok = ok & (q_s[0] >= h) & (q_s[0] + h <= L)
    if ok is not True and ok is not np.True_ and np.count_nonzero(ok) != np.size(ok):
        i = int(np.argmin(ok))
        lo, hi = (f"{h:g}", f" - {h:g}") if h else ("0", "")
        domain = (f"({lo}, pi{hi})", "(-pi, pi]", f"[{lo}, L{hi}]")[:len(samples)]
        raise ValidationError(f"{label} {i + first}: {_sample(samples, i)} outside "
                              + " x ".join(domain))


class _SolverStart(NamedTuple):
    """The lambda-free part of a solve, formed once by _solver_start for any number of
    _newton solves of the same samples."""

    samples: tuple  # (theta, delta, q_s) as _float, for the messages
    shape: tuple  # the samples' broadcast shape
    first: int  # index in the whole batch of the first sample, for the messages
    D: np.ndarray  # (n, N) backbone-major Delta_i of delta, (n, 1) of one delta; shape (): (n,)
    kappa0: np.ndarray  # (N,) whole-segment curvature, Newton's start; one theta: numpy scalar
    M0: np.ndarray  # (N,) M(kappa0); one psi: numpy scalar
    M0_k: np.ndarray  # (N,) dM/dkappa at kappa0; one psi: numpy scalar


def _solver_start(params: RobotParams, theta, delta, q_s, first: int) -> _SolverStart:
    """Check the samples and form what _newton needs at every lambda.

    Each sample (theta, delta, q_s) is one value or of the batch's shape, a block of a batch
    starting at index first (0 for a whole batch); each message names a sample by its index in
    the batch.  The first sample outside the domain (_check_domain, h = 0) is rejected.
    Newton starts from the whole segment's curvature kappa0 = (theta - theta0) / L with
    M(kappa0) and its slope; NonPhysicalLength names the first sample with a whole-segment
    backbone length that is not positive.  The check, the offsets D = _offsets of delta,
    kappa0, M(kappa0), its slope and the stretches are formed at the inputs' own shapes, so
    that a sweep at one psi = (theta, delta) takes them once: a term of one value stays one
    (D as (n, 1), the others numpy scalars) and broadcasts against the flat batch as it is.
    Samples of shape () are a batch of one with no batch axis: D is (n,).
    """
    samples = theta, delta, q_s = [_float(a) for a in (theta, delta, q_s)]
    shape = np.broadcast(*samples).shape
    _check_domain(samples, 0.0, params.L, "sample", first)
    D = _offsets(params, delta, len(shape))
    kappa0 = (theta - THETA_BASE) / params.L
    x, M0, M0_k = _arc_moment(params, D, kappa0)
    if np.count_nonzero(x <= 0.0):
        x = np.broadcast_to(x, (params.n,) + shape).reshape(params.n, -1)
        bad = np.min(x, axis=0) <= 0.0
        if bad.any():  # an empty batch has no sample to fail
            i = int(np.argmax(bad))
            raise NonPhysicalLength(f"sample {i + first}: {_sample(samples, i)}: backbone "
                                    f"length <= 0 (min {params.L * np.min(x[:, i]):.6g} mm)")
    kappa0, M0, M0_k = [a.ravel() if a.ndim else a for a in (kappa0, M0, M0_k)]
    return _SolverStart((theta, delta, q_s), shape, first,
                        D.reshape(params.n, -1) if shape else D, kappa0, M0, M0_k)


def _newton(params: RobotParams, start: _SolverStart, lam):
    """Vectorized solve of the moment balance for the inserted arc's curvature.

    The empty arc carries the base moment of the whole segment, so it has the
    whole segment's curvature kappa0 = (theta - theta0) / L, and the balance
    reduces to one equation for the inserted arc's curvature kappa:

        G(kappa) = M(kappa) + EI_s kappa - M(kappa0) + lambda = 0

    with M from _arc_moment.  G' = EI_p + EI_s + sum_i EI_i / x_i^2 > 0, and G
    runs over all reals on the physical interval (every stretch x_i > 0), so
    the root is unique.  Safeguarded Newton from kappa0 of the start
    (_solver_start): a sample's step is halved while it leaves the physical
    interval, and the sample is frozen once |step| L < _SOLVER_TOL, after that
    step, so its kappa does not depend on the batch it is solved in.  Each
    step forms the stretches x_i = 1 + Delta_i kappa once, for the safeguard
    and for the next step's moment, and works on the shrinking active set:
    arrays of the active samples, D and x backbone-major (n, N_active),
    compacted only when samples freeze; the start's terms of one psi enter the
    first step as they are, and D of one delta stays (n, 1).  Samples of shape () run the
    same loop on numpy scalars and D's (n,) backbone row; one sample never compacts.  lam is
    lambda per sample (uncertainty_lambda), of the samples' shape; the start is not
    changed.  Returns kappa of the samples' shape; _equilibrium_angles gives
    the angles.  NoConvergence names the active sample with the largest last
    step by its index in the batch and counts the samples of the start still active: of
    one block, in a batch longer than _BLOCK.
    """
    shape = start.shape
    lam = _float(lam)
    samples, _, first, Da, ka, M, M_k = start
    # a one-shot solve holds its start nowhere else: dropping it frees kappa0 and M(kappa0)
    # at the first step, as large batches need (at N = 20,000 a sweep is 10% slower with
    # them kept)
    del start
    rhs = M - (lam.ravel() if shape else lam)
    # kappa is formed when part of the batch freezes; until then the active samples are all
    # of them, in order.  The active samples' working arrays are compacted only then
    kappa, n = None, rhs.size
    active = np.arange(n)
    for _ in range(_SOLVER_MAX_ITER):
        s = (rhs - M - params.EI_s * ka) / (M_k + params.EI_s)
        new = ka + s
        x = 1.0 + Da * new
        # count_nonzero beats .all() on a few samples; a NaN stretch is not > 0
        while np.count_nonzero(x > 0.0) != x.size:
            # a non-finite step is not halved; it stays active and is reported
            out = ~(x > 0.0).all(axis=0) & np.isfinite(s)
            if not out.any():
                break
            s = np.where(out, 0.5 * s, s)
            new = ka + s
            x = 1.0 + Da * new
        ka, step = new, np.abs(s) * params.L
        done = step < _SOLVER_TOL
        n_done = np.count_nonzero(done)
        if n_done == done.size:
            if kappa is None:
                return ka.reshape(shape)
            kappa[active] = ka
            break
        if n_done:
            if kappa is None:
                kappa = np.empty(n)
            kappa[active[done]] = ka[done]
            keep = ~done
            active, ka, rhs, x = active[keep], ka[keep], rhs[keep], x[:, keep]
            if Da.shape[1] > 1:  # the offsets of one delta serve every sample as they are
                Da = Da[:, keep]
        M, M_k, _ = _stretched_moment(params, x, ka)
    else:
        step = step[~done]
        worst = int(np.argmax(step))
        raise NoConvergence(
            f"sample {first + active[worst]}: {_sample(samples, active[worst])}: equilibrium "
            f"not converged after {_SOLVER_MAX_ITER} Newton steps (last step "
            f"{step[worst]:.3g} rad); {active.size} of {n} samples still active"
        )
    return kappa.reshape(shape)


def _equilibrium_angles(params: RobotParams, theta, q_s, kappa):
    """(theta_s, theta_eps) of the solved curvature kappa: theta_s = theta0 + q_s kappa, and
    the empty arc bends by (L - q_s) kappa0 (_theta_eps).  q_s = 0 gives exactly
    (theta0, theta).  theta_prime is formed only where it is read (_theta_prime)."""
    theta, q_s = _float(theta), _float(q_s)
    return THETA_BASE + q_s * kappa, _theta_eps(params, theta, q_s)


def _theta_eps(params: RobotParams, theta, q_s):
    """theta_eps = pi/2 + (L - q_s) kappa0 of float arrays theta and q_s, which lambda does not
    move: exactly theta at q_s = 0 and exactly pi/2 at q_s = L."""
    return theta - (theta - THETA_BASE) * (q_s / params.L)


def solve_equilibrium(
    params: RobotParams,
    psi: ConfigState,
    q_s: float,
    k: UncertaintyParams,
) -> EquilibriumConfig:
    """Equilibrium angles of the segment at configuration psi, depth q_s; nothing is kept."""
    _check_types(params=params, psi=psi, k=k, q_s=q_s)
    q_s = float(q_s)
    kappa = float(_newton(params, _solver_start(params, psi.theta, psi.delta, q_s, 0),
                          uncertainty_lambda(k, q_s, psi.theta)))
    th_s, th_e = _equilibrium_angles(params, psi.theta, q_s, kappa)
    return EquilibriumConfig(float(th_s), float(th_e))
