"""Identification of the actuation-uncertainty parameters from tip data.

Each measurement pairs a commanded configuration (theta, delta, q_s) with
an observed tip position (and optionally orientation).  The residual per
measurement is the 6-vector [x_bar - x; alpha_e m_e] of position error
and axis-angle orientation error; a Gauss-Newton loop on the weighted
cost M_lambda = c~^T W c~ / 2N updates the free components of
(k_lambda0, k_lambda_theta, k_lambda_q) until the relative change of
M_lambda falls below a threshold.  The initial step length eta is 1 (a
full Gauss-Newton step) by default and halves whenever a step would
raise the cost; the paper's damped update is eta < 1.  The result
reports the standard errors and correlation of the free parameters.

The loop is batched over the dataset, with or without observed orientation.
What k does not move is formed once per fit (_stack): the commands, u, sin
and cos delta, theta_eps and its arc, the solver's start with its domain
and stretch checks, and the position mask of the RMSE.  Each evaluated k
costs one Newton solve from that start and one kinematics._chain, the chain
record of poses and Jacobians, on the fit's empty arc (_chain_at); the residuals
rest on it, and the next Jacobian (_jacobian_factors) reads that of the accepted ones.
Its blocks J_i = v_i u_i^T have rank one, u_i = (1, theta_i, q_s_i) and v_i
along the tip twist per theta_s: J^T W J = sum_i (v_i^T W_i v_i) u_i u_i^T.
"""
from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from typing import NamedTuple

import numpy as np

from .errors import NoConvergence, SingularNormalEquations, ValidationError
from .kinematics import Pose, _Arc, _arc, _chain, _Chain, _columns, _turn, segment_rotation
from .model import (
    THETA_BASE,
    ConfigState,
    RobotParams,
    UncertaintyParams,
    _arc_moment,
    _blocks,
    _check_types,
    _integer,
    _lambda,
    _real,
    _reals,
    _SolverStart,
    _newton,
    _solver_start,
    _theta_eps,
    _theta_prime,
)
from .differential import _theta_s_row, _theta_s_twist
from .rotations import axis_angle_vector

PARAM_NAMES = ("k_lambda0", "k_lambda_theta", "k_lambda_q")

# condition number above which the normal equations are refused
_COND_LIMIT = 1e12
_MAX_STEP_RETRIES = 30
# relative cost change that is float noise: a step within it counts as
# no increase, and a fit whose cost moves by no more than it has converged
_COST_RTOL = 1e-12
# turning points: samples kept clear of either end, and the least swing on
# both sides as a fraction of the total progress span
_TURN_END_MARGIN = 2
_TURN_PROMINENCE = 0.1
# cost at sub-nanometer residual scale; below this M_lambda is float noise
_M_FLOOR = 1e-18
# weight of an observed orientation component; an observed position weighs 1
_W_ROT = 10.0
# default obs_mask of a Measurement without and with R_bar: one read-only array
# each, shared by every measurement that takes the default
_POSITIONS_OBSERVED = np.array([True] * 3 + [False] * 3)
_POSE_OBSERVED = np.ones(6, dtype=bool)
_POSITIONS_OBSERVED.flags.writeable = False
_POSE_OBSERVED.flags.writeable = False


@dataclass(frozen=True, eq=False, init=False, slots=True)
class Measurement:
    """One observed configuration.

    psi is a ConfigState (model._check_types) and q_s a finite real scalar >= 0 (model._real).
    x_bar is the tip position in the base frame (mm); R_bar the observed orientation or
    None, any finite 3x3 and not held to be a rotation: tracker data may miss RobotConfig's
    1e-9, and axis_angle_vector takes approximate rotations.  obs_mask marks which of the
    six residual components (three position, three orientation) are observed; by default
    all positions and, when R_bar is present, all orientations; without R_bar no
    orientation component may be observed.  A default obs_mask is one read-only array
    shared by every measurement that takes it: writing into it raises ValueError.
    __init__ checks the arguments in that order and then stores each field once, through its
    slot's setter; the record is slotted (no __dict__), and dataclasses.replace checks again.
    """

    psi: ConfigState
    q_s: float
    x_bar: np.ndarray
    R_bar: np.ndarray | None
    obs_mask: np.ndarray

    def __init__(self, psi, q_s, x_bar, R_bar=None, obs_mask=None):
        if not isinstance(psi, ConfigState):  # the common path costs one isinstance
            _check_types(psi=psi)
        _real("q_s", q_s, "be finite and >= 0")
        x_bar = np.asarray(x_bar, float)  # dtype by keyword costs about 2% of a record
        if x_bar.shape != (3,):
            raise ValidationError("x_bar must be a finite 3-vector")
        a, b, c = x_bar.tolist()
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
            raise ValidationError("x_bar must be a finite 3-vector")
        if R_bar is not None:
            R_bar = np.asarray(R_bar, dtype=float)
            if R_bar.shape != (3, 3) or not all(map(math.isfinite, R_bar.ravel().tolist())):
                raise ValidationError("R_bar must be a finite 3x3 matrix")
        if obs_mask is None:
            obs_mask = _POSITIONS_OBSERVED if R_bar is None else _POSE_OBSERVED
        else:
            obs_mask = np.asarray(obs_mask, dtype=bool)
            if obs_mask.shape != (6,):
                raise ValidationError("obs_mask must have shape (6,)")
            if R_bar is None and np.count_nonzero(obs_mask[3:]):
                raise ValidationError("obs_mask observes orientation components without R_bar")
            if not np.count_nonzero(obs_mask):
                raise ValidationError("obs_mask must observe at least one component")
        _store["psi"](self, psi)
        _store["q_s"](self, q_s)
        _store["x_bar"](self, x_bar)
        _store["R_bar"](self, R_bar)
        _store["obs_mask"](self, obs_mask)


# field name -> its slot's setter, which stores the field past the frozen __setattr__ as
# object.__setattr__(record, name, value) does, in about 0.07 against 0.12 us (Python 3.11,
# x86-64)
_store = {name: Measurement.__dict__[name].__set__ for name in Measurement.__slots__}


def _refuse(action):
    """A frozen __setattr__ or __delattr__ that refuses every name with FrozenInstanceError:
    on Python 3.11 the ones dataclass generates call super() with the class from before
    slots=True rebuilt it, a TypeError for a name that is not a field."""
    def refuse(self, name, *value):
        raise FrozenInstanceError(f"cannot {action} field {name!r}")
    return refuse


Measurement.__setattr__, Measurement.__delattr__ = _refuse("assign to"), _refuse("delete")


def _free_indices(names) -> np.ndarray:
    """Indices in PARAM_NAMES of the free parameter names; ValidationError for a bare
    string, an unknown name, a repeated name or an empty set."""
    if isinstance(names, str):
        raise ValidationError(f"free_params must be a sequence of names, got the string {names!r}")
    names = tuple(names)
    for name in names:
        if name not in PARAM_NAMES:
            raise ValidationError(f"unknown free parameter {name!r}")
    if len(set(names)) != len(names) or not names:
        raise ValidationError("free_params must be a nonempty set of distinct names")
    return np.array([PARAM_NAMES.index(n) for n in names], dtype=int)


@dataclass(frozen=True)
class CalibrationConfig:
    """Settings of the identification loop.

    eta in (0, 1] and beta_conv are real scalars (model._real); beta_conv is positive and
    finite, for an infinite one would stop every fit after one step as converged.  free_params
    names the components of k actually updated.  The fit weighs each observed position
    component 1, each observed orientation component _W_ROT and each masked component 0.
    """

    eta: float = 1.0
    beta_conv: float = 1e-3
    max_iter: int = 500
    free_params: tuple = ("k_lambda0", "k_lambda_q")

    def __post_init__(self):
        _real("eta", self.eta, "lie in (0, 1]")
        _real("beta_conv", self.beta_conv, "be positive")
        object.__setattr__(self, "max_iter", _integer("max_iter", self.max_iter, 1))
        # a tuple of the checked names, so that the caller's list cannot change them
        object.__setattr__(self, "free_params",
                           tuple(PARAM_NAMES[i] for i in _free_indices(self.free_params)))


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    k: UncertaintyParams
    rmse_um: float
    M_lambda: float


@dataclass(frozen=True, eq=False)
class CalibrationResult:
    """k_star with its fit trace and uncertainty.

    std_errors and correlation belong to the free parameters, in
    free_params order, from the covariance sigma^2 (J^T W J)^-1 with
    sigma^2 = c~^T W c~ / (weighted components - free parameters);
    std_errors are NaN when no degree of freedom is left.
    """

    k_star: UncertaintyParams
    trace: list
    converged: bool
    eta_final: float
    eta_flagged: bool
    std_errors: np.ndarray
    correlation: np.ndarray


def pose_error(measured: Measurement, modeled: Pose) -> np.ndarray:
    """Residual 6-vector [x_bar - x; alpha_e m_e].

    The orientation error rotation R_e = R_bar R^T is reduced to its
    rotation vector alpha_e m_e by axis_angle_vector, which is exact and
    continuous through alpha_e = 0; near pi the axis comes from the
    symmetric part of R_e.  Unobserved components are zero (and masked by
    the weights downstream).
    """
    c = np.zeros(6)
    c[:3] = measured.x_bar - modeled.p
    if measured.R_bar is not None:
        c[3:] = axis_angle_vector(measured.R_bar @ modeled.R.T)
    return c


def _weighted_cost(c, w):
    """(W c per measurement, M_lambda = c~^T W c~ / 2N) of (N, 6) residuals, W = diag(w)."""
    Wc = w * c
    return Wc, float(np.sum(c * Wc) / (2.0 * c.shape[0]))


def _dataset_fault(measurements):
    """ValidationError, once a read of the dataset failed, naming the argument unless it has
    len() and indexing (a generator has not), else its first entry that is not a Measurement;
    nothing if neither, and the caller re-raises.  A dataset that reads pays no such check."""
    if not (hasattr(measurements, "__len__") and hasattr(measurements, "__getitem__")):
        raise ValidationError("measurements must be a sequence of Measurement, got "
                              f"{measurements!r}") from None
    for i, m in enumerate(measurements):
        if not isinstance(m, Measurement):
            raise ValidationError(f"measurement {i} must be of type Measurement, got {m!r}") \
                from None


def _commands(measurements):
    """Commanded (theta, delta, q_s) of the measurements as float arrays, the one place the
    package reads them, one pass per field.  When every measurement holds the same
    ConfigState object (as a run of load_dataset rows does), the set is at one psi: theta and
    delta are its values as numpy scalars, neither is walked, and the psi-only terms are formed
    once (model._solver_start, _fit).  Any other set, of equal psis too, takes arrays.  A
    dataset that does not read raises _dataset_fault's ValidationError."""
    try:
        n = len(measurements)
        q_s = np.fromiter([m.q_s for m in measurements], float, n)
        psi = measurements[0].psi if n else None
    except (AttributeError, TypeError):
        _dataset_fault(measurements)
        raise
    if n and next((m for m in measurements if m.psi is not psi), None) is None:
        return np.float64(psi.theta), np.float64(psi.delta), q_s
    theta = np.fromiter([m.psi.theta for m in measurements], float, n)
    return theta, np.fromiter([m.psi.delta for m in measurements], float, n), q_s


class _Fit(NamedTuple):
    """The arrays of a set of commands that k does not move, formed once per fit (_fit)."""

    theta: np.ndarray  # (N,) commanded theta, or one float for every sample (_commands)
    delta: np.ndarray  # (N,) or one float, as theta
    q_s: np.ndarray  # (N,)
    u: np.ndarray  # (N, 3) u_i = (1, theta_i, q_s_i): lambda_i = u_i . k
    sd: np.ndarray  # sin delta, of delta's shape
    cd: np.ndarray  # cos delta, of delta's shape
    th_e: np.ndarray  # (N,) theta_eps, the empty arc's angle
    arc_e: _Arc  # _arc of theta_eps
    start: _SolverStart  # _solver_start of the commands, its offsets D included


def _fit(params: RobotParams, theta, delta, q_s, first: int) -> _Fit:
    """The k-free arrays of the commands, one block of a batch starting at index first (0 for
    a whole batch); the solver's domain and stretch checks run here, once, naming the first
    sample that fails by its index in the batch."""
    start = _solver_start(params, theta, delta, q_s, first)
    th_e = _theta_eps(params, theta, q_s)
    return _Fit(theta, delta, q_s, _columns(q_s.shape, 1.0, theta, q_s),
                np.sin(delta), np.cos(delta), th_e, _arc(th_e), start)


class _Dataset(NamedTuple):
    """Measurement arrays, stacked once per fit."""

    fit: _Fit  # the commands and their k-free arrays
    x_bar: np.ndarray  # (N, 3)
    w: np.ndarray  # (N, 6) weights: 1 observed position, _W_ROT observed orientation, else 0
    pos: np.ndarray  # (N, 3) the weighted position components, which _rmse_um counts
    rot: np.ndarray  # indices of the measurements with an observed R_bar
    R_bar: np.ndarray  # (len(rot), 3, 3)


def _stack(measurements, params: RobotParams) -> _Dataset:
    """The measurements' arrays, one pass per field.  When every measurement holds the same
    obs_mask object (a default one, or load_dataset's planar one), w is its one weight row
    broadcast to (N, 6), read-only; w still has a row per measurement, so dof counts all."""
    fit = _fit(params, *_commands(measurements), 0)
    mask = measurements[0].obs_mask
    if next((m for m in measurements if m.obs_mask is not mask), None) is not None:
        mask = [m.obs_mask for m in measurements]
    w = np.broadcast_to(np.where(mask, np.repeat([1.0, _W_ROT], 3), 0.0), (len(fit.q_s), 6))
    rot = np.array([j for j, m in enumerate(measurements) if m.R_bar is not None], dtype=int)
    return _Dataset(fit, np.array([m.x_bar for m in measurements]), w, w[:, :3] != 0.0, rot,
                    np.array([measurements[j].R_bar for j in rot], dtype=float).reshape(-1, 3, 3))


def _chain_at(fit: _Fit, params: RobotParams, k: UncertaintyParams):
    """(kappa, kinematics._chain) at k: one Newton solve from the fit's start, then the
    chain on the fit's empty arc."""
    kappa = _newton(params, fit.start, _lambda(k, fit.q_s, fit.theta))
    # theta_s = theta0 + q_s kappa, as model._equilibrium_angles forms it
    return kappa, _chain(params, THETA_BASE + fit.q_s * kappa, fit.th_e, fit.arc_e, fit.q_s)


def _jacobian_factors(params: RobotParams, fit: _Fit, kappa, chain: _Chain):
    """(col, krow), J_k = col krow^T at the solved kappa and its chain, those of the
    residuals at the same k: theta_s alone depends on k, through lambda = u . k,
    u = (1, theta, q_s), so col is J_xi_phi[..., :, 0] and krow -(q_s / G') u.  No solve and
    no arc: only L - q_s and G' = dM/dkappa + EI_s are formed here."""
    _, _, M_k = _arc_moment(params, fit.start.D, kappa)
    return (_theta_s_twist(chain, fit.sd, fit.cd, fit.q_s, params.L - fit.q_s),
            _theta_s_row(fit.q_s, fit.u, M_k + params.EI_s))


def _residuals(data: _Dataset, params: RobotParams, k: UncertaintyParams):
    """(N, 6) residuals at k and the (kappa, chain) of _chain_at they rest on, which the
    next Jacobian reads."""
    fit = data.fit
    kappa, chain = _chain_at(fit, params, k)
    c = np.zeros((len(fit.q_s), 6))
    c[:, :3] = data.x_bar - _turn(chain.x, chain.z, fit.sd, fit.cd)
    if data.rot.size:
        rot = data.rot
        # the tip frame turns by pi/2 - theta_prime in the plane delta
        R = segment_rotation(_theta_prime(chain.th_s[rot], fit.th_e[rot]),
                             fit.delta[rot] if np.ndim(fit.delta) else fit.delta)
        c[rot, 3:] = axis_angle_vector(data.R_bar @ np.swapaxes(R, -1, -2))
    return c, (kappa, chain)


def _rmse_um(c, pos) -> float:
    """RMSE over the weighted position components pos (N, 3) of (N, 6) residuals,
    micrometres."""
    sq = np.sum(np.where(pos, c[:, :3], 0.0) ** 2, axis=1)
    return 1000.0 * float(np.sqrt(np.mean(sq)))


def _normal_equations(col, krow, w, Wc):
    """(J^T W J, J^T W c~) of blocks J_i = -col_i krow_i^T: J^T W J = sum a_i krow_i krow_i^T."""
    a = np.einsum("ni,ni->n", col, w * col)
    return (a[:, None] * krow).T @ krow, -(np.einsum("ni,ni->n", col, Wc) @ krow)


def identification_jacobian(
    measurements, params: RobotParams, k: UncertaintyParams, free_params,
) -> np.ndarray:
    """Stacked residual Jacobian d c~ / d k_free, shape (6N, n_free), one column per name of
    free_params (no default): the residual is measured-minus-modeled, so each measurement's six
    rows are -J_k on the free columns.  Rows 3-5 are the rotational rows of -J_k for every
    measurement, also one without R_bar, whose orientation residual is zero: only the weights
    mask them.

    The commands are read once; the fit, the solve and the chain then run over blocks of the
    measurements (model._blocks), each filling its rows of J, so that besides J and the
    commands the working set is one block's whatever N is.  The bits are those of a
    one-measurement call.  An error names a measurement by its index in the list;
    NoConvergence's count of samples still active covers the block the measurement is in.
    params and k are checked by type (model._check_types), each psi by its Measurement.
    """
    _check_types(params=params, k=k)
    idx = _free_indices(free_params)
    theta, delta, q_s = _commands(measurements)
    J = np.empty((len(q_s), 6, len(idx)))
    for b in _blocks(len(q_s)):
        fit = _fit(params, *(a[b] if np.ndim(a) else a for a in (theta, delta, q_s)), b.start)
        col, krow = _jacobian_factors(params, fit, *_chain_at(fit, params, k))
        # -(col krow^T) with krow negated first: exact, signed zeros included
        nk = -krow[:, idx]
        for j in range(len(idx)):
            np.multiply(col, nk[:, j, None], out=J[b, :, j])
        del fit, col, krow, nk  # the next block's arrays are formed without this block's
    return J.reshape(-1, len(idx))


def nls_estimate(
    measurements,
    params: RobotParams,
    config: CalibrationConfig,
    k0: UncertaintyParams,
) -> CalibrationResult:
    """Gauss-Newton identification of the free uncertainty parameters.

    Update per iteration: k <- k - eta (J^T W J)^{-1} J^T W c~ on the
    free components, where eta starts at config.eta (1 = a full
    Gauss-Newton step).  A step that would increase M_lambda by more than
    float noise is retried with eta halved (and the result flagged).
    Stops when |M_i - M_{i-1}| / M_{i-1} < beta_conv, when that change is
    float noise (_COST_RTOL), or when M_i falls below the absolute floor
    (sub-nanometer residuals are float noise too); NoConvergence after
    max_iter accepted updates.  The uncertainty report reuses J^T W J of
    the last iteration.  params and k0 are checked by type (model._check_types), and a config
    that is not a CalibrationConfig raises ValidationError too.
    """
    _check_types(params=params, k0=k0)
    if not isinstance(config, CalibrationConfig):
        raise ValidationError(f"config must be of type CalibrationConfig, got {config!r}")
    if not measurements:
        raise ValidationError("empty dataset")
    idx = _free_indices(config.free_params)

    data = _stack(measurements, params)
    # each J_k,i is rank one along u_i = (1, theta_i, q_s_i), so k is identifiable
    # only if the free columns of the u_i have full rank; every measurement
    # observes a component of positive weight, so every u_i is weighted
    u = data.fit.u
    if np.linalg.matrix_rank(u[:, idx]) < idx.size:
        constant = [name for j, name in ((1, "theta"), (2, "q_s"))
                    if j in idx and np.all(u[:, j] == u[:1, j])]
        cause = (f"{' and '.join(constant)} {'is' if len(constant) == 1 else 'are'} constant"
                 if constant else "(1, theta, q_s) are linearly dependent")
        raise ValidationError(
            f"free parameters {', '.join(config.free_params)} are not identifiable: {cause} "
            f"across the {len(u)} weighted measurements")
    k_vec = k0.as_array().astype(float)

    def evaluate(kv):
        c, solved = _residuals(data, params, UncertaintyParams.from_array(kv))
        return (c, *_weighted_cost(c, data.w), solved)

    c, Wc, M, solved = evaluate(k_vec)
    trace = [IterationRecord(0, UncertaintyParams.from_array(k_vec),
                             _rmse_um(c, data.pos), M)]
    eta = config.eta
    flagged = False

    for iteration in range(1, config.max_iter + 1):
        # J_k on the chain of the residuals at k_vec: no second solve, no arc
        col, krow = _jacobian_factors(params, data.fit, *solved)
        JtW, JtWc = _normal_equations(col, krow[:, idx], data.w, Wc)
        cond = np.linalg.cond(JtW)
        if not np.isfinite(cond) or cond > _COND_LIMIT:
            raise SingularNormalEquations(
                f"normal equations condition {cond:.3g} exceeds {_COND_LIMIT:.0e} "
                f"at iteration {iteration}"
            )
        delta_free = np.linalg.solve(JtW, JtWc)

        for _ in range(_MAX_STEP_RETRIES):
            k_cand = k_vec.copy()
            k_cand[idx] -= eta * delta_free
            cand = evaluate(k_cand)
            if cand[2] <= M * (1.0 + _COST_RTOL):
                break
            eta *= 0.5
            flagged = True
        else:
            # cost cannot be reduced further along this direction
            k_cand, cand = k_vec, (c, Wc, M, solved)

        rel = abs(cand[2] - M) / max(M, np.finfo(float).tiny)
        k_vec, (c, Wc, M, solved) = k_cand, cand
        trace.append(IterationRecord(iteration, UncertaintyParams.from_array(k_vec),
                                     _rmse_um(c, data.pos), M))
        if rel < config.beta_conv or rel <= _COST_RTOL or M < _M_FLOOR:
            break
    else:
        raise NoConvergence(
            f"identification not converged after {config.max_iter} iterations "
            f"(M_lambda {M:.6g})"
        )
    inv = np.linalg.inv(JtW)
    scale = np.sqrt(np.diag(inv))
    dof = np.count_nonzero(data.w) - idx.size
    sigma = np.sqrt(2.0 * len(measurements) * M / dof) if dof > 0 else np.nan
    return CalibrationResult(
        k_star=UncertaintyParams.from_array(k_vec),
        trace=trace,
        converged=True,
        eta_final=eta,
        eta_flagged=flagged,
        std_errors=sigma * scale,
        correlation=inv / np.outer(scale, scale),
    )


# ---------------------------------------------------------------------------
# turning-point utilities


def _positions(positions) -> np.ndarray:
    """positions as a float (N, 3) array; ValidationError for other than real numbers
    (model._reals), for another shape, or naming the first sample with a non-finite
    coordinate."""
    p = _reals("positions", positions)
    if p.ndim != 2 or p.shape[1] != 3:
        raise ValidationError(f"positions must have shape (N, 3), got {p.shape}")
    if not np.isfinite(p).all():
        i = int(np.argmin(np.isfinite(p).all(axis=1)))
        raise ValidationError(f"sample {i}: position must be finite, got {p[i].tolist()}")
    return p


def _principal_direction(p):
    """(e, c): the unit vector e of largest spread of the float (N, 3) positions p and the
    progress c along it.

    The micro-motion path is an out-and-back hairpin: close to the
    vertex the step vectors rotate smoothly through the transverse
    component, so local step-to-step tests miss the reversal.  The
    progress c = (p - p[0]) e along this global axis is the quantity whose
    sign flips at the turning point.  p - p[0] is formed once, as a contiguous
    (3, N) array q; e is the leading eigenvector (np.linalg.eigh) of its 3x3
    scatter about the mean m, q q^T - N m m^T, so no tall SVD and no centred
    copy.  The shift by p[0] keeps m within the path's extent, so the
    subtraction loses few digits.
    """
    q = np.subtract(p.T, p[0, :, None], out=np.empty(p.shape[::-1]))
    m = q.mean(axis=1)
    scatter = np.einsum("ik,jk->ij", q, q) - len(p) * np.outer(m, m)
    e = np.linalg.eigh(scatter)[1][:, -1]
    c = e @ q
    # orient so the farthest-progress sample lies on the positive side
    return (-e, -c) if c[np.argmax(np.abs(c))] < 0.0 else (e, c)


def direction_reversals(positions) -> np.ndarray:
    """Sample indices where progress along the principal axis reverses.

    For each step the displacement is projected onto the principal
    direction of the whole path; a step's sign that is opposite to that of
    the last nonzero step before it marks the vertex sample, so a zero step
    carries the sign before it.  Intended for clean trajectories where every
    sign change is structural.  positions must be finite and (N, 3) (_positions).
    """
    p = _positions(positions)
    if p.shape[0] < 3:
        return np.array([], dtype=int)
    e, _ = _principal_direction(p)
    sgn = np.sign(np.diff(p, axis=0) @ e)
    moved = np.flatnonzero(sgn)
    # step i leaves sample i, so a step against the one before it turns at its own index
    return moved[1:][sgn[moved[1:]] * sgn[moved[:-1]] < 0.0]


def turning_point_index(positions) -> int | None:
    """Robust turning-point sample of a noisy out-and-back trajectory.

    Accumulated progress along the principal direction rises to a
    single interior extremum at the vertex and recedes after it; the
    extremum survives measurement noise because it aggregates the whole
    path.  A candidate counts only when it lies _TURN_END_MARGIN samples
    clear of either end and the progress swings by at least
    _TURN_PROMINENCE of the total progress span on both sides, which
    rejects the near-end argmax wobble that noise produces on monotone
    trajectories.  Returns None when no candidate qualifies.  positions must be
    finite and (N, 3) (_positions).
    """
    p = _positions(positions)
    if p.shape[0] < 3:
        return None
    _, c = _principal_direction(p)
    span = float(np.max(c) - np.min(c))
    if span <= 0.0:
        return None
    lo, hi = _TURN_END_MARGIN, p.shape[0] - 1 - _TURN_END_MARGIN
    hits = []
    for i, opp in ((int(np.argmax(c)), np.min), (int(np.argmin(c)), np.max)):
        if not lo <= i <= hi:
            continue
        before = abs(c[i] - opp(c[: i + 1]))
        after = abs(c[i] - opp(c[i:]))
        if min(before, after) >= _TURN_PROMINENCE * span:
            hits.append(i)
    if not hits:
        return None
    return min(hits)


def split_at_turning_point(measurements):
    """(pre, post) subsets around the detected turning point.

    The turning sample itself closes the pre subset.  With no detected
    turning point the pre subset is the whole dataset and post is empty;
    an empty dataset has none.  A dataset that does not read raises _dataset_fault's
    ValidationError.
    """
    try:
        if not len(measurements):
            return [], []
        pos = np.stack([m.x_bar for m in measurements])
    except (AttributeError, TypeError):
        _dataset_fault(measurements)
        raise
    idx = turning_point_index(pos)
    if idx is None:
        return list(measurements), []
    return list(measurements[: idx + 1]), list(measurements[idx + 1 :])
