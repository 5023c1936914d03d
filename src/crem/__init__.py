"""Equilibrium-modulation continuum robot: model, kinematics, Jacobians,
and calibration."""

__version__ = "0.1.0"

from .errors import (
    CremError,
    FrameError,
    NoConvergence,
    NonPhysicalLength,
    ParseError,
    SingularNormalEquations,
    ValidationError,
)
from .model import (
    ConfigState,
    EquilibriumConfig,
    RobotParams,
    UncertaintyParams,
    uncertainty_lambda,
)
from .kinematics import (
    Pose,
    SegmentedPose,
    crem_pose,
    micro_trajectory,
)
from .differential import (
    JacobianSet,
    assemble_motion_jacobians,
    fd_discrepancies,
)
from .calibration import (
    CalibrationConfig,
    CalibrationResult,
    IterationRecord,
    Measurement,
    direction_reversals,
    identification_jacobian,
    nls_estimate,
    pose_error,
    split_at_turning_point,
    turning_point_index,
)
from .dataio import (
    RobotConfig,
    default_params,
    generate_synthetic,
    load_dataset,
    load_robot_config,
    write_robot_config,
)
