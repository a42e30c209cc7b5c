"""Constraint-consistent learning for redundant systems.

Learn kinematic constraint matrices from demonstrations, split observed
motion into task- and null-space parts, and recover the underlying
null-space control policy, together with normalized evaluation metrics,
synthetic data generators and a pipeline CLI.
"""

from .constraint import (
    FeatureMatrixProvider,
    StateDependentConstraintModel,
    StateIndependentConstraint,
    feature_provider_from_name,
    identity_features,
    learn_alpha,
    learn_lambda,
    learn_nhat,
    twolink_jacobian_features,
)
from .core import DemonstrationSet, LearnOptions, LearnReport, load_dataset, save_dataset
from .datagen import (
    GeneratorConfig,
    TwoLinkArm,
    generate,
    policy_limit_cycle,
    policy_linear,
    true_projectors,
)
from .mathkit import (
    LmProblem,
    kmeans_centers,
    lm_solve,
    nullspace_projector,
    orthogonal_complement_rotation,
    pairwise_sq_distances,
    pinv_truncated,
    rbf_basis,
    rbf_design,
    rbf_width_from_centers,
    ridge_regression,
    unit_vectors_from_angles,
)
from .metrics import MetricTriple, error_ncpe, error_npe, error_nupe, error_poe, error_ppe
from .nullspace import NullspaceComponentModel, learn_ncl
from .policy import LwlPolicyModel, ParametricPolicyModel, learn_pi, learn_pi_lwl
from .serialize import load_model, save_model

__version__ = "0.1.0"
