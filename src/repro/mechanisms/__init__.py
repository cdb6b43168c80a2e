"""Differential-privacy primitives: noise distributions, sensitivity, budgets."""

from repro.mechanisms.privacy import PrivacyBudget
from repro.mechanisms.noise import (
    laplace_noise,
    gaussian_noise,
    laplace_scale_for_budget,
    gaussian_sigma_for_budget,
    laplace_variance_for_budget,
    gaussian_variance_for_budget,
)
from repro.mechanisms.sensitivity import (
    l1_sensitivity,
    l2_sensitivity,
    lp_sensitivity,
    neighboring_factor,
)
from repro.mechanisms.laplace import LaplaceMechanism
from repro.mechanisms.gaussian import GaussianMechanism

__all__ = [
    "PrivacyBudget",
    "laplace_noise",
    "gaussian_noise",
    "laplace_scale_for_budget",
    "gaussian_sigma_for_budget",
    "laplace_variance_for_budget",
    "gaussian_variance_for_budget",
    "l1_sensitivity",
    "l2_sensitivity",
    "lp_sensitivity",
    "neighboring_factor",
    "LaplaceMechanism",
    "GaussianMechanism",
]
