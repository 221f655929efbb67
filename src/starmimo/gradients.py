"""Closed-form gradients of the sum-SE objective in the surface variables.

Gradient convention: derivative with respect to the conjugated phase vector
(for real objectives this is the direction of steepest ascent after the
2*[Re, Im] pairing with real coordinates).  The objective reads the surface
only through the covariance scalars alpha_k = beta_bar_k + beta_hat_k T_u,
so the gradient is dF/dalpha, from the eigen-sums of an evaluated point,
times one direction dT_u per region: the system's kernel,
:meth:`rate.ClosedForm.gradient`, which PGAM calls directly.
"""

from __future__ import annotations

import numpy as np

from .channel import StarConfig, SystemModel
from .rate import ClosedForm, Evaluation, GradientPair, sum_se


def build_workspace(point: Evaluation, system: SystemModel) -> np.ndarray:
    """:meth:`rate.ClosedForm.d_alpha`, dF/dalpha, at any evaluated point,
    the kernel's or the dense referee's; :class:`DegenerateInterferenceError`
    if a user's interference term is 0."""
    return ClosedForm(system).d_alpha(point)


def grad_objective(config: StarConfig, system: SystemModel,
                   method: str = "eig") -> GradientPair:
    """Full gradient of the sum-SE objective at the point that
    ``rate.sum_se(config, system, method)`` evaluates: ``method='dense'``
    takes it from the dense referee.

    Raises :class:`DegenerateInterferenceError` if any user has a zero
    interference term (the quotient rule is undefined there).
    """
    point = sum_se(config, system, method)
    return grad_objective_from_workspace(point, system, build_workspace(point, system))


def grad_objective_from_workspace(point: Evaluation, system: SystemModel,
                                  d_alpha: np.ndarray) -> GradientPair:
    """:meth:`rate.ClosedForm.directions` at an evaluated point, given its
    dF/dalpha (:func:`build_workspace`); (P, 2, N) blocks for a batch."""
    return ClosedForm(system).directions(point, d_alpha)
