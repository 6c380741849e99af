"""Parameter grids: discretized joint prior over (theta, psi).

Nodes are midpoints of a uniform partition of a given box, such as a
model's support box; mass is midpoint quadrature of the prior density,
renormalized to sum to one.  Cell volume is constant on a uniform
partition so it cancels in the normalization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

MASS_TOL = 1e-12


def _check_normalized(mass: np.ndarray, name: str, tol: float, axis=None) -> None:
    """Raise ValueError unless the nonempty float array mass is nonnegative
    and each of its sums over axis, or its whole sum when axis is None, is 1
    within tol.

    One min and one sum.  A NaN passes the sign test and fails the sum test,
    which is written so that a NaN sum lies outside every tolerance.
    """
    if mass.min() < 0:
        raise ValueError(f"{name} has negative entries")
    sums = mass.sum(axis=axis)
    off = ~(np.abs(sums - 1.0) <= tol)
    if off.any():
        row = () if axis is None else tuple(int(i) for i in np.argwhere(off)[0])
        where = f" row {row}" if row else ""
        raise ValueError(f"{name}{where} sums to {float(sums[row])}, expected 1 within {tol}")


def _check_mass(mass: np.ndarray, name: str) -> np.ndarray:
    mass = np.asarray(mass, dtype=float)
    if mass.ndim != 1 or mass.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d vector")
    _check_normalized(mass, name, MASS_TOL)
    return mass


@dataclass(frozen=True)
class ParameterGrid:
    """Grid nodes and prior mass for theta and psi.

    theta_nodes has shape (A, k_theta), psi_nodes (B, k_psi); each row is one
    node vector.  Both mass vectors sum to one.
    """

    theta_nodes: np.ndarray
    psi_nodes: np.ndarray
    theta_prior_mass: np.ndarray
    psi_prior_mass: np.ndarray

    def __post_init__(self):
        tn = np.atleast_2d(np.asarray(self.theta_nodes, dtype=float))
        pn = np.atleast_2d(np.asarray(self.psi_nodes, dtype=float))
        tm = _check_mass(self.theta_prior_mass, "theta_prior_mass")
        pm = _check_mass(self.psi_prior_mass, "psi_prior_mass")
        if tn.shape[0] != tm.size:
            raise ValueError(f"{tn.shape[0]} theta nodes but {tm.size} masses")
        if pn.shape[0] != pm.size:
            raise ValueError(f"{pn.shape[0]} psi nodes but {pm.size} masses")
        object.__setattr__(self, "theta_nodes", tn)
        object.__setattr__(self, "psi_nodes", pn)
        object.__setattr__(self, "theta_prior_mass", tm)
        object.__setattr__(self, "psi_prior_mass", pm)

    @property
    def n_theta(self) -> int:
        return self.theta_nodes.shape[0]

    @property
    def n_psi(self) -> int:
        return self.psi_nodes.shape[0]

    def log_theta_prior(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.theta_prior_mass)

    def log_psi_prior(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.psi_prior_mass)

    def nearest_theta(self, value) -> tuple[int, float]:
        """Index of the theta node closest to value, plus the snap distance;
        a value over half a cell outside the nodes' span raises ValueError."""
        value = np.atleast_1d(np.asarray(value, dtype=float))
        lo = self.theta_nodes.min(axis=0)
        hi = self.theta_nodes.max(axis=0)
        half_cell = 0.5 * np.where(hi > lo, hi - lo, 1.0) / max(self.n_theta - 1, 1)
        if np.any(value < lo - half_cell) or np.any(value > hi + half_cell):
            raise ValueError(f"theta*={value} lies outside the grid span [{lo}, {hi}]")
        d = np.linalg.norm(self.theta_nodes - value[None, :], axis=1)
        idx = int(np.argmin(d))
        return idx, float(d[idx])


def midpoint_nodes(low: float, high: float, count: int) -> np.ndarray:
    """Centers of `count` equal cells tiling [low, high]."""
    if count < 1:
        raise ValueError("count must be >= 1")
    h = (high - low) / count
    return low + h * (np.arange(count) + 0.5)


def box_nodes(box: np.ndarray, resolution: int) -> np.ndarray:
    """Product grid of midpoint nodes over a (k, 2) interval box, (res^k, k)."""
    box = np.atleast_2d(np.asarray(box, dtype=float))
    axes = [midpoint_nodes(lo, hi, resolution) for lo, hi in box]
    if len(axes) == 1:
        return axes[0][:, None]
    return np.array(list(itertools.product(*axes)))


def _quadrature_mass(nodes: np.ndarray, log_pdf, name: str) -> np.ndarray:
    """Prior mass of each node: log_pdf maps the (N, k) node array to its (N,)
    log-densities, normalised here to sum to one."""
    logs = np.asarray(log_pdf(nodes), dtype=float)
    if logs.shape != (nodes.shape[0],):
        raise ValueError(f"{name} must map the ({nodes.shape[0]}, {nodes.shape[1]}) node "
                         f"array to {nodes.shape[0]} log-densities, got shape {logs.shape}")
    peak = logs.max()
    if not np.isfinite(peak):
        raise ValueError("prior density vanished on every grid node")
    mass = np.exp(logs - peak)
    return mass / mass.sum()


def build_grid(theta_box, psi_box, theta_log_pdf, psi_log_pdf,
               resolution: int) -> ParameterGrid:
    """Midpoint-quadrature grid over the (k, 2) boxes theta_box and psi_box,
    such as a model's support boxes, resolution nodes per coordinate.

    theta_log_pdf / psi_log_pdf take the whole (N, k) node array and return
    the (N,) prior log-densities there (normalization constants are
    irrelevant); any other result shape raises ValueError naming the prior.
    """
    theta_nodes, psi_nodes = box_nodes(theta_box, resolution), box_nodes(psi_box, resolution)
    return ParameterGrid(theta_nodes, psi_nodes,
                         _quadrature_mass(theta_nodes, theta_log_pdf, "theta_log_pdf"),
                         _quadrature_mass(psi_nodes, psi_log_pdf, "psi_log_pdf"))


def toy_grid(theta_count: int, psi_count: int, theta_prior=None, psi_prior=None) -> ParameterGrid:
    """Grid whose nodes are the toy model's own indices.

    Priors default to uniform; explicit mass vectors are normalized as given
    (they must already sum to one).
    """
    tm = np.full(theta_count, 1.0 / theta_count) if theta_prior is None \
        else np.asarray(theta_prior, dtype=float)
    pm = np.full(psi_count, 1.0 / psi_count) if psi_prior is None \
        else np.asarray(psi_prior, dtype=float)
    return ParameterGrid(
        theta_nodes=np.arange(theta_count, dtype=float)[:, None],
        psi_nodes=np.arange(psi_count, dtype=float)[:, None],
        theta_prior_mass=tm,
        psi_prior_mass=pm,
    )
