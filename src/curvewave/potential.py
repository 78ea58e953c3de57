"""Circular step potential and its effective radial potential."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class PotentialSpec:
    """Circular step: V = 0 inside radius, V = v0 outside.

    Defaults follow the reference configuration used throughout:
    mass = hbar = 1, radius = 2, v0 = 5000.
    """

    radius: float = 2.0
    v0: float = 5000.0
    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.radius <= 0 or self.v0 <= 0 or self.mass <= 0 or self.hbar <= 0:
            raise DomainError(f"potential parameters must be positive: {self}")

    @property
    def k_step(self) -> float:
        """k_V = sqrt(2 m* V0)/hbar; separates bound from resonance modes."""
        return math.sqrt(2.0 * self.mass * self.v0) / self.hbar

    def k_bottom(self, m: int) -> float:
        """k_B = m/R; bottom of the interior effective potential."""
        return m / self.radius

    def k_top(self, m: int) -> float:
        """k_T = sqrt(k_V^2 + (m/R)^2); top of the tunneling barrier."""
        return math.hypot(self.k_step, m / self.radius)


def effective_potential(pot: PotentialSpec, m: int, r):
    """Effective 1D radial potential: centrifugal term plus the step.

    Vectorized over r; raises for any r <= 0.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise DomainError("effective potential requires r > 0")
    cent = (pot.hbar * m) ** 2 / (2.0 * pot.mass * r**2)
    v = np.where(r < pot.radius, cent, pot.v0 + cent)
    if r.ndim == 0:
        return float(v)
    return v
