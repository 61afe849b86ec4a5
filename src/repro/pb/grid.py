"""Input grids for the Pederson-Burke baseline.

PB draw uniform samples along each input axis and mesh them.  The grids
are plain NumPy meshes; everything downstream is fully vectorised (one
kernel call per functional component per grid), following the HPC
guidance: no Python-level loops over grid points anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..functionals import vars as V
from ..functionals.base import Functional


@dataclass(frozen=True)
class GridSpec:
    """Resolution and bounds of a PB scan.

    The paper quotes 10^5 samples per axis; that is far beyond what the
    numeric gradients need to converge (and 10^10 mesh points would not
    fit in memory), so the default reproduces the same checks at 401
    points per axis and the resolution is a parameter (ablation E9 sweeps
    it).  ``rs_lo`` avoids rs = 0, where eps_x^unif diverges; ``s_lo``
    avoids s = 0 only for numerically singular-at-zero model code (SCAN's
    exp(-a1/sqrt(s)) evaluates fine in IEEE arithmetic, so 0 is kept).
    """

    n_rs: int = 401
    n_s: int = 401
    n_alpha: int = 21
    rs_lo: float = V.RS_LO
    rs_hi: float = V.RS_HI
    s_lo: float = V.S_LO
    s_hi: float = V.S_HI
    alpha_lo: float = V.ALPHA_LO
    alpha_hi: float = V.ALPHA_HI

    def axes(self, family: str) -> dict[str, np.ndarray]:
        axes = {"rs": np.linspace(self.rs_lo, self.rs_hi, self.n_rs)}
        if family in ("GGA", "MGGA"):
            axes["s"] = np.linspace(self.s_lo, self.s_hi, self.n_s)
        if family == "MGGA":
            axes["alpha"] = np.linspace(self.alpha_lo, self.alpha_hi, self.n_alpha)
        return axes


@dataclass
class Grid:
    """A meshed scan domain: rs varies along axis 0, s along 1, alpha 2."""

    axes: dict[str, np.ndarray]

    @classmethod
    def for_functional(cls, functional: Functional, spec: GridSpec | None = None) -> "Grid":
        spec = spec or GridSpec()
        return cls(axes=spec.axes(functional.family))

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.axes.values())

    def meshes(self) -> tuple[np.ndarray, ...]:
        """Broadcast meshes in variable order (rs, s[, alpha])."""
        return tuple(np.meshgrid(*self.axes.values(), indexing="ij"))

    def rs_axis(self) -> np.ndarray:
        return self.axes["rs"]

    def evaluate(self, kernel) -> np.ndarray:
        """Evaluate a compiled kernel on the full mesh (vectorised)."""
        return np.asarray(kernel(*self.meshes()), dtype=float)

    def evaluate_at_rs(self, kernel, rs_value: float) -> np.ndarray:
        """Evaluate a kernel with rs pinned (used for the EC6 limit)."""
        meshes = self.meshes()
        pinned = (np.full_like(meshes[0], rs_value),) + meshes[1:]
        return np.asarray(kernel(*pinned), dtype=float)
