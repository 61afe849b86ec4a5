"""The Pederson-Burke grid-search condition checker (the paper's baseline).

For a DFA-condition pair, evaluate the functional's enhancement factors on
a mesh, approximate the rs-derivatives numerically, and check the local
condition at every mesh point.  "The condition is assumed to be satisfied
for the DFA if all the points in the grid pass the condition"
(Section IV-A).

Everything is vectorised: one compiled-kernel evaluation per component and
pure ndarray arithmetic for the conditions, so a 401 x 401 scan of a GGA
takes milliseconds.

Handling of numerics (documented deviations):

* points where the functional evaluates to NaN/inf, and a configurable
  number of rs-boundary rows (where ``np.gradient`` falls back to
  first-order one-sided stencils), are recorded as *undefined* and
  excluded from the verdict;
* a small tolerance absorbs derivative-approximation noise -- the exact
  weakness of grid checking that motivates the paper's symbolic approach.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..conditions.base import Condition
from ..conditions.catalog import RS_INFINITY
from ..functionals import vars as V
from ..functionals.base import Functional
from .grid import Grid, GridSpec
from .gradients import d2_drs2, d_drs


@dataclass
class PBResult:
    """Outcome of one PB grid check."""

    functional_name: str
    condition_id: str
    grid: Grid
    satisfied: np.ndarray   # bool, True where the condition holds
    violated: np.ndarray    # bool, True where it definitely fails
    undefined: np.ndarray   # bool, NaN / trimmed boundary points
    residual: np.ndarray    # signed residual, <= 0 where satisfied

    @property
    def any_violation(self) -> bool:
        return bool(self.violated.any())

    @property
    def violation_fraction(self) -> float:
        checked = self.satisfied.sum() + self.violated.sum()
        if checked == 0:
            return 0.0
        return float(self.violated.sum() / checked)

    def violation_bounds(self) -> dict[str, tuple[float, float]] | None:
        """Axis-aligned bounding box of the violating points."""
        if not self.any_violation:
            return None
        idx = np.argwhere(self.violated)
        out: dict[str, tuple[float, float]] = {}
        for axis_pos, (name, axis) in enumerate(self.grid.axes.items()):
            values = axis[idx[:, axis_pos]]
            out[name] = (float(values.min()), float(values.max()))
        return out

    def summary(self) -> str:
        verdict = "violated" if self.any_violation else "satisfied"
        return (
            f"{self.functional_name}/{self.condition_id} [PB]: {verdict} "
            f"({self.violated.sum()} of {self.violated.size} points violate, "
            f"{self.undefined.sum()} undefined)"
        )


@dataclass(frozen=True)
class PBChecker:
    """Grid-search checker with PB's methodology.

    Condition residuals come from compiled NumPy kernels for the
    enhancement factors plus ``np.gradient`` stencils for the
    rs-derivatives -- fast, but stencil noise near the boundary rows must
    be trimmed (``boundary_trim``) and absorbed by ``tolerance``.
    """

    spec: GridSpec = field(default_factory=GridSpec)
    tolerance: float = 1e-8
    boundary_trim: int = 1

    def check(self, functional: Functional, condition: Condition) -> PBResult:
        """Run the PB check for one DFA-condition pair."""
        if not condition.applies_to(functional):
            raise ValueError(
                f"{condition.cid} does not apply to {functional.name}"
            )
        grid = Grid.for_functional(functional, self.spec)
        residual = self._residual(functional, condition, grid)

        undefined = ~np.isfinite(residual)
        trim = self.boundary_trim
        if trim > 0 and condition.cid in ("EC2", "EC3", "EC4", "EC6", "EC7"):
            # derivative conditions: one-sided stencils at the rs edges
            undefined[:trim] = True
            undefined[-trim:] = True

        satisfied = np.where(undefined, False, residual <= self.tolerance)
        violated = np.where(undefined, False, residual > self.tolerance)
        return PBResult(
            functional_name=functional.name,
            condition_id=condition.cid,
            grid=grid,
            satisfied=satisfied,
            violated=violated,
            undefined=undefined,
            residual=residual,
        )

    # -- residuals: <= 0 where the local condition holds --------------------------
    def _residual(
        self, functional: Functional, condition: Condition, grid: Grid
    ) -> np.ndarray:
        rs_axis = grid.rs_axis()
        meshes = grid.meshes()
        rs_mesh = meshes[0]
        fc = grid.evaluate(functional.fc_kernel())
        cid = condition.cid

        if cid == "EC1":
            return -fc
        if cid == "EC2":
            return -d_drs(fc, rs_axis)
        if cid == "EC3":
            dfc = d_drs(fc, rs_axis)
            d2fc = d2_drs2(fc, rs_axis)
            return -(d2fc + (2.0 / rs_mesh) * dfc)
        if cid == "EC4":
            fxc = grid.evaluate(functional.fxc_kernel())
            dfc = d_drs(fc, rs_axis)
            return fxc + rs_mesh * dfc - V.C_LO
        if cid == "EC5":
            fxc = grid.evaluate(functional.fxc_kernel())
            return fxc - V.C_LO
        if cid == "EC6":
            dfc = d_drs(fc, rs_axis)
            fc_inf = grid.evaluate_at_rs(functional.fc_kernel(), RS_INFINITY)
            return dfc - (fc_inf - fc) / rs_mesh
        if cid == "EC7":
            dfc = d_drs(fc, rs_axis)
            return dfc - fc / rs_mesh
        raise KeyError(f"unknown condition {cid}")
