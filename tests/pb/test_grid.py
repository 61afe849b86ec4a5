"""Tests for PB grid construction."""

import numpy as np
import pytest

from repro.functionals import get_functional
from repro.pb.grid import Grid, GridSpec


class TestGridSpec:
    def test_axes_by_family(self):
        spec = GridSpec(n_rs=11, n_s=7, n_alpha=3)
        assert set(spec.axes("LDA")) == {"rs"}
        assert set(spec.axes("GGA")) == {"rs", "s"}
        assert set(spec.axes("MGGA")) == {"rs", "s", "alpha"}

    def test_bounds(self):
        spec = GridSpec(n_rs=5)
        axes = spec.axes("GGA")
        assert axes["rs"][0] == pytest.approx(1e-4)
        assert axes["rs"][-1] == pytest.approx(5.0)
        assert axes["s"][0] == 0.0 and axes["s"][-1] == 5.0


class TestGrid:
    def test_for_functional(self):
        spec = GridSpec(n_rs=11, n_s=7, n_alpha=3)
        grid = Grid.for_functional(get_functional("SCAN"), spec)
        assert grid.shape == (11, 7, 3)
        assert grid.names == ("rs", "s", "alpha")

    def test_meshes_shapes(self):
        spec = GridSpec(n_rs=11, n_s=7)
        grid = Grid.for_functional(get_functional("PBE"), spec)
        rs, s = grid.meshes()
        assert rs.shape == (11, 7)
        # rs varies along axis 0 only
        assert (np.diff(rs, axis=1) == 0).all()
        assert (np.diff(s, axis=0) == 0).all()

    def test_evaluate_kernel(self):
        spec = GridSpec(n_rs=6, n_s=5)
        f = get_functional("LYP")
        grid = Grid.for_functional(f, spec)
        fc = grid.evaluate(f.fc_kernel())
        assert fc.shape == (6, 5)
        assert np.isfinite(fc).all()

    def test_evaluate_at_rs_pins_axis(self):
        spec = GridSpec(n_rs=6, n_s=5)
        f = get_functional("LYP")
        grid = Grid.for_functional(f, spec)
        pinned = grid.evaluate_at_rs(f.fc_kernel(), 100.0)
        # all rows equal: rs no longer varies
        assert np.allclose(pinned, pinned[0])
