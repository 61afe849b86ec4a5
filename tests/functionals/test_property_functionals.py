"""Property-based tests over the DFA implementations.

Invariants checked on random domain points:

* lifted symbolic form == direct numeric execution of the model code,
* compiled kernels == scalar evaluation,
* interval enclosures contain point evaluations (the solver-facing
  soundness property for the *real* formulas, not just toy expressions).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.expr.evaluator import evaluate
from repro.functionals import get_functional, paper_functionals
from repro.solver.box import Box
from repro.solver.tape import tape_for

from tests.solver.oracles import enclosure
from tests.support import hyp_examples

rs_vals = st.floats(min_value=1e-4, max_value=5.0, allow_nan=False)
s_vals = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)
alpha_vals = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)

FUNCTIONALS = [f.name for f in paper_functionals()]


def env_for(functional, rs, s, alpha):
    names = [v.name for v in functional.variables]
    values = {"rs": rs, "s": s, "alpha": alpha}
    return {n: values[n] for n in names}


@given(name=st.sampled_from(FUNCTIONALS), rs=rs_vals, s=s_vals, alpha=alpha_vals)
@settings(max_examples=hyp_examples(120), deadline=None)
def test_lifted_matches_model_code(name, rs, s, alpha):
    f = get_functional(name)
    env = env_for(f, rs, s, alpha)
    args = [env[v.name] for v in f.variables]
    try:
        direct = f.correlation_model(*args)
    except ZeroDivisionError:
        assume(False)
    symbolic = evaluate(f.eps_c(), env)
    if math.isnan(symbolic):
        # scalar DAG evaluation computes both ITE branches; a diverging
        # untaken branch (alpha == 1 exactly) yields NaN -- skip
        assume(False)
    assert symbolic == pytest.approx(direct, rel=1e-9, abs=1e-12)


@given(name=st.sampled_from(FUNCTIONALS), rs=rs_vals, s=s_vals, alpha=alpha_vals)
@settings(max_examples=hyp_examples(120), deadline=None)
def test_kernel_matches_scalar(name, rs, s, alpha):
    f = get_functional(name)
    env = env_for(f, rs, s, alpha)
    scalar = evaluate(f.fc(), env)
    assume(math.isfinite(scalar))
    args = [np.float64(env[v.name]) for v in f.variables]
    vectorised = float(f.fc_kernel()(*args))
    assert vectorised == pytest.approx(scalar, rel=1e-9, abs=1e-12)


@given(
    name=st.sampled_from(["PBE", "LYP", "AM05", "VWN RPA"]),
    rs=st.floats(min_value=0.1, max_value=4.9),
    s=st.floats(min_value=0.1, max_value=4.9),
    w=st.floats(min_value=0.01, max_value=0.5),
)
@settings(max_examples=hyp_examples(80), deadline=None)
def test_enclosure_contains_point_value(name, rs, s, w):
    """Interval soundness on the actual F_c expressions."""
    f = get_functional(name)
    env = env_for(f, rs, s, 0.0)
    value = evaluate(f.fc(), env)
    assume(math.isfinite(value))
    bounds = {
        n: (max(1e-4 if n == "rs" else 0.0, v - w), min(5.0, v + w))
        for n, v in env.items()
    }
    box = Box.from_bounds(bounds)
    enc = enclosure(tape_for(f.fc()), box)
    assert not enc.is_empty()
    assert enc.lo <= value <= enc.hi


@given(
    rs=st.floats(min_value=0.1, max_value=4.9),
    s=st.floats(min_value=0.1, max_value=4.9),
    alpha=st.floats(min_value=0.1, max_value=4.9),
    w=st.floats(min_value=0.01, max_value=0.3),
)
@settings(max_examples=hyp_examples(40), deadline=None)
def test_scan_enclosure_contains_point_value(rs, s, alpha, w):
    f = get_functional("SCAN")
    env = {"rs": rs, "s": s, "alpha": alpha}
    value = evaluate(f.fc(), env)
    assume(math.isfinite(value))
    bounds = {
        n: (max(1e-4 if n == "rs" else 0.0, v - w), min(5.0, v + w))
        for n, v in env.items()
    }
    enc = enclosure(tape_for(f.fc()), Box.from_bounds(bounds))
    assert enc.lo <= value <= enc.hi


@given(
    name=st.sampled_from(FUNCTIONALS),
    rs=st.floats(min_value=0.01, max_value=5.0),
    s=st.floats(min_value=0.0, max_value=5.0),
    alpha=alpha_vals,
)
@settings(max_examples=hyp_examples(100), deadline=None)
def test_fc_sign_equivalence(name, rs, s, alpha):
    """EC1's two formulations agree: eps_c <= 0 iff F_c >= 0."""
    f = get_functional(name)
    env = env_for(f, rs, s, alpha)
    eps = evaluate(f.eps_c(), env)
    fc = evaluate(f.fc(), env)
    assume(math.isfinite(eps) and math.isfinite(fc))
    assume(abs(eps) > 1e-14)
    assert (eps < 0.0) == (fc > 0.0)
