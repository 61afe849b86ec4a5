"""Fuzz corpus: whole-batch Pow/Func kernels vs the scalar tape executors.

The vectorised Pow/Func kernels (``repro.solver.kernels``) promise the
same contract as the rest of the batch VM: **bit-identical per column**
to the per-box scalar executors, including inf/NaN endpoints, empty
intervals and the Pow rounding-strategy boundaries (mult-chain exponents
``|n| <= _POW_CHAIN_MAX`` vs the log-form fallback beyond, real exponents,
variable exponents).  This corpus drives hypothesis-generated expressions
and endpoint grids through every path pair and asserts exact endpoint
equality; budgets scale through ``tests.support.hyp_examples`` for the
nightly 25x sweep.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.expr import builder as b
from repro.solver.box import Box
from repro.solver.interval import _POW_CHAIN_MAX, Interval
from repro.solver.tape import tape_for
from tests.support import hyp_examples

#: every Func the tape VM dispatches, including the scipy-backed ones
FUNCS = ("exp", "log", "sqrt", "cbrt", "atan", "abs_", "lambertw",
         "sin", "cos", "tanh", "erf")

#: Pow exponents straddling every rounding-strategy boundary: n = 0/1
#: degenerate cases, small chains, the |n| = _POW_CHAIN_MAX chain edge and
#: the first log-form exponent past it, negative (inverse-composed)
#: twins, and real exponents on both sides of zero
POW_EXPONENTS = (0, 1, 2, 3, 5, _POW_CHAIN_MAX - 1, _POW_CHAIN_MAX,
                 _POW_CHAIN_MAX + 1, -1, -2, -3, -_POW_CHAIN_MAX,
                 -(_POW_CHAIN_MAX + 1), 0.5, 1.5, -0.5, 2.5, -1.5)

#: endpoint pool biased to kernel edge cases: signed zeros, subnormals,
#: trig enumeration thresholds (2^20 / 2^21), exp overflow edges, the
#: Lambert branch point, infinities and NaN
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.5, -0.5, math.pi,
           -math.pi, 2.0**20, 2.0**20 + 0.5, 2.0**21, -(2.0**20), 709.0,
           710.0, -745.0, -1.0 / math.e, 1e154, -1e154, 1e308, -1e308,
           math.inf, -math.inf, math.nan)


def pow_func_expr(rng: random.Random, depth: int = 3):
    """A Pow/Func-heavy residual over x (nonneg), y, z (nonneg)."""
    if depth <= 0 or rng.random() < 0.2:
        return rng.choice([
            b.var("x", nonneg=True), b.var("y"), b.var("z", nonneg=True),
            b.const(rng.uniform(-3.0, 3.0)),
        ])
    kind = rng.random()
    if kind < 0.35:
        expo = rng.choice(POW_EXPONENTS)
        return b.pow_(pow_func_expr(rng, depth - 1), expo)
    if kind < 0.42:
        # variable exponent: OP_POW with aux None (per-column log-form path)
        return b.pow_(pow_func_expr(rng, depth - 1), b.var("z", nonneg=True))
    if kind < 0.82:
        name = rng.choice(FUNCS)
        return getattr(b, name)(pow_func_expr(rng, depth - 1))
    if kind < 0.92:
        return b.add(pow_func_expr(rng, depth - 1), pow_func_expr(rng, depth - 1))
    return b.mul(pow_func_expr(rng, depth - 1), pow_func_expr(rng, depth - 1))


def endpoint(rng: random.Random) -> float:
    r = rng.random()
    if r < 0.4:
        return rng.choice(SPECIAL)
    if r < 0.8:
        return rng.uniform(-8.0, 8.0)
    return rng.uniform(-1e6, 1e6)


def fuzz_boxes(rng: random.Random, width: int) -> list[Box]:
    boxes = []
    for _ in range(width):
        bounds = {}
        for name in ("x", "y", "z"):
            a, c = endpoint(rng), endpoint(rng)
            if rng.random() < 0.15:
                lo, hi = c, a  # possibly inverted -> empty interval
            elif math.isnan(a) or math.isnan(c):
                lo, hi = a, c
            else:
                lo, hi = min(a, c), max(a, c)
            bounds[name] = Interval(lo, hi)
        boxes.append(Box(bounds))
    return boxes


def same_endpoint(a: float, c: float) -> bool:
    return a == c or (math.isnan(a) and math.isnan(c))


def assert_columns_match(tape, boxes, lo_mat, hi_mat, context: str) -> None:
    los = [0.0] * tape.n_slots
    his = [0.0] * tape.n_slots
    for j, box in enumerate(boxes):
        tape.forward_arrays(box, los, his)
        for slot in range(tape.n_slots):
            assert same_endpoint(los[slot], lo_mat[slot, j]), (context, j, slot)
            assert same_endpoint(his[slot], hi_mat[slot, j]), (context, j, slot)


# ---------------------------------------------------------------------------
# forward kernels
# ---------------------------------------------------------------------------

@settings(max_examples=hyp_examples(60), deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_fuzz_forward_batch_vector_kernels_bit_identical(seed):
    rng = random.Random(seed)
    tape = tape_for(pow_func_expr(rng))
    boxes = fuzz_boxes(rng, rng.randint(1, 24))
    lo_mat, hi_mat = tape.load_batch(boxes)
    tape.forward_batch(lo_mat, hi_mat, vector_min=0)  # force the kernels
    assert_columns_match(tape, boxes, lo_mat, hi_mat, "forward")


@settings(max_examples=hyp_examples(30), deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_fuzz_forward_scalar_fallback_bit_identical(seed):
    """The narrow-batch fallback must agree with the kernels exactly."""
    rng = random.Random(seed)
    tape = tape_for(pow_func_expr(rng))
    boxes = fuzz_boxes(rng, rng.randint(1, 8))
    vec_lo, vec_hi = tape.load_batch(boxes)
    tape.forward_batch(vec_lo, vec_hi, vector_min=0)
    fb_lo, fb_hi = tape.load_batch(boxes)
    tape.forward_batch(fb_lo, fb_hi, vector_min=10**9)  # force the fallback
    for slot in range(tape.n_slots):
        for j in range(len(boxes)):
            assert same_endpoint(vec_lo[slot, j], fb_lo[slot, j]), (slot, j)
            assert same_endpoint(vec_hi[slot, j], fb_hi[slot, j]), (slot, j)


@settings(max_examples=hyp_examples(40), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    expo=st.sampled_from(POW_EXPONENTS),
)
def test_fuzz_pow_boundary_exponents(seed, expo):
    """Each rounding-strategy regime of Pow, pinned per column."""
    rng = random.Random(seed)
    tape = tape_for(b.pow_(b.var("y") + b.const(rng.uniform(-1.0, 1.0)), expo))
    boxes = fuzz_boxes(rng, 16)
    lo_mat, hi_mat = tape.load_batch(boxes)
    tape.forward_batch(lo_mat, hi_mat, vector_min=0)
    assert_columns_match(tape, boxes, lo_mat, hi_mat, f"pow {expo}")


# ---------------------------------------------------------------------------
# backward kernels
# ---------------------------------------------------------------------------

@settings(max_examples=hyp_examples(60), deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
@example(seed=3680)  # cbrt(x) over x = [-1e308, ...]: the inverse cuts a clean input
def test_fuzz_backward_batch_vector_kernels_bit_identical(seed):
    rng = random.Random(seed)
    tape = tape_for(pow_func_expr(rng))
    boxes = fuzz_boxes(rng, rng.randint(1, 24))
    lo_mat, hi_mat = tape.load_batch(boxes)
    tape.forward_batch(lo_mat, hi_mat, vector_min=0)
    delta = 1e-5
    root = tape.root
    np.copyto(hi_mat[root], delta, where=hi_mat[root] > delta)

    ref_alive, ref_cols = [], []
    los = [0.0] * tape.n_slots
    his = [0.0] * tape.n_slots
    for box in boxes:
        tape.forward_arrays(box, los, his)
        if his[root] > delta:
            his[root] = delta
        ref_alive.append(tape.backward_arrays(los, his))
        ref_cols.append((list(los), list(his)))

    alive = tape.backward_batch(lo_mat, hi_mat, vector_min=0)
    for j in range(len(boxes)):
        assert bool(alive[j]) == ref_alive[j], j
        if not ref_alive[j]:
            continue  # per-box pass stops early; dead columns hold garbage
        ref_los, ref_his = ref_cols[j]
        for slot in range(tape.n_slots):
            assert same_endpoint(ref_los[slot], lo_mat[slot, j]), (j, slot)
            assert same_endpoint(ref_his[slot], hi_mat[slot, j]), (j, slot)


# ---------------------------------------------------------------------------
# vector kernels vs forced scalar
# ---------------------------------------------------------------------------

@settings(max_examples=hyp_examples(30), deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_fuzz_vector_mode_matches_forced_scalar(seed):
    """Forward then backward: the whole-batch kernels (``vector_min=0``)
    against the per-column scalar executors forced by a huge
    ``vector_min``, slot for slot on every live column."""
    rng = random.Random(seed)
    expr = pow_func_expr(rng)
    tape = tape_for(expr)
    boxes = fuzz_boxes(rng, 12)
    vec_lo, vec_hi = tape.load_batch(boxes)
    tape.forward_batch(vec_lo, vec_hi, vector_min=0)
    sca_lo, sca_hi = tape.load_batch(boxes)
    tape.forward_batch(sca_lo, sca_hi, vector_min=10**9)
    for slot in range(tape.n_slots):
        for j in range(len(boxes)):
            assert same_endpoint(vec_lo[slot, j], sca_lo[slot, j]), (slot, j)
            assert same_endpoint(vec_hi[slot, j], sca_hi[slot, j]), (slot, j)
    delta = 1e-5
    root = tape.root
    np.copyto(vec_hi[root], delta, where=vec_hi[root] > delta)
    np.copyto(sca_hi[root], delta, where=sca_hi[root] > delta)
    vec_alive = tape.backward_batch(vec_lo, vec_hi, vector_min=0)
    sca_alive = tape.backward_batch(sca_lo, sca_hi, vector_min=10**9)
    for j in range(len(boxes)):
        assert bool(vec_alive[j]) == bool(sca_alive[j]), j
        if vec_alive[j]:
            for slot in range(tape.n_slots):
                assert same_endpoint(vec_lo[slot, j], sca_lo[slot, j]), (slot, j)
                assert same_endpoint(vec_hi[slot, j], sca_hi[slot, j]), (slot, j)


@pytest.mark.parametrize("func", FUNCS)
def test_func_kernels_on_special_endpoint_grid(func):
    """Exhaustive special-value grid per Func, not just random draws."""
    x = b.var("y")
    tape = tape_for(getattr(b, func)(x))
    vals = [v for v in SPECIAL]
    boxes = []
    for lo in vals:
        for hi in vals:
            boxes.append(Box({"y": Interval(lo, hi)}))
    lo_mat, hi_mat = tape.load_batch(boxes)
    tape.forward_batch(lo_mat, hi_mat, vector_min=0)
    assert_columns_match(tape, boxes, lo_mat, hi_mat, func)
