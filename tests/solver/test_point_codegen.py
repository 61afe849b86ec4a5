"""Differential corpus: the generated point function vs the interpreter.

``Tape.eval_point`` runs one straight-line Python function generated per
tape.  It must return the bits the opcode-dispatch interpreter
(:func:`tests.solver.oracles.eval_point_interpreted`) returns, and raise
the same exception type with the same message wherever the interpreter
raises.  Expressions come from the batch fuzzers' strategies
(``test_tape_batch_fuzz.pow_func_expr``, ``test_tape.random_expr``) and
points from their special-value endpoint pool.
"""

from __future__ import annotations

import math
import pickle
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.expr import builder as b
from repro.expr.evaluator import EvalError
from repro.solver.tape import (
    _RUNTIME_CACHE,
    OP_ADD2,
    OP_ITE,
    OP_MULN,
    COND_CODE,
    COND_LE,
    Tape,
    compile_expr,
    cond_compare,
)
from tests.support import hyp_examples

from .oracles import eval_point_interpreted
from .test_tape import random_expr
from .test_tape_batch_fuzz import endpoint, pow_func_expr

X = b.var("x", nonneg=True)
Y = b.var("y")
Z = b.var("z", nonneg=True)


def outcome(fn, *args):
    """A call's value bits, or the type and message of what it raised."""
    try:
        value = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is the comparison
        return ("raised", type(exc), str(exc))
    return ("value", type(value), struct.pack("<d", value))


def assert_same(tape: Tape, env: dict) -> None:
    want = outcome(eval_point_interpreted, tape, env)
    got = outcome(tape.eval_point, env)
    assert got == want, (env, got, want)


def random_env(rng: random.Random) -> dict[str, float]:
    return {name: endpoint(rng) for name in ("x", "y", "z")}


@settings(max_examples=hyp_examples(80), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), strategy=st.sampled_from(["pow_func", "random"]))
def test_generated_point_function_matches_interpreter(seed, strategy):
    rng = random.Random(seed)
    expr = pow_func_expr(rng) if strategy == "pow_func" else random_expr(rng)
    tape = compile_expr(expr)
    for _ in range(8):
        assert_same(tape, random_env(rng))


#: (expression, point) witnesses for every raise site and float edge
WITNESSES = [
    # fsum: inf + -inf raises ValueError, 1e308 + 1e308 OverflowError
    (X + Y, {"x": math.inf, "y": -math.inf}),
    (X + Y + Z, {"x": math.inf, "y": -math.inf, "z": 1.0}),
    (X + Y, {"x": 1e308, "y": 1e308}),
    (X + Y + Z, {"x": 1e308, "y": 1e308, "z": -1.0}),
    # fsum cancels exactly where left-to-right + would not
    (X + Y + Z, {"x": 1.0, "y": 1e308, "z": -1e308}),
    # negative base to a fractional power, constant and variable exponent
    (b.pow_(Y, 1.5), {"y": -2.0}),
    (b.pow_(Y, Z), {"y": -2.0, "z": 0.5}),
    (b.pow_(Y, Z), {"y": -2.0, "z": math.inf}),
    # zero to a negative power, constant and variable exponent
    (b.pow_(Y, -1), {"y": 0.0}),
    (b.pow_(Y, -1), {"y": -0.0}),
    (b.pow_(Y, Z), {"y": 0.0, "z": -1.0}),
    (b.pow_(Y, -0.5), {"y": 0.0}),
    # a NaN Ite guard operand, either side
    (b.ite(X.le(Y), X, Y), {"x": 1.0, "y": math.nan}),
    (b.ite(X.le(Y), X, Y), {"x": math.nan, "y": 1.0}),
    # same-sign infinities still order in the guard
    (b.ite(X.le(Y), b.const(1.0), b.const(-1.0)), {"x": math.inf, "y": math.inf}),
    # cbrt near +-1e308
    (b.cbrt(Y), {"y": 1e308}),
    (b.cbrt(Y), {"y": -1e308}),
    (b.cbrt(Y), {"y": -1.7976931348623157e308}),
    # domain errors inside the scalar function table
    (b.log(Y), {"y": 0.0}),
    (b.exp(Y), {"y": 710.0}),
    (b.lambertw(Y), {"y": -1.0}),
    # products are sequential from 1.0, and keep the sign of zero
    (X * Y * Z, {"x": 0.0, "y": -1.0, "z": 2.0}),
    (X * Y * Z, {"x": 1e200, "y": 1e200, "z": 0.0}),
    # ... and start from the float 1.0 even for int point values
    (X * Y * Z, {"x": 2, "y": 3, "z": 4}),
    # NaN flows through arithmetic as a value
    (X * Y, {"x": math.nan, "y": 1.0}),
    # unbound variables: the first missing in slot order is named
    (X + Y, {"x": 1.0}),
    (X + Y, {}),
]


@pytest.mark.parametrize("expr, env", WITNESSES)
def test_witnesses_match_interpreter(expr, env):
    assert_same(compile_expr(expr), env)


@pytest.mark.parametrize(
    "expr, env, exc_type, message",
    [
        (X + Y, {"x": math.inf, "y": -math.inf}, ValueError, "-inf + inf in fsum"),
        (X + Y, {"x": 1e308, "y": 1e308}, OverflowError, "intermediate overflow in fsum"),
        (b.pow_(Y, 1.5), {"y": -2.0}, EvalError, "negative base -2.0 to fractional power 1.5"),
        (b.pow_(Y, -1), {"y": 0.0}, EvalError, "zero to a negative power"),
        (b.ite(X.le(Y), X, Y), {"x": 1.0, "y": math.nan}, EvalError, "NaN in ite condition"),
        (X + Y, {"x": 1.0}, EvalError, "unbound variable 'y'"),
    ],
)
def test_witnesses_reach_their_raise_sites(expr, env, exc_type, message):
    assert outcome(compile_expr(expr).eval_point, env) == ("raised", exc_type, message)


@pytest.mark.parametrize("op", sorted(COND_CODE))
def test_ite_conditions_match_cond_compare(op):
    """The generated Ite spells out each condition code's comparison;
    it must decide every ordered, tied, signed-zero and infinite operand
    pair as ``cond_compare`` does."""
    code = COND_CODE[op]
    x, y = b.var("x"), b.var("y")
    rel = {"<=": x.le, "<": x.lt, ">=": x.ge, ">": x.gt, "==": x.eq}[op](y)
    tape = compile_expr(b.ite(rel, b.const(1.0), b.const(-1.0)))
    assert [ins[3] for ins in tape.instrs if ins[0] == OP_ITE] == [code]
    values = (-math.inf, -1.0, -0.0, 0.0, 5e-324, 1.0, math.inf)
    for lhs in values:
        for rhs in values:
            want = 1.0 if cond_compare(code, lhs, rhs) else -1.0
            assert tape.eval_point({"x": lhs, "y": rhs}) == want, (op, lhs, rhs)


def test_constant_only_tapes():
    """No variable slots: a literal root, and instructions over literals
    only (a hand-built tape; the builder folds such subtrees)."""
    assert_same(compile_expr(b.const(2.5)), {})
    assert_same(compile_expr(b.const(2.5)), {"x": 1.0})
    hand = Tape(
        instrs=(
            (OP_ADD2, 4, 0, 1, None),
            (OP_MULN, 5, (4, 2, 3), 0, None),
            (OP_ITE, 6, (0, 1, 5, 2), COND_LE, None),
        ),
        n_slots=7,
        root=6,
        var_slots=(),
        const_slots=((0, 1.5), (1, -0.0), (2, math.inf), (3, math.nan)),
    )
    assert_same(hand, {})
    negzero = Tape(instrs=(), n_slots=1, root=0, var_slots=(), const_slots=((0, -0.0),))
    assert struct.pack("<d", negzero.eval_point({})) == struct.pack("<d", -0.0)


def test_variable_root_and_repeated_names():
    """A bare variable root, and two variable nodes of one name (the
    nonneg flag makes them distinct DAG nodes, two slots)."""
    assert_same(compile_expr(Y), {"y": -0.0})
    tape = compile_expr(b.var("x") + X)
    assert len(tape.var_slots) == 2
    assert_same(tape, {"x": 3.0})
    assert_same(tape, {"y": 3.0})


@pytest.mark.parametrize("seed", range(3))
def test_corpus_tapes_match_interpreter(seed):
    """Every production tape (negation atoms, psi sides) of a slice of
    the corpus pairs, at points of the pair's domain and at special
    values."""
    from repro.statan.tapecheck import corpus_pairs
    from repro.verifier.encoder import compile_problem, encode

    rng = random.Random(seed)
    pairs = corpus_pairs()
    for functional, condition in pairs[seed::9]:
        problem = encode(functional, condition)
        compiled = compile_problem(problem)
        tapes = [atom.tape for atom in compiled.negation.atoms]
        tapes += [compiled.psi_lhs, compiled.psi_rhs]
        names = problem.domain.names
        for tape in tapes:
            for _ in range(4):
                env = {}
                for name in names:
                    iv = problem.domain[name]
                    env[name] = (
                        endpoint(rng) if rng.random() < 0.25 else rng.uniform(iv.lo, iv.hi)
                    )
                assert_same(tape, env)


def test_point_function_is_shared_through_the_runtime_cache():
    """Unpickled tapes share one generated function, built on first use,
    and generating it changes no persistent state."""
    tape = compile_expr(b.exp(X) * Y + b.const(0.5))
    state = tape.__getstate__()
    fingerprint = tape.fingerprint()
    blob = pickle.dumps(tape)
    tape.eval_point({"x": 0.5, "y": 2.0})
    assert tape.__getstate__() == state
    assert tape.fingerprint() == fingerprint
    assert pickle.dumps(tape) == blob
    _RUNTIME_CACHE.clear()
    first = pickle.loads(blob)
    second = pickle.loads(blob)
    assert first._point[0] is None
    first.eval_point({"x": 0.5, "y": 2.0})
    assert second._point[0] is first._point[0]
