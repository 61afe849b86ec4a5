"""statan tier 1: the tape-IR verifier.

Two halves.  The corpus half proves the shipped tree clean: every tape
of every applicable (functional, condition) pair passes every TAPE
check -- the invariant the CI ``check`` job gates on.  The mutation-kill
half corrupts well-formed tapes (swap a slot, drop a literal, mangle an
aux, reorder a definition, poison a built runtime) and asserts the
*named* check reports each corruption, so a regression in any single
check goes red by name rather than hiding behind the others.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.expr import builder as b
from repro.solver.interval import Interval
from repro.solver.tape import (
    FUNC_NAMES,
    OP_FUNC,
    OP_ITE,
    OP_POW,
    compile_expr,
)
from repro.statan.report import Report
from repro.statan.tapecheck import (
    check_corpus,
    check_state,
    check_tape,
    corpus_pairs,
)
from tests.support import hyp_examples

X = b.var("x", nonneg=True)
Y = b.var("y")


def rich_expr():
    """One expression exercising every opcode the checker special-cases:
    ITE, integer and real POW, FUNC, binary and n-ary ADD/MUL."""
    cond = X.le(Y)
    then = b.add(b.pow_(X, 3), b.mul(b.exp(Y), b.const(2.0)), Y)
    orelse = b.pow_(b.add(X, b.const(1.0)), 0.5)
    return b.ite(cond, then, orelse)


def random_expr(rng: random.Random, depth: int = 3):
    """A random total-function residual over x (nonneg) and y."""
    if depth <= 0 or rng.random() < 0.3:
        return rng.choice([X, Y, b.const(rng.uniform(-2.0, 2.0))])
    kind = rng.random()
    if kind < 0.3:
        n = rng.randint(2, 3)
        return b.add(*[random_expr(rng, depth - 1) for _ in range(n)])
    if kind < 0.55:
        return b.mul(random_expr(rng, depth - 1), random_expr(rng, depth - 1))
    if kind < 0.75:
        return b.pow_(random_expr(rng, depth - 1), rng.choice([-1, 2, 3, 0.5]))
    if kind < 0.92:
        name = rng.choice(("exp", "atan", "tanh", "cos"))
        return getattr(b, name)(random_expr(rng, depth - 1))
    cond = random_expr(rng, depth - 2).le(random_expr(rng, depth - 2))
    return b.ite(cond, random_expr(rng, depth - 1), random_expr(rng, depth - 1))


def rules_of(findings):
    return {f.rule for f in findings}


def _with_operand(instr, new_a):
    op, out, a, bb, aux = instr
    a = (new_a,) + tuple(a[1:]) if isinstance(a, tuple) else new_a
    return (op, out, a, bb, aux)


# ---------------------------------------------------------------------------
# corpus: the merged tree must be clean
# ---------------------------------------------------------------------------


class TestCorpusClean:
    def test_full_registry_corpus_clean(self):
        report = Report()
        findings = check_corpus(report=report)
        assert findings == []
        assert report.pairs_checked == len(corpus_pairs())
        assert report.tapes_checked > report.pairs_checked
        # abstract interpretation actually covered partial-function sites
        assert report.nan_sites_safe > 0

    def test_slice_clean(self):
        report = Report()
        findings = check_corpus(functionals=["pbe"], conditions=["EC1"], report=report)
        assert findings == []
        assert report.pairs_checked == 1


# ---------------------------------------------------------------------------
# mutation-kill: structural checks (TAPE101-106) on the persistent state
# ---------------------------------------------------------------------------


class TestStateMutations:
    def setup_method(self):
        self.tape = compile_expr(rich_expr())
        self.state = self.tape.__getstate__()

    def _mutated(self, *, instrs=None, n_slots=None, root=None,
                 var_slots=None, const_slots=None):
        s = self.state
        return (
            s[0] if instrs is None else tuple(instrs),
            s[1] if n_slots is None else n_slots,
            s[2] if root is None else root,
            s[3] if var_slots is None else tuple(var_slots),
            s[4] if const_slots is None else tuple(const_slots),
        )

    def _instr_index(self, op):
        return next(i for i, ins in enumerate(self.state[0]) if ins[0] == op)

    def test_well_formed_state_clean(self):
        assert check_state(self.state, "rich") == []

    def test_oob_operand_is_tape101(self):
        instrs = list(self.state[0])
        instrs[0] = _with_operand(instrs[0], self.state[1] + 7)
        findings = check_state(self._mutated(instrs=instrs), "oob")
        assert "TAPE101" in rules_of(findings)

    def test_oob_root_is_tape101(self):
        findings = check_state(self._mutated(root=self.state[1]), "root")
        assert "TAPE101" in rules_of(findings)

    def test_duplicate_definition_is_tape102(self):
        instrs = list(self.state[0])
        op, out, a, bb, aux = instrs[-1]
        taken = self.state[3][0][1]  # first variable's slot
        instrs[-1] = (op, taken, a, bb, aux)
        findings = check_state(self._mutated(instrs=instrs), "dup")
        assert "TAPE102" in rules_of(findings)

    def test_dropped_literal_is_tape102(self):
        findings = check_state(
            self._mutated(const_slots=self.state[4][1:]), "dropped"
        )
        assert "TAPE102" in rules_of(findings)

    def test_use_before_definition_is_tape103(self):
        instrs = list(self.state[0])
        op, out, a, bb, aux = instrs[0]
        instrs[0] = _with_operand(instrs[0], out)  # self-reference
        findings = check_state(self._mutated(instrs=instrs), "fwdref")
        assert "TAPE103" in rules_of(findings)

    @pytest.mark.parametrize("bad_aux", [
        None,                    # const exponent must carry an aux
        ("i", 99, 99.0),         # disagrees with the literal pool
        ("x", 3, 3.0),           # unknown kind tag
    ])
    def test_mangled_pow_aux_is_tape104(self, bad_aux):
        i = self._instr_index(OP_POW)
        instrs = list(self.state[0])
        op, out, a, bb, _ = instrs[i]
        instrs[i] = (op, out, a, bb, bad_aux)
        findings = check_state(self._mutated(instrs=instrs), "pow")
        assert "TAPE104" in rules_of(findings)

    @pytest.mark.parametrize("mutate", [
        lambda op, out, a, bb, aux: (op, out, a, 99, aux),  # index oob
        lambda op, out, a, bb, aux: (
            op, out, a, (bb + 1) % len(FUNC_NAMES), aux     # index/name split
        ),
        lambda op, out, a, bb, aux: (op, out, a, bb, "nonsense"),
    ])
    def test_mangled_func_aux_is_tape105(self, mutate):
        i = self._instr_index(OP_FUNC)
        instrs = list(self.state[0])
        instrs[i] = mutate(*instrs[i])
        findings = check_state(self._mutated(instrs=instrs), "func")
        assert "TAPE105" in rules_of(findings)

    @pytest.mark.parametrize("mutate", [
        lambda op, out, a, bb, aux: (op, out, a, 9, aux),      # bad cond code
        lambda op, out, a, bb, aux: (op, out, a[:3], bb, aux),  # bad arity
        lambda op, out, a, bb, aux: (op, out, a, bb, "aux"),    # aux not None
    ])
    def test_mangled_ite_is_tape106(self, mutate):
        i = self._instr_index(OP_ITE)
        instrs = list(self.state[0])
        instrs[i] = mutate(*instrs[i])
        findings = check_state(self._mutated(instrs=instrs), "ite")
        assert "TAPE106" in rules_of(findings)

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=hyp_examples(60), deadline=None)
    def test_random_tape_mutations_killed(self, seed, data):
        """Every generic corruption of a random well-formed tape is caught
        by the named structural check."""
        rng = random.Random(seed)
        tape = compile_expr(random_expr(rng))
        instrs, n_slots, root, var_slots, const_slots = tape.__getstate__()
        assert check_state(tape.__getstate__(), "pre") == []
        assume(instrs)
        kind = data.draw(st.sampled_from(
            ["oob", "self_ref", "dup", "bad_root", "drop_const"]
        ))
        i = data.draw(st.integers(0, len(instrs) - 1))
        instrs = list(instrs)
        if kind == "oob":
            instrs[i] = _with_operand(instrs[i], n_slots + 1 + i)
            expected = "TAPE101"
        elif kind == "self_ref":
            instrs[i] = _with_operand(instrs[i], instrs[i][1])
            expected = "TAPE103"
        elif kind == "dup":
            leaves = [s for _, s in var_slots] + [s for s, _ in const_slots]
            op, out, a, bb, aux = instrs[i]
            instrs[i] = (op, leaves[0], a, bb, aux)
            expected = "TAPE102"
        elif kind == "bad_root":
            root = n_slots + 2
            expected = "TAPE101"
        else:  # drop_const
            assume(const_slots)
            const_slots = const_slots[1:]
            expected = "TAPE102"
        state = (tuple(instrs), n_slots, root, var_slots, const_slots)
        assert expected in rules_of(check_state(state, f"mut:{kind}"))


# ---------------------------------------------------------------------------
# runtime checks: TAPE107 (fingerprint/runtime), TAPE108 (NaN reach)
# ---------------------------------------------------------------------------


class TestRuntimeChecks:
    def test_clean_tape_has_no_runtime_findings(self):
        tape = compile_expr(rich_expr())
        assert check_tape(tape, "rich") == []

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=hyp_examples(25), deadline=None)
    def test_random_clean_tapes(self, seed):
        tape = compile_expr(random_expr(random.Random(seed)))
        assert check_tape(tape, f"rand:{seed}") == []

    def test_poisoned_batch_seed_is_tape107(self):
        tape = compile_expr(rich_expr())
        slot, lo, hi = tape._batch_seed[0]
        tape._batch_seed[0] = (slot, lo + 0.5, hi + 0.5)
        findings = check_tape(tape, "poisoned", rules={"TAPE107"})
        assert rules_of(findings) == {"TAPE107"}

    def test_init_template_drift_is_tape107(self):
        # forward_arrays seeds from the init templates; drifting a
        # literal there diverges from a fresh build of the state
        tape = compile_expr(rich_expr())
        slot = tape.const_slots[0][0]
        tape._init_los[slot] -= 1.0
        tape._init_his[slot] += 1.0
        findings = check_tape(tape, "drift", rules={"TAPE107"})
        assert rules_of(findings) == {"TAPE107"}
        assert any("init los" in f.symbol for f in findings)

    def test_unguarded_partial_site_is_tape108(self):
        tape = compile_expr(b.log(Y))
        box = {"y": Interval(-1.0, 1.0)}
        findings = check_tape(
            tape, "log", box=box, guards={"log": False}, rules={"TAPE108"}
        )
        assert rules_of(findings) == {"TAPE108"}

    def test_guarded_partial_site_is_counted_not_flagged(self):
        report = Report()
        tape = compile_expr(b.log(Y))
        box = {"y": Interval(-1.0, 1.0)}
        findings = check_tape(
            tape, "log", box=box, rules={"TAPE108"}, report=report
        )
        assert findings == []
        assert report.nan_sites_guarded == 1

    def test_deep_refinement_proves_safety(self):
        # log(y*cos(y) + 0.9): the single-box pass multiplies dependent
        # enclosures ([-1,1] * [cos 1, 1] = [-1,1]) and cannot rule the
        # log input positive; quartering the axis (deep=2) tightens the
        # product enough that every subbox is provably safe
        tape = compile_expr(b.log(b.add(b.mul(Y, b.cos(Y)), b.const(0.9))))
        box = {"y": Interval(-1.0, 1.0)}
        flat = check_tape(
            tape, "lc", box=box, guards={"log": False}, rules={"TAPE108"}
        )
        assert rules_of(flat) == {"TAPE108"}
        report = Report()
        deep = check_tape(
            tape, "lc", box=box, deep=2, guards={"log": False},
            rules={"TAPE108"}, report=report,
        )
        assert deep == []
        assert report.nan_sites_safe == 1
