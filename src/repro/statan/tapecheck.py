"""Tier 1 of ``repro check``: a verifier for the compiled tape IR.

Every latent solver bug the differential fuzzers dug out of PRs 4-8 was
a violation of an invariant :mod:`repro.solver.tape` states in prose.
This module proves those invariants per tape, so the full
functional x condition corpus is machine-checked before every merge:

``TAPE101``  slot and literal-pool bounds (every slot index in range)
``TAPE102``  single assignment: each slot defined exactly once
``TAPE103``  SSA def-before-use in instruction order, root defined
``TAPE104``  ``OP_POW`` aux agrees with the literal pool
``TAPE105``  ``OP_FUNC`` index and aux agree with ``FUNC_NAMES``
``TAPE106``  ``OP_ITE`` operand arity and condition code
``TAPE107``  fingerprint <-> structure agreement: the built runtime is
             exactly what a fresh build of the persistent state produces
``TAPE108``  silent-NaN reachability: abstract interpretation over the
             interval domain; partial-function inputs that may leave
             their safe domain must be guarded by the executors (the
             exact defect class of the PR 4 Ite/trig fixes)

Structural checks (101-106) run on the *persistent state* tuple alone,
so corrupt tapes can be audited without ever building a runtime (a
corrupt tape may crash the builder).  The semantic checks (107-108)
need a built :class:`~repro.solver.tape.Tape`.
"""

from __future__ import annotations

import math
from itertools import product
from math import inf, isnan

from ..solver.interval import Interval
from ..solver.tape import (
    COND_EQ,
    COND_LE,
    FUNC_DOMAINS,
    FUNC_NAMES,
    OP_ADD2,
    OP_ADDN,
    OP_FUNC,
    OP_ITE,
    OP_MUL2,
    OP_MULN,
    OP_POW,
    Tape,
    _BATCH_FUNC_BAD,
    func_guard_table,
    stable_digest,
)
from .report import Finding, Report

__all__ = [
    "TAPE_CHECKS",
    "check_corpus",
    "check_problem",
    "check_state",
    "check_tape",
    "corpus_pairs",
]

#: rule id -> the invariant it proves (the ``repro check`` registry)
TAPE_CHECKS = {
    "TAPE101": "slot and literal-pool indices stay within bounds",
    "TAPE102": "single assignment: every slot defined exactly once",
    "TAPE103": "SSA def-before-use in instruction order",
    "TAPE104": "OP_POW aux encoding agrees with the literal pool",
    "TAPE105": "OP_FUNC index/aux agree with FUNC_NAMES",
    "TAPE106": "OP_ITE operand arity and condition code are valid",
    "TAPE107": "fingerprint and built runtime agree with the persistent state",
    "TAPE108": "out-of-domain inputs to partial functions are NaN-guarded",
}

_KNOWN_OPS = (OP_ADD2, OP_MUL2, OP_ADDN, OP_MULN, OP_POW, OP_FUNC, OP_ITE)

#: cap on sub-boxes the TAPE108 abstract interpretation enumerates per
#: tape: ``--deep`` splits every finite axis in half ``deep`` times, and
#: the product is clamped here so pathological arities stay bounded
_MAX_SUBBOXES = 4096


def _verify_tables() -> None:
    """Cross-check FUNC_DOMAINS against the executors' guard predicates.

    The abstract interpretation trusts ``FUNC_DOMAINS`` to describe the
    same unsafe regions ``_BATCH_FUNC_BAD`` guards; probe each boundary
    so the tables cannot drift apart without failing loudly at import.
    """
    for idx, dom in enumerate(FUNC_DOMAINS):
        bad = _BATCH_FUNC_BAD[idx]
        if dom is None:
            continue
        if bad is None:  # partial but unguarded: a standing TAPE108 bug
            continue
        kind, bound = dom
        inside = bound if kind in ("le", "ge") else math.nextafter(bound, inf)
        outside = (
            math.nextafter(bound, inf)
            if kind == "le"
            else math.nextafter(bound, -inf) if kind == "ge" else bound
        )
        if bool(bad(inside)) or not bool(bad(outside)):
            raise AssertionError(
                f"FUNC_DOMAINS[{idx}] ({FUNC_NAMES[idx]}) disagrees with "
                f"_BATCH_FUNC_BAD[{idx}] at the domain boundary"
            )


_verify_tables()


def _same_float(a: float, b: float) -> bool:
    """Bit-level float equality: NaN == NaN, -0.0 != 0.0."""
    if isnan(a) or isnan(b):
        return isnan(a) and isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def _same_value(a, b) -> bool:
    """Structural equality with bit-level float comparison."""
    if isinstance(a, float) or isinstance(b, float):
        if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
            return False
        return _same_float(float(a), float(b))
    if isinstance(a, (tuple, list)) and isinstance(b, (tuple, list)):
        return len(a) == len(b) and all(
            _same_value(x, y) for x, y in zip(a, b)
        )
    return type(a) is type(b) and a == b


# ---------------------------------------------------------------------------
# structural checks over the persistent state (TAPE101-106)
# ---------------------------------------------------------------------------

def check_state(state, label: str) -> list[Finding]:
    """Structural well-formedness of a tape's persistent state tuple.

    ``state`` is ``(instrs, n_slots, root, var_slots, const_slots)`` --
    exactly ``Tape.__getstate__()``.  Runs without building a runtime.
    """
    findings: list[Finding] = []
    where = f"tape:{label}"

    def bad(rule: str, symbol: str, message: str) -> None:
        findings.append(Finding(rule, where, symbol, message))

    try:
        instrs, n_slots, root, var_slots, const_slots = state
    except (TypeError, ValueError):
        bad("TAPE101", "state", "persistent state is not a 5-tuple")
        return findings
    if not isinstance(n_slots, int) or n_slots < 1:
        bad("TAPE101", "state", f"n_slots must be a positive int, got {n_slots!r}")
        return findings

    def in_range(slot) -> bool:
        return isinstance(slot, int) and not isinstance(slot, bool) and 0 <= slot < n_slots

    # --- TAPE101: every slot index within bounds, shapes sane ----------
    defs: dict[int, list[str]] = {}
    for k, entry in enumerate(const_slots):
        sym = f"const[{k}]"
        if not (isinstance(entry, tuple) and len(entry) == 2):
            bad("TAPE101", sym, f"literal-pool entry must be (slot, value), got {entry!r}")
            continue
        slot, value = entry
        if not in_range(slot):
            bad("TAPE101", sym, f"literal slot {slot!r} outside [0, {n_slots})")
            continue
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            bad("TAPE101", sym, f"literal value must be a number, got {value!r}")
        defs.setdefault(slot, []).append(sym)
    for k, entry in enumerate(var_slots):
        sym = f"var[{k}]"
        if not (isinstance(entry, tuple) and len(entry) == 2):
            bad("TAPE101", sym, f"var-slot entry must be (name, slot), got {entry!r}")
            continue
        name, slot = entry
        if not isinstance(name, str) or not name:
            bad("TAPE101", sym, f"variable name must be a non-empty str, got {name!r}")
        if not in_range(slot):
            bad("TAPE101", sym, f"variable slot {slot!r} outside [0, {n_slots})")
            continue
        defs.setdefault(slot, []).append(sym)
    if not in_range(root):
        bad("TAPE101", "root", f"root slot {root!r} outside [0, {n_slots})")

    # --- instruction shape + per-opcode aux consistency -----------------
    defined_so_far = set(defs)
    for i, instr in enumerate(instrs):
        sym = f"instr[{i}]"
        if not (isinstance(instr, tuple) and len(instr) == 5):
            bad("TAPE101", sym, f"instruction must be a 5-tuple, got {instr!r}")
            continue
        op, out, a, b, aux = instr
        if op not in _KNOWN_OPS:
            bad("TAPE101", sym, f"unknown opcode {op!r}")
            continue
        if not in_range(out):
            bad("TAPE101", sym, f"out slot {out!r} outside [0, {n_slots})")
        else:
            defs.setdefault(out, []).append(sym)

        if op in (OP_ADDN, OP_MULN, OP_ITE):
            operands = a if isinstance(a, tuple) else None
            if operands is None:
                bad("TAPE101", sym, f"operand list must be a tuple, got {a!r}")
                operands = ()
        else:  # ADD2 / MUL2 / POW / FUNC
            operands = (a, b) if op in (OP_ADD2, OP_MUL2, OP_POW) else (a,)
        bad_slot = False
        for operand in operands:
            if not in_range(operand):
                bad("TAPE101", sym, f"operand slot {operand!r} outside [0, {n_slots})")
                bad_slot = True
        # --- TAPE103: def-before-use in instruction order ---------------
        if not bad_slot and not all(o in defined_so_far for o in operands):
            missing = [o for o in operands if o not in defined_so_far]
            bad(
                "TAPE103", sym,
                f"operand slot(s) {missing} used before definition",
            )
        if in_range(out):
            defined_so_far.add(out)

        # --- TAPE104: POW aux mirrors the literal pool -------------------
        if op == OP_POW:
            const_map = {
                s: v for s, v in const_slots
                if isinstance(s, int) and isinstance(v, (int, float))
            }
            if b in const_map:
                p = const_map[b]
                if float(p).is_integer() and abs(p) < 2**31:
                    expect = ("i", int(p), p)
                else:
                    expect = ("r", p, p)
                if not _same_value(aux, expect):
                    bad(
                        "TAPE104", sym,
                        f"aux {aux!r} disagrees with literal exponent "
                        f"{p!r} (expected {expect!r})",
                    )
            elif aux is not None:
                bad(
                    "TAPE104", sym,
                    f"aux {aux!r} present but exponent slot {b} is not a literal",
                )
        # --- TAPE105: FUNC index and aux name agree ----------------------
        elif op == OP_FUNC:
            if not (isinstance(b, int) and 0 <= b < len(FUNC_NAMES)):
                bad("TAPE105", sym, f"function index {b!r} outside FUNC_NAMES")
            elif aux != FUNC_NAMES[b]:
                bad(
                    "TAPE105", sym,
                    f"aux {aux!r} disagrees with FUNC_NAMES[{b}] = "
                    f"{FUNC_NAMES[b]!r}",
                )
        # --- TAPE106: ITE arity and condition code -----------------------
        elif op == OP_ITE:
            if isinstance(a, tuple) and len(a) != 4:
                bad(
                    "TAPE106", sym,
                    f"ITE needs (lhs, rhs, then, orelse), got {len(a)} operands",
                )
            if not (isinstance(b, int) and COND_LE <= b <= COND_EQ):
                bad("TAPE106", sym, f"condition code {b!r} outside [0, 4]")
            if aux is not None:
                bad("TAPE106", sym, f"ITE aux must be None, got {aux!r}")
        elif op in (OP_ADDN, OP_MULN) and aux is not None:
            bad("TAPE101", sym, f"n-ary aux must be None, got {aux!r}")

    # --- TAPE102: single assignment, no orphan slots --------------------
    for slot, sites in sorted(defs.items()):
        if len(sites) > 1:
            findings.append(Finding(
                "TAPE102", where, sites[1],
                f"slot {slot} defined more than once ({', '.join(sites)})",
            ))
    orphans = sorted(set(range(n_slots)) - set(defs))
    if orphans:
        bad(
            "TAPE102", "slots",
            f"slot(s) {orphans} never defined by a literal, variable or "
            "instruction",
        )
    if in_range(root) and root not in defs:
        bad("TAPE103", "root", f"root slot {root} is never defined")
    return findings


# ---------------------------------------------------------------------------
# semantic checks over a built tape (TAPE107-108)
# ---------------------------------------------------------------------------

def _norm_box(box, names) -> dict[str, Interval]:
    """Normalise a Box / dict to name -> Interval, defaulting unbound vars."""
    bound = dict(box.items()) if box is not None else {}
    return {
        name: bound.get(name, Interval(0.5, 1.5)) for name in names
    }


def _subboxes(box: dict[str, Interval], deep: int):
    """Uniform 2**deep-per-axis refinement of ``box`` (capped, sound cover)."""
    if deep <= 0 or not box:
        yield box
        return
    names = list(box)
    k = 2 ** deep
    while k > 1 and k ** len(names) > _MAX_SUBBOXES:
        k //= 2
    axes = []
    for name in names:
        iv = box[name]
        if k <= 1 or not (math.isfinite(iv.lo) and math.isfinite(iv.hi)) or iv.lo >= iv.hi:
            axes.append([iv])
            continue
        cuts = [iv.lo + (iv.hi - iv.lo) * j / k for j in range(1, k)]
        edges = [iv.lo, *cuts, iv.hi]
        axes.append([Interval(edges[j], edges[j + 1]) for j in range(k)])
    for combo in product(*axes):
        yield dict(zip(names, combo))


def _unsafe_func_input(dom, lo: float, hi: float) -> bool:
    """Can an input in [lo, hi] leave the safe domain ``dom``?"""
    if dom is None or lo > hi:  # total function / empty enclosure
        return False
    kind, bound = dom
    if kind == "le":
        return hi > bound
    if kind == "ge":
        return lo < bound
    return lo <= bound  # "gt"


def _unsafe_pow_input(aux, blo, bhi, elo, ehi) -> bool:
    """Can (base, exponent) enclosures hit pow's NaN set?"""
    if blo > bhi:
        return False
    if aux is not None and aux[0] == "i":
        n = aux[1]
        return n < 0 and blo <= 0.0 <= bhi
    if aux is not None:  # ("r", p, p): fractional or huge exponent
        return blo < 0.0 or (aux[1] < 0 and blo <= 0.0 <= bhi)
    # variable exponent: safe only if the base stays strictly positive
    return not blo > 0.0


def check_tape(
    tape: Tape,
    label: str,
    box=None,
    deep: int = 0,
    guards=None,
    rules=None,
    report: Report | None = None,
) -> list[Finding]:
    """Run every tape check against one built tape.

    ``box`` bounds the abstract interpretation (defaults to a unit box
    per variable); ``deep`` refines it by uniform axis splitting;
    ``guards`` overrides the executors' guard table (name -> bool, plus
    the ``"pow"`` key) so tests can seed unguarded configurations;
    ``rules`` restricts which checks run (None = all).
    """
    where = f"tape:{label}"

    def on(rule: str) -> bool:
        return rules is None or rule in rules

    state = tape.__getstate__()
    findings = [
        f for f in check_state(state, label) if on(f.rule)
    ]
    if any(f.rule in ("TAPE101", "TAPE102", "TAPE103") for f in findings):
        # semantic passes interpret the instructions; a structurally
        # broken tape would only cascade noise (or crash the builder)
        return findings

    # --- TAPE107: fingerprint <-> structure agreement -------------------
    if on("TAPE107"):
        try:
            digest = stable_digest(state)
        except TypeError as exc:
            findings.append(Finding(
                "TAPE107", where, "state",
                f"persistent state is not stably encodable: {exc}",
            ))
            digest = None
        if digest is not None and tape.fingerprint() != digest:
            findings.append(Finding(
                "TAPE107", where, "fingerprint",
                "fingerprint() disagrees with the digest of __getstate__()",
            ))
        fresh = Tape(*state)
        live = tape.runtime_program()
        rebuilt = fresh.runtime_program()
        parts = ("forward program", "batch seed", "init los", "init his")
        for part, a, b in zip(parts, live, rebuilt):
            if not _same_value(a, b):
                findings.append(Finding(
                    "TAPE107", where, part,
                    f"built runtime {part} disagrees with a fresh build of "
                    "the persistent state (post-construction mutation or a "
                    "stale runtime cache)",
                ))
                break

    # --- TAPE108: silent-NaN reachability --------------------------------
    if on("TAPE108"):
        domain = _norm_box(box, [name for name, _ in tape.var_slots])
        if guards is None:
            guard_by_name = dict(zip(FUNC_NAMES, func_guard_table()))
            guard_by_name["pow"] = True
        else:
            guard_by_name = dict(zip(FUNC_NAMES, func_guard_table()))
            guard_by_name["pow"] = True
            guard_by_name.update(guards)
        sites = [
            (i, instr) for i, instr in enumerate(state[0])
            if instr[0] == OP_POW
            or (instr[0] == OP_FUNC and FUNC_DOMAINS[instr[3]] is not None)
        ]
        if sites:
            n = tape.n_slots
            maybe: set[int] = set()
            for sub in _subboxes(domain, deep):
                los, his = [0.0] * n, [0.0] * n
                tape.forward_arrays(sub, los, his)
                for i, (op, out, a, b, aux) in sites:
                    if i in maybe:
                        continue
                    if op == OP_FUNC:
                        if _unsafe_func_input(FUNC_DOMAINS[b], los[a], his[a]):
                            maybe.add(i)
                    elif _unsafe_pow_input(aux, los[a], his[a], los[b], his[b]):
                        maybe.add(i)
            for i, (op, out, a, b, aux) in sites:
                fname = "pow" if op == OP_POW else FUNC_NAMES[b]
                if i not in maybe:
                    if report is not None:
                        report.nan_sites_safe += 1
                elif guard_by_name.get(fname, False):
                    if report is not None:
                        report.nan_sites_guarded += 1
                else:
                    findings.append(Finding(
                        "TAPE108", where, f"instr[{i}]",
                        f"{fname} may receive out-of-domain input over the "
                        "verification domain but has no NaN guard: a silent "
                        "NaN would flow downstream",
                    ))
    if report is not None:
        report.tapes_checked += 1
    return findings


# ---------------------------------------------------------------------------
# corpus runner: every tape of every applicable (functional, condition)
# ---------------------------------------------------------------------------

def corpus_pairs(functionals=None, conditions=None):
    """Resolve name slices to the applicable (functional, condition) pairs.

    ``None`` means the *full* registry / condition catalog -- wider than
    the paper's evaluation on purpose: the corpus guards every tape the
    campaigns can compile.
    """
    from ..conditions.catalog import PAPER_CONDITIONS, applicable_pairs, get_condition
    from ..functionals.registry import all_functionals, get_functional

    fs = (
        all_functionals()
        if functionals is None
        else tuple(get_functional(name) for name in functionals)
    )
    cs = (
        PAPER_CONDITIONS
        if conditions is None
        else tuple(get_condition(cid) for cid in conditions)
    )
    return applicable_pairs(fs, cs)


def check_problem(
    compiled,
    label: str,
    deep: int = 0,
    guards=None,
    rules=None,
    report: Report | None = None,
) -> list[Finding]:
    """Check every tape of one compiled problem."""
    findings: list[Finding] = []
    box = compiled.domain

    def run(tape, sub: str) -> None:
        findings.extend(check_tape(
            tape, f"{label}/{sub}", box=box, deep=deep, guards=guards,
            rules=rules, report=report,
        ))

    for i, atom in enumerate(compiled.negation.atoms):
        run(atom.tape, f"atom{i}")
    run(compiled.psi_lhs, "psi_lhs")
    run(compiled.psi_rhs, "psi_rhs")
    if report is not None:
        report.pairs_checked += 1
    return findings


def check_corpus(
    functionals=None,
    conditions=None,
    deep: int = 0,
    guards=None,
    rules=None,
    report: Report | None = None,
) -> list[Finding]:
    """Compile and check the functional x condition tape corpus."""
    from ..verifier.encoder import compile_problem, encode

    findings: list[Finding] = []
    for functional, condition in corpus_pairs(functionals, conditions):
        compiled = compile_problem(encode(functional, condition))
        findings.extend(check_problem(
            compiled, f"{functional.name}/{condition.cid}",
            deep=deep, guards=guards, rules=rules, report=report,
        ))
    return findings
