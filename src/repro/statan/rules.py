"""The project-specific REP1xx lint rules of ``repro check``.

Each rule encodes one invariant the codebase states in prose (module
docstrings, PR discussions, post-mortems of the PR 4-8 fuzzer finds)
but never previously enforced:

``REP100``  allowlist hygiene (malformed/unknown/stale entries)
``REP101``  rounding discipline: interval endpoint arithmetic in the
            solver kernels must live in functions that round outward
            (``nextafter`` or the ``_down``/``_up``/``_chain_*`` helpers)
``REP102``  content-key purity: nothing reachable from the store's
            content-hash roots may read time, randomness, the
            environment, or unsorted dict order
``REP103``  asyncio hygiene: no blocking sqlite/file/sleep calls inside
            ``async def`` bodies off ``asyncio.to_thread``
``REP104``  fork-safety: process pools must be constructed at sanctioned
            sites only (a fork after thread spawn deadlocks, the PR 5
            lazy-fork bug)
``REP105``  loud validation: public config dataclasses reject bad
            values in ``__post_init__`` (the PR 8 CampaignConfig pattern)
``REP106``  clock discipline: traced modules take timestamps through the
            ``obs.clock`` helpers, not raw ``time.time()`` /
            ``time.monotonic()`` / ``time.perf_counter()``, so every
            measurement site is greppable and trace timestamps share one
            clock across processes

Rules report at function granularity where possible (one finding per
offending function, anchored at the first offending expression), so a
clean-up is one edit, not a diff-wide wall of noise.
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch

from .astcheck import FunctionInfo, Module, call_name
from .report import Finding

__all__ = ["REP_RULES", "run_rules"]

#: rule id -> (title, rationale) -- the ``repro check`` registry
REP_RULES = {
    "REP100": (
        "allowlist hygiene",
        "an exception nobody can justify, or that suppresses nothing, is a bug",
    ),
    "REP101": (
        "rounding discipline",
        "bare endpoint arithmetic silently drops outward rounding; every "
        "enclosure bug class of PRs 1-4 started here",
    ),
    "REP102": (
        "content-key purity",
        "store keys must be deterministic across processes and runs, or "
        "resumed campaigns silently recompute (or worse, alias) cells",
    ),
    "REP103": (
        "asyncio hygiene",
        "a blocking call in an async body stalls the event loop for every "
        "connected client",
    ),
    "REP104": (
        "fork-safety",
        "forking a process pool after threads exist deadlocks workers "
        "(the PR 5 lazy-fork bug); pools are constructed eagerly at "
        "sanctioned sites",
    ),
    "REP105": (
        "loud validation",
        "config dataclasses that accept nonsense fail far from the typo; "
        "__post_init__ rejects bad values at construction",
    ),
    "REP106": (
        "clock discipline",
        "ad-hoc time.*() calls in traced modules drift from the trace "
        "clock and hide measurement sites; timestamps go through "
        "obs.clock (wall_now/mono_now) or get allowlisted",
    ),
}

#: the functions whose return values become store keys: REP102 traces
#: everything reachable from any function *named* like one of these
CONTENT_KEY_ROOTS = frozenset({
    "stable_digest", "_stable_encode", "fingerprint", "semantic_key",
    "content_hash", "pair_content_key", "cell_content_key",
})

#: bare names too generic to follow through the name-based call graph
#: (dict.get, list.append, ... would alias unrelated project functions)
_CALL_GRAPH_SKIP = frozenset({
    "get", "put", "set", "add", "pop", "append", "extend", "update",
    "copy", "items", "keys", "values", "join", "split", "strip", "sort",
    "sorted", "open", "close", "read", "write", "render", "run", "start",
    "stop", "submit", "result", "format", "replace", "lower", "upper",
    "name", "label", "walk",
})

_ROUNDING_CALLS = frozenset({
    "nextafter", "_down", "_up", "_chain_down", "_chain_up",
    "_down_arr", "_up_arr", "_chain_down_arr", "_chain_up_arr",
})

_ROUNDING_FILES = (
    "*solver/kernels.py", "*solver/tape.py", "*solver/interval.py",
)

_BLOCKING_CALLS = frozenset({
    "time.sleep", "sqlite3.connect", "open", "os.system",
    "subprocess.run", "subprocess.call", "subprocess.check_output",
    "subprocess.check_call", "subprocess.Popen",
})

_FORBIDDEN_KEY_PREFIXES = (
    "time.", "random.", "np.random.", "numpy.random.", "uuid.",
    "secrets.", "datetime.",
)
_FORBIDDEN_KEY_CALLS = frozenset({"os.getenv", "os.urandom", "time"})


def _finding(rule: str, module: Module, node: ast.AST, symbol: str, msg: str) -> Finding:
    return Finding(rule, f"{module.rel}:{node.lineno}", symbol, msg)


# ---------------------------------------------------------------------------
# REP101: rounding discipline
# ---------------------------------------------------------------------------

def _endpoint_name(name: str) -> bool:
    low = name.lower()
    return low in ("lo", "hi") or low.endswith(("lo", "hi"))


def _endpoint_array(name: str) -> bool:
    low = name.lower()
    return low in ("los", "his") or low.endswith(("los", "his"))


def _endpointish(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return _endpoint_name(node.id)
    if isinstance(node, ast.Attribute):
        return _endpoint_name(node.attr)
    if isinstance(node, ast.Subscript):
        value = node.value
        return isinstance(value, ast.Name) and _endpoint_array(value.id)
    return False


def _rep101(modules: list[Module]) -> list[Finding]:
    findings = []
    for module in modules:
        if not any(fnmatch(module.rel, g) for g in _ROUNDING_FILES):
            continue
        for info in module.functions:
            rounds = any(
                dotted.rsplit(".", 1)[-1] in _ROUNDING_CALLS
                for dotted, _ in info.calls
            )
            if rounds:
                continue
            for node in info.own_nodes():
                if (
                    isinstance(node, ast.BinOp)
                    and isinstance(
                        node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
                    )
                    and (_endpointish(node.left) or _endpointish(node.right))
                ):
                    findings.append(_finding(
                        "REP101", module, node, info.qualname,
                        "bare float endpoint arithmetic outside a "
                        "nextafter-paired helper: enclosure endpoints must "
                        "round outward",
                    ))
                    break
    return findings


# ---------------------------------------------------------------------------
# REP102: content-key purity
# ---------------------------------------------------------------------------

def _reachable_from_roots(modules: list[Module]) -> dict[FunctionInfo, str]:
    """Name-based closure of the content-key roots: info -> root name."""
    by_name: dict[str, list[FunctionInfo]] = {}
    for module in modules:
        for info in module.functions:
            by_name.setdefault(info.name, []).append(info)
    reached: dict[FunctionInfo, str] = {}
    stack = [
        (info, info.name)
        for name in sorted(CONTENT_KEY_ROOTS)
        for info in by_name.get(name, ())
    ]
    while stack:
        info, root = stack.pop()
        if info in reached:
            continue
        reached[info] = root
        for dotted, _ in info.calls:
            callee = dotted.rsplit(".", 1)[-1]
            if callee in _CALL_GRAPH_SKIP:
                continue
            for target in by_name.get(callee, ()):
                if target not in reached:
                    stack.append((target, root))
    return reached


def _rep102(modules: list[Module]) -> list[Finding]:
    findings = []
    reached = _reachable_from_roots(modules)
    for info, root in sorted(
        reached.items(), key=lambda kv: (kv[0].module.rel, kv[0].node.lineno)
    ):
        for dotted, node in info.calls:
            forbidden = (
                dotted in _FORBIDDEN_KEY_CALLS
                or any(dotted.startswith(p) for p in _FORBIDDEN_KEY_PREFIXES)
                or "environ" in dotted
            )
            if forbidden:
                findings.append(_finding(
                    "REP102", info.module, node, info.qualname,
                    f"{dotted}() is reachable from content-key root "
                    f"{root!r}: keys must not depend on time, randomness "
                    "or the environment",
                ))
        # unsorted mapping iteration is checked in the roots themselves,
        # where the emitted key order is decided
        if info.name not in CONTENT_KEY_ROOTS:
            continue
        for dotted, node in info.calls:
            if dotted.rsplit(".", 1)[-1] not in ("items", "keys", "values"):
                continue
            wrapped = False
            cur = info.module.parent(node)
            while cur is not None and not isinstance(
                cur, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                if (
                    isinstance(cur, ast.Call)
                    and isinstance(cur.func, ast.Name)
                    and cur.func.id == "sorted"
                ):
                    wrapped = True
                    break
                cur = info.module.parent(cur)
            if not wrapped:
                findings.append(_finding(
                    "REP102", info.module, node, info.qualname,
                    f"{dotted}() iterated without sorted() in a content-key "
                    "root: key bytes must not depend on mapping order",
                ))
    return findings


# ---------------------------------------------------------------------------
# REP103: asyncio hygiene
# ---------------------------------------------------------------------------

def _rep103(modules: list[Module]) -> list[Finding]:
    findings = []
    for module in modules:
        if not fnmatch(module.rel, "*service/*.py"):
            continue
        for info in module.functions:
            if not info.is_async:
                continue
            for dotted, node in info.calls:
                if dotted in _BLOCKING_CALLS:
                    findings.append(_finding(
                        "REP103", module, node, info.qualname,
                        f"blocking {dotted}() inside an async def body "
                        "stalls the event loop; wrap it in "
                        "asyncio.to_thread",
                    ))
    return findings


# ---------------------------------------------------------------------------
# REP104: fork-safety
# ---------------------------------------------------------------------------

def _rep104(modules: list[Module]) -> list[Finding]:
    findings = []
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = call_name(node.func)
            last = dotted.rsplit(".", 1)[-1]
            is_pool = last == "ProcessPoolExecutor" or (
                last == "Pool" and dotted.split(".", 1)[0] in
                ("multiprocessing", "mp")
            )
            if is_pool:
                findings.append(_finding(
                    "REP104", module, node, module.symbol_at(node),
                    "process-pool construction: forking after thread spawn "
                    "deadlocks workers -- only sanctioned (allowlisted) "
                    "eager-construction sites may do this",
                ))
    return findings


# ---------------------------------------------------------------------------
# REP105: loud validation
# ---------------------------------------------------------------------------

def _is_dataclass_decorator(node: ast.AST) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Name):
        return target.id == "dataclass"
    return isinstance(target, ast.Attribute) and target.attr == "dataclass"


def _rep105(modules: list[Module]) -> list[Finding]:
    findings = []
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.name.startswith("_") or not node.name.endswith("Config"):
                continue
            if not any(_is_dataclass_decorator(d) for d in node.decorator_list):
                continue
            has_post_init = any(
                isinstance(item, ast.FunctionDef)
                and item.name == "__post_init__"
                for item in node.body
            )
            if not has_post_init:
                findings.append(_finding(
                    "REP105", module, node, node.name,
                    "public config dataclass without __post_init__ "
                    "validation: bad values must be rejected at "
                    "construction, not deep inside the engine",
                ))
    return findings


# ---------------------------------------------------------------------------
# REP106: clock discipline
# ---------------------------------------------------------------------------

#: the modules the tracer threads spans through: a raw time.*() call here
#: is either a measurement that belongs in a span attribute or a clock
#: that can drift from the trace timestamps
_TRACED_FILES = (
    "*repro/cli.py", "*verifier/campaign.py", "*verifier/verifier.py",
    "*numerics/campaign.py", "*solver/icp.py", "*service/*.py",
    "*obs/*.py",
)

#: the one sanctioned home for raw clock reads
_CLOCK_MODULE = "*obs/clock.py"

_WALLCLOCK_CALLS = frozenset({
    "time.time", "time.monotonic", "time.perf_counter",
})


def _rep106(modules: list[Module]) -> list[Finding]:
    findings = []
    for module in modules:
        if fnmatch(module.rel, _CLOCK_MODULE):
            continue
        if not any(fnmatch(module.rel, g) for g in _TRACED_FILES):
            continue
        for info in module.functions:
            for dotted, node in info.calls:
                if dotted in _WALLCLOCK_CALLS:
                    findings.append(_finding(
                        "REP106", module, node, info.qualname,
                        f"raw {dotted}() in a traced module: use the "
                        "obs.clock helpers (wall_now/mono_now) so "
                        "trace timestamps share one clock, or allowlist "
                        "the deliberate measurement site",
                    ))
                    break
    return findings


_RULE_IMPLS = {
    "REP101": _rep101,
    "REP102": _rep102,
    "REP103": _rep103,
    "REP104": _rep104,
    "REP105": _rep105,
    "REP106": _rep106,
}


def run_rules(modules: list[Module], selected=None) -> list[Finding]:
    """Run the selected REP rules (None = all) over parsed modules."""
    findings: list[Finding] = []
    for rule, impl in _RULE_IMPLS.items():
        if selected is None or rule in selected:
            findings.extend(impl(modules))
    return findings
