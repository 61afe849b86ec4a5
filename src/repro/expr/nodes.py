"""Hash-consed symbolic expression IR.

This module is the foundation of the XCVerifier reproduction: density
functional approximations (DFAs), exact-condition predicates, and solver
formulas are all represented as immutable, interned expression DAGs built
from the node kinds defined here.

The IR intentionally mirrors the term language of the dReal solver used in
the paper: real constants and variables, arithmetic (+, *, pow), and the
transcendental functions that appear in LibXC functionals (exp, log, sqrt,
atan, Lambert W, ...), plus an if-then-else node used to encode piecewise
functional forms such as SCAN's alpha-interpolation.

Nodes are *hash-consed*: structurally identical subexpressions are
represented by the same Python object.  This makes the representation a DAG
rather than a tree, which is what keeps symbolic derivatives of the larger
functionals tractable and lets the evaluators/contractors memoise per node.
"""

from __future__ import annotations

import math
from typing import Iterator


class Expr:
    """Base class for all expression nodes.

    Instances are immutable and interned; identity (``is``) coincides with
    structural equality, so ``__eq__`` can return operator-overloaded
    relational *atoms* without breaking hashing (we keep default identity
    hash/eq and expose :meth:`same` for structural equality).
    """

    __slots__ = ("_key", "_depth", "_size")

    # -- interning ---------------------------------------------------------
    _intern_table: dict[tuple, "Expr"] = {}

    @classmethod
    def _intern(cls, key: tuple, factory) -> "Expr":
        table = Expr._intern_table
        node = table.get(key)
        if node is None:
            node = factory()
            node._key = key
            node._depth = 1 + max((c._depth for c in node.children()), default=0)
            node._size = 1 + sum(c._size for c in node.children())
            table[key] = node
        return node

    # -- structural queries -------------------------------------------------
    def children(self) -> tuple["Expr", ...]:
        return ()

    def same(self, other: "Expr") -> bool:
        """Structural equality (identical object thanks to interning)."""
        return self is other

    @property
    def depth(self) -> int:
        """Height of the expression DAG."""
        return self._depth

    @property
    def size(self) -> int:
        """Number of nodes counted with multiplicity (tree size)."""
        return self._size

    def dag_size(self) -> int:
        """Number of *unique* nodes in the DAG."""
        seen: set[int] = set()
        stack: list[Expr] = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.extend(node.children())
        return len(seen)

    def operation_count(self) -> int:
        """Count of non-leaf operations (paper reports DFA complexity this way)."""
        count = 0
        for node in self.walk():
            if not isinstance(node, (Const, Var)):
                count += 1
        return count

    def walk(self) -> Iterator["Expr"]:
        """Iterate over unique nodes in topological order (children first)."""
        # Iterative postorder over a DAG: state 0 = unvisited, 1 = expanded
        # (children scheduled), 2 = emitted.
        state: dict[int, int] = {}
        order: list[Expr] = []
        stack: list[Expr] = [self]
        while stack:
            node = stack[-1]
            st = state.get(id(node), 0)
            if st == 0:
                state[id(node)] = 1
                for child in node.children():
                    if state.get(id(child), 0) != 2:
                        stack.append(child)
            else:
                stack.pop()
                if st == 1:
                    state[id(node)] = 2
                    order.append(node)
        return iter(order)

    def free_vars(self) -> frozenset["Var"]:
        out = set()
        for node in self.walk():
            if isinstance(node, Var):
                out.add(node)
        return frozenset(out)

    def contains(self, sub: "Expr") -> bool:
        return any(node is sub for node in self.walk())

    # -- operator overloading ------------------------------------------------
    def __add__(self, other):
        from .builder import add
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        from .builder import sub
        return sub(self, other)

    def __rsub__(self, other):
        from .builder import sub
        return sub(other, self)

    def __mul__(self, other):
        from .builder import mul
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        from .builder import div
        return div(self, other)

    def __rtruediv__(self, other):
        from .builder import div
        return div(other, self)

    def __pow__(self, other):
        from .builder import pow_
        return pow_(self, other)

    def __rpow__(self, other):
        from .builder import pow_
        return pow_(other, self)

    def __neg__(self):
        from .builder import neg
        return neg(self)

    def __pos__(self):
        return self

    # relational operators build Rel atoms (see constraint module)
    def le(self, other) -> "Rel":
        return Rel.make(self, other, "<=")

    def lt(self, other) -> "Rel":
        return Rel.make(self, other, "<")

    def ge(self, other) -> "Rel":
        return Rel.make(self, other, ">=")

    def gt(self, other) -> "Rel":
        return Rel.make(self, other, ">")

    def eq(self, other) -> "Rel":
        return Rel.make(self, other, "==")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        from .printer import to_str
        return to_str(self)


class Const(Expr):
    """A real constant (stored as a Python float)."""

    __slots__ = ("value",)

    def __new__(cls, value: float):
        value = float(value)
        if value == 0.0:
            # normalise -0.0 to +0.0 so interning is canonical
            value = 0.0

        def factory():
            node = object.__new__(cls)
            node.value = value
            return node

        return Expr._intern(("const", value), factory)

    def is_integer(self) -> bool:
        return float(self.value).is_integer() and abs(self.value) < 2**53


class Var(Expr):
    """A named real variable, optionally tagged non-negative.

    The ``nonneg`` tag records a physical domain fact (e.g. the reduced
    gradient s >= 0 and Wigner-Seitz radius rs > 0) used by the
    canonicalising constructors (:mod:`repro.expr.builder`) to justify
    power-law rewrites that are unsound on all of R.
    """

    __slots__ = ("name", "nonneg")

    def __new__(cls, name: str, nonneg: bool = False):
        def factory():
            node = object.__new__(cls)
            node.name = name
            node.nonneg = nonneg
            return node

        return Expr._intern(("var", name, nonneg), factory)


class Add(Expr):
    """N-ary sum.  Built only through :func:`repro.expr.builder.add`."""

    __slots__ = ("args",)

    def __new__(cls, args: tuple[Expr, ...]):
        args = tuple(args)

        def factory():
            node = object.__new__(cls)
            node.args = args
            return node

        return Expr._intern(("add",) + tuple(id(a) for a in args), factory)

    def children(self):
        return self.args


class Mul(Expr):
    """N-ary product.  Built only through :func:`repro.expr.builder.mul`."""

    __slots__ = ("args",)

    def __new__(cls, args: tuple[Expr, ...]):
        args = tuple(args)

        def factory():
            node = object.__new__(cls)
            node.args = args
            return node

        return Expr._intern(("mul",) + tuple(id(a) for a in args), factory)

    def children(self):
        return self.args


class Pow(Expr):
    """``base ** exponent`` with an arbitrary expression exponent."""

    __slots__ = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: Expr):
        def factory():
            node = object.__new__(cls)
            node.base = base
            node.exponent = exponent
            return node

        return Expr._intern(("pow", id(base), id(exponent)), factory)

    def children(self):
        return (self.base, self.exponent)


#: unary function names supported by the IR.  Every name here must have a
#: derivative rule, an interval extension, a scalar evaluation, a NumPy
#: code-generation template and a SymPy translation.
UNARY_FUNCTIONS = (
    "exp",
    "log",
    "sqrt",
    "cbrt",
    "atan",
    "abs",
    "lambertw",
    "sin",
    "cos",
    "tanh",
    "erf",
)


class Func(Expr):
    """Application of a built-in unary function."""

    __slots__ = ("name", "arg")

    def __new__(cls, name: str, arg: Expr):
        if name not in UNARY_FUNCTIONS:
            raise ValueError(f"unknown function {name!r}")

        def factory():
            node = object.__new__(cls)
            node.name = name
            node.arg = arg
            return node

        return Expr._intern(("func", name, id(arg)), factory)

    def children(self):
        return (self.arg,)


class Rel:
    """A relational atom ``lhs <op> rhs`` with op in {<=, <, >=, >, ==}.

    Atoms are the leaves of solver formulas *and* the conditions of
    :class:`Ite` nodes.  They are normalised to ``expr <op> 0`` form by the
    constraint layer; here we keep both sides for readability.
    """

    __slots__ = ("lhs", "rhs", "op")

    OPS = ("<=", "<", ">=", ">", "==")

    _intern_table: dict[tuple, "Rel"] = {}

    def __init__(self, lhs: Expr, rhs: Expr, op: str):
        self.lhs = lhs
        self.rhs = rhs
        self.op = op

    @classmethod
    def make(cls, lhs, rhs, op: str) -> "Rel":
        from .builder import as_expr
        lhs = as_expr(lhs)
        rhs = as_expr(rhs)
        if op not in cls.OPS:
            raise ValueError(f"unknown relational operator {op!r}")
        key = (id(lhs), id(rhs), op)
        atom = cls._intern_table.get(key)
        if atom is None:
            atom = cls(lhs, rhs, op)
            cls._intern_table[key] = atom
        return atom

    def negate(self) -> "Rel":
        flip = {"<=": ">", "<": ">=", ">=": "<", ">": "<=", "==": "=="}
        if self.op == "==":
            raise ValueError("cannot negate an equality atom into a single atom")
        return Rel.make(self.lhs, self.rhs, flip[self.op])

    def gap(self) -> Expr:
        """Return ``lhs - rhs`` (the residual whose sign decides the atom)."""
        from .builder import sub
        return sub(self.lhs, self.rhs)

    def holds(self, value: float, tol: float = 0.0) -> bool:
        """Check the atom given the numeric value of ``lhs - rhs``.

        ``tol`` implements delta-weakening: the atom is accepted if it holds
        after relaxing the threshold by ``tol``.
        """
        if self.op == "<=":
            return value <= tol
        if self.op == "<":
            return value < tol
        if self.op == ">=":
            return value >= -tol
        if self.op == ">":
            return value > -tol
        return abs(value) <= tol

    def compare(self, lhs: float, rhs: float) -> bool:
        """Check the atom by direct comparison of the operand values.

        Agrees with ``holds(lhs - rhs)`` at ``tol=0`` for finite operands,
        and unlike the rounded difference stays correct when both operands
        are the same infinity (``inf - inf`` is NaN and fails every
        comparison).  This is how Ite guards are decided everywhere
        (tree/tape scalar evaluators and the compiled NumPy kernel).
        """
        if self.op == "<=":
            return lhs <= rhs
        if self.op == "<":
            return lhs < rhs
        if self.op == ">=":
            return lhs >= rhs
        if self.op == ">":
            return lhs > rhs
        return lhs == rhs

    def __repr__(self) -> str:  # pragma: no cover
        from .printer import to_str
        return f"({to_str(self.lhs)} {self.op} {to_str(self.rhs)})"


class Ite(Expr):
    """If-then-else on a relational condition.

    Used by the symbolic-execution front end to encode Python ``if``
    statements in functional model code (e.g. SCAN's piecewise switching
    function f(alpha)); handled natively by the interval contractors.
    """

    __slots__ = ("cond", "then", "orelse")

    def __new__(cls, cond: Rel, then: Expr, orelse: Expr):
        def factory():
            node = object.__new__(cls)
            node.cond = cond
            node.then = then
            node.orelse = orelse
            return node

        return Expr._intern(
            ("ite", id(cond.lhs), id(cond.rhs), cond.op, id(then), id(orelse)),
            factory,
        )

    def children(self):
        # the condition's operands participate in the DAG as well
        return (self.cond.lhs, self.cond.rhs, self.then, self.orelse)


# -- convenience singletons --------------------------------------------------

ZERO = Const(0.0)
ONE = Const(1.0)
TWO = Const(2.0)
HALF = Const(0.5)
NEG_ONE = Const(-1.0)
PI = Const(math.pi)


def is_const(node: Expr, value: float | None = None) -> bool:
    if not isinstance(node, Const):
        return False
    return value is None or node.value == value


def is_nonneg(node: Expr) -> bool:
    """Structural non-negativity check used to justify pow rewrites.

    Sound but incomplete: returns True only when non-negativity follows
    syntactically (nonneg vars, abs/exp/sqrt images, even powers, products
    and sums of non-negative factors/terms).
    """
    if isinstance(node, Const):
        return node.value >= 0.0
    if isinstance(node, Var):
        return node.nonneg
    if isinstance(node, Func):
        return node.name in ("exp", "sqrt", "abs") or (
            node.name == "cbrt" and is_nonneg(node.arg)
        )
    if isinstance(node, Add):
        return all(is_nonneg(a) for a in node.args)
    if isinstance(node, Mul):
        # all factors nonneg, or an even count of known-nonpositive... keep simple
        return all(is_nonneg(a) for a in node.args)
    if isinstance(node, Pow):
        if is_nonneg(node.base):
            return True
        if isinstance(node.exponent, Const) and node.exponent.is_integer():
            return int(node.exponent.value) % 2 == 0
        return False
    return False


def is_positive(node: Expr) -> bool:
    """Structural strict-positivity check (sound, incomplete)."""
    if isinstance(node, Const):
        return node.value > 0.0
    if isinstance(node, Func):
        return node.name == "exp"
    if isinstance(node, Add):
        return all(is_nonneg(a) for a in node.args) and any(
            is_positive(a) for a in node.args
        )
    if isinstance(node, Mul):
        return all(is_positive(a) for a in node.args)
    if isinstance(node, Pow):
        return is_positive(node.base)
    return False
