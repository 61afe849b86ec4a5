"""Outward-rounded interval arithmetic.

This is the numeric core of the delta-complete solver: every IR primitive
gets an interval extension here, and the HC4 contractor additionally uses
the inverse (backward) forms defined in :mod:`repro.solver.contractor`.

Endpoints are ordinary doubles; soundness against rounding is obtained by
widening every computed endpoint outward by one ulp (``nextafter``).  For
library-evaluated transcendentals (Lambert W via SciPy) we widen by a few
ulps, which dominates their documented error.

Conventions:

* the empty interval is the singleton :data:`EMPTY` (lo > hi),
* division and other partial operations return the natural interval
  extension over the intersection with the operation's domain; emptiness of
  that intersection yields :data:`EMPTY` (interpreted by the contractor as
  "no point of the box is in the constraint's domain").
"""

from __future__ import annotations

import math
from math import inf, isnan, nextafter

from ..scipy_compat import special

__all__ = [
    "Interval", "EMPTY", "REALS", "make", "point",
]

#: version stamp of the *interval kernel semantics*.  Folded into
#: content hashes (campaign pair keys, numerics cell keys) so that a
#: change to how enclosures are computed -- not merely how fast -- turns
#: stale store entries into cache misses instead of silently reusing
#: results produced under different rounding.  v2: ``pow_int`` switched
#: from one libm ``pow`` call per endpoint to directed-rounding
#: multiplication chains for |n| <= :data:`_POW_CHAIN_MAX`.
KERNEL_SEMANTICS_VERSION = 2

#: largest |n| lowered to a directed-rounding binary-exponentiation
#: multiplication chain.  IEEE multiplication is exactly rounded, so the
#: scalar chain and its NumPy whole-row counterpart agree bit for bit --
#: which libm ``pow`` (whose last-ulp behaviour differs between CPython's
#: libm and NumPy's SIMD loops) cannot offer.  Beyond this the chain's
#: accumulated one-ulp-per-step widening stops being worth it and both
#: executors fall back to the libm path.
_POW_CHAIN_MAX = 32


def _down(x: float) -> float:
    if x == -inf or isnan(x):
        return -inf
    return nextafter(x, -inf)


def _up(x: float) -> float:
    if x == inf or isnan(x):
        return inf
    return nextafter(x, inf)


class Interval:
    """A closed interval [lo, hi] of reals (endpoints may be infinite)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float):
        self.lo = lo
        self.hi = hi

    # -- basic queries -----------------------------------------------------
    def is_empty(self) -> bool:
        return self.lo > self.hi or isnan(self.lo) or isnan(self.hi)

    def width(self) -> float:
        if self.is_empty():
            return 0.0
        return self.hi - self.lo

    def mid(self) -> float:
        if self.lo == -inf and self.hi == inf:
            return 0.0
        if self.lo == -inf:
            return min(self.hi - 1.0, -1.0) if self.hi != inf else 0.0
        if self.hi == inf:
            return max(self.lo + 1.0, 1.0)
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return (not self.is_empty()) and self.lo <= x <= self.hi

    def is_subset(self, other: "Interval") -> bool:
        if self.is_empty():
            return True
        return other.lo <= self.lo and self.hi <= other.hi

    def overlaps(self, other: "Interval") -> bool:
        if self.is_empty() or other.is_empty():
            return False
        return self.lo <= other.hi and other.lo <= self.hi

    # -- set operations ------------------------------------------------------
    def intersect(self, other: "Interval") -> "Interval":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi or isnan(lo) or isnan(hi):
            return EMPTY
        return Interval(lo, hi)

    def hull(self, other: "Interval") -> "Interval":
        if self.is_empty():
            return other
        if other.is_empty():
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def widened(self, eps: float) -> "Interval":
        if self.is_empty():
            return self
        return Interval(self.lo - eps, self.hi + eps)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: "Interval") -> "Interval":
        if self.is_empty() or other.is_empty():
            return EMPTY
        return Interval(_down(self.lo + other.lo), _up(self.hi + other.hi))

    def __sub__(self, other: "Interval") -> "Interval":
        if self.is_empty() or other.is_empty():
            return EMPTY
        return Interval(_down(self.lo - other.hi), _up(self.hi - other.lo))

    def __neg__(self) -> "Interval":
        if self.is_empty():
            return EMPTY
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        if self.is_empty() or other.is_empty():
            return EMPTY
        products = []
        for a in (self.lo, self.hi):
            for c in (other.lo, other.hi):
                p = a * c
                if isnan(p):  # 0 * inf
                    p = 0.0
                products.append(p)
        return Interval(_down(min(products)), _up(max(products)))

    def inverse(self) -> "Interval":
        """Extended 1/x (hull of both branches when 0 is interior)."""
        if self.is_empty():
            return EMPTY
        lo, hi = self.lo, self.hi
        if lo == 0.0 and hi == 0.0:
            return EMPTY
        if lo > 0.0 or hi < 0.0:
            return Interval(_down(1.0 / hi), _up(1.0 / lo))
        if lo == 0.0:
            return Interval(_down(1.0 / hi), inf)
        if hi == 0.0:
            return Interval(-inf, _up(1.0 / lo))
        return REALS  # zero interior: hull of (-inf,1/lo] u [1/hi,inf)

    def __truediv__(self, other: "Interval") -> "Interval":
        return self * other.inverse()

    def abs(self) -> "Interval":
        if self.is_empty():
            return EMPTY
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return -self
        return Interval(0.0, max(-self.lo, self.hi))

    # -- powers ---------------------------------------------------------------
    def pow_int(self, n: int) -> "Interval":
        if self.is_empty():
            return EMPTY
        if n == 0:
            return Interval(1.0, 1.0)
        if n < 0:
            return self.pow_int(-n).inverse()
        lo, hi = self.lo, self.hi
        if n <= _POW_CHAIN_MAX:
            # directed-rounding multiplication chain on the magnitude of
            # each endpoint; signs/case split by parity as below
            if n % 2 == 1:
                return Interval(
                    _chain_down(lo, n) if lo >= 0.0 else -_chain_up(-lo, n),
                    _chain_up(hi, n) if hi >= 0.0 else -_chain_down(-hi, n),
                )
            if lo >= 0.0:
                return Interval(_chain_down(lo, n), _chain_up(hi, n))
            if hi <= 0.0:
                return Interval(_chain_down(-hi, n), _chain_up(-lo, n))
            return Interval(0.0, _chain_up(max(-lo, hi), n))
        lo_p = _pow_scalar(lo, n)
        hi_p = _pow_scalar(hi, n)
        if n % 2 == 1:
            return Interval(_down(lo_p), _up(hi_p))
        # even power
        if lo >= 0.0:
            return Interval(_down(lo_p), _up(hi_p))
        if hi <= 0.0:
            return Interval(_down(hi_p), _up(lo_p))
        return Interval(0.0, _up(max(lo_p, hi_p)))

    def pow_real(self, p: float) -> "Interval":
        """x**p for real p, on the domain x >= 0 (negative part clipped)."""
        if self.is_empty():
            return EMPTY
        x = self.intersect(NONNEG)
        if x.is_empty():
            return EMPTY
        lo, hi = x.lo, x.hi
        if p > 0.0:
            lo_p = _pow_scalar(lo, p)
            hi_p = _pow_scalar(hi, p)
            return Interval(_down(lo_p), _up(hi_p))
        # p < 0: decreasing on (0, inf); x == 0 -> +inf endpoint
        hi_p = inf if lo == 0.0 else _pow_scalar(lo, p)
        lo_p = 0.0 if hi == inf else _pow_scalar(hi, p)
        return Interval(_down(lo_p), _up(hi_p))

    def pow(self, p: float) -> "Interval":
        if float(p).is_integer() and abs(p) < 2**31:
            return self.pow_int(int(p))
        return self.pow_real(float(p))

    # -- transcendental functions ---------------------------------------------
    def exp(self) -> "Interval":
        if self.is_empty():
            return EMPTY
        # the exponential is positive: clamp the outward rounding at 0
        return Interval(
            max(0.0, _down(_exp_scalar(self.lo))), _up(_exp_scalar(self.hi))
        )

    def log(self) -> "Interval":
        if self.is_empty():
            return EMPTY
        x = self.intersect(NONNEG)
        if x.is_empty() or x.hi == 0.0 and x.lo == 0.0:
            return EMPTY
        lo = -inf if x.lo == 0.0 else _down(math.log(x.lo))
        hi = inf if x.hi == inf else _up(math.log(x.hi))
        return Interval(lo, hi)

    def sqrt(self) -> "Interval":
        return self.pow_real(0.5)

    def cbrt(self) -> "Interval":
        if self.is_empty():
            return EMPTY
        return Interval(_down(_cbrt_scalar(self.lo)), _up(_cbrt_scalar(self.hi)))

    def atan(self) -> "Interval":
        if self.is_empty():
            return EMPTY
        lo = -math.pi / 2 if self.lo == -inf else _down(math.atan(self.lo))
        hi = math.pi / 2 if self.hi == inf else _up(math.atan(self.hi))
        return Interval(lo, hi)

    def tanh(self) -> "Interval":
        if self.is_empty():
            return EMPTY
        return Interval(_down(math.tanh(self.lo)), _up(math.tanh(self.hi)))

    def erf(self) -> "Interval":
        if self.is_empty():
            return EMPTY
        return Interval(_down(math.erf(self.lo)), _up(math.erf(self.hi)))

    def sin(self) -> "Interval":
        return _trig_range(self, math.sin, offset=0.0)

    def cos(self) -> "Interval":
        return _trig_range(self, math.cos, offset=math.pi / 2)

    def lambertw(self) -> "Interval":
        """Principal branch W0, on the domain x >= -1/e (clipped)."""
        if self.is_empty():
            return EMPTY
        branch = Interval(-1.0 / math.e, inf)
        x = self.intersect(branch)
        if x.is_empty():
            return EMPTY
        lo = _lambertw_scalar(x.lo)
        hi = inf if x.hi == inf else _lambertw_scalar(x.hi)
        # widen by 4 ulps for SciPy's iteration error
        return Interval(
            nextafter(nextafter(_down(lo), -inf), -inf),
            inf if hi == inf else nextafter(nextafter(_up(hi), inf), inf),
        )

    def __repr__(self) -> str:  # pragma: no cover
        if self.is_empty():
            return "Interval(EMPTY)"
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        if self.is_empty() and other.is_empty():
            return True
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        if self.is_empty():
            return hash("empty-interval")
        return hash((self.lo, self.hi))

    def __reduce__(self):
        # the endpoints alone, not the slot-state dict pickle would write
        return Interval, (self.lo, self.hi)


EMPTY = Interval(inf, -inf)
REALS = Interval(-inf, inf)
NONNEG = Interval(0.0, inf)


def make(lo: float, hi: float) -> Interval:
    """Construct an interval, normalising empty/NaN input."""
    if isnan(lo) or isnan(hi) or lo > hi:
        return EMPTY
    return Interval(float(lo), float(hi))


def point(x: float) -> Interval:
    return Interval(float(x), float(x))


# ---------------------------------------------------------------------------
# scalar helpers with saturation
# ---------------------------------------------------------------------------

def _pow_scalar(x: float, p: float) -> float:
    if x == inf:
        return inf if p > 0 else 0.0
    if x == -inf:
        if float(p).is_integer():
            return -inf if int(p) % 2 == 1 else inf
        return inf
    try:
        return math.pow(x, p)
    except OverflowError:
        # a positive base can only overflow towards +inf (whether p is
        # positive with x > 1, or negative with 0 < x < 1); a negative base
        # only reaches here with an integer exponent (callers guard),
        # where the sign follows parity
        if x > 0.0:
            return inf
        return -inf if int(p) % 2 == 1 else inf
    except ValueError:
        # negative base, fractional exponent; callers guard against this
        return math.nan


def _chain_down(x: float, n: int) -> float:
    """Lower bound of ``x**n`` for x >= 0, n >= 1: binary exponentiation
    with every intermediate product rounded one ulp toward -inf.

    All true intermediates are non-negative, so down-rounding each one
    keeps a running lower bound; the only negative value that can appear
    is ``nextafter(0.0, -inf)`` after a product underflows, whose further
    products have magnitude below the smallest subnormal and collapse
    right back -- the final result never exceeds the true power.  The
    loop structure is mirrored verbatim by the array kernels in
    :mod:`repro.solver.kernels`; IEEE multiplication and ``nextafter``
    are deterministic, so scalar and batch agree bit for bit.
    """
    acc = None
    base = x
    while True:
        if n & 1:
            acc = base if acc is None else _down(acc * base)
        n >>= 1
        if not n:
            return acc
        base = _down(base * base)


def _chain_up(x: float, n: int) -> float:
    """Upper bound of ``x**n`` for x >= 0, n >= 1 (see :func:`_chain_down`)."""
    acc = None
    base = x
    while True:
        if n & 1:
            acc = base if acc is None else _up(acc * base)
        n >>= 1
        if not n:
            return acc
        base = _up(base * base)


def _exp_scalar(x: float) -> float:
    if x == inf:
        return inf
    if x == -inf:
        return 0.0
    try:
        return math.exp(x)
    except OverflowError:
        return inf


def _cbrt_scalar(x: float) -> float:
    if x == inf or x == -inf:
        return x
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _lambertw_scalar(x: float) -> float:
    # lazy memoised accessor: the scipy import used to run per call on the
    # contractor hot path
    if x < -1.0 / math.e:
        x = -1.0 / math.e
    return float(special("lambertw")(x).real)


#: largest endpoint magnitude for which the float critical-point enumeration
#: below is trusted.  The enumerated extremum locations ``c + k*pi`` carry a
#: rounding error of a few ulps of ``k*pi``; at magnitude M that error is
#: ~M * 2**-51, the resulting extremum-value error is ~(M * 2**-51)**2 / 2,
#: and the one-ulp outward rounding of the endpoint values (2**-53 at 1.0)
#: only absorbs it while M stays below ~2**25.  2**20 leaves a 2**10 safety
#: factor; beyond it sin/cos fall back to the trivially sound [-1, 1].
_TRIG_ENUM_MAX = 2.0**20


def _trig_range(x: Interval, fn, offset: float) -> Interval:
    """Sound, near-exact range of sin/cos over an interval.

    sin attains extrema at pi/2 + k*pi; cos at k*pi.  We enumerate the
    critical points inside the interval and append their *exact* extremum
    values (+/-1 by parity of k -- evaluating ``fn`` at the float-rounded
    critical point would lose the extremum to cancellation), falling back
    to [-1, 1] for wide inputs and for endpoint magnitudes beyond
    :data:`_TRIG_ENUM_MAX`, where ``pi/2 + k*pi`` is no longer
    representable to within the outward rounding (for very large inputs,
    not even to within a period) and the enumeration would *exclude* true
    extrema -- an unsound enclosure, the one thing this module must never
    produce.  The enumeration window is widened by one index on each side
    plus a few-ulp slack so quotient rounding can only ever *add* a
    critical point, never miss one that truly lies inside.
    """
    if x.is_empty():
        return EMPTY
    if x.hi - x.lo >= 2.0 * math.pi or x.lo == -inf or x.hi == inf:
        return Interval(-1.0, 1.0)
    if max(abs(x.lo), abs(x.hi)) > _TRIG_ENUM_MAX:
        return Interval(-1.0, 1.0)
    values = [fn(x.lo), fn(x.hi)]
    # critical points of sin: pi/2 + k pi; of cos: k pi = pi/2 + k pi - pi/2
    c = math.pi / 2 - offset
    k_lo = math.ceil((x.lo - c) / math.pi) - 1
    k_hi = math.floor((x.hi - c) / math.pi) + 1
    slack = 8.0 * math.ulp(max(abs(x.lo), abs(x.hi)) + 2.0 * math.pi)
    for k in range(k_lo, k_hi + 1):
        crit = c + k * math.pi
        if x.lo - slack <= crit <= x.hi + slack:
            # sin(pi/2 + k pi) = cos(k pi) = (-1)**k, exactly
            values.append(1.0 if k % 2 == 0 else -1.0)
    lo = max(-1.0, _down(min(values)))
    hi = min(1.0, _up(max(values)))
    return Interval(lo, hi)
