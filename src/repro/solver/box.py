"""Axis-aligned boxes over named variables.

A :class:`Box` is the solver's search-state: one interval per input
variable of the DFA (rs, s, and alpha for meta-GGAs).  Boxes are also the
unit of work for the Verifier's domain-splitting recursion (Algorithm 1 of
the paper) and the leaves of the region maps in Figures 1 and 2.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Mapping

from ..expr.nodes import Var
from .interval import Interval, make


class Box:
    """Immutable mapping from variable names to intervals."""

    __slots__ = ("names", "intervals")

    def __init__(self, assignment: Mapping[str, Interval] | None = None, **kwargs):
        merged: dict[str, Interval] = {}
        if assignment:
            for key, value in assignment.items():
                merged[key.name if isinstance(key, Var) else str(key)] = value
        for key, value in kwargs.items():
            merged[key] = value
        for key, value in merged.items():
            if isinstance(value, tuple):
                merged[key] = make(*value)
        self.names: tuple[str, ...] = tuple(sorted(merged))
        self.intervals: tuple[Interval, ...] = tuple(merged[n] for n in self.names)

    @classmethod
    def _of(cls, names: tuple[str, ...], intervals: tuple[Interval, ...]) -> "Box":
        """Trusted constructor: store ``names`` and ``intervals`` as given.

        Skips the merging, sorting and tuple coercion of ``__init__``, so
        the caller owns its invariant: ``names`` is a sorted tuple of
        distinct strings and ``intervals`` the matching tuple of
        :class:`Interval` objects built by :func:`make` (empty input
        already normalised to ``EMPTY``, endpoints already floats).  Under
        that invariant the result equals -- and hashes like -- the Box
        ``__init__`` would build.  For trusted callers only: splitting,
        which reuses its parent's names, and the store decoder.
        """
        box = object.__new__(cls)
        box.names = names
        box.intervals = intervals
        return box

    @classmethod
    def from_bounds(cls, bounds: Mapping[str, tuple[float, float]]) -> "Box":
        return cls({name: make(lo, hi) for name, (lo, hi) in bounds.items()})

    # -- access ---------------------------------------------------------------
    def __getitem__(self, name: str | Var) -> Interval:
        if isinstance(name, Var):
            name = name.name
        try:
            return self.intervals[self.names.index(name)]
        except ValueError:
            raise KeyError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __len__(self) -> int:
        return len(self.names)

    def items(self) -> Iterator[tuple[str, Interval]]:
        return zip(self.names, self.intervals)

    def replace(self, name: str, interval: Interval) -> "Box":
        mapping = dict(self.items())
        mapping[name] = interval
        return Box(mapping)

    def _with(self, slot: int, interval: Interval) -> "Box":
        """This box with ``intervals[slot]`` swapped for ``interval``."""
        ivs = self.intervals
        return Box._of(self.names, ivs[:slot] + (interval,) + ivs[slot + 1 :])

    # -- geometry ---------------------------------------------------------------
    def is_empty(self) -> bool:
        return any(iv.is_empty() for iv in self.intervals)

    def max_width(self) -> float:
        return max((iv.width() for iv in self.intervals), default=0.0)

    def widest_dim(self) -> str:
        best, best_w = self.names[0], -1.0
        for name, iv in self.items():
            w = iv.width()
            if w > best_w:
                best, best_w = name, w
        return best

    def midpoint(self) -> dict[str, float]:
        return {name: iv.mid() for name, iv in self.items()}

    def volume(self) -> float:
        out = 1.0
        for iv in self.intervals:
            lo, hi = iv.lo, iv.hi
            # iv.width() inlined: NaN or lo > hi is empty, width 0
            out *= hi - lo if lo <= hi else 0.0
        return out

    def contains_point(self, point: Mapping[str, float]) -> bool:
        return all(self[name].contains(value) for name, value in point.items())

    def intersect(self, other: "Box") -> "Box":
        if set(self.names) != set(other.names):
            raise ValueError("boxes over different variables")
        return Box({n: self[n].intersect(other[n]) for n in self.names})

    # -- splitting ---------------------------------------------------------------
    def split(self, name: str | None = None) -> tuple["Box", "Box"]:
        """Bisect along ``name`` (default: widest dimension)."""
        if name is None:
            name = self.widest_dim()
        elif isinstance(name, Var):
            name = name.name
        try:
            slot = self.names.index(name)
        except ValueError:
            raise KeyError(name) from None
        left, right = _halves(self.intervals[slot])
        return self._with(slot, left), self._with(slot, right)

    def split_all(self, min_width: float | None = None) -> list["Box"]:
        """Bisect along *every* dimension (2^n children).

        This is the ``split(D)`` of Algorithm 1 in the paper, which
        "partitions each input dimension of D into two equal parts".
        Children come in the order of bisecting the dimensions one after
        another in name order: the first name varies slowest.  With
        ``min_width``, children whose ``max_width()`` is below it are left
        out and the rest keep their order; when every half is that narrow
        no child is built at all.
        """
        halves = [_halves(iv) for iv in self.intervals]
        if min_width is not None and all(
            half.width() < min_width for pair in halves for half in pair
        ):
            return []
        names = self.names
        children = [Box._of(names, combo) for combo in itertools.product(*halves)]
        if min_width is not None:
            # ``not <`` keeps a NaN width, as the threshold test at pop does
            children = [c for c in children if not c.max_width() < min_width]
        return children

    # -- comparison / display ------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return self.names == other.names and self.intervals == other.intervals

    def __hash__(self) -> int:
        return hash((self.names, self.intervals))

    def __reduce__(self):
        # pickled as its two tuples (the shared names tuple is memoised
        # once per pickle), rebuilt without re-sorting
        return _box_of, (self.names, self.intervals)

    def __repr__(self) -> str:  # pragma: no cover
        parts = ", ".join(
            f"{n}=[{iv.lo:.6g}, {iv.hi:.6g}]" for n, iv in self.items()
        )
        return f"Box({parts})"


def _halves(iv: Interval) -> tuple[Interval, Interval]:
    """The two bisection halves of ``iv``, split at ``iv.mid()``."""
    mid = iv.mid()
    return make(iv.lo, mid), make(mid, iv.hi)


#: module-level unpickling hook for :meth:`Box.__reduce__`
_box_of = Box._of
