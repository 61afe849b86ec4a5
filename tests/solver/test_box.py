"""Tests for variable boxes."""

import itertools
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solver.box import Box
from repro.solver.interval import EMPTY, Interval, make
from repro.verifier.regions import Outcome, RegionRecord
from tests.solver.oracles import sample_grid
from tests.support import hyp_examples


def box2(rs=(0.0, 5.0), s=(0.0, 5.0)) -> Box:
    return Box.from_bounds({"rs": rs, "s": s})


class TestConstruction:
    def test_from_bounds(self):
        b = box2()
        assert b["rs"].lo == 0.0 and b["rs"].hi == 5.0

    def test_kwargs_with_tuples(self):
        b = Box(x=(1.0, 2.0))
        assert b["x"] == make(1.0, 2.0)

    def test_var_keys_accepted(self):
        from repro.expr.nodes import Var
        b = Box({Var("q"): make(0.0, 1.0)})
        assert "q" in b

    def test_names_sorted(self):
        b = Box.from_bounds({"z": (0, 1), "a": (0, 1)})
        assert b.names == ("a", "z")

    def test_getitem_unknown_raises(self):
        with pytest.raises(KeyError):
            box2()["nope"]

    def test_len_iter_items(self):
        b = box2()
        assert len(b) == 2
        assert set(b) == {"rs", "s"}
        assert dict(b.items())["s"].hi == 5.0


class TestGeometry:
    def test_empty_detection(self):
        b = Box(x=make(1.0, 2.0), y=EMPTY)
        assert b.is_empty()
        assert not box2().is_empty()

    def test_max_width_and_widest(self):
        b = Box.from_bounds({"a": (0, 1), "b": (0, 10)})
        assert b.max_width() == pytest.approx(10.0)
        assert b.widest_dim() == "b"

    def test_midpoint(self):
        mid = box2().midpoint()
        assert mid == {"rs": 2.5, "s": 2.5}

    def test_volume(self):
        assert box2().volume() == pytest.approx(25.0)

    def test_contains_point(self):
        b = box2()
        assert b.contains_point({"rs": 1.0, "s": 4.9})
        assert not b.contains_point({"rs": 6.0, "s": 1.0})

    def test_intersect(self):
        a = box2(rs=(0, 3), s=(0, 3))
        c = box2(rs=(2, 5), s=(1, 2))
        out = a.intersect(c)
        assert out["rs"] == make(2.0, 3.0)
        assert out["s"] == make(1.0, 2.0)

    def test_intersect_mismatched_vars_raises(self):
        with pytest.raises(ValueError):
            box2().intersect(Box(x=(0.0, 1.0)))

    def test_replace(self):
        b = box2().replace("rs", make(1.0, 2.0))
        assert b["rs"] == make(1.0, 2.0)
        assert b["s"].hi == 5.0


class TestSplitting:
    def test_split_halves_widest_by_default(self):
        b = Box.from_bounds({"a": (0, 1), "b": (0, 10)})
        left, right = b.split()
        assert left["b"].hi == pytest.approx(5.0)
        assert right["b"].lo == pytest.approx(5.0)
        assert left["a"] == b["a"]

    def test_split_named_dimension(self):
        left, right = box2().split("rs")
        assert left["rs"].hi == pytest.approx(2.5)
        assert right["rs"].lo == pytest.approx(2.5)

    def test_split_covers_parent(self):
        b = box2()
        left, right = b.split()
        assert left.volume() + right.volume() == pytest.approx(b.volume())

    def test_split_all_2d_gives_four(self):
        children = box2().split_all()
        assert len(children) == 4
        assert sum(c.volume() for c in children) == pytest.approx(25.0)

    def test_split_all_3d_gives_eight(self):
        b = Box.from_bounds({"a": (0, 1), "b": (0, 1), "c": (0, 1)})
        assert len(b.split_all()) == 8

    def test_sample_grid(self):
        pts = sample_grid(box2(), 3)
        assert len(pts) == 9
        assert {"rs", "s"} == set(pts[0])
        rs_values = sorted({p["rs"] for p in pts})
        assert rs_values == pytest.approx([0.0, 2.5, 5.0])

    def test_sample_grid_single_point(self):
        pts = sample_grid(box2(), 1)
        assert pts == [{"rs": 2.5, "s": 2.5}]


class TestEquality:
    def test_eq_and_hash(self):
        assert box2() == box2()
        assert hash(box2()) == hash(box2())
        assert box2() != box2(rs=(0, 4))


# ---------------------------------------------------------------------------
# differential corpus: the split fast path against the chained-replace oracle
# ---------------------------------------------------------------------------

def old_replace(box: Box, name: str, interval) -> Box:
    """The replace the old split path called: a fresh sorted dict."""
    mapping = dict(box.items())
    mapping[name] = interval
    return Box(mapping)


def old_split(box: Box, name: str | None = None) -> tuple[Box, Box]:
    """Box.split before the fast path: two chained replace calls."""
    if name is None:
        name = box.widest_dim()
    iv = box[name]
    mid = iv.mid()
    return old_replace(box, name, make(iv.lo, mid)), old_replace(box, name, make(mid, iv.hi))


def old_split_all(box: Box) -> list[Box]:
    """Box.split_all before the fast path: split every box on each name in turn."""
    out = [box]
    for name in box.names:
        nxt: list[Box] = []
        for child in out:
            nxt.extend(old_split(child, name))
        out = nxt
    return out


def bits(box: Box) -> tuple:
    """Names plus the exact endpoint bits (``float.hex`` tells -0.0 from 0.0)."""
    return tuple((n, iv.lo.hex(), iv.hi.hex()) for n, iv in box.items())


#: endpoints hitting every Interval.mid branch: both infinite, one infinite
#: on either side, signed zeros, and values around the +-1 offsets there
SPECIAL = [-math.inf, math.inf, 0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 1e-300, 5e-324, 1e308]
endpoints = st.one_of(
    st.sampled_from(SPECIAL), st.floats(allow_nan=False, width=64)
)


@st.composite
def intervals(draw):
    if draw(st.integers(0, 9)) == 0:
        return EMPTY
    a, b = draw(endpoints), draw(endpoints)
    return make(min(a, b), max(a, b))


NAMES = ("alpha", "rs", "s", "zeta")
boxes = st.lists(st.sampled_from(NAMES), min_size=1, max_size=3, unique=True).flatmap(
    lambda names: st.tuples(*[intervals() for _ in names]).map(
        lambda ivs: Box(dict(zip(names, ivs)))
    )
)


class TestSplitDifferential:
    @settings(max_examples=hyp_examples(200), deadline=None)
    @given(boxes)
    def test_split_all_bit_identical_to_chained_replace(self, box):
        assert [bits(c) for c in box.split_all()] == [bits(c) for c in old_split_all(box)]

    @settings(max_examples=hyp_examples(200), deadline=None)
    @given(boxes, st.data())
    def test_split_bit_identical_to_chained_replace(self, box, data):
        name = data.draw(st.sampled_from((None,) + box.names))
        new, old = box.split(name), old_split(box, name)
        assert [bits(c) for c in new] == [bits(c) for c in old]

    @settings(max_examples=hyp_examples(200), deadline=None)
    @given(boxes, st.sampled_from([1e-3, 0.05, 0.1, 0.7, 1.0, 10.0, math.inf]))
    def test_min_width_drops_exactly_what_the_pop_check_drops(self, box, threshold):
        kept = [c for c in old_split_all(box) if not c.max_width() < threshold]
        assert [bits(c) for c in box.split_all(threshold)] == [bits(c) for c in kept]

    def test_nan_width_child_is_kept(self):
        # [inf, inf] is non-empty with width inf - inf = NaN; the pop check
        # `max_width() < t` does not drop it, so neither may the filter
        box = Box(a=make(math.inf, math.inf), b=make(0.0, 0.01))
        assert len(box.split_all(0.05)) == len(old_split_all(box)) == 4

    def test_every_mid_branch_covered(self):
        cases = [
            make(-math.inf, math.inf), make(-math.inf, 3.0), make(-math.inf, -math.inf),
            make(2.0, math.inf), make(1.0, 2.0), EMPTY,
        ]
        for a, b in itertools.product(cases, repeat=2):
            box = Box(x=a, y=b)
            assert [bits(c) for c in box.split_all()] == [bits(c) for c in old_split_all(box)]

    def test_trusted_constructor_equals_general(self):
        box = Box.from_bounds({"s": (0.0, 1.0), "rs": (2.0, 3.0)})
        clone = Box._of(box.names, box.intervals)
        assert clone == box and hash(clone) == hash(box) and bits(clone) == bits(box)


class TestPickleRoundTrip:
    @settings(max_examples=hyp_examples(100), deadline=None)
    @given(boxes)
    def test_box_and_intervals(self, box):
        back = pickle.loads(pickle.dumps(box))
        assert back == box and hash(back) == hash(box) and bits(back) == bits(box)
        for iv, back_iv in zip(box.intervals, back.intervals):
            assert type(back_iv) is Interval
            assert back_iv == iv and hash(back_iv) == hash(iv)

    def test_empty_interval(self):
        back = pickle.loads(pickle.dumps(EMPTY))
        assert back == EMPTY and hash(back) == hash(EMPTY) and back.is_empty()

    def test_region_record(self):
        record = RegionRecord(
            3, 2, box2(), Outcome.COUNTEREXAMPLE, {"rs": 1.5, "s": -0.0},
            children=[4, 5], solver_steps=17,
        )
        back = pickle.loads(pickle.dumps(record))
        assert back == record and back.outcome is Outcome.COUNTEREXAMPLE
        assert hash(back.box) == hash(record.box)
        assert not hasattr(back, "__dict__")  # slotted
