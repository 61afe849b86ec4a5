"""Tests for region records and report aggregation."""

import gc
import math
import multiprocessing
import os
import pickle
import sys
import threading
from concurrent.futures import ProcessPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from repro.solver.box import Box
from repro.solver.interval import make
from repro.verifier.regions import (
    Outcome,
    RegionRecord,
    SYMBOL_COUNTEREXAMPLE,
    SYMBOL_PARTIAL,
    SYMBOL_UNKNOWN,
    SYMBOL_VERIFIED,
    VerificationReport,
    gc_paused,
)

from tests.support import hyp_examples


def make_report(records, domain=None):
    return VerificationReport(
        functional_name="TEST",
        condition_id="EC1",
        domain=domain or Box.from_bounds({"x": (0.0, 4.0)}),
        records=records,
    )


def rec(index, lo, hi, outcome, depth=0, children=None):
    return RegionRecord(
        index=index,
        depth=depth,
        box=Box.from_bounds({"x": (lo, hi)}),
        outcome=outcome,
        children=children or [],
    )


class TestAreaAccounting:
    def test_single_verified_record(self):
        report = make_report([rec(0, 0.0, 4.0, Outcome.VERIFIED)])
        assert report.area_fractions()[Outcome.VERIFIED] == pytest.approx(1.0)
        assert report.classification() == SYMBOL_VERIFIED

    def test_children_paint_over_parent(self):
        parent = rec(0, 0.0, 4.0, Outcome.TIMEOUT, children=[1, 2])
        left = rec(1, 0.0, 2.0, Outcome.VERIFIED, depth=1)
        right = rec(2, 2.0, 4.0, Outcome.COUNTEREXAMPLE, depth=1)
        right.model = {"x": 3.0}
        report = make_report([parent, left, right])
        fractions = report.area_fractions()
        assert fractions[Outcome.VERIFIED] == pytest.approx(0.5)
        assert fractions[Outcome.COUNTEREXAMPLE] == pytest.approx(0.5)
        assert fractions[Outcome.TIMEOUT] == pytest.approx(0.0)

    def test_partial_children_leave_parent_area(self):
        parent = rec(0, 0.0, 4.0, Outcome.TIMEOUT, children=[1])
        left = rec(1, 0.0, 2.0, Outcome.VERIFIED, depth=1)
        report = make_report([parent, left])
        fractions = report.area_fractions()
        assert fractions[Outcome.TIMEOUT] == pytest.approx(0.5)
        assert fractions[Outcome.VERIFIED] == pytest.approx(0.5)

    def test_own_volume_never_negative(self):
        parent = rec(0, 0.0, 1.0, Outcome.TIMEOUT, children=[1, 2])
        # children that (incorrectly) overlap more than the parent volume:
        # the parent's own volume clamps at zero instead of going negative
        c1 = rec(1, 0.0, 1.0, Outcome.VERIFIED, depth=1)
        c2 = rec(2, 0.0, 1.0, Outcome.VERIFIED, depth=1)
        domain = Box.from_bounds({"x": (0.0, 1.0)})
        fractions = make_report([parent, c1, c2], domain).area_fractions()
        assert fractions[Outcome.TIMEOUT] == 0.0
        assert fractions[Outcome.VERIFIED] == 2.0


class TestClassification:
    def test_counterexample_takes_precedence(self):
        records = [
            rec(0, 0.0, 4.0, Outcome.TIMEOUT, children=[1, 2]),
            rec(1, 0.0, 2.0, Outcome.VERIFIED, depth=1),
            rec(2, 2.0, 4.0, Outcome.COUNTEREXAMPLE, depth=1),
        ]
        assert make_report(records).classification() == SYMBOL_COUNTEREXAMPLE

    def test_partial_symbol(self):
        records = [
            rec(0, 0.0, 4.0, Outcome.TIMEOUT, children=[1]),
            rec(1, 0.0, 2.0, Outcome.VERIFIED, depth=1),
        ]
        assert make_report(records).classification() == SYMBOL_PARTIAL

    def test_unknown_symbol(self):
        records = [rec(0, 0.0, 4.0, Outcome.TIMEOUT)]
        assert make_report(records).classification() == SYMBOL_UNKNOWN

    def test_inconclusive_only_is_unknown(self):
        records = [rec(0, 0.0, 4.0, Outcome.INCONCLUSIVE)]
        assert make_report(records).classification() == SYMBOL_UNKNOWN


class TestReportHelpers:
    def test_counterexample_bbox(self):
        records = [
            rec(0, 0.0, 4.0, Outcome.TIMEOUT, children=[1, 2]),
            rec(1, 1.0, 2.0, Outcome.COUNTEREXAMPLE, depth=1),
            rec(2, 3.0, 4.0, Outcome.COUNTEREXAMPLE, depth=1),
        ]
        bbox = make_report(records).counterexample_bbox()
        assert bbox["x"].lo == pytest.approx(1.0)
        assert bbox["x"].hi == pytest.approx(4.0)

    def test_counterexample_bbox_none_when_clean(self):
        report = make_report([rec(0, 0.0, 4.0, Outcome.VERIFIED)])
        assert report.counterexample_bbox() is None

    def test_summary_mentions_key_facts(self):
        report = make_report([rec(0, 0.0, 4.0, Outcome.VERIFIED)])
        text = report.summary()
        assert "TEST/EC1" in text
        assert "OK" in text


class TestIdentity:
    def test_identical_to_self_and_copy(self):
        records = [
            rec(0, 0.0, 4.0, Outcome.TIMEOUT, children=[1]),
            rec(1, 0.0, 2.0, Outcome.VERIFIED, depth=1),
        ]
        a = make_report(records)
        b = make_report(list(records))
        assert a.identical_to(a)
        assert a.identical_to(b) and b.identical_to(a)

    def test_identity_is_bit_exact(self):
        base = [rec(0, 0.0, 4.0, Outcome.VERIFIED)]
        a = make_report(base)
        assert not a.identical_to(make_report([rec(0, 0.0, 4.0, Outcome.TIMEOUT)]))
        # one ulp of difference in an endpoint breaks identity
        import math
        shifted = rec(0, 0.0, math.nextafter(4.0, 5.0), Outcome.VERIFIED)
        assert not a.identical_to(make_report([shifted]))
        longer = make_report(base + [rec(1, 0.0, 2.0, Outcome.VERIFIED, depth=1)])
        assert not a.identical_to(longer)

    def test_identity_tracks_totals_not_elapsed(self):
        a = make_report([rec(0, 0.0, 4.0, Outcome.VERIFIED)])
        b = make_report([rec(0, 0.0, 4.0, Outcome.VERIFIED)])
        b.elapsed_seconds = 123.0
        assert a.identical_to(b)  # wall-clock excluded
        b.total_solver_steps = 5
        assert not a.identical_to(b)

    def test_max_depth(self):
        assert make_report([]).max_depth() == -1
        report = make_report(
            [rec(0, 0.0, 4.0, Outcome.TIMEOUT), rec(1, 0.0, 2.0, Outcome.TIMEOUT, depth=3)]
        )
        assert report.max_depth() == 3


# ---------------------------------------------------------------------------
# area_fractions against the per-record formula it replaced
# ---------------------------------------------------------------------------

def _width_volume(box: Box) -> float:
    out = 1.0
    for iv in box.intervals:
        out *= iv.width()
    return out


def reference_area_fractions(report: VerificationReport) -> dict[Outcome, float]:
    """The old per-record formula, kept as the oracle.

    Each record's own volume is its box volume minus each child's box
    volume, in child order, clamped at zero; volumes multiply
    ``Interval.width()``.
    """
    total = _width_volume(report.domain)
    fractions = {outcome: 0.0 for outcome in Outcome}
    for record in report.records:
        vol = _width_volume(record.box)
        for child_index in record.children:
            vol -= _width_volume(report.records[child_index].box)
        fractions[record.outcome] += max(vol, 0.0)
    if total > 0.0:
        for outcome in fractions:
            fractions[outcome] /= total
    return fractions


_endpoint = st.one_of(
    st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 1.0, 0.1, 1e-300, 1e300, math.inf, -math.inf]),
)


@st.composite
def _box(draw):
    bounds = {}
    for name in ("x", "y"):
        lo, hi = sorted((draw(_endpoint), draw(_endpoint)))
        if draw(st.booleans()):
            hi = lo  # zero width
        bounds[name] = make(lo, hi)
    return Box(bounds)


@st.composite
def _report(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    records = []
    for index in range(n):
        # children may be any records, repeated, larger than the parent
        children = draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=4))
        records.append(
            RegionRecord(index, 0, draw(_box()), draw(st.sampled_from(list(Outcome))),
                         children=children)
        )
    return VerificationReport("T", "EC1", draw(_box()), records)


def _hex(fractions):
    return {outcome: value.hex() for outcome, value in fractions.items()}


class TestAreaFractionsOracle:
    @given(_report())
    @settings(max_examples=hyp_examples(300), deadline=None)
    def test_bit_identical_to_per_record_formula(self, report):
        assert _hex(report.area_fractions()) == _hex(reference_area_fractions(report))

    def test_edge_cases_bit_identical(self):
        inf = math.inf
        cases = [
            # children larger than the parent: the clamp
            [rec(0, 0.0, 1.0, Outcome.TIMEOUT, children=[1, 2]),
             rec(1, -1.0, 1.0, Outcome.VERIFIED), rec(2, 0.0, 3.0, Outcome.VERIFIED)],
            # zero-width boxes
            [rec(0, 2.0, 2.0, Outcome.TIMEOUT, children=[1]),
             rec(1, 2.0, 2.0, Outcome.VERIFIED)],
            # infinite widths: inf, and inf - inf = nan
            [rec(0, -inf, inf, Outcome.TIMEOUT, children=[1]),
             rec(1, 0.0, inf, Outcome.INCONCLUSIVE)],
            [rec(0, 0.0, 1.0, Outcome.TIMEOUT, children=[1]),
             rec(1, inf, inf, Outcome.VERIFIED)],
        ]
        for records in cases:
            for domain in (None, Box.from_bounds({"x": (0.0, 0.0)}),
                           Box.from_bounds({"x": (0.0, inf)})):
                report = make_report(records, domain)
                assert _hex(report.area_fractions()) == _hex(reference_area_fractions(report))


# ---------------------------------------------------------------------------
# gc_paused
# ---------------------------------------------------------------------------

class TestGcPaused:
    def test_pauses_and_restores(self):
        assert gc.isenabled()
        with gc_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with gc_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_nested(self):
        with gc_paused():
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()  # the outer pause still holds
        assert gc.isenabled()

    def test_overlapping_threads(self):
        # A enters, B enters, A leaves (B still paused), B leaves
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def first():
            with gc_paused():
                a_in.set()
                b_in.wait(10)
            a_out.set()

        def second():
            a_in.wait(10)
            with gc_paused():
                b_in.set()
                a_out.wait(10)
                seen["after_a_left"] = gc.isenabled()

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == {"after_a_left": False}
        assert gc.isenabled()

    def test_many_threads_never_see_the_collector_on_inside_a_pause(self):
        failures = []

        def hammer():
            for _ in range(300):
                with gc_paused():
                    if gc.isenabled():
                        failures.append("enabled inside a pause")
                    with gc_paused():
                        pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert gc.isenabled()

    def test_fork_inside_another_threads_pause_leaves_the_child_collecting(self):
        holding, release = threading.Event(), threading.Event()

        def holder():
            with gc_paused():
                holding.set()
                release.wait(30)

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert holding.wait(30)
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child: report, then leave without cleanup
                with gc_paused():
                    paused = not gc.isenabled()
                os.write(write, b"%d%d" % (paused, gc.isenabled()))
                os._exit(0)
            os.close(write)
            os.waitpid(pid, 0)
            reply = os.read(read, 2)
            os.close(read)
            assert not gc.isenabled()  # the parent's pause still holds
        finally:
            release.set()
            thread.join(30)
        assert reply == b"11"  # the child paused and then collected again
        assert gc.isenabled()

    def test_caller_disabled_gc_stays_disabled(self):
        gc.disable()
        try:
            with gc_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# pickling a report (the worker -> parent transfer)
# ---------------------------------------------------------------------------

def _pickle_sample_report() -> VerificationReport:
    records = [
        rec(0, 0.0, 4.0, Outcome.TIMEOUT, children=[1, 2]),
        rec(1, 0.0, 2.0, Outcome.VERIFIED, depth=1),
        rec(2, 2.0, 4.0, Outcome.COUNTEREXAMPLE, depth=1),
    ]
    records[2].model = {"x": 3.0}
    records[2].solver_steps = 7
    report = make_report(records)
    report.total_solver_steps = 7
    report.elapsed_seconds = 0.5
    report.compile_seconds = 0.25
    report.budget_exhausted = True
    return report


class TestReportPickle:
    def test_roundtrip_identical(self):
        report = _pickle_sample_report()
        back = pickle.loads(pickle.dumps(report))
        assert back.identical_to(report)
        assert (back.functional_name, back.condition_id) == ("TEST", "EC1")
        assert (back.elapsed_seconds, back.compile_seconds) == (0.5, 0.25)
        assert gc.isenabled()

    def test_through_fork_pool(self):
        pool = ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork"))
        with pool:
            back = pool.submit(_pickle_sample_report).result()
        assert back.identical_to(_pickle_sample_report())
        assert back.compile_seconds == 0.25
        assert gc.isenabled()
