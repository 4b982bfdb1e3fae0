"""Tests for stage scoping, report serialization, and record comparison."""

import json

import pytest

from pce.errors import ComparisonError, IncompleteRecordError, InstrumentationError
from pce.profiling import (
    ProfileRecord,
    STAGE_PARENT,
    check_same_batch,
    compare,
    parse_report,
    report,
)


class FakeClock:
    def __init__(self):
        self.now = 0

    def tick(self, ns):
        self.now += ns

    def __call__(self):
        return self.now


def make_record():
    clock = FakeClock()
    return ProfileRecord(clock=clock), clock


class TestScoping:
    def test_accumulates_duration_and_iterations(self):
        rec, clock = make_record()
        rec.push("Total")
        for _ in range(2):
            rec.push("Pre-compile")
            clock.tick(10)
            rec.pop("Pre-compile")
        clock.tick(5)
        rec.pop("Total")
        assert rec.duration_ns("Pre-compile") == 20
        assert rec.iterations("Pre-compile") == 2
        assert rec.duration_ns("Total") == 25

    def test_nested_stage_under_wrong_parent_rejected(self):
        rec, _ = make_record()
        rec.push("Total")
        with pytest.raises(InstrumentationError):
            rec.push("Load env.")  # parent is Load definition, not Total

    def test_get_circuit_nests_under_pre_compile(self):
        rec, clock = make_record()
        with rec.scope("Total"):
            with rec.scope("Pre-compile"):
                with rec.scope("Get circuit"):
                    clock.tick(3)
        assert rec.iterations("Get circuit") == 1
        assert rec.root.children["Pre-compile"].children["Get circuit"].ns == 3

    def test_unknown_stage_rejected(self):
        rec, _ = make_record()
        with pytest.raises(InstrumentationError):
            rec.push("Totally Made Up")

    def test_pop_mismatch_rejected(self):
        rec, _ = make_record()
        rec.push("Total")
        with pytest.raises(InstrumentationError):
            rec.pop("Pre-compile")

    def test_non_root_cannot_open_stack(self):
        rec, _ = make_record()
        with pytest.raises(InstrumentationError):
            rec.push("Compile")

    def test_mark_zero_records_entered_stage(self):
        rec, _ = make_record()
        rec.mark_zero("Active")
        assert rec.iterations("Active") == 1
        assert rec.duration_ns("Active") == 0

    def test_parent_child_table_is_closed(self):
        for child, parent in STAGE_PARENT.items():
            assert parent == "Total" or parent in STAGE_PARENT

    def test_parent_duration_at_least_children(self):
        rec, clock = make_record()
        with rec.scope("Total"):
            with rec.scope("Build Run"):
                with rec.scope("Compile"):
                    clock.tick(10)
                with rec.scope("Assemble"):
                    clock.tick(4)
                clock.tick(1)
        build = rec.root.children["Build Run"]
        assert build.ns >= sum(c.ns for c in build.children.values())


class TestReportSerialization:
    def build_sample(self):
        rec, clock = make_record()
        with rec.scope("Total"):
            with rec.scope("Build Run"):
                for _ in range(3):
                    with rec.scope("Compile"):
                        clock.tick(7)
            rec.mark_zero("Active")
        return rec

    def test_round_trip(self):
        rec = self.build_sample()
        text = report(rec, meta={"mode": "pce", "batch_hash": "abc"})
        parsed, meta = parse_report(text)
        assert parsed == rec
        assert meta == {"mode": "pce", "batch_hash": "abc"}

    def test_deterministic_output(self):
        rec = self.build_sample()
        assert report(rec) == report(rec)

    def test_empty_record_reports_zero_total(self):
        rec, _ = make_record()
        text = report(rec)
        parsed, _ = parse_report(text)
        assert parsed.duration_ns("Total") == 0

    def test_every_stage_in_canonical_order(self):
        # the order profile.json has always used; stages are added in
        # reverse so insertion order cannot produce it by accident
        canonical = [
            "Total", "Pre-compile", "Get circuit", "Transpile", "RIP", "Active",
            "Build Run", "Compile", "Assemble", "RunAll on Host", "Run on Host",
            "Load Batch", "Load circuit", "Load definition", "Load env.",
            "Load freq.", "Load zero", "Load para", "Run Batch", "Start Run",
            "Get data", "Stitch", "Data Sort", "Client/Server",
        ]
        rec, _ = make_record()
        for name in reversed(canonical):
            rec.add_computed(name, 1)
        names = []

        def walk(node):
            names.append(node["name"])
            for child in node["children"]:
                walk(child)

        walk(json.loads(report(rec))["stages"])
        assert names == canonical
        assert [r.name for r in compare(rec, rec).rows] == canonical

    def test_unparseable_report(self):
        with pytest.raises(IncompleteRecordError):
            parse_report("not json at all")

    def test_unknown_stage_name_rejected(self):
        text = report(self.build_sample()).replace('"Compile"', '"Compiled"')
        with pytest.raises(IncompleteRecordError, match="unknown stage 'Compiled'"):
            parse_report(text)

    def test_stage_under_wrong_parent_rejected(self):
        doc = json.loads(report(self.build_sample()))
        build_run = next(c for c in doc["stages"]["children"] if c["name"] == "Build Run")
        doc["stages"]["children"].append(build_run["children"].pop())  # Compile under Total
        with pytest.raises(IncompleteRecordError, match="'Compile' under 'Total'"):
            parse_report(json.dumps(doc))

    def test_duplicate_stage_rejected(self):
        # a second Compile under Build Run must not replace the first one's counts
        doc = json.loads(report(self.build_sample()))
        build_run = next(c for c in doc["stages"]["children"] if c["name"] == "Build Run")
        build_run["children"].append({**build_run["children"][0], "iterations": 7})
        with pytest.raises(IncompleteRecordError, match="'Compile' listed twice under 'Build Run'"):
            parse_report(json.dumps(doc))

    def test_meta_not_an_object_rejected(self):
        doc = json.loads(report(self.build_sample(), meta={"mode": "pce"}))
        doc["meta"] = ["mode", "pce"]
        with pytest.raises(IncompleteRecordError, match="meta"):
            parse_report(json.dumps(doc))


class TestCompare:
    def synthetic(self, compile_ns, compile_iters, startrun_ns, total_ns):
        rec, _ = make_record()
        rec.add_computed("Total", total_ns, 1)
        rec.add_computed("Compile", compile_ns, compile_iters)
        rec.add_computed("Start Run", startrun_ns, 1)
        return rec

    def test_identical_records_ratio_one(self):
        a = self.synthetic(100, 4, 50, 1000)
        b = self.synthetic(100, 4, 50, 1000)
        table = compare(a, b)
        assert table.row("Compile").ratio == pytest.approx(1.0)
        assert table.classical_reduction_pct == pytest.approx(0.0)
        assert table.overall_speedup == pytest.approx(1.0)

    def test_hand_computed_ratios(self):
        base = self.synthetic(compile_ns=2000, compile_iters=20, startrun_ns=400, total_ns=3000)
        pce = self.synthetic(compile_ns=100, compile_iters=1, startrun_ns=400, total_ns=900)
        table = compare(base, pce)
        assert table.row("Compile").ratio == pytest.approx(20.0)
        assert table.row("Compile").baseline_iters == 20
        assert table.row("Compile").pce_iters == 1
        # classical time excludes Start Run
        assert table.baseline_classical_ns == 2600
        assert table.pce_classical_ns == 500
        assert table.classical_reduction_pct == pytest.approx(100 * 2100 / 2600)
        assert table.classical_speedup == pytest.approx(2600 / 500)
        assert table.overall_speedup == pytest.approx(3000 / 900)

    def test_iteration_ratio_from_grouping(self):
        base = self.synthetic(compile_ns=1540, compile_iters=1540, startrun_ns=0, total_ns=2000)
        pce = self.synthetic(compile_ns=77, compile_iters=77, startrun_ns=0, total_ns=500)
        table = compare(base, pce)
        assert table.row("Compile").baseline_iters / table.row("Compile").pce_iters == 20

    def test_missing_total_rejected(self):
        rec, _ = make_record()
        good = self.synthetic(1, 1, 1, 10)
        with pytest.raises(IncompleteRecordError):
            compare(rec, good)

    def test_text_table_renders(self):
        base = self.synthetic(10, 2, 3, 100)
        pce = self.synthetic(5, 1, 3, 50)
        text = compare(base, pce).to_text()
        assert "Compile" in text and "classical reduction" in text


class TestBatchIdentity:
    def test_same_batch_ok(self):
        check_same_batch({"batch_hash": "x"}, {"batch_hash": "x"})

    def test_different_batch_rejected(self):
        with pytest.raises(ComparisonError):
            check_same_batch({"batch_hash": "x"}, {"batch_hash": "y"})
