"""Tests for stage scoping, report serialization, and record comparison."""

import hashlib
import json

import pytest

from pce.asm import MODELED_ASSEMBLE_NS
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
        assert rec.duration_ns("Get circuit") == 3

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
        children = [n for n, parent in STAGE_PARENT.items() if parent == "Build Run"]
        assert rec.duration_ns("Build Run") >= sum(rec.duration_ns(n) for n in children)


def every_stage_record():
    """A record with an entry for every stage: scoped, computed and mark_zero
    stages, opened out of canonical order, each with its own duration."""
    clock = FakeClock()
    rec = ProfileRecord(clock=clock)
    step = iter(range(1, 1000))

    def timed(*path):
        # open each stage of path in turn, tick inside the innermost, close all
        for name in path:
            rec.push(name)
            clock.tick(next(step))
        for name in reversed(path):
            clock.tick(next(step))
            rec.pop(name)

    rec.push("Total")
    timed("RIP")
    timed("Pre-compile", "Transpile")
    rec.mark_zero("Active")
    with rec.scope("Pre-compile"):
        timed("Get circuit")
    with rec.scope("Build Run"):
        for _ in range(2):
            timed("Assemble")
            timed("Compile")
        with rec.scope("RunAll on Host"):
            with rec.scope("Run on Host"):
                timed("Run Batch", "Get data")
                timed("Load para")
                timed("Load Batch", "Load circuit")
                with rec.scope("Load Batch"):
                    timed("Load definition", "Load zero")
                    with rec.scope("Load definition"):
                        timed("Load freq.")
                        timed("Load env.")
                timed("Run Batch", "Start Run")
            timed("Data Sort")
    rec.add_computed("Stitch", 40, 4)
    rec.add_computed("Client/Server", 77, 9)
    clock.tick(next(step))
    rec.pop("Total")
    return rec


# (depth, name, ns, iterations) of every_stage_record's report, in document order
EVERY_STAGE_TREE = [
    (0, "Total", 861, 1),
    (1, "Pre-compile", 33, 2),
    (2, "Get circuit", 15, 1),
    (2, "Transpile", 9, 1),
    (1, "RIP", 3, 1),
    (1, "Active", 0, 1),
    (1, "Build Run", 784, 1),
    (2, "Compile", 54, 2),
    (2, "Assemble", 46, 2),
    (2, "RunAll on Host", 684, 1),
    (3, "Run on Host", 605, 1),
    (4, "Load Batch", 342, 2),
    (5, "Load circuit", 49, 1),
    (5, "Load definition", 244, 2),
    (6, "Load env.", 67, 1),
    (6, "Load freq.", 63, 1),
    (6, "Load zero", 57, 1),
    (4, "Load para", 43, 1),
    (4, "Run Batch", 220, 2),
    (5, "Start Run", 73, 1),
    (5, "Get data", 37, 1),
    (4, "Stitch", 40, 4),
    (3, "Data Sort", 79, 1),
    (2, "Client/Server", 77, 9),
]

# sha256 of the profile.json text these records have always produced
EVERY_STAGE_SHA256 = "eb83a953b7670b3b4ff19a74aa8e993a8d9cc4efcd9b5f2bdb9c053e12b44907"
EMPTY_SHA256 = "af188832acc2f2939a9a3da3f64f96758b90d18bf789e4f4b98929305bc6ab6f"


class TestReportBytes:
    def test_every_stage_tree(self):
        rows = []

        def walk(node, depth):
            rows.append((depth, node["name"], node["ns"], node["iterations"]))
            for child in node["children"]:
                walk(child, depth + 1)

        walk(json.loads(report(every_stage_record()))["stages"], 0)
        assert rows == EVERY_STAGE_TREE

    def test_report_bytes_unchanged(self):
        text = report(every_stage_record(), meta={"mode": "pce", "batch_hash": "abc"})
        assert hashlib.sha256(text.encode()).hexdigest() == EVERY_STAGE_SHA256
        assert hashlib.sha256(report(ProfileRecord()).encode()).hexdigest() == EMPTY_SHA256

    @pytest.mark.parametrize("rec", [every_stage_record(), ProfileRecord()], ids=["every", "empty"])
    def test_parse_inverts_report(self, rec):
        parsed, meta = parse_report(report(rec, meta={"seed": 2}))
        assert parsed == rec
        assert meta == {"seed": 2}
        assert report(parsed) == report(rec)


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

    def assembled_pair(self, base_assembles, pce_assembles):
        """The hand-computed pair, plus Assemble iterations (7 ns each) on each side."""
        base = self.synthetic(compile_ns=2000, compile_iters=20, startrun_ns=400, total_ns=3000)
        pce = self.synthetic(compile_ns=100, compile_iters=1, startrun_ns=400, total_ns=900)
        for rec, iters in ((base, base_assembles), (pce, pce_assembles)):
            if iters:
                rec.add_computed("Assemble", 7 * iters, iters)
        return base, pce

    def test_modeled_ns_and_speedup(self):
        table = compare(*self.assembled_pair(20, 1))
        assert MODELED_ASSEMBLE_NS == 141_000
        assert table.modeled_assembly_ns == (2_820_000, 141_000)
        # host classical 2600 and 500 ns: Total - Start Run, as before
        assert table.baseline_classical_ns == 2600 and table.pce_classical_ns == 500
        assert table.modeled_classical_speedup == pytest.approx(2_822_600 / 141_500)
        # the host-clock lines keep their format; the two modeled lines come last
        assert table.to_text().split("\n\n")[1] == (
            "classical time    baseline 86.67% of total\n"
            "classical time    pce      55.56% of total\n"
            "classical reduction        80.77%\n"
            "classical speedup          5.20x\n"
            "overall speedup            3.33x\n"
            "modeled assembly           baseline 2820000 ns, pce 141000 ns\n"
            "modeled classical speedup  19.95x\n"
        )

    def test_record_without_assemble_models_zero(self):
        table = compare(*self.assembled_pair(0, 0))
        assert table.modeled_assembly_ns == (0, 0)
        assert table.modeled_classical_speedup == pytest.approx(table.classical_speedup)
        assert "modeled assembly           baseline 0 ns, pce 0 ns\n" in table.to_text()

    def test_no_classical_time_and_no_assemble_prints_no_modeled_speedup(self):
        base = self.synthetic(10, 2, 100, 100)
        pce = self.synthetic(5, 1, 50, 50)
        table = compare(base, pce)
        assert table.modeled_classical_speedup is None
        text = table.to_text()
        assert "modeled assembly           baseline 0 ns, pce 0 ns\n" in text
        assert "modeled classical speedup" not in text


class TestBatchIdentity:
    def test_same_batch_ok(self):
        check_same_batch({"batch_hash": "x"}, {"batch_hash": "x"})

    def test_different_batch_rejected(self):
        with pytest.raises(ComparisonError):
            check_same_batch({"batch_hash": "x"}, {"batch_hash": "y"})
