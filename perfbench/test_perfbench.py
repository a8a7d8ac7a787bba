"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import speed
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

import domrec  # noqa: E402
from domrec import graph_core, io_cli  # noqa: E402,F401


def test_hunt_stream_is_seeded_and_never_repeats_a_line():
    lines, planted = workloads.hunt_stream(5, 200)
    assert (lines, planted) == workloads.hunt_stream(5, 200)
    other, other_planted = workloads.hunt_stream(6, 200)
    assert other != lines
    assert other_planted.keys() == planted.keys()
    assert len(set(lines)) == len(lines) == 200 + len(workloads.HUNT_PLANTED)
    sizes = sorted(ord(line[0]) - 63 for line in lines)
    assert sizes == sorted(ord(line[0]) - 63 for line in other)


def test_generated_graphs_match_the_paper_layout():
    n, edges = workloads.qkr(4, 3)
    assert n == 4 * 4 + 1 + 3
    assert workloads.family_size("gkr", 4, 3) == 321
    assert workloads.family_size("qkr", 5, 4) == 4422
    assert workloads.graph6(*workloads.path(3)) == "Bg"


def _namespaces() -> dict[object, dict[str, object]]:
    modules = [m for k, m in sys.modules.items() if k == "domrec" or k.startswith("domrec.")]
    snapshot = {m: dict(vars(m)) for m in modules}
    snapshot[graph_core.Graph] = {"from_edges": graph_core.Graph.__dict__["from_edges"]}
    return snapshot


def test_wrappers_cover_every_binding_and_are_restored():
    before = _namespaces()
    targets = tracing.targets()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module, names in before.items():
            for attr, value in names.items():
                if id(value) in targets:
                    assert getattr(module, attr).__wrapped__ is value, (module, attr)
        assert domrec.reconfig.dominating_sets_upto is not before[domrec.reconfig]["dominating_sets_upto"]
        assert domrec.separation.d0_direct.__wrapped__ is domrec.reconfig.d0_direct.__wrapped__
        assert domrec.popcount is before[domrec]["popcount"]
        item = workloads.construction_items("short")[1]
        assert item.check(*run.call(item)[:2]) == []
    finally:
        tracer.restore()
    after = _namespaces()
    assert before.keys() == after.keys()
    for module, names in before.items():
        assert names.keys() == after[module].keys()
        assert all(after[module][attr] is value for attr, value in names.items()), module
    names = {span.name for span in tracer.take()}
    assert {"io_cli.main", "separation.check_sep_equals_d0", "reconfig.d0_direct",
            "graph_core.Graph.from_edges", "io_cli.parse_graph6"} <= names
    assert not names & {f"graph_core.{name}" for name in tracing.PER_ELEMENT}


def _span(name, parent, start, end, cover=None, **counts):
    lo, hi = cover or (start, end)
    return tracing.Span(name, parent, start, end, lo, hi, counts)


def test_self_time_subtracts_the_union_of_child_covers():
    spans = [
        _span("root", -1, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0, (0.9, 4.1)),
        _span("a.x", 1, 2.0, 3.0, (1.9, 3.1)),
        _span("b", 0, 5.0, 6.0, (5.0, 6.2)),
        _span("b", 0, 6.1, 7.0, (6.1, 7.0)),  # cover overlaps the previous child
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 3.2 - 2.0, 3 - 1.2, 1.0, 1.0, 0.9])
    totals = tracing.layer_totals(spans)
    assert totals["b"].calls == 2
    assert totals["b"].self_s == pytest.approx(1.9)
    assert totals["root"].inclusive_s == pytest.approx(10.0)


def test_layer_metrics_combine_aliases_and_ratios():
    spans = [
        _span("families.verify_gkr_structure", -1, 0.0, 1.0),
        _span("families.verify_qkr_structure", -1, 1.0, 3.0),
        _span("reconfig.d0_direct", -1, 3.0, 4.0, useful_sets=3, enumerated_sets=4),
        _span("reconfig.d0_direct", -1, 4.0, 5.0, useful_sets=1, enumerated_sets=4),
        _span("separation.sep_bottleneck", -1, 5.0, 6.0, pairs_computed=6),
    ]
    metrics = tracing.layer_metrics(tracing.layer_totals(spans))
    assert metrics.keys() == tracing.PER_LAYER.keys()
    assert metrics["families.verify_structure.self_s"] == pytest.approx(3.0)
    assert metrics["reconfig.d0_direct.calls"] == 2
    assert metrics["reconfig.d0_direct.useful_set_ratio"] == pytest.approx(0.5)
    assert metrics["separation.sep_bottleneck.pairs_computed"] == 6
    assert metrics["reconfig.build_dk.order"] == 0


def test_reference_seconds_divide_by_the_probe_slowdown():
    sampler = speed.SpeedSampler()
    sampler.starts = [0.0, 1.0, 2.0, 3.0]
    sampler.durations = [2 * speed.REFERENCE_PROBE_S] * 4
    # Two probes fall inside [0.5, 2.5]; the host ran at half speed.
    expected = (2.0 - 4 * speed.REFERENCE_PROBE_S) / 2
    assert sampler.reference_seconds(0.5, 2.5) == pytest.approx(expected)
    assert sampler.reference_seconds(1.2, 1.3) == pytest.approx(0.05)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_short_mode_passes_the_output_checks(name):
    judge = run.Judge(json.loads(run.DIGESTS.read_text()))
    workload = workloads.WORKLOADS[name]
    for item in workload.build(3, "short") + workload.reference():
        rc, stdout, stderr, _, _ = run.call(item)
        judge.judge(item, rc, stdout, stderr)
    assert judge.problems == []
    assert judge.failed == 0 and judge.attempted > 0


def test_checks_reject_wrong_outputs():
    assert workloads.check_d0("gkr", 4, 3)(0, '{"d0":6,"sep":7,"agree":false}\n')
    assert workloads.check_d0("gkr", 4, 3)(5, '{"d0":7,"sep":7,"agree":true}\n')
    lines, planted = workloads.hunt_stream(1, 20)
    assert workloads.check_hunt(lines, planted)(0, "")
    profile = workloads.check_profile(4, workloads.closed_masks(*workloads.star(3)), 2**3 + 1)
    assert profile(0, '{"gamma":1,"n":4,"profile":[]}\n')
    hub, leaf = [1, 2, 3], [1, 4, 7]
    closed = workloads.closed_masks(*workloads.gkr(3, 2))
    assert workloads.check_path(closed, hub, leaf, 4, False)(0, '{"found":true}\n')
    assert workloads.check_path(closed, hub, leaf, 5, True)(0, '{"found":true,"length":3}\n')
    judge = run.Judge({})
    item = workloads.reconfig_items("short")[-1]
    judge.judge(item, 0, '{"found":true,"length":4,"path":[]}\n', "")
    assert judge.failed == 1


def test_benchmark_json_names_what_the_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(
        tracing.PER_LAYER, trace_overhead_ratio="ratio")


def test_command_prints_the_result_contract():
    done = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "reconfig-queries",
         "--seed", "2", "--seconds", "1", "--trace", "1", "--short"],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result.keys() == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["reconfig.d0_direct.calls"]["value"] == 0
    assert result["metrics"]["separation.sep_bottleneck.calls"]["value"] == 0
    assert result["metrics"]["reconfig.build_dk.order"]["value"] > 0
