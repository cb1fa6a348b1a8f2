"""Self-tests of the benchmark's own helpers.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os

import pytest

from metrics import (count_mismatches, fingerprint, geomean, self_times,
                     tail, union_length, valid_metric_name)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---- the >=10-samples-beyond tail rule ------------------------------------

def test_tail_leaves_exactly_ten_samples_beyond():
    values = list(range(1, 51))            # 1..50, shuffled order is fine
    value, pct, n = tail(list(reversed(values)))
    assert n == 50
    assert value == 40                     # 41..50 lie beyond it
    assert sum(v > value for v in values) == 10
    assert pct == pytest.approx(80.0)


def test_tail_climbs_with_sample_count():
    _, pct_small, _ = tail([1.0] * 100)
    _, pct_large, _ = tail([1.0] * 1000)
    assert pct_small == pytest.approx(90.0)
    assert pct_large == pytest.approx(99.0)


def test_tail_is_an_order_statistic_not_an_interpolation():
    # 90 fast ops, 15 slow ones: the tail sits inside the slow cluster
    values = [0.1] * 90 + [0.6 + 0.01 * i for i in range(15)]
    value, _, _ = tail(values)
    assert value == pytest.approx(0.64)    # the fifth of the slow values
    assert value in values


def test_tail_with_too_few_samples_reports_the_maximum():
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    with pytest.raises(ValueError):
        tail([])


# ---- self time over nested spans ------------------------------------------

def _span(sid, start, end, parent=None):
    return {"id": sid, "start": start, "end": end, "parent": parent}


def test_self_time_subtracts_direct_children_only():
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 4.0, 1),
             _span(3, 2.0, 3.0, 2), _span(4, 5.0, 6.0, 1)]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)
    # the self times of a tree add up to its root's duration
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 5.0, 1),
             _span(3, 3.0, 7.0, 1)]   # two threads' children overlap
    assert self_times(spans)[1] == pytest.approx(10.0 - 6.0)


def test_self_time_subtracts_duration_only_children():
    spans = [_span(1, 0.0, 10.0), _span(2, 0.5, 1.5, 1),
             {"id": 3, "start": None, "end": None, "parent": 1,
              "dur": 2.5}]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 1.0 - 2.5)
    assert selfs[3] == pytest.approx(2.5)


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == pytest.approx(4.0)
    assert union_length([(0, 10), (2, 3)]) == pytest.approx(10.0)


# ---- metric names ---------------------------------------------------------

@pytest.mark.parametrize("name", ["ops_per_s", "core.expression-pre.s",
                                  "target.sim.dyn_instr_per_s", "0x"])
def test_valid_metric_names(name):
    assert valid_metric_name(name)


@pytest.mark.parametrize("name", ["", "has space", "slash/name", ".lead",
                                  "-lead", "x" * 65, "unit%", None])
def test_invalid_metric_names(name):
    assert not valid_metric_name(name)


def test_benchmark_json_names_are_valid_and_unique():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert all(valid_metric_name(n) for n in names)
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


# ---- aggregates and records -----------------------------------------------

def test_geomean():
    assert geomean([2, 8]) == pytest.approx(4.0)
    assert geomean([0, 1]) == pytest.approx(1.0)   # zero floored at one
    assert geomean([]) == 0.0


def test_fingerprint_changes_with_any_input():
    base = {"ops": [["gzip", "int main;", "base", [], [1.0]]]}
    changed = {"ops": [["gzip", "int main;", "base", [], [2.0]]]}
    assert fingerprint(base) == fingerprint(json.loads(json.dumps(base)))
    assert fingerprint(base) != fingerprint(changed)


def test_count_mismatches_names_the_differing_counts():
    old = {"a": 1, "b": 2.5, "c": 3}
    new = {"a": 1, "b": 2.25, "d": 4}
    assert count_mismatches(old, new, ["a", "b", "c", "d"]) == ["b"]


# ---- the outside-in probe on a real compile ------------------------------

SOURCE = """
void f(int *p, int *q) {
  int x;
  x = *p; *q = 9; x = x + *p;
  print(x);
}

void main() {
  int a[8]; int b[8]; int c;
  c = input();
  a[0] = 5;
  if (c) { f(a, a); }
  f(a, b);
}
"""


def test_probe_spans_nest_and_restore():
    from repro.core import SpecConfig
    from repro.pipeline import compile_and_run, driver
    from tracing import Probe

    original = driver.run_module
    with Probe(traced=True) as probe:
        probe.op = 7
        result = compile_and_run(SOURCE, SpecConfig.profile(),
                                 train_inputs=[0], ref_inputs=[0],
                                 cache=False)
    assert driver.run_module is original
    names = {s["name"] for s in probe.spans}
    assert {"pipeline.compile", "lang.compile_source", "profiling.train",
            "profiling.oracle", "target.sim"} <= names
    by_id = {s["id"]: s for s in probe.spans}
    compile_span = next(s for s in probe.spans
                        if s["name"] == "pipeline.compile")
    for span in probe.spans:
        assert span["op"] == 7
        if span["name"] in ("lang.compile_source", "profiling.train") \
                or span["name"].startswith("pass."):
            assert by_id[span["parent"]] is compile_span
    layers = probe.layer_metrics()
    assert layers["lang.compile_source.calls"] == 1
    assert layers["profiling.train.calls"] == 2
    assert layers["profiling.train.runs_per_profile_compile"] == 2.0
    assert layers["target.sim.calls"] == 1
    assert layers["pipeline.compile.self_s"] >= 0.0
    assert probe.sims[0][2].cycles == result.stats.cycles
