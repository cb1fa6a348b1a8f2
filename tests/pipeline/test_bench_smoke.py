"""The ``bench_smoke`` CI tier (docs/pipeline.md).

One workload end-to-end through the real CLI with ``--time-passes
--trace-json``: the per-pass timing table must render, the compile
must pass the oracle, and the machine-readable trace
lands in ``results/pass_trace.json``.  The tier also regenerates the
superblock-scheduling ablation into ``results/
ablation_superblock.txt`` — CI uploads both files as workflow
artifacts so pass wall-time and scheduling regressions are visible
PR-over-PR.
"""

import json
import os

import pytest

from repro.cli import main
from repro.workloads import get_workload

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..",
                           "results")


@pytest.mark.bench_smoke
def test_cli_time_passes_smoke(tmp_path, capsys):
    workload = get_workload("mcf")
    src = tmp_path / "mcf.c"
    src.write_text(workload.source)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    trace_path = os.path.join(RESULTS_DIR, "pass_trace.json")

    rc = main([
        "run", str(src),
        "--config", "profile",
        "--train", ",".join(str(v) for v in workload.train_inputs),
        "--ref", ",".join(str(v) for v in workload.ref_inputs),
        "--time-passes",
        "--trace-json", trace_path,
    ])
    captured = capsys.readouterr()
    assert rc == 0, captured.err

    # the --time-passes report names every configured pass
    assert "pass execution timing report" in captured.err
    for name in ("build-ssa", "register-promotion", "expression-pre",
                 "dce", "codegen", "schedule"):
        assert name in captured.err

    # the artifact CI uploads: valid JSON with per-pass records
    with open(trace_path) as f:
        doc = json.load(f)
    assert doc["invocations"] > 0
    passes = {record["pass"] for record in doc["passes"]}
    assert {"build-ssa", "dce", "codegen"} <= passes
    assert all(record["wall_s"] >= 0.0 for record in doc["passes"])


@pytest.mark.bench_smoke
def test_superblock_ablation_artifact():
    """Regenerate the superblock-scheduling ablation table
    (docs/scheduling.md) — the second artifact the bench-smoke CI job
    uploads.  The bar matches benchmarks/test_ablation_superblock.py:
    superblock no worse than block on geomean, no workload more than
    1% worse."""
    from repro.pipeline import format_table
    from repro.workloads import superblock_ablation

    rows, summary = superblock_ablation()
    text = format_table(
        rows, title="Ablation: superblock scheduling (4-wide, 2 ports)")
    text += (f"\ngeomean cycles vs block: "
             f"superblock {100.0 * summary['geomean_sb_vs_block']:.2f}%  "
             f"(block vs unscheduled "
             f"{100.0 * summary['geomean_block_vs_none']:.2f}%)")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "ablation_superblock.txt"),
              "w") as f:
        f.write(text + "\n")

    assert summary["geomean_sb_vs_block"] <= 1.0
    for row in rows:
        assert row["superblock_cycles"] <= row["block_cycles"] * 1.01, \
            row["benchmark"]


@pytest.mark.bench_smoke
@pytest.mark.spec_static
def test_spec_source_compare_artifact():
    """Regenerate the three-way speculation-source comparison
    (docs/speculation_sources.md) — the third artifact the bench-smoke
    CI job uploads.  The acceptance bar matches
    benchmarks/test_spec_source_compare.py: the profile-free static
    source recovers a nonzero fraction of the profile's load-reduction
    win on at least half the workloads where the profile wins at all."""
    from repro.core import SpecConfig
    from repro.pipeline import Comparison, format_table
    from repro.workloads import all_workloads, run_workload

    rows = []
    for w in all_workloads():
        base = run_workload(w, SpecConfig.base())
        prof = Comparison(w.name, base, run_workload(w, SpecConfig.profile()))
        heur = Comparison(w.name, base,
                          run_workload(w, SpecConfig.heuristic()))
        stat = Comparison(w.name, base, run_workload(w, SpecConfig.static()))
        rows.append({
            "benchmark": w.name,
            "profile_loadred_%": 100.0 * prof.load_reduction,
            "heuristic_loadred_%": 100.0 * heur.load_reduction,
            "static_loadred_%": 100.0 * stat.load_reduction,
            "profile_speedup_%": 100.0 * prof.speedup,
            "heuristic_speedup_%": 100.0 * heur.speedup,
            "static_speedup_%": 100.0 * stat.speedup,
            "static_misspec_%": 100.0 * stat.misspeculation_ratio,
        })

    text = format_table(
        rows, title="Speculation sources: profile vs heuristic vs static")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "spec_source_compare.txt"),
              "w") as f:
        f.write(text + "\n")

    winners = [r for r in rows if r["profile_loadred_%"] > 0.0]
    recovered = [r for r in winners if r["static_loadred_%"] > 0.0]
    assert winners and len(recovered) * 2 >= len(winners)
    for row in rows:
        assert row["static_misspec_%"] <= 10.0, row["benchmark"]
