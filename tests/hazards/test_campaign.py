"""The differential fault-injection campaign (the robustness tier,
``pytest -m faultinject``).

Acceptance gate: hundreds of seeded injected runs across every workload
— SPEC-shaped and recovery-shaped — must match the reference interpreter
bit-for-bit, including under deliberately wrong alias profiles."""

import pytest

from repro.core import SpecConfig
from repro.hazards import ADVERSARIES, run_campaign

pytestmark = pytest.mark.faultinject


@pytest.mark.faultinject
def test_campaign_200_runs_bit_for_bit():
    """≥200 injected runs over all 10 workloads; zero output mismatches,
    and the perturbations actually bit: deferred faults, chk.s
    recoveries and forced check misses all occurred."""
    report = run_campaign(scenarios=("poison", "storm", "chaos"),
                          seeds=range(7))
    assert len(report.runs) >= 200
    assert report.ok, report.summary()
    assert sum(r.deferred_faults for r in report.runs) > 0
    assert report.total_recoveries > 0
    assert sum(r.check_misses for r in report.runs) > 0
    assert sum(r.replay_loads for r in report.runs) > 0


@pytest.mark.faultinject
def test_campaign_is_reproducible():
    kwargs = dict(workload_names=["parser", "bzip2"],
                  scenarios=("chaos",), seeds=(0, 1))
    a, b = run_campaign(**kwargs), run_campaign(**kwargs)
    assert [(r.ok, r.cycles, r.deferred_faults, r.spec_recoveries,
             r.check_misses) for r in a.runs] \
        == [(r.ok, r.cycles, r.deferred_faults, r.spec_recoveries,
             r.check_misses) for r in b.runs]


@pytest.mark.faultinject
@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
def test_adversarial_profiles_recover(adversary):
    """A deliberately wrong alias profile may cost cycles — mispredicted
    speculation, extra check misses, deferred faults — but the output
    still matches the oracle on every injected run."""
    report = run_campaign(
        workload_names=["parser", "crafty", "bzip2", "equake"],
        scenarios=("poison", "storm"), seeds=(0, 1),
        profile_transform=ADVERSARIES[adversary])
    assert report.ok, report.summary()
    # the recovery machinery was actually exercised
    assert sum(r.deferred_faults for r in report.runs) > 0


@pytest.mark.faultinject
def test_campaign_superblock_bit_for_bit():
    """The superblock scheduler (docs/scheduling.md) moves speculative
    loads above side exits and tail-duplicates join blocks; under
    injected ALAT storms and poisoned loads every run must still match
    the oracle, and the chk.s recovery machinery must actually fire
    inside the reordered code."""
    report = run_campaign(
        config=SpecConfig.profile().but(use_edge_profile=False,
                                        scheduler="superblock"),
        scenarios=("poison", "storm", "chaos"), seeds=(0, 1))
    assert report.ok, report.summary()
    assert report.total_recoveries > 0
    assert sum(r.deferred_faults for r in report.runs) > 0


@pytest.mark.faultinject
def test_parallel_campaign_bit_identical():
    """The process-pool fan-out may only change wall-clock: the report —
    run order, every counter, the degraded notes — must equal the
    sequential one field for field."""
    kwargs = dict(workload_names=["art", "parser"],
                  scenarios=("poison", "storm"), seeds=(0, 1))
    seq = run_campaign(jobs=1, **kwargs)
    # force_parallel: this matrix is below the measured break-even, but
    # the point here is the pool machinery itself, on any host
    par = run_campaign(jobs=2, force_parallel=True, **kwargs)
    assert [vars(r) for r in par.runs] == [vars(r) for r in seq.runs]
    assert par.degraded == seq.degraded


@pytest.mark.faultinject
def test_parallel_campaign_with_adversary():
    """The parallel path runs an adversarial profile transform too."""
    kwargs = dict(workload_names=["parser"], scenarios=("poison",),
                  seeds=(0,), profile_transform=ADVERSARIES["invert"])
    seq = run_campaign(jobs=1, **kwargs)
    par = run_campaign(jobs=2, force_parallel=True, **kwargs)
    assert [vars(r) for r in par.runs] == [vars(r) for r in seq.runs]


def test_parallel_break_even_fallback_is_bit_identical():
    """Below the measured break-even (fewer than PARALLEL_MIN_CPUS
    CPUs, or a matrix smaller than PARALLEL_MIN_RUNS) ``jobs=4``
    silently takes the serial path — and whichever path a host picks,
    the report is bit-for-bit identical to ``jobs=1``."""
    from repro.hazards.campaign import PARALLEL_MIN_RUNS

    kwargs = dict(workload_names=["parser", "bzip2"],
                  scenarios=("poison",), seeds=(0, 1))
    total = 2 * 1 * 2
    assert total < PARALLEL_MIN_RUNS  # this matrix sits below break-even
    seq = run_campaign(jobs=1, **kwargs)
    par = run_campaign(jobs=4, **kwargs)  # serial fallback on small boxes
    assert [vars(r) for r in par.runs] == [vars(r) for r in seq.runs]
    assert par.degraded == seq.degraded


@pytest.mark.faultinject
def test_uninjected_scenario_none_is_clean_for_spec_workloads():
    """'none' on the Figure-10 set: no deferred faults are fabricated
    (the SPEC-shaped workloads have no out-of-range speculation)."""
    report = run_campaign(workload_names=["gzip", "mcf"],
                          scenarios=("none",), seeds=(0,))
    assert report.ok
    assert all(r.deferred_faults == 0 for r in report.runs)


@pytest.mark.faultinject
def test_parallel_campaign_accepts_an_unpicklable_transform():
    """Workers only simulate prepared programs, so the profile transform
    never crosses a process boundary — a lambda works on both paths."""
    kwargs = dict(workload_names=["parser"], scenarios=("poison",),
                  seeds=(0, 1), profile_transform=lambda p: p)
    seq = run_campaign(jobs=1, **kwargs)
    par = run_campaign(jobs=2, force_parallel=True, **kwargs)
    assert par.parallel_taken
    assert [vars(r) for r in par.runs] == [vars(r) for r in seq.runs]
    assert par.degraded == seq.degraded
