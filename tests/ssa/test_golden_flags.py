"""Golden speculation-flag tests (ISSUE 8 acceptance gate).

Every flagger is selected by :func:`repro.ssa.flagger_for`; these
tests pin the ``heuristic`` and ``profile`` flag assignments
**bit-for-bit** against golden files generated from the pre-refactor
closures (``tests/ssa/golden/``, see ``tests/ssa/golden_flags.py``).
Any diff here means a refactor changed flag semantics, not just shape.
"""

import pytest

from .golden_flags import (GOLDEN_MODES, all_golden_workloads, golden_path,
                           snapshot_workload)

WORKLOADS = {wl.name: wl for wl in all_golden_workloads()}


@pytest.mark.parametrize("mode", GOLDEN_MODES)
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_flags_bit_identical_to_pre_refactor(name, mode):
    with open(golden_path(name, mode)) as f:
        golden = f.read()
    assert snapshot_workload(WORKLOADS[name], mode) == golden


def test_profile_source_requires_profile():
    from repro.ssa import SpecMode, flagger_for

    with pytest.raises(ValueError):
        flagger_for(SpecMode.PROFILE, profile=None)
