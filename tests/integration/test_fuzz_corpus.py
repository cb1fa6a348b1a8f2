"""The fuzz-corpus tier (``pytest -m fuzz_corpus``).

Generator seeds 0..199, each compiled strictly (``failsafe=False``)
under every speculation source: a pass crash or verifier failure raises
instead of degrading the function down the fail-safe ladder, so any
degradation on the corpus is a test failure.  Every simulated output
must equal the reference interpreter's."""

import pytest

from repro.core import SpecConfig
from repro.pipeline import compile_and_run
from repro.workloads.fuzz import random_program

pytestmark = pytest.mark.fuzz_corpus

CONFIGS = [SpecConfig.base(), SpecConfig.heuristic(), SpecConfig.static(),
           SpecConfig.profile(), SpecConfig.aggressive()]


@pytest.mark.parametrize("seed", range(200))
def test_fuzz_corpus_strict(seed):
    source = random_program(seed)
    for config in CONFIGS:
        result = compile_and_run(source, config, fuel=2_000_000,
                                 failsafe=False)
        assert result.output == result.expected, (
            f"seed={seed} config={config.mode} diverged")
