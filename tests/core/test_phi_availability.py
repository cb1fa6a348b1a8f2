"""Regression tests: WillBeAvailable alone decides Φ availability.

A Φ operand that would need an insertion (⊥, or no real use) but has no
computable versions on its edge — a leaf variable has no value at the
end of that predecessor — cannot be made available.  Finalize used to
leave such an operand ⊥ and CodeMotion then fed the Φ its own result, a
use its definition does not dominate; the SSA verifier rejected the
function and the fail-safe ladder dropped it to ``no-epre``.  Each
generator seed below reproduced the bug in one block shape (the block
holding the undominated use)."""

import pytest

from repro.core import SpecConfig
from repro.pipeline import compile_program, reference_output, run_compiled
from repro.workloads.fuzz import random_program


@pytest.mark.parametrize("seed", [
    pytest.param(10, id="split_for_bodyN_joinN"),
    pytest.param(74, id="elseN"),
    pytest.param(161, id="split_joinN_joinN"),
])
def test_phi_without_computable_operand_stays_unavailable(seed):
    source = random_program(seed)
    compiled = compile_program(source, SpecConfig.base(), fuel=2_000_000,
                               failsafe=False, cache=False)
    result = run_compiled(compiled, source, check_output=False,
                          fuel=2_000_000, cache=False)
    assert result.output == reference_output(
        source, compiled.original, fuel=2_000_000, cache=False)
