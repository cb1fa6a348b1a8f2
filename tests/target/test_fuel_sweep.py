"""Fuel exhaustion at every point of a run, on every engine.

Fuel bounds executed basic blocks, so sweeping it from 1 upwards stops
the simulation at each block boundary in turn.  Under the trace engine
at ``HOT_THRESHOLD = 1`` those boundaries fall before warm-up, during
recording, inside compiled traces (which exit with ``_EXIT_FUEL`` and
let the dispatch loop raise) and right after side exits — every path
by which a trace hands control back to the shared dispatch loop.  At
each fuel value the three engines must agree exactly: either all of
them finish with the same output and architectural counters, or all of
them raise :class:`MachineFuelExhausted` with the same fields.
"""

import pytest

from repro.core import SpecConfig
from repro.pipeline import compile_program
from repro.target import machine_trace
from repro.target.machine import ENGINES, MachineFuelExhausted, run_program
from repro.workloads.runner import machine_kwargs

pytestmark = pytest.mark.trace_engine

#: a leaf call the trace engine inlines, and a branch that flips after
#: warm-up so the compiled loop trace side-exits; about 330 blocks long
_SOURCE = """
int sq(int x) { return x * x; }
void main() {
  int i; int s;
  s = 0;
  for (i = 0; i < 60; i = i + 1) {
    if (i < 30) { s = s + sq(i); } else { s = s - i; }
  }
  print(s);
}
"""

_MAX_FUEL = 400


def _outcome(program, fuel, engine):
    try:
        stats, output = run_program(program, [], fuel=fuel, engine=engine,
                                    **machine_kwargs())
    except MachineFuelExhausted as exc:
        return ("fuel", exc.function, exc.instruction, exc.instructions,
                str(exc))
    return ("done", output, stats.arch_dict(),
            {name: vars(fs) for name, fs in stats.fn_stats.items()})


def test_fuel_sweep_engines_agree(monkeypatch):
    monkeypatch.setattr(machine_trace, "HOT_THRESHOLD", 1)
    program = compile_program(_SOURCE, SpecConfig.base()).program
    kinds = set()
    for fuel in range(1, _MAX_FUEL + 1):
        outcomes = {engine: _outcome(program, fuel, engine)
                    for engine in ENGINES}
        assert outcomes["predecode"] == outcomes["classic"], fuel
        assert outcomes["trace"] == outcomes["classic"], fuel
        kinds.add(outcomes["classic"][0])
    # the sweep crosses the end of the run: both outcomes occur
    assert kinds == {"fuel", "done"}

    # and the trace engine really took the deopt paths under test
    stats, _ = run_program(program, [], fuel=_MAX_FUEL, engine="trace",
                           **machine_kwargs())
    assert stats.traces_compiled > 0
    assert stats.side_exits > 0
