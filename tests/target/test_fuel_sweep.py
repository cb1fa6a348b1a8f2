"""Fuel exhaustion at every point of a run, on both engines.

Fuel bounds executed basic blocks, so sweeping it from 1 upwards stops
the simulation at each block boundary in turn — inside the leaf call,
on both arms of the branch, and past the end of the run.  At each fuel
value the two engines must agree exactly: either both finish with the
same output and counters, or both raise :class:`MachineFuelExhausted`
with the same fields.
"""

from repro.core import SpecConfig
from repro.pipeline import compile_program
from repro.target.machine import ENGINES, MachineFuelExhausted, run_program
from repro.workloads.runner import machine_kwargs

#: a leaf call, and a branch that flips halfway through the loop;
#: about 330 blocks long
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
    return ("done", output, stats.to_dict(),
            {name: vars(fs) for name, fs in stats.fn_stats.items()})


def test_fuel_sweep_engines_agree():
    program = compile_program(_SOURCE, SpecConfig.base()).program
    kinds = set()
    for fuel in range(1, _MAX_FUEL + 1):
        outcomes = {engine: _outcome(program, fuel, engine)
                    for engine in ENGINES}
        assert outcomes["predecode"] == outcomes["classic"], fuel
        kinds.add(outcomes["classic"][0])
    # the sweep crosses the end of the run: both outcomes occur
    assert kinds == {"fuel", "done"}
