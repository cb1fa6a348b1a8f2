"""Tests for the Andersen-style points-to analysis and its precision
relative to Steensgaard."""

import pytest

from repro.analysis import Steensgaard
from repro.analysis.andersen import Andersen
from repro.ir import Store
from repro.lang import compile_source


def both(src):
    m1 = compile_source(src)
    m2 = compile_source(src)
    return m1, Andersen(m1), m2, Steensgaard(m2)


def stores_of(module, fn="main"):
    return [s for _, s in module.functions[fn].statements()
            if isinstance(s, Store)]


def test_basic_points_to():
    src = "void main() { int x; int *p; p = &x; *p = 1; print(x); }"
    m, andersen = compile_source(src), None
    andersen = Andersen(m)
    (store,) = stores_of(m)
    targets = andersen._targets_of(store.addr)
    assert {t.name for t in targets} == {"x"}


def test_andersen_keeps_directional_flow_separate():
    """The classic Steensgaard imprecision: `p = &x; q = &y; r = p;`
    unifies x and y under Steensgaard (through r's merged class in a
    further copy chain), but Andersen keeps r ⊇ {x} only."""
    src = (
        "void main() { int x; int y; int *p; int *q; int *r;"
        " p = &x; q = &y; r = p; r = q;"
        " *p = 1; *q = 2; print(x + y); }"
    )
    m1, andersen, m2, steens = both(src)
    s1_a, s2_a = stores_of(m1)
    # Andersen: *p writes only x, *q writes only y
    assert {t.name for t in andersen._targets_of(s1_a.addr)} == {"x"}
    assert {t.name for t in andersen._targets_of(s2_a.addr)} == {"y"}
    assert not andersen.may_alias(s1_a.addr, s2_a.addr)
    # Steensgaard: r's unification merges the classes
    s1_s, s2_s = stores_of(m2)
    assert steens.may_alias(s1_s.addr, s2_s.addr)


def test_heap_objects_by_site():
    src = (
        "void main() { int *p; int *q; p = alloc(2); q = alloc(2);"
        " *p = 1; *q = 2; }"
    )
    m = compile_source(src)
    andersen = Andersen(m)
    s1, s2 = stores_of(m)
    assert not andersen.may_alias(s1.addr, s2.addr)


def test_store_then_load_chain():
    src = (
        "void main() { int x; int **h; int *p; h = alloc(1);"
        " *h = &x; p = *h; *p = 5; print(x); }"
    )
    m = compile_source(m_src := src)
    andersen = Andersen(m)
    stores = stores_of(m)
    final = stores[-1]
    assert {getattr(t, "name", t) for t in
            andersen._targets_of(final.addr)} == {"x"}


def test_interprocedural_param_and_return():
    src = (
        "int *pick(int *a, int *b, int c) {"
        " if (c) { return a; } return b; }"
        "void main() { int x; int y; int *r; r = pick(&x, &y, 1);"
        " *r = 3; print(x + y); }"
    )
    m = compile_source(src)
    andersen = Andersen(m)
    (store,) = stores_of(m)
    names = {t.name for t in andersen._targets_of(store.addr)}
    assert names == {"x", "y"}


def test_classes_are_equivalence_classes():
    src = (
        "void main() { int x; int y; int z; int *p; int *q;"
        " if (x) { p = &x; } else { p = &y; }"
        " if (y) { q = &y; } else { q = &z; }"
        " *p = 1; *q = 2; print(x + y + z); }"
    )
    m = compile_source(src)
    andersen = Andersen(m)
    s1, s2 = stores_of(m)
    # overlap through y forces one class covering x, y, z
    c1 = andersen.class_of_address(s1.addr)
    c2 = andersen.class_of_address(s2.addr)
    assert c1 == c2
    assert {l.name for l in andersen.locations(c1)} == {"x", "y", "z"}


def test_precision_never_worse_than_steensgaard():
    """Every Andersen may-alias is also a Steensgaard may-alias (the
    unification analysis over-approximates the inclusion one)."""
    from repro.workloads.fuzz import random_program

    for seed in range(10):
        src = random_program(seed, max_stmts=8)
        m1 = compile_source(src)
        m2 = compile_source(src)
        andersen, steens = Andersen(m1), Steensgaard(m2)
        stores1 = stores_of(m1)
        stores2 = stores_of(m2)
        for (a1, a2) in zip(stores1, stores2):
            for (b1, b2) in zip(stores1, stores2):
                if andersen.may_alias(a1.addr, b1.addr):
                    assert steens.may_alias(a2.addr, b2.addr), (seed, a1)


def test_precision_report():
    src = "void main() { int x; int *p; p = &x; *p = 1; print(x); }"
    report = Andersen(compile_source(src)).precision_report()
    assert report["classes"] >= 1
    assert report["max_class_size"] >= 1


def test_pipeline_works_with_andersen_classifier():
    """The classifier accepts any analysis with the Steensgaard query
    surface; swap Andersen in and run the Figure 2 program."""
    from repro.analysis import AliasClassifier
    from repro.core import SpecConfig, optimize_function
    from repro.ir import split_module_critical_edges
    from repro.profiling import collect_alias_profile, run_module
    from repro.ssa import SpecMode, build_ssa, flagger_for, lower_module

    src = (
        "void f(int *p, int *q) { int x; x = *p; *q = 9; x = x + *p;"
        " print(x); }"
        "void main() { int a[8]; int b[8]; int c; c = 0;"
        " a[0] = 5; if (c) { f(a, a); } f(a, b); }"
    )
    module = compile_source(src)
    expected = run_module(module)
    profile = collect_alias_profile(module)
    split_module_critical_edges(module)
    classifier = AliasClassifier(module, steensgaard=Andersen(module))
    ssa_fns = []
    for fn in module.functions.values():
        ssa = build_ssa(module, fn, classifier,
                        flagger=flagger_for(SpecMode.PROFILE, profile))
        optimize_function(ssa, SpecConfig.profile())
        ssa_fns.append(ssa)
    lowered = lower_module(module, ssa_fns)
    assert run_module(lowered) == expected


def test_pointer_analysis_knob_selects_andersen():
    """``SpecConfig.pointer_analysis="andersen"`` seeds the alias
    classes from Andersen: on equake's base build the sharper classes
    let promotion remove loads Steensgaard's merged classes keep."""
    from repro.core import SpecConfig
    from repro.workloads import get_workload, run_workload

    workload = get_workload("equake")
    loads = {}
    for analysis in ("steensgaard", "andersen"):
        result = run_workload(workload, SpecConfig.base().but(
            pointer_analysis=analysis))
        assert result.degraded == {}
        loads[analysis] = result.stats.memory_loads
    assert loads["andersen"] < loads["steensgaard"]
