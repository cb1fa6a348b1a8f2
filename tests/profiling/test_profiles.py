"""Unit tests for alias/edge profiling and the load-reuse simulation."""

from repro.analysis import HeapLoc
from repro.ir import CallStmt, Load, Store
from repro.lang import compile_source
from repro.profiling import (collect_alias_profile, collect_edge_profile,
                             simulate_load_reuse)


def module_of(src):
    return compile_source(src)


def loads_of(fn):
    out = []
    for _, stmt in fn.statements():
        for e in stmt.walk_exprs():
            if isinstance(e, Load):
                out.append(e)
    for _, term in fn.terminators():
        for top in term.exprs():
            out.extend(e for e in top.walk() if isinstance(e, Load))
    return out


def stores_of(fn):
    return [s for _, s in fn.statements() if isinstance(s, Store)]


def calls_of(fn):
    return [s for _, s in fn.statements()
            if isinstance(s, CallStmt) and not s.is_alloc]


def test_load_loc_set_records_actual_targets():
    src = (
        "void main() { int x; int y; int *p; int s;"
        " p = &x; x = 1; y = 2; s = *p; print(s + y); }"
    )
    m = module_of(src)
    prof = collect_alias_profile(m)
    (load,) = loads_of(m.main)
    locs = prof.load_loc_set(load)
    assert {l.name for l in locs} == {"x"}


def test_store_loc_set_heap_named_by_site():
    src = "void main() { int *p; p = alloc(4); *p = 1; }"
    m = module_of(src)
    prof = collect_alias_profile(m)
    (store,) = stores_of(m.main)
    locs = prof.store_loc_set(store)
    assert len(locs) == 1 and isinstance(next(iter(locs)), HeapLoc)


def test_never_executed_store_has_empty_set():
    src = (
        "void main() { int x; int *p; p = &x;"
        " if (0) { *p = 1; } print(x); }"
    )
    m = module_of(src)
    prof = collect_alias_profile(m)
    (store,) = stores_of(m.main)
    assert not prof.store_executed(store)
    assert prof.store_loc_set(store) == set()


def test_input_dependent_aliasing_observed():
    # p points to x only on the path taken; profile reflects the run.
    src = (
        "void main() { int x; int y; int *p; int c; c = 1;"
        " if (c) { p = &x; } else { p = &y; } *p = 9; print(x + y); }"
    )
    m = module_of(src)
    prof = collect_alias_profile(m)
    (store,) = stores_of(m.main)
    assert {l.name for l in prof.store_loc_set(store)} == {"x"}


def test_call_mod_ref_sets():
    src = (
        "int g; int h;"
        "void touch(int *p) { g = g + 1; *p = 5; }"
        "void main() { int x; touch(&x); print(g + h + x); }"
    )
    m = module_of(src)
    prof = collect_alias_profile(m)
    (call,) = calls_of(m.main)
    mods = {l.name for l in prof.call_mod_set(call)}
    refs = {l.name for l in prof.call_ref_set(call)}
    assert mods == {"g", "x"}
    assert "g" in refs            # g read by g = g + 1
    assert "h" not in mods


def test_nested_calls_attributed_to_outer_site():
    src = (
        "int g;"
        "void inner() { g = 1; }"
        "void outer() { inner(); }"
        "void main() { outer(); print(g); }"
    )
    m = module_of(src)
    prof = collect_alias_profile(m)
    (call,) = calls_of(m.main)
    assert {l.name for l in prof.call_mod_set(call)} == {"g"}


def test_edge_profile_counts_loop_iterations():
    src = (
        "void main() { int i; for (i = 0; i < 10; i = i + 1) { print(i); } }"
    )
    m = module_of(src)
    prof = collect_edge_profile(m)
    fn = m.main
    cond = next(b for b in fn.blocks if b.name.startswith("for_cond"))
    body = next(b for b in fn.blocks if b.name.startswith("for_body"))
    exit_b = next(b for b in fn.blocks if b.name.startswith("for_exit"))
    assert prof.edge(cond, body) == 10
    assert prof.edge(cond, exit_b) == 1
    assert prof.block(cond) == 11
    assert prof.entry_count["main"] == 1


def test_edge_profile_untaken_branch_zero():
    src = "void main() { int x; x = 0; if (x) { print(1); } print(2); }"
    m = module_of(src)
    prof = collect_edge_profile(m)
    fn = m.main
    then_b = next(b for b in fn.blocks if b.name.startswith("then"))
    assert prof.block(then_b) == 0


def test_edge_prob_normalizes_outgoing_counts():
    src = (
        "void main() { int i; for (i = 0; i < 10; i = i + 1) { print(i); } }"
    )
    m = module_of(src)
    prof = collect_edge_profile(m)
    fn = m.main
    cond = next(b for b in fn.blocks if b.name.startswith("for_cond"))
    body = next(b for b in fn.blocks if b.name.startswith("for_body"))
    exit_b = next(b for b in fn.blocks if b.name.startswith("for_exit"))
    # 10 body traversals + 1 exit traversal out of cond
    assert abs(prof.prob(cond, body) - 10 / 11) < 1e-12
    assert abs(prof.prob(cond, exit_b) - 1 / 11) < 1e-12
    assert abs(sum(prof.prob(cond, s) for s in cond.succs) - 1.0) < 1e-12


def test_edge_prob_zero_count_falls_back_to_uniform():
    # the branch inside the dead arm never executes: its outgoing
    # counts are all 0 and prob() splits evenly over the successors
    src = (
        "void main() { int x; int y; x = 0; y = 1;"
        " if (x) { if (y) { print(1); } print(2); } print(3); }"
    )
    m = module_of(src)
    prof = collect_edge_profile(m)
    fn = m.main
    dead_cond = next(b for b in fn.blocks
                     if prof.block(b) == 0 and len(b.succs) == 2)
    for succ in dead_cond.succs:
        assert prof.prob(dead_cond, succ) == 0.5


def test_edge_prob_memo_matches_uncached_and_invalidates():
    """prob() equals the probability recomputed from the raw counts,
    is stable across repeated queries, and sees an edge counter update
    the moment it happens."""
    src = (
        "void main() { int i; for (i = 0; i < 10; i = i + 1) { print(i); } }"
    )
    m = module_of(src)
    prof = collect_edge_profile(m)
    fn = m.main
    cond = next(b for b in fn.blocks if b.name.startswith("for_cond"))
    body = next(b for b in fn.blocks if b.name.startswith("for_body"))

    def uncached(src_b, dst_b):
        succs = list(src_b.succs)
        if dst_b not in succs:
            return 0.0
        total = sum(prof.edge(src_b, s) for s in succs)
        if total == 0:
            return 1.0 / len(succs)
        return prof.edge(src_b, dst_b) / total

    for src_b in fn.blocks:
        for dst_b in fn.blocks:
            first = prof.prob(src_b, dst_b)      # populates the memo
            assert prof.prob(src_b, dst_b) == first   # memo hit
            assert first == uncached(src_b, dst_b)

    # a counter update invalidates: the new counts are visible at once
    before = prof.prob(cond, body)
    prof.edge_count[(cond.uid, body.uid)] += 100
    after = prof.prob(cond, body)
    assert after != before
    assert after == uncached(cond, body)


def test_edge_prob_non_successor_is_zero():
    src = (
        "void main() { int i; for (i = 0; i < 10; i = i + 1) { print(i); } }"
    )
    m = module_of(src)
    prof = collect_edge_profile(m)
    fn = m.main
    body = next(b for b in fn.blocks if b.name.startswith("for_body"))
    exit_b = next(b for b in fn.blocks if b.name.startswith("for_exit"))
    assert exit_b not in body.succs
    assert prof.prob(body, exit_b) == 0.0


def test_load_reuse_detects_repeated_identical_loads():
    src = (
        "void main() { int *p; int i; int s; s = 0; p = alloc(2); *p = 5;"
        " for (i = 0; i < 10; i = i + 1) { s = s + *p; } print(s); }"
    )
    stats = simulate_load_reuse(module_of(src))
    # *p loaded 10x from same address with same value: 9 redundant.
    assert stats.redundant_loads >= 9
    assert stats.total_loads >= 10
    assert 0.0 < stats.reuse_fraction <= 1.0


def test_load_reuse_store_changing_value_breaks_reuse():
    src = (
        "void main() { int *p; int i; int s; s = 0; p = alloc(2);"
        " for (i = 0; i < 10; i = i + 1) { *p = i; s = s + *p; } print(s); }"
    )
    stats = simulate_load_reuse(module_of(src))
    assert stats.redundant_loads == 0


def test_load_reuse_does_not_cross_invocations():
    src = (
        "int f(int *p) { return *p; }"
        "void main() { int *p; int s; int i; s = 0; p = alloc(1); *p = 3;"
        " for (i = 0; i < 4; i = i + 1) { s = s + f(p); } print(s); }"
    )
    stats = simulate_load_reuse(module_of(src))
    # each f() invocation has a fresh table: the *p loads never reuse
    assert stats.redundant_loads == 0
