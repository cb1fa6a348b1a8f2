"""Speculation-flag assignment — turning HSSA into *speculative* SSA.

"Where do speculation flags come from" is a first-class axis, selected
by a :class:`SpecMode`: :func:`flagger_for` returns the *flagger* that
runs after µ/χ lists are created but before φ insertion/renaming (the
paper's Figure 4 ordering), and may both flip ``likely`` flags and
append missing µ/χ operands.  Four modes ship:

* ``PROFILE`` (§3.2.1, :func:`make_profile_flagger`): an operand is
  *likely* (χs/µs) iff its LOC was observed at that reference during the
  training run.  Members of the profiled LOC set missing from a list are
  appended as likely operands (this covers TBAA-unsound corner cases).
  Virtual-variable operands are flagged by intersecting the site's
  profiled LOCs with the LOCs ever touched by the virtual variable's own
  references.
* ``HEURISTIC`` (§3.2.2, :func:`heuristic_flagger`): rule 1 — identical
  address syntax trees are assumed to see the same value, so cross-shape
  virtual χs are ignorable; rule 2 — direct references of one variable
  are assumed to see the same value, so real-variable χs at indirect
  stores are ignorable; rule 3 — call-statement side effects are always
  likely (χs), and call µ lists stay untouched.
* ``STATIC`` (:func:`make_static_flagger`): profile-free — likeliness
  probabilities come from :mod:`repro.analysis.prob_alias` (static
  branch heuristics + probabilistic points-to, no training run),
  thresholded by a tunable cutoff; raising the cutoff only *removes*
  likely marks.
* ``OFF`` (:func:`no_spec_flagger`) leaves everything likely — classical
  HSSA, the paper's O3+TBAA baseline behaviour (plus ``AGGRESSIVE``,
  :func:`aggressive_flagger`, Figure 12's ignore-every-may-alias upper
  bound).

The golden tests under ``tests/ssa/golden/`` pin the profile and
heuristic flag assignments bit-for-bit.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set

from ..analysis.aliasclass import FunctionAliasInfo
from ..analysis.locs import Loc
from ..ir import Function, Symbol
from ..profiling.alias_profile import AliasProfile
from .values import (Chi, Mu, SAssign, SCall, SLoad, SPrint, SSAFunction,
                     SStmt, SStore)

if TYPE_CHECKING:  # pragma: no cover
    from ..analysis.prob_alias import ProbAliasInfo

#: A flagger mutates µ/χ lists in place, pre-renaming.
Flagger = Callable[[SSAFunction, FunctionAliasInfo], None]

#: default probability cutoff of :func:`make_static_flagger` — an alias whose
#: static probability reaches this is treated as real (binding)
DEFAULT_STATIC_THRESHOLD = 0.5


class SpecMode(enum.Enum):
    """How speculation flags are assigned."""

    OFF = "off"                # classical HSSA: everything likely
    PROFILE = "profile"        # §3.2.1, from an alias profile
    HEURISTIC = "heuristic"    # §3.2.2, from the three syntax rules
    STATIC = "static"          # profile-free probabilistic alias analysis
    AGGRESSIVE = "aggressive"  # ignore *all* may-aliases (Fig. 12 bound)


def iter_loads(ssa: SSAFunction):
    """Yield every :class:`SLoad` occurrence in the function."""
    for block in ssa.blocks:
        for stmt in block.stmts:
            for expr in stmt.exprs():
                for node in expr.walk():
                    if isinstance(node, SLoad):
                        yield node
        if block.term is not None:
            for expr in block.term.exprs():
                for node in expr.walk():
                    if isinstance(node, SLoad):
                        yield node


def no_spec_flagger(ssa: SSAFunction, info: FunctionAliasInfo) -> None:
    """Classical HSSA: every may-update/use is binding."""
    for block in ssa.blocks:
        for stmt in block.stmts:
            for chi in stmt.chis:
                chi.likely = True
            for mu in stmt.mus:
                mu.likely = True
    for load in iter_loads(ssa):
        for mu in load.mus:
            mu.likely = True


def aggressive_flagger(ssa: SSAFunction, info: FunctionAliasInfo) -> None:
    """Figure 12's second method / §5.1's manual tuning: ignore every
    may-alias between memory references (unsafe upper bound — only a
    reference's own virtual variable remains binding).  Call side effects
    stay binding: the paper's aggressive promotion targets aliasing, not
    interprocedural effects."""
    for block in ssa.blocks:
        for stmt in block.stmts:
            binding = isinstance(stmt, SCall)
            for chi in stmt.chis:
                chi.likely = binding or chi.is_own
            for mu in stmt.mus:
                mu.likely = binding
    for load in iter_loads(ssa):
        for mu in load.mus:
            mu.likely = mu.is_own


def make_profile_flagger(profile: AliasProfile,
                         threshold: float = 0.0) -> Flagger:
    """Build a §3.2.1 flagger from a training-run alias profile.

    ``threshold`` implements the paper's "degree of likeliness" (§3.1):
    0.0 is the paper's membership rule (an alias observed even once is
    χs/µs); a positive fraction treats rare collisions as speculative
    weak updates, accepting bounded mis-speculation for extra coverage.
    """

    def flagger(ssa: SSAFunction, info: FunctionAliasInfo) -> None:
        vvar_sublocs = _vvar_site_sublocs(ssa, profile)
        visible = _visible_memory_symbols(ssa)

        def flag_chi_list(stmt: SStmt, profiled: Set[Loc],
                          profiled_sub: Set[tuple],
                          executed: bool) -> None:
            present: Set[Symbol] = set()
            for chi in stmt.chis:
                present.add(chi.symbol)
                if chi.is_own:
                    chi.likely = executed
                elif chi.symbol.is_virtual:
                    # vvar operands compare at sub-object granularity —
                    # the profiler's LOC naming scheme (§3.2.1 / [4]).
                    chi.likely = bool(
                        profiled_sub & vvar_sublocs.get(chi.symbol, set())
                    )
                else:
                    chi.likely = chi.symbol in profiled
            # §3.2.1: profiled LOCs missing from the χ list are *added* as
            # speculative updates χs.
            for loc in profiled:
                if isinstance(loc, Symbol) and loc in visible \
                        and loc not in present and not loc.is_array:
                    extra = Chi(loc, likely=True)
                    extra.stmt = stmt
                    stmt.chis.append(extra)

        for block in ssa.blocks:
            for stmt in block.stmts:
                if isinstance(stmt, SStore):
                    flag_chi_list(
                        stmt, profile.store_loc_set(stmt.orig),
                        profile.store_subloc_set(stmt.orig, threshold),
                        profile.store_executed(stmt.orig))
                elif isinstance(stmt, SCall):
                    mod = profile.call_mod_set(stmt.orig)
                    mod_sub = profile.call_mod_subloc_set(stmt.orig)
                    ref = profile.call_ref_set(stmt.orig)
                    ref_sub = profile.call_ref_subloc_set(stmt.orig)
                    flag_chi_list(stmt, mod, mod_sub, True)
                    for mu in stmt.mus:
                        if mu.symbol.is_virtual:
                            mu.likely = bool(
                                ref_sub & vvar_sublocs.get(mu.symbol, set())
                            )
                        else:
                            mu.likely = mu.symbol in ref
                elif isinstance(stmt, SAssign):
                    # Direct def of an aliased scalar: its χs cover virtual
                    # variables; flag by whether the vvar's references ever
                    # touched this symbol.
                    for chi in stmt.chis:
                        chi.likely = (stmt.lhs, 0) in vvar_sublocs.get(
                            chi.symbol, set()
                        )
        for load in iter_loads(ssa):
            profiled = profile.load_loc_set(load.orig)
            profiled_sub = profile.load_subloc_set(load.orig, threshold)
            executed = profile.load_executed(load.orig)
            present = set()
            for mu in load.mus:
                present.add(mu.symbol)
                if mu.is_own:
                    mu.likely = executed
                elif mu.symbol.is_virtual:
                    mu.likely = bool(
                        profiled_sub & vvar_sublocs.get(mu.symbol, set())
                    )
                else:
                    mu.likely = mu.symbol in profiled
            for loc in profiled:
                if isinstance(loc, Symbol) and loc in visible \
                        and loc not in present and not loc.is_array:
                    load.mus.append(Mu(loc, likely=True))

    return flagger


def heuristic_flagger(ssa: SSAFunction, info: FunctionAliasInfo) -> None:
    """§3.2.2's three syntax-tree heuristic rules."""
    for block in ssa.blocks:
        for stmt in block.stmts:
            if isinstance(stmt, SStore):
                for chi in stmt.chis:
                    # Rule 1: only the identical-syntax reference (the own
                    # virtual variable) certainly sees this update; rule 2:
                    # direct variables are assumed unaffected.
                    chi.likely = chi.is_own
            elif isinstance(stmt, SCall):
                # Rule 3: call side effects are always highly likely; the
                # µ list of the call remains unchanged (all binding).
                for chi in stmt.chis:
                    chi.likely = True
                for mu in stmt.mus:
                    mu.likely = True
            elif isinstance(stmt, SAssign):
                for chi in stmt.chis:
                    chi.likely = False  # rule 1 from the vvar's viewpoint
    for load in iter_loads(ssa):
        for mu in load.mus:
            mu.likely = mu.is_own


def make_static_flagger(
    threshold: float = DEFAULT_STATIC_THRESHOLD,
    info_for: Optional[Callable[[Function], "ProbAliasInfo"]] = None,
) -> Flagger:
    """Build a profile-free flagger from static probabilistic alias facts.

    An operand is likely iff its statically-computed alias probability
    reaches ``threshold`` — so raising the threshold only ever *removes*
    likely marks (more speculation), never adds them.  Own operands are
    likely iff their site can execute at all (an ``if (0)`` body is dead),
    and call-statement effects stay fully binding: the analysis is
    intraprocedural, so interprocedural effects get the safe rule-3
    treatment.  ``info_for`` lets the pipeline supply its cached
    ``prob-alias`` analysis; by default facts are computed on demand.
    """
    from ..analysis.prob_alias import compute_prob_alias

    memo: Dict[int, "ProbAliasInfo"] = {}

    def info_of(fn: Function) -> "ProbAliasInfo":
        if info_for is not None:
            return info_for(fn)
        key = id(fn)
        if key not in memo:
            memo[key] = compute_prob_alias(fn)
        return memo[key]

    def flagger(ssa: SSAFunction, info: FunctionAliasInfo) -> None:
        pa = info_of(ssa.fn)
        # The static footprint of each virtual variable: the site keys of
        # its own references (the analogue of _vvar_site_sublocs).
        vvar_sites: Dict[Symbol, List[int]] = defaultdict(list)
        for load in iter_loads(ssa):
            vvar_sites[load.site.vvar].append(id(load.orig))
        for block in ssa.blocks:
            for stmt in block.stmts:
                if isinstance(stmt, SStore):
                    vvar_sites[stmt.site.vvar].append(id(stmt.orig))

        def vvar_overlap(key: int, vvar: Symbol) -> float:
            """P(this site's address collides with any reference of the
            virtual variable)."""
            return max((pa.overlap(key, pa.site(k).dist)
                        for k in vvar_sites.get(vvar, ())), default=0.0)

        def vvar_touches(vvar: Symbol, sym: Symbol) -> float:
            """P(some reference of the virtual variable touches ``sym``)."""
            return max((pa.site(k).target_prob(sym)
                        for k in vvar_sites.get(vvar, ())), default=0.0)

        def flag(op, key: int) -> None:
            if op.is_own:
                op.likely = pa.executed(key)
            elif op.symbol.is_virtual:
                op.likely = vvar_overlap(key, op.symbol) >= threshold
            else:
                op.likely = pa.target_prob(key, op.symbol) >= threshold

        for block in ssa.blocks:
            for stmt in block.stmts:
                if isinstance(stmt, SStore):
                    key = id(stmt.orig)
                    for chi in stmt.chis:
                        flag(chi, key)
                elif isinstance(stmt, SCall):
                    for chi in stmt.chis:
                        chi.likely = True
                    for mu in stmt.mus:
                        mu.likely = True
                elif isinstance(stmt, SAssign):
                    for chi in stmt.chis:
                        chi.likely = vvar_touches(chi.symbol,
                                                  stmt.lhs) >= threshold
        for load in iter_loads(ssa):
            key = id(load.orig)
            for mu in load.mus:
                flag(mu, key)

    return flagger


def flagger_for(
    mode: SpecMode,
    profile: Optional[AliasProfile] = None,
    threshold: float = 0.0,
    static_threshold: float = DEFAULT_STATIC_THRESHOLD,
    prob_info_for: Optional[Callable[[Function], "ProbAliasInfo"]] = None,
) -> Flagger:
    """The flagger implementing a :class:`SpecMode`."""
    if mode is SpecMode.OFF:
        return no_spec_flagger
    if mode is SpecMode.PROFILE:
        if profile is None:
            raise ValueError("PROFILE mode requires an alias profile")
        return make_profile_flagger(profile, threshold)
    if mode is SpecMode.HEURISTIC:
        return heuristic_flagger
    if mode is SpecMode.STATIC:
        return make_static_flagger(static_threshold, prob_info_for)
    if mode is SpecMode.AGGRESSIVE:
        return aggressive_flagger
    raise ValueError(f"unknown mode {mode!r}")  # pragma: no cover


def flag_snapshot(ssa: SSAFunction) -> str:
    """A canonical text serialization of every µ/χ likeliness flag.

    One line per operand, in deterministic (block, statement, operand)
    order.  Two SSA forms of the same function have equal snapshots iff
    their speculation-flag assignments are bit-identical — the golden
    tests pin flagger behaviour across refactors with this."""
    lines: List[str] = [f"function {ssa.fn.name}"]

    def mark(sym: Symbol) -> str:
        return f"~{sym.name}" if sym.is_virtual else sym.name

    for bi, block in enumerate(ssa.blocks):
        for si, stmt in enumerate(block.stmts):
            kind = type(stmt).__name__
            for chi in stmt.chis:
                lines.append(
                    f"b{bi} s{si} {kind} chi {mark(chi.symbol)} "
                    f"likely={int(chi.likely)} own={int(chi.is_own)}")
            for mu in stmt.mus:
                lines.append(
                    f"b{bi} s{si} {kind} mu {mark(mu.symbol)} "
                    f"likely={int(mu.likely)} own={int(mu.is_own)}")
    for li, load in enumerate(iter_loads(ssa)):
        for mu in load.mus:
            lines.append(f"load{li} mu {mark(mu.symbol)} "
                         f"likely={int(mu.likely)} own={int(mu.is_own)}")
    return "\n".join(lines) + "\n"


# ---- helpers ---------------------------------------------------------------


def _vvar_site_sublocs(ssa: SSAFunction,
                       profile: AliasProfile) -> Dict[Symbol, Set[tuple]]:
    """Block-granular LOCs ever touched (during profiling) by each
    virtual variable's own references — the dynamic footprint used to flag
    vvar operands."""
    result: Dict[Symbol, Set[tuple]] = defaultdict(set)
    for load in iter_loads(ssa):
        result[load.site.vvar] |= profile.load_subloc_set(load.orig)
    for block in ssa.blocks:
        for stmt in block.stmts:
            if isinstance(stmt, SStore):
                result[stmt.site.vvar] |= profile.store_subloc_set(
                    stmt.orig
                )
    return result


def _visible_memory_symbols(ssa: SSAFunction) -> Set[Symbol]:
    fn = ssa.fn
    # Globals are discoverable through the symbols already in µ/χ lists and
    # the function's own scope; collect conservatively from both.
    syms = set(fn.params) | set(fn.locals)
    for block in ssa.blocks:
        for stmt in block.stmts:
            for chi in stmt.chis:
                syms.add(chi.symbol)
            for mu in stmt.mus:
                syms.add(mu.symbol)
    return {s for s in syms if s.is_memory_resident}
