"""Profile-free static probabilistic alias analysis.

The speculation flags of :mod:`repro.ssa.spec` historically came from a
training run (§3.2.1) or from syntax heuristics (§3.2.2).  This module
computes a third source with **no training run at all**: every may-alias
relation gets a *probability* in [0, 1], derived purely statically —

1. every CFG edge gets a **static branch probability** from Ball–Larus
   style heuristics (backedges are taken, loop exits are not, constant
   conditions fold, everything else is 50/50);
2. expected **block frequencies** follow from the edge probabilities as
   a sparse linear system (a block's frequency is the probability-
   weighted sum of its predecessors' — the geometric series of a loop
   falls out of the solve);
3. a **probabilistic points-to dataflow** propagates, for each tracked
   pointer, a probability distribution over its possible targets.  The
   transfer function of a block is *affine* (statements either set a
   pointer to a known distribution, copy another pointer's, or mix),
   and merge points combine predecessor distributions weighted by edge
   frequency — so the whole dataflow is again one sparse linear system
   over (block, pointer, target) unknowns, per Di Pierro & Wiklicky's
   linear-equational formulation of probabilistic dataflow, applied to
   the SSA-oriented alias problem of El-Zawawy & Alanazi (PAPERS.md).

Both systems go through :func:`solve_linear` / :func:`solve_linear_multi`:
sparse Gaussian elimination with partial pivoting, falling back to
damped Gauss–Seidel iteration when the system is (near-)singular (e.g. a
probability-1 cycle).  The result, a :class:`ProbAliasInfo`, answers
"how likely does this load/store touch that location" per reference
site; :func:`repro.ssa.spec.make_static_flagger` turns the answers into
speculation flags under a tunable threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple

from ..ir import (AddrOf, BasicBlock, Bin, CallStmt, CondBr, Const, Expr,
                  Function, Jump, Load, StorageKind, Store, Symbol, Un,
                  VarRead)
from ..ir.stmt import Assign
from .dominance import DominatorTree
from .locs import HeapLoc, Loc
from .loops import LoopForest

# ---------------------------------------------------------------------------
# Tunables (the static heuristics and their smoothing constants)
# ---------------------------------------------------------------------------

#: probability a loop's backedge is taken (Ball–Larus loop heuristic;
#: 0.88 is the classic "loop branch" empirical value)
PROB_BACKEDGE_TAKEN = 0.88

#: probability a branch *stays in* its loop when the alternative exits
PROB_LOOP_STAY = 0.88

#: share of a pointer's untracked ("unknown") probability mass assumed
#: to land on any one particular candidate location — the uniform-prior
#: smoothing of the probabilistic model (Di Pierro & Wiklicky use a
#: uniform distribution over the untracked state space)
UNKNOWN_SHARE = 0.25

#: frequencies below this count as "never executes" (a statically dead
#: block, e.g. behind `if (0)`)
EPS_REACH = 1e-9

#: cap on expected block frequency (guards the probability-1-cycle
#: degenerate case when the iterative fallback had to bail out)
FREQ_CAP = 1e9

#: sentinel "locations": a pointer value we lost track of, and a
#: null / non-pointer value (targets nothing)
UNKNOWN = "<unknown>"
NULL = "<null>"


# ---------------------------------------------------------------------------
# The sparse linear solver (shared by both systems, unit-tested alone)
# ---------------------------------------------------------------------------


class SingularSystem(Exception):
    """Gaussian elimination met a (near-)zero pivot."""


def solve_linear_multi(
    coeffs: Dict[Hashable, Dict[Hashable, float]],
    consts: Dict[Hashable, Dict[Hashable, float]],
    iterations: int = 500,
    tol: float = 1e-12,
) -> Dict[Hashable, Dict[Hashable, float]]:
    """Solve ``x = A·x + b`` for every right-hand-side dimension at once.

    ``coeffs[v][u]`` is ``A[v, u]`` (sparse; absent = 0) and
    ``consts[v]`` is the vector ``b[v]`` as a sparse mapping from an
    arbitrary rhs dimension key to its value.  Returns ``x`` in the same
    vector shape.  Strategy: sparse Gaussian elimination with partial
    pivoting on ``(I - A)``; if a pivot degenerates (the system is
    singular — e.g. a probability-1 cycle), fall back to damped
    Gauss–Seidel iteration, which is well-behaved for the substochastic
    matrices probabilistic dataflow produces.
    """
    order = list(coeffs)
    try:
        return _eliminate(order, coeffs, consts)
    except SingularSystem:
        return _gauss_seidel(order, coeffs, consts, iterations, tol)


def solve_linear(
    coeffs: Dict[Hashable, Dict[Hashable, float]],
    consts: Dict[Hashable, float],
    iterations: int = 500,
    tol: float = 1e-12,
) -> Dict[Hashable, float]:
    """Scalar-rhs convenience wrapper over :func:`solve_linear_multi`."""
    multi = solve_linear_multi(
        coeffs, {v: {0: c} for v, c in consts.items()},
        iterations=iterations, tol=tol)
    return {v: vec.get(0, 0.0) for v, vec in multi.items()}


def _vec_axpy(dst: Dict, factor: float, src: Dict) -> None:
    """``dst += factor * src`` on sparse vectors, in place."""
    for key, value in src.items():
        dst[key] = dst.get(key, 0.0) + factor * value


def _eliminate(order, coeffs, consts):
    position = {v: i for i, v in enumerate(order)}
    rows: List[Dict] = []
    rhs: List[Dict] = []
    for v in order:
        row = {u: -c for u, c in coeffs[v].items() if c}
        row[v] = row.get(v, 0.0) + 1.0
        rows.append(row)
        rhs.append(dict(consts.get(v, {})))
    n = len(order)
    for i in range(n):
        var = order[i]
        pivot_j, pivot_val = i, abs(rows[i].get(var, 0.0))
        for j in range(i + 1, n):
            cand = abs(rows[j].get(var, 0.0))
            if cand > pivot_val:
                pivot_j, pivot_val = j, cand
        if pivot_val < 1e-10:
            raise SingularSystem(f"pivot for {var!r} ~ 0")
        if pivot_j != i:
            rows[i], rows[pivot_j] = rows[pivot_j], rows[i]
            rhs[i], rhs[pivot_j] = rhs[pivot_j], rhs[i]
        pivot = rows[i].pop(var)
        rows[i] = {u: c / pivot for u, c in rows[i].items() if c}
        rhs[i] = {k: c / pivot for k, c in rhs[i].items()}
        for j in range(i + 1, n):
            factor = rows[j].pop(var, 0.0)
            if not factor:
                continue
            for u, c in rows[i].items():
                rows[j][u] = rows[j].get(u, 0.0) - factor * c
            _vec_axpy(rhs[j], -factor, rhs[i])
    solution: Dict[Hashable, Dict] = {}
    for i in range(n - 1, -1, -1):
        value = dict(rhs[i])
        for u, c in rows[i].items():
            if position[u] > i and c:
                _vec_axpy(value, -c, solution[u])
        solution[order[i]] = {k: x for k, x in value.items()
                              if abs(x) > 1e-15}
    return solution


def _gauss_seidel(order, coeffs, consts, iterations, tol):
    x: Dict[Hashable, Dict] = {v: dict(consts.get(v, {})) for v in order}
    for _ in range(iterations):
        delta = 0.0
        for v in order:
            new = dict(consts.get(v, {}))
            for u, c in coeffs[v].items():
                if c:
                    _vec_axpy(new, c, x.get(u, {}))
            # cap runaway components (probability-1 cycles diverge)
            new = {k: min(val, FREQ_CAP) for k, val in new.items()}
            old = x[v]
            for key in set(new) | set(old):
                delta = max(delta,
                            abs(new.get(key, 0.0) - old.get(key, 0.0)))
            x[v] = new
        if delta < tol:
            break
    return x


# ---------------------------------------------------------------------------
# Static branch probabilities and expected block frequencies
# ---------------------------------------------------------------------------


def branch_probabilities(
    fn: Function,
    dom: Optional[DominatorTree] = None,
) -> Dict[Tuple[BasicBlock, BasicBlock], float]:
    """Per-edge static branch probabilities for every reachable block.

    Heuristics, in precedence order: a constant condition folds to
    1.0/0.0; a backedge is taken with :data:`PROB_BACKEDGE_TAKEN`; an
    edge leaving the innermost loop loses to one staying
    (:data:`PROB_LOOP_STAY`); anything else splits 50/50.  Parallel
    edges (both arms of a branch reaching one block) sum.
    """
    fn.compute_cfg()
    dom = dom if dom is not None else DominatorTree(fn)
    forest = LoopForest(fn, dom)
    backedges: Set[Tuple[BasicBlock, BasicBlock]] = set()
    for loop in forest.loops:
        for block in loop.blocks:
            if loop.header in block.successors():
                backedges.add((block, loop.header))

    def leaves_loop(block: BasicBlock, succ: BasicBlock) -> bool:
        loop = forest.innermost(block)
        return loop is not None and succ not in loop.blocks

    probs: Dict[Tuple[BasicBlock, BasicBlock], float] = {}

    def add(src: BasicBlock, dst: BasicBlock, p: float) -> None:
        probs[(src, dst)] = probs.get((src, dst), 0.0) + p

    for block in fn.rpo():
        term = block.terminator
        if isinstance(term, Jump):
            add(block, term.target, 1.0)
        elif isinstance(term, CondBr):
            then_b, else_b = term.then_block, term.else_block
            if isinstance(term.cond, Const):
                p_then = 1.0 if term.cond.value else 0.0
            elif (block, then_b) in backedges \
                    and (block, else_b) not in backedges:
                p_then = PROB_BACKEDGE_TAKEN
            elif (block, else_b) in backedges \
                    and (block, then_b) not in backedges:
                p_then = 1.0 - PROB_BACKEDGE_TAKEN
            elif leaves_loop(block, then_b) \
                    and not leaves_loop(block, else_b):
                p_then = 1.0 - PROB_LOOP_STAY
            elif leaves_loop(block, else_b) \
                    and not leaves_loop(block, then_b):
                p_then = PROB_LOOP_STAY
            else:
                p_then = 0.5
            add(block, then_b, p_then)
            add(block, else_b, 1.0 - p_then)
    return probs


def block_frequencies(
    fn: Function,
    edge_probs: Optional[Dict[Tuple[BasicBlock, BasicBlock], float]] = None,
    dom: Optional[DominatorTree] = None,
) -> Dict[BasicBlock, float]:
    """Expected execution frequency per block: the solution of
    ``freq(b) = [b is entry] + Σ_pred prob(pred→b)·freq(pred)`` — one
    sparse linear solve; a loop body's geometric series
    ``1/(1 - p_backedge)`` is the closed form the unit tests pin."""
    probs = edge_probs if edge_probs is not None \
        else branch_probabilities(fn, dom)
    blocks = fn.rpo()
    reachable = set(blocks)
    coeffs: Dict[Hashable, Dict[Hashable, float]] = {}
    consts: Dict[Hashable, float] = {}
    for block in blocks:
        row: Dict[Hashable, float] = {}
        for pred in block.preds:
            if pred not in reachable:
                continue
            p = probs.get((pred, block), 0.0)
            if p:
                row[pred] = row.get(pred, 0.0) + p
        coeffs[block] = row
        consts[block] = 1.0 if block is fn.entry else 0.0
    solution = solve_linear(coeffs, consts)
    return {b: min(max(solution.get(b, 0.0), 0.0), FREQ_CAP)
            for b in blocks}


# ---------------------------------------------------------------------------
# The probabilistic points-to dataflow
# ---------------------------------------------------------------------------

#: a concrete distribution over targets: Loc | UNKNOWN | NULL → mass
Dist = Dict[object, float]

#: an affine symbolic distribution: a mix of block-entry pointer values
#: (coefficients) plus a constant part — the per-block transfer image
SymDist = Tuple[Dict[Symbol, float], Dist]


def _sym_const(dist: Dist) -> SymDist:
    return ({}, dist)


def _sym_mix(a: SymDist, b: SymDist, wa: float, wb: float) -> SymDist:
    coeff: Dict[Symbol, float] = {}
    const: Dist = {}
    for w, (c, k) in ((wa, a), (wb, b)):
        for sym, x in c.items():
            coeff[sym] = coeff.get(sym, 0.0) + w * x
        for loc, x in k.items():
            const[loc] = const.get(loc, 0.0) + w * x
    return (coeff, const)


@dataclass
class SiteProb:
    """Probabilistic alias facts for one load/store site."""

    #: distribution of the address over targets (keys: Loc, UNKNOWN, NULL)
    dist: Dist = field(default_factory=dict)
    #: likeliness the site executes at all (0 = statically dead)
    reach: float = 0.0

    def target_prob(self, loc: Loc) -> float:
        """P(this reference touches ``loc``): tracked mass on ``loc``
        plus the uniform-prior share of the unknown mass."""
        return min(1.0, self.dist.get(loc, 0.0)
                   + self.dist.get(UNKNOWN, 0.0) * UNKNOWN_SHARE)


def dist_overlap(a: Dist, b: Dist) -> float:
    """P(two independently-drawn addresses collide): the inner product
    of the tracked masses, with unknown mass colliding at the
    :data:`UNKNOWN_SHARE` prior."""
    locs = [k for k in set(a) | set(b) if k is not UNKNOWN and k is not NULL]
    a_u, b_u = a.get(UNKNOWN, 0.0), b.get(UNKNOWN, 0.0)
    overlap = sum(a.get(k, 0.0) * b.get(k, 0.0) for k in locs)
    overlap += UNKNOWN_SHARE * (
        a_u * sum(b.get(k, 0.0) for k in locs)
        + b_u * sum(a.get(k, 0.0) for k in locs)
        + a_u * b_u)
    return min(1.0, overlap)


class ProbAliasInfo:
    """Per-function result: per-site address distributions + reach."""

    def __init__(self, fn: Function) -> None:
        self.fn = fn
        #: id(Load expr) / id(Store stmt) → facts
        self.sites: Dict[int, SiteProb] = {}
        #: expected execution frequency per block name (introspection)
        self.freq: Dict[str, float] = {}
        #: static branch probability per (src, dst) block-name pair
        self.edge_prob: Dict[Tuple[str, str], float] = {}

    def site(self, key: int) -> SiteProb:
        return self.sites.get(key) or SiteProb({UNKNOWN: 1.0}, 1.0)

    def target_prob(self, key: int, loc: Loc) -> float:
        return self.site(key).target_prob(loc)

    def executed(self, key: int) -> bool:
        """Can this site execute at all (statically)?"""
        return self.site(key).reach > EPS_REACH

    def overlap(self, key: int, other: Dist) -> float:
        return dist_overlap(self.site(key).dist, other)


class ProbAliasAnalysis:
    """Runs the whole static probabilistic pipeline for one function."""

    def __init__(self, fn: Function,
                 dom: Optional[DominatorTree] = None) -> None:
        self.fn = fn
        fn.compute_cfg()
        self.edge_probs = branch_probabilities(fn, dom)
        self.freqs = block_frequencies(fn, self.edge_probs)
        self._tracked = self._tracked_pointers()
        self.info = ProbAliasInfo(fn)
        self.info.freq = {b.name: f for b, f in self.freqs.items()}
        self.info.edge_prob = {(s.name, d.name): p
                               for (s, d), p in self.edge_probs.items()}
        self._solve_and_record()

    # ---- tracked pointers (same rule as repro.ssa.refine) ----------------
    def _tracked_pointers(self) -> Set[Symbol]:
        tracked: Set[Symbol] = set()
        for sym in self.fn.params + self.fn.locals:
            if sym.ty.is_pointer and not sym.address_taken \
                    and not sym.is_array:
                tracked.add(sym)
        # register-resident compiler temporaries (e.g. alloc results)
        for _, stmt in self.fn.statements():
            if isinstance(stmt, Assign) and self._is_temp(stmt.sym):
                tracked.add(stmt.sym)
            elif isinstance(stmt, CallStmt) and stmt.dst is not None \
                    and self._is_temp(stmt.dst):
                tracked.add(stmt.dst)
        return tracked

    @staticmethod
    def _is_temp(sym: Symbol) -> bool:
        return sym.kind is StorageKind.TEMP and not sym.address_taken

    def _is_tracked(self, sym: Symbol) -> bool:
        return sym in self._tracked

    # ---- symbolic (affine) transfer over one block -----------------------
    def _eval(self, state: Dict[Symbol, SymDist], expr: Expr) -> SymDist:
        if isinstance(expr, Const):
            return _sym_const({NULL: 1.0})
        if isinstance(expr, AddrOf):
            return _sym_const({expr.sym: 1.0})
        if isinstance(expr, VarRead):
            if expr.sym.is_array:
                return _sym_const({expr.sym: 1.0})
            if self._is_tracked(expr.sym):
                return state.get(expr.sym, _sym_const({UNKNOWN: 1.0}))
            return _sym_const({UNKNOWN: 1.0})
        if isinstance(expr, Bin) and expr.op in ("+", "-"):
            # pointer arithmetic stays within the pointed-to object
            if expr.left.ty.is_pointer and not expr.right.ty.is_pointer:
                return self._eval(state, expr.left)
            if expr.right.ty.is_pointer and not expr.left.ty.is_pointer:
                return self._eval(state, expr.right)
            return _sym_mix(self._eval(state, expr.left),
                            self._eval(state, expr.right), 0.5, 0.5)
        if isinstance(expr, Un):
            return self._eval(state, expr.operand)
        return _sym_const({UNKNOWN: 1.0})  # loads, comparisons, ...

    def _transfer(self, state: Dict[Symbol, SymDist], stmt) -> None:
        if isinstance(stmt, Assign):
            if self._is_tracked(stmt.sym):
                state[stmt.sym] = self._eval(state, stmt.value)
        elif isinstance(stmt, CallStmt):
            if stmt.dst is None or not self._is_tracked(stmt.dst):
                return
            if stmt.is_alloc:
                assert stmt.site_id is not None
                state[stmt.dst] = _sym_const({HeapLoc(stmt.site_id): 1.0})
            else:
                state[stmt.dst] = _sym_const({UNKNOWN: 1.0})

    def _block_transfer(self, block: BasicBlock) -> Dict[Symbol, SymDist]:
        """The block's affine image: exit distribution of each tracked
        pointer as a mix of entry values plus a constant part."""
        state: Dict[Symbol, SymDist] = {
            p: ({p: 1.0}, {}) for p in self._tracked}
        for stmt in block.stmts:
            self._transfer(state, stmt)
        return state

    # ---- assemble + solve the global sparse system -----------------------
    def _entry_dist(self, sym: Symbol) -> Dist:
        # parameters arrive unknown; locals are zero-initialized (null)
        return {UNKNOWN: 1.0} if sym.kind is StorageKind.PARAM \
            else {NULL: 1.0}

    def _solve_and_record(self) -> None:
        blocks = self.fn.rpo()
        if not self._tracked:
            entry_states: Dict[BasicBlock, Dict[Symbol, Dist]] = {
                b: {} for b in blocks}
            self._record(blocks, entry_states)
            return
        transfers = {b: self._block_transfer(b) for b in blocks}
        reachable = set(blocks)
        coeffs: Dict[Hashable, Dict[Hashable, float]] = {}
        consts: Dict[Hashable, Dict[Hashable, float]] = {}
        for block in blocks:
            # normalized incoming edge weights (by expected frequency)
            weights: List[Tuple[BasicBlock, float]] = []
            for pred in block.preds:
                if pred not in reachable:
                    continue
                p = self.edge_probs.get((pred, block), 0.0)
                weights.append((pred, self.freqs.get(pred, 0.0) * p))
            total = sum(w for _, w in weights)
            if block is self.fn.entry or total <= EPS_REACH:
                for ptr in self._tracked:
                    coeffs[(block, ptr)] = {}
                    consts[(block, ptr)] = self._entry_dist(ptr)
                continue
            for ptr in self._tracked:
                row: Dict[Hashable, float] = {}
                const: Dist = {}
                for pred, w in weights:
                    if w <= 0.0:
                        continue
                    share = w / total
                    coeff, k = transfers[pred][ptr]
                    for src_ptr, c in coeff.items():
                        key = (pred, src_ptr)
                        row[key] = row.get(key, 0.0) + share * c
                    _vec_axpy(const, share, k)
                coeffs[(block, ptr)] = row
                consts[(block, ptr)] = const
        solution = solve_linear_multi(coeffs, consts)
        entry_states = {}
        for block in blocks:
            entry_states[block] = {
                ptr: _clamp_dist(solution.get((block, ptr), {}))
                for ptr in self._tracked}
        self._record(blocks, entry_states)

    # ---- final recording pass (concrete, per site) -----------------------
    def _record(self, blocks, entry_states) -> None:
        for block in blocks:
            reach = min(1.0, self.freqs.get(block, 0.0))
            sym_state: Dict[Symbol, SymDist] = {
                p: _sym_const(entry_states[block].get(p, {UNKNOWN: 1.0}))
                for p in self._tracked}
            for stmt in block.stmts:
                for top in stmt.exprs():
                    for node in top.walk():
                        if isinstance(node, Load):
                            self._record_site(id(node), sym_state,
                                              node.addr, reach)
                if isinstance(stmt, Store):
                    self._record_site(id(stmt), sym_state, stmt.addr,
                                      reach)
                self._transfer(sym_state, stmt)
            if block.terminator is not None:
                for top in block.terminator.exprs():
                    for node in top.walk():
                        if isinstance(node, Load):
                            self._record_site(id(node), sym_state,
                                              node.addr, reach)

    def _record_site(self, key: int, sym_state, addr: Expr,
                     reach: float) -> None:
        coeff, const = self._eval(sym_state, addr)
        assert not coeff, "entry state is concrete"
        dist = _clamp_dist(const)
        existing = self.info.sites.get(key)
        if existing is not None:
            # a site inside an unrolled/duplicated context: average
            dist = _clamp_dist({k: 0.5 * (existing.dist.get(k, 0.0)
                                          + dist.get(k, 0.0))
                                for k in set(existing.dist) | set(dist)})
            reach = max(existing.reach, reach)
        self.info.sites[key] = SiteProb(dist, reach)


def _clamp_dist(dist: Dist) -> Dist:
    """Numerical cleanup: drop negatives/noise, renormalize mass > 1."""
    clean = {k: v for k, v in dist.items() if v > 1e-12}
    total = sum(clean.values())
    if total > 1.0 + 1e-9:
        clean = {k: v / total for k, v in clean.items()}
    return clean


def compute_prob_alias(fn: Function,
                       dom: Optional[DominatorTree] = None) -> ProbAliasInfo:
    """The static probabilistic alias facts of ``fn`` (the pipeline
    caches this per function as the ``prob-alias`` analysis)."""
    return ProbAliasAnalysis(fn, dom).info
