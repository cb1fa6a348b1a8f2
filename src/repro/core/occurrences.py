"""Expression occurrences for SSAPRE.

SSAPRE works one *lexically identified expression* at a time (paper §4.1).
This module defines:

* :func:`lexical_key` — the lexical identity of a candidate expression
  (symbols by identity, constants by value, structure by shape), ignoring
  SSA versions;
* collection of **real occurrences** with parent links so CodeMotion can
  rewrite an occurrence in place;
* **left occurrences** (stores of the same lexical shape, after Lo et
  al. [25]) which *define* the expression's value for register promotion;
* the Φ occurrence / Φ-operand records that Rename, DownSafety,
  WillBeAvailable and Finalize annotate.

An occurrence's *versions* map each leaf symbol (including the virtual
variable of a load) to the SSA version holding at the occurrence point —
the signature Rename compares, speculatively skipping weak updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..ir import Symbol
from ..ssa import (SAddrOf, SAssign, SBin, SCall, SCondBr, SConst, SExpr,
                   SLoad, SPrint, SReturn, SSABlock, SSAFunction, SSAVar,
                   SStore, SUn, SVarUse)


def lexical_key(expr: SExpr) -> Optional[tuple]:
    """Lexical identity of an expression occurrence (``None`` if the node
    cannot be a PRE candidate leaf structure)."""
    if isinstance(expr, SConst):
        return ("const", expr.value)
    if isinstance(expr, SVarUse):
        return ("var", expr.symbol.uid)
    if isinstance(expr, SAddrOf):
        return ("addr", expr.symbol.uid)
    if isinstance(expr, SLoad):
        sub = lexical_key(expr.addr)
        if sub is None:
            return None
        return ("load", expr.site.vvar.uid, sub)
    if isinstance(expr, SBin):
        left, right = lexical_key(expr.left), lexical_key(expr.right)
        if left is None or right is None:
            return None
        return ("bin", expr.op, left, right)
    if isinstance(expr, SUn):
        sub = lexical_key(expr.operand)
        if sub is None:
            return None
        return ("un", expr.op, sub)
    return None


def leaf_versions(expr: SExpr) -> Dict[Symbol, SSAVar]:
    """All (symbol → SSA version) pairs the occurrence depends on,
    including the own virtual-variable version of every contained load."""
    versions: Dict[Symbol, SSAVar] = {}
    for node in expr.walk():
        if isinstance(node, SVarUse):
            assert node.var is not None
            versions[node.symbol] = node.var
        elif isinstance(node, SLoad):
            assert node.own_mu.var is not None
            versions[node.own_mu.symbol] = node.own_mu.var
    return versions


@dataclass
class ParentLink:
    """Where an occurrence node lives, so it can be replaced in place.

    ``container`` is the statement/terminator; ``owner`` is either the
    container (attribute access) or an inner expression node; ``attr`` the
    attribute name; ``index`` for list attributes (e.g. print/call args).
    """

    container: object
    owner: object
    attr: str
    index: Optional[int] = None

    def replace(self, new_node: SExpr) -> None:
        if self.index is None:
            setattr(self.owner, self.attr, new_node)
        else:
            getattr(self.owner, self.attr)[self.index] = new_node


class Occurrence:
    """Base class for occurrences of one expression class."""

    __slots__ = ("block", "seq", "cls")

    def __init__(self, block: SSABlock, seq: int) -> None:
        self.block = block
        self.seq = seq
        self.cls: Optional[int] = None


class RealOcc(Occurrence):
    """A computation of E in the program."""

    __slots__ = ("node", "parent", "versions", "speculative", "save",
                 "reload", "avail_def", "temp_var", "injuries")

    def __init__(self, block: SSABlock, seq: int, node: SExpr,
                 parent: ParentLink) -> None:
        super().__init__(block, seq)
        self.node = node
        self.parent = parent
        self.versions: Dict[Symbol, SSAVar] = {}
        #: matched only by skipping speculative weak updates → needs ld.c
        self.speculative = False
        self.save = False
        self.reload = False
        self.avail_def: Optional[object] = None
        self.temp_var: Optional[SSAVar] = None
        #: injuring defs skipped (strength reduction repairs): list of
        #: (SAssign, delta_expr) to apply to the temp after each injury
        self.injuries: List[object] = []

    def __repr__(self) -> str:
        return f"<RealOcc {self.node!r} @{self.block.name}#{self.seq}>"


class LeftOcc(Occurrence):
    """A store of the same lexical shape (defines E's value)."""

    __slots__ = ("stmt", "versions", "forwardable", "save", "temp_var")

    def __init__(self, block: SSABlock, seq: int, stmt: SStore) -> None:
        super().__init__(block, seq)
        self.stmt = stmt
        self.versions: Dict[Symbol, SSAVar] = {}
        #: value is a leaf (variable/const) we can copy into the temp
        self.forwardable = False
        self.save = False
        self.temp_var: Optional[SSAVar] = None

    def __repr__(self) -> str:
        return f"<LeftOcc {self.stmt!r} @{self.block.name}#{self.seq}>"


class InsertedOcc(Occurrence):
    """A computation inserted at a Φ operand (end of predecessor)."""

    __slots__ = ("versions", "temp_var", "assign")

    def __init__(self, block: SSABlock) -> None:
        super().__init__(block, 1 << 30)  # at block end
        self.versions: Dict[Symbol, SSAVar] = {}
        self.temp_var: Optional[SSAVar] = None
        self.assign: Optional[SAssign] = None

    def __repr__(self) -> str:
        return f"<InsertedOcc @{self.block.name}>"


class PhiOpnd:
    """One operand of an expression Φ."""

    __slots__ = ("pred", "def_occ", "has_real_use", "speculative",
                 "versions", "insert", "injuries")

    def __init__(self, pred: SSABlock) -> None:
        self.pred = pred
        self.def_occ: Optional[object] = None  # ⊥ when None
        self.has_real_use = False
        self.speculative = False
        #: leaf versions current at the end of ``pred`` (for insertions);
        #: None = not computable on this edge (insertions impossible).
        #: An *empty dict* is valid: constant expressions have no leaves.
        self.versions: Optional[Dict[Symbol, SSAVar]] = {}
        self.insert = False
        self.injuries: List[object] = []

    @property
    def is_bottom(self) -> bool:
        return self.def_occ is None


class PhiOcc(Occurrence):
    """An expression Φ (capital phi, distinct from variable φs)."""

    __slots__ = ("operands", "downsafe", "can_be_avail", "later",
                 "speculated", "temp_var", "used")

    def __init__(self, block: SSABlock) -> None:
        super().__init__(block, -1)  # Φs live at block start
        self.operands: List[PhiOpnd] = [PhiOpnd(p) for p in block.preds]
        self.downsafe = True
        self.can_be_avail = True
        self.later = True
        #: made available only via control speculation
        self.speculated = False
        self.temp_var: Optional[SSAVar] = None
        self.used = False

    @property
    def will_be_avail(self) -> bool:
        return self.can_be_avail and not self.later

    def __repr__(self) -> str:
        return f"<PhiOcc @{self.block.name}>"


@dataclass
class ExprClass:
    """All occurrences of one lexical expression in a function."""

    key: tuple
    template: SExpr                     # a representative occurrence node
    real_occs: List[RealOcc] = field(default_factory=list)
    left_occs: List[LeftOcc] = field(default_factory=list)
    phis: Dict[SSABlock, PhiOcc] = field(default_factory=dict)

    @property
    def is_load(self) -> bool:
        """Register-promotion candidates: direct reads of memory-resident
        scalars and indirect loads."""
        return self.key[0] == "load" or (
            self.key[0] == "var" and isinstance(self.template, SVarUse)
            and self.template.symbol.is_memory_resident
        )


# ---------------------------------------------------------------------------
# Collection
# ---------------------------------------------------------------------------


def _is_simple_leaf(expr: SExpr) -> bool:
    """Leaves SSAPRE treats as always-available operands."""
    if isinstance(expr, (SConst, SAddrOf)):
        return True
    if isinstance(expr, SVarUse):
        return not expr.symbol.is_memory_resident
    return False


def _candidate_filter_load(node: SExpr) -> bool:
    """First-order load candidates: every sub-expression of the address is
    a simple leaf or an arithmetic tree over simple leaves (no nested
    loads — those are promoted in an earlier round)."""
    if isinstance(node, SVarUse):
        return node.symbol.is_memory_resident
    if isinstance(node, SLoad):
        return all(
            _is_simple_leaf(n) or isinstance(n, (SBin, SUn))
            for n in node.addr.walk()
        ) and not any(isinstance(n, SLoad) for n in node.addr.walk())
    return False


def _candidate_filter_arith(node: SExpr) -> bool:
    """First-order arithmetic candidates: a binary/unary op over simple
    leaves (memory reads must already be promoted to temps)."""
    if isinstance(node, SBin):
        return (_is_simple_leaf(node.left) and _is_simple_leaf(node.right)
                and not (isinstance(node.left, SConst)
                         and isinstance(node.right, SConst)))
    if isinstance(node, SUn):
        return (_is_simple_leaf(node.operand)
                and not isinstance(node.operand, SConst))
    return False


def _walk_with_parents(stmt: object):
    """Yield (node, ParentLink) for every expression node in a statement
    or terminator, in evaluation (post-) order."""

    def rec(node: SExpr, owner: object, attr: str, index, container):
        if isinstance(node, SLoad):
            yield from rec(node.addr, node, "addr", None, container)
        elif isinstance(node, SBin):
            yield from rec(node.left, node, "left", None, container)
            yield from rec(node.right, node, "right", None, container)
        elif isinstance(node, SUn):
            yield from rec(node.operand, node, "operand", None, container)
        yield node, ParentLink(container, owner, attr, index)

    if isinstance(stmt, SAssign):
        yield from rec(stmt.rhs, stmt, "rhs", None, stmt)
    elif isinstance(stmt, SStore):
        yield from rec(stmt.addr, stmt, "addr", None, stmt)
        yield from rec(stmt.value, stmt, "value", None, stmt)
    elif isinstance(stmt, (SCall, SPrint)):
        for i, arg in enumerate(stmt.args):
            yield from rec(arg, stmt, "args", i, stmt)
    elif isinstance(stmt, SCondBr):
        yield from rec(stmt.cond, stmt, "cond", None, stmt)
    elif isinstance(stmt, SReturn):
        if stmt.value is not None:
            yield from rec(stmt.value, stmt, "value", None, stmt)


def _is_pre_generated(stmt: object) -> bool:
    """Statements materialized by a previous SSAPRE round (saves, checks,
    insertions, repairs) — their contents must not be re-collected, or
    every round would wrap the previous round's save in another temp (and
    would destroy check statements by "promoting" them)."""
    from ..ir import StorageKind

    return (isinstance(stmt, SAssign)
            and isinstance(stmt.lhs, SSAVar)
            and stmt.lhs.symbol.kind is StorageKind.TEMP
            and stmt.lhs.symbol.name.startswith("pre"))


def collect_expr_classes(ssa: SSAFunction, kind: str,
                         include_stores: bool = True
                         ) -> List[ExprClass]:
    """Collect candidate occurrences of ``kind`` ("load" or "arith").

    Occurrences are sequence-numbered in dominator preorder, the order all
    later SSAPRE steps iterate.  For ``"load"`` classes, stores of the same
    lexical shape are collected as left occurrences (register promotion).
    """
    is_candidate = (_candidate_filter_load if kind == "load"
                    else _candidate_filter_arith)
    classes: Dict[tuple, ExprClass] = {}
    seq = 0
    for block in ssa.preorder():
        for stmt in list(block.stmts) + (
            [block.term] if block.term is not None else []
        ):
            seq += 1
            pre_generated = _is_pre_generated(stmt)
            for node, parent in _walk_with_parents(stmt):
                if pre_generated and node is stmt.rhs:
                    # never re-collect the value a previous round's
                    # save/check materializes (it would wrap saves in
                    # more temps and replace check statements), but DO
                    # collect its sub-expressions: the address arithmetic
                    # of a checked load is ordinary PRE material.
                    continue
                if not is_candidate(node):
                    continue
                key = lexical_key(node)
                if key is None:
                    continue
                ec = classes.get(key)
                if ec is None:
                    ec = ExprClass(key, node)
                    classes[key] = ec
                ec.real_occs.append(RealOcc(block, seq, node, parent))
            if (kind == "load" and include_stores
                    and isinstance(stmt, SStore)):
                key = ("load", stmt.site.vvar.uid, lexical_key(stmt.addr))
                if key[2] is None:
                    continue
                ec = classes.get(key)
                if ec is None:
                    # No real occurrence seen yet; the template is filled
                    # in when one appears (store-only classes are dropped).
                    ec = ExprClass(key, None)  # type: ignore[arg-type]
                    classes[key] = ec
                left = LeftOcc(block, seq, stmt)
                left.forwardable = _is_simple_leaf(stmt.value)
                ec.left_occs.append(left)
    result = []
    for ec in classes.values():
        if not ec.real_occs:
            continue  # store-only shape: nothing to promote
        if ec.template is None:
            ec.template = ec.real_occs[0].node
        result.append(ec)
    return result
