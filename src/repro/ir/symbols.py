"""Symbols: named storage locations of the mid-level IR.

A :class:`Symbol` names one storage location — a scalar variable, a fixed-size
array, a function parameter, a compiler temporary, or (in HSSA form) a
*virtual variable* standing for a class of indirect memory references
(Chow et al. [5]).  Symbols compare by identity: two distinct symbols with
the same name are different storage.
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

from .types import Type


class StorageKind(enum.Enum):
    """Where a symbol lives, which determines its abstract memory location
    (LOC) during alias profiling and its addressability."""

    GLOBAL = "global"
    LOCAL = "local"
    PARAM = "param"
    TEMP = "temp"          # compiler-generated scalar, never address-taken
    VIRTUAL = "virtual"    # HSSA virtual variable, no storage at all


_symbol_ids = itertools.count()


class Symbol:
    """A named storage location.

    Attributes:
        name: source-level or compiler-generated name.
        ty: the type of the value held in each cell (for arrays, the element
            type).
        kind: the :class:`StorageKind`.
        array_size: number of cells if this symbol is an array; ``0`` for
            scalars.
        address_taken: set by the frontend / alias analysis when ``&sym``
            occurs or the symbol is an array (arrays decay to addresses, so
            their cells are always reached through pointers).
    """

    __slots__ = ("name", "ty", "kind", "array_size", "address_taken", "uid")

    def __init__(
        self,
        name: str,
        ty: Type,
        kind: StorageKind = StorageKind.LOCAL,
        array_size: int = 0,
        address_taken: bool = False,
    ) -> None:
        self.name = name
        self.ty = ty
        self.kind = kind
        self.array_size = array_size
        self.address_taken = address_taken or array_size > 0
        self.uid = next(_symbol_ids)

    @property
    def is_array(self) -> bool:
        return self.array_size > 0

    @property
    def is_virtual(self) -> bool:
        return self.kind is StorageKind.VIRTUAL

    @property
    def is_memory_resident(self) -> bool:
        """Direct reads/writes are memory accesses (loads/stores in the
        generated code): globals and address-taken locals."""
        return (self.kind is StorageKind.GLOBAL or self.address_taken) \
            and not self.is_virtual and not self.is_array

    def __repr__(self) -> str:
        return f"Symbol({self.name}:{self.ty}, {self.kind.value})"

    def __str__(self) -> str:
        return self.name


def make_temp(ty: Type, prefix: str = "t") -> Symbol:
    """Create a fresh compiler temporary of type ``ty``."""
    sym = Symbol(f"{prefix}{next(_symbol_ids)}", ty, StorageKind.TEMP)
    return sym


def make_virtual(name: str, ty: Type) -> Symbol:
    """Create an HSSA virtual variable (no storage; versioned like a scalar)."""
    return Symbol(name, ty, StorageKind.VIRTUAL)
