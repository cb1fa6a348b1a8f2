"""Type system for the mid-level IR.

The IR uses a deliberately small type lattice: 64-bit integers (``INT``),
double-precision floats (``FLOAT``) and typed pointers.  Memory is
*cell-addressed*: every scalar value, regardless of type, occupies exactly one
memory cell, and pointer arithmetic counts cells.  This keeps the interpreter,
the ALAT model and the alias profiler simple without changing any of the
paper's algorithms (which never depend on byte-level layout).

Types are immutable and interned-by-value (frozen dataclasses), so they can be
used as dictionary keys — e.g. by the type-based alias analysis, which refines
alias classes by declared access type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Type:
    """An IR type: ``int``, ``double``, or a pointer to another type.

    Attributes:
        kind: one of ``"int"``, ``"float"``, ``"ptr"``.
        pointee: for pointer types, the type pointed to; ``None`` otherwise.
    """

    kind: str
    pointee: Optional["Type"] = None

    def __post_init__(self) -> None:
        if self.kind not in ("int", "float", "ptr"):
            raise ValueError(f"unknown type kind: {self.kind!r}")
        if self.kind == "ptr" and self.pointee is None:
            raise ValueError("pointer type requires a pointee")
        if self.kind != "ptr" and self.pointee is not None:
            raise ValueError(f"{self.kind} type cannot have a pointee")

    @property
    def is_int(self) -> bool:
        return self.kind == "int"

    @property
    def is_float(self) -> bool:
        return self.kind == "float"

    @property
    def is_pointer(self) -> bool:
        return self.kind == "ptr"

    def deref(self) -> "Type":
        """The type obtained by loading through this pointer."""
        if not self.is_pointer:
            raise TypeError(f"cannot dereference non-pointer type {self}")
        assert self.pointee is not None
        return self.pointee

    def __str__(self) -> str:
        if self.kind == "int":
            return "int"
        if self.kind == "float":
            return "double"
        return f"{self.pointee}*"


INT = Type("int")
FLOAT = Type("float")


def ptr(pointee: Type) -> Type:
    """Build a pointer type to ``pointee``."""
    return Type("ptr", pointee)


def common_arith_type(a: Type, b: Type) -> Type:
    """The result type of an arithmetic operation over operand types.

    Pointer arithmetic (``ptr + int``) yields the pointer type; mixed
    int/float arithmetic promotes to float, mirroring C's usual conversions.
    """
    if a.is_pointer and b.is_int:
        return a
    if b.is_pointer and a.is_int:
        return b
    if a.is_pointer and b.is_pointer:
        # pointer difference
        return INT
    if a.is_float or b.is_float:
        return FLOAT
    return INT
