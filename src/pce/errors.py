"""Exception taxonomy shared across the package.

Every error that crosses a module boundary is a subclass of PceError so the
CLI can map failures onto its exit-code contract (config errors exit 2,
capacity/underflow errors exit 3).
"""

from __future__ import annotations


class PceError(Exception):
    """Base class for all package errors."""


class ConfigError(PceError):
    """Invalid batch spec or malformed generator input."""


class ValidationError(PceError):
    """A value violates a structural invariant (bad circuit, bad program)."""


class UnsupportedGateError(PceError):
    """A gate kind reached a consumer that cannot handle it."""


class CapacityError(PceError):
    """A parameter memory bank of ``limit`` words would overflow."""

    def __init__(self, qubit: int, count: int, limit: int, where: str = ""):
        self.qubit = qubit
        self.count = count
        self.limit = limit
        prefix = f"{where}: " if where else ""
        super().__init__(
            f"{prefix}qubit {qubit}: {count} phase words exceed the {limit}-word bank capacity"
        )


class TableCapacityError(CapacityError):
    """A definition table (envelope or frequency) would overflow its memory."""

    def __init__(self, table: str, count: int, limit: int):
        self.count, self.limit = count, limit
        PceError.__init__(
            self, f"{table} table: {count} entries exceed the {limit}-entry table capacity"
        )


class UnderflowError(PceError):
    """A stitch request arrived after the per-circuit parameter budget ran out."""

    def __init__(self, core_id: int, shot: int = -1, op_index: int = -1, where: str = ""):
        self.core_id = core_id
        self.shot = shot
        self.op_index = op_index
        prefix = f"{where}: " if where else ""
        at = f" (shot {shot}, op {op_index})" if shot >= 0 else ""
        super().__init__(f"{prefix}parameter underflow on core {core_id}{at}")


class RoutingError(PceError):
    """A parameter write addressed a bank that does not exist."""


class EncodeError(PceError):
    """A value cannot be represented in a wire or file format."""


class DecodeError(PceError):
    """A blob, machine file, RPC frame, or non-UTF-8 text file failed to parse."""

    def __init__(self, message: str, offset: int = -1):
        self.detail = message  # without the offset suffix, for re-raising at another base
        self.offset = offset
        if offset >= 0:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)


class SchedulingError(PceError):
    """Execution order, unique list, and parameter blob disagree."""


class InstrumentationError(PceError):
    """A profiling scope was opened or closed outside its declared parent."""


class IncompleteRecordError(PceError):
    """A profile record is missing stages required for comparison."""


class ComparisonError(PceError):
    """Two profile reports do not describe the same batch."""
