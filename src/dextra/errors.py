"""Exception types shared across the package."""

from __future__ import annotations


class DextraError(Exception):
    """Base class for all package errors."""


class SchemaError(DextraError):
    """A document failed validation.

    Carries every violation found in one pass so callers can report them
    all at once instead of fixing one field per round trip.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class MissingField(SchemaError):
    """A required field is absent or empty."""


class CyclicTree(SchemaError):
    """Link graph is not a tree rooted at a single wrist link."""


class UnknownFingertipLink(SchemaError):
    """A declared fingertip link does not exist or is not a leaf."""


class BadLimits(SchemaError):
    """Joint limits are inverted or the rest angle falls outside them."""


class EmptyMesh(DextraError):
    """Surface query on a mesh with no triangles."""


class DimensionMismatch(DextraError):
    """Array sizes disagree with the model or with each other."""


class FixtureMissing(DextraError):
    """A fixture file or table entry the provider needs does not exist."""


class EmptyContactSet(DextraError):
    """An operation that needs contact fingers received none."""


class NoConvergence(DextraError):
    """A search could not localize a minimum."""


class MissingJointMap(DextraError):
    """The hand model declares no human-to-model joint correspondence."""


class WrongFrame(DextraError):
    """A grasp arrived in a frame the operation does not accept."""


class NonPositiveDt(DextraError):
    """Controller time step must be positive."""


class StageError(DextraError):
    """A pipeline stage failed; names the stage and chains the cause."""

    def __init__(self, stage, cause):
        self.stage = stage
        super().__init__(f"stage '{stage}' failed: {cause}")


def raise_schema(violations):
    """Raise the most specific schema error covering `violations`.

    Each violation is a (kind, message) pair.  A single kind raises that
    kind's exception; mixed kinds raise the plain SchemaError.  All
    messages are always attached.
    """
    if not violations:
        return
    kinds = {kind for kind, _ in violations}
    messages = [msg for _, msg in violations]
    if len(kinds) == 1:
        raise kinds.pop()(messages)
    raise SchemaError(messages)
