"""Exception types shared across the package, and its one JSON document checker.

Every JSON document the package reads (the scene fixture files, a settings
file, a hand model) is checked by `check_document` against a rule table,
and every violation it finds is raised at once through `raise_schema`.
"""

from __future__ import annotations

import json
import math
import sys


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
    """Joint limits are inverted, or a rest or estimated angle falls outside them."""


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


class StageError(DextraError):
    """A pipeline stage failed; names the stage and chains the cause."""

    def __init__(self, stage, cause):
        self.stage = stage
        super().__init__(f"stage '{stage}' failed: {cause}")


def raise_schema(violations, where: str = ""):
    """Raise the most specific schema error covering `violations`.

    Each violation is a (kind, message) pair.  A single kind raises that
    kind's exception; mixed kinds raise the plain SchemaError.  All
    messages are always attached, each prefixed with `where` if given.
    """
    if not violations:
        return
    kinds = {kind for kind, _ in violations}
    messages = [f"{where}: {msg}" if where else msg for _, msg in violations]
    if len(kinds) == 1:
        raise kinds.pop()(messages)
    raise SchemaError(messages)


def number(v) -> bool:
    """A finite JSON number that fits a float; booleans do not count."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def positive(v) -> bool:
    return number(v) and v > 0


# metres: every length a fixture gives lies within +-MAX_LENGTH (the bundled
# ones within 0.65 m), far from where squared distances and their products overflow
MAX_LENGTH = 100.0


def length(v) -> bool:
    return number(v) and abs(v) <= MAX_LENGTH


def numbers(v, n=None, valid=number) -> bool:
    """A list of `n` entries (any count if None) that `valid` accepts."""
    return isinstance(v, list) and (n is None or len(v) == n) and all(map(valid, v))


# rule entries: (accepts, rule[, default]); a REQUIRED default must be present
REQUIRED = object()
TEXT = (lambda v: isinstance(v, str) and v != "", "must be a non-empty string")
# a rotation's squared norm must be a finite normal double: below that,
# dividing by the norm does not give a unit quaternion
POSE = (lambda r: isinstance(r, dict) and r.keys() == {"rotation", "translation"}
        and numbers(r["rotation"], 4)
        and sys.float_info.min <= sum(x * x for x in map(float, r["rotation"])) < math.inf
        and numbers(r["translation"], 3, length),
        f"must be a pose: a 4-number rotation of finite squared norm >= {sys.float_info.min:.2g} "
        f"and a 3-number translation within +-{MAX_LENGTH:g} m")


def read_json(path):
    """The document in one JSON file (a path or a package resource)."""
    if not path.is_file():
        raise FixtureMissing(f"fixture file missing: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SchemaError(f"{path.name}: not valid JSON ({exc})") from None


def check_document(doc, schema: dict, path: str = "") -> tuple:
    """The values of the JSON document at `path`, and every violation in it.

    `schema` maps each key to a rule entry.  `accepts` is a predicate or a
    one-schema list (a list of records).  An absent or rejected key reads as
    its default (None if it has none or is REQUIRED), and a key not in
    `schema` is a violation.  Violations are (kind, message) pairs for
    `raise_schema`, naming keys by their path.
    """
    if not isinstance(doc, dict):
        return check_document({}, schema, path)[0], [
            (SchemaError, f"{path or 'the document'} must be a JSON object")]
    prefix = f"{path}." if path else ""
    values, bad = {}, []
    for key, value in doc.items():
        if key not in schema:
            bad.append((SchemaError, f"unknown key '{prefix}{key}'"))
            continue
        accepts, rule = schema[key][:2]
        name, more = prefix + key, []
        if isinstance(accepts, list) and isinstance(value, list):
            rows = [check_document(row, accepts[0], f"{name}[{i}]") for i, row in enumerate(value)]
            value, more = [row for row, _ in rows], [b for _, found in rows for b in found]
        elif isinstance(accepts, list) or not accepts(value):
            more = [(SchemaError, f"{name} {rule}")]
        bad += more
        if not more:
            values[key] = value
    for key, (_, _, *default) in schema.items():
        if key not in values:
            if default == [REQUIRED] and key not in doc:
                bad.append((MissingField, f"missing '{prefix}{key}'"))
            values[key] = default[0] if default and default[0] is not REQUIRED else None
    return values, bad
