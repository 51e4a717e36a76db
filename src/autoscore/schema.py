"""Structured component representation: schema compilation, JSON extraction
from raw model output, and validation/normalization of extracted instances.

A schema declares which rubric-relevant components an item expects and how
each is encoded (boolean flag, list of text spans, count, or plain text).
Count fields may be derived from a text-list field, in which case the list
is the evidence of record: a count that disagrees with its source list is
rewritten to the list length and flagged.
"""

from __future__ import annotations

import enum
import json
import logging
import re
from dataclasses import dataclass, field

from .core import AutoscoreError

logger = logging.getLogger(__name__)

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class SchemaError(AutoscoreError):
    """Base class for schema definition and validation errors."""


class EmptySchema(SchemaError):
    pass


class DuplicateField(SchemaError):
    pass


class DanglingDerivation(SchemaError):
    pass


class InvalidFieldName(SchemaError):
    pass


class NoJsonFound(SchemaError):
    """The model output contains no balanced top-level JSON object."""


class MissingField(SchemaError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"required field {name!r} is missing")


class TypeMismatch(SchemaError):
    def __init__(self, name: str, expected: str, found: str):
        self.name = name
        self.expected = expected
        self.found = found
        super().__init__(
            f"field {name!r} expected {expected}, found {found}"
        )


class FieldKind(enum.Enum):
    BOOLEAN = "boolean"
    TEXT_LIST = "text_list"
    COUNT = "count"
    TEXT = "text"


@dataclass(frozen=True)
class ComponentField:
    """One declared component: its JSON key, value kind, optional source
    list for derived counts, and the rubric meaning it captures."""

    name: str
    kind: FieldKind
    derived_from: str | None = None
    description: str = ""


@dataclass(frozen=True)
class ComponentSchema:
    """Ordered field declarations for one item's component representation."""

    item_id: str
    fields: tuple[ComponentField, ...]

    def field_names(self) -> list[str]:
        return [f.name for f in self.fields]

    def to_definition(self) -> dict:
        """Inverse of compile_schema, for embedding in run manifests."""
        fields = []
        for f in self.fields:
            entry: dict = {"name": f.name, "kind": f.kind.value}
            if f.derived_from is not None:
                entry["derived_from"] = f.derived_from
            if f.description:
                entry["description"] = f.description
            fields.append(entry)
        return {"fields": fields}

    def count_fields(self) -> list[ComponentField]:
        return [f for f in self.fields if f.kind is FieldKind.COUNT]

    def boolean_fields(self) -> list[ComponentField]:
        return [f for f in self.fields if f.kind is FieldKind.BOOLEAN]


@dataclass(frozen=True)
class StructuredRepresentation:
    """A validated component representation extracted from one response.

    inconsistency_flags lists count fields whose declared value disagreed
    with the length of their source list before normalization.
    """

    schema_id: str
    values: dict
    inconsistency_flags: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "schema_id": self.schema_id,
            "values": self.values,
            "inconsistency_flags": list(self.inconsistency_flags),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StructuredRepresentation":
        return cls(
            schema_id=data["schema_id"],
            values=dict(data["values"]),
            inconsistency_flags=tuple(data["inconsistency_flags"]),
        )

    def values_json(self, indent: int | None = None) -> str:
        """Canonical serialization of the values in schema field order."""
        return json.dumps(self.values, ensure_ascii=True, indent=indent)


def compile_schema(item_id: str, definition: dict) -> ComponentSchema:
    """Build a ComponentSchema from a parsed config definition.

    The definition is a mapping with a "fields" list; each entry carries
    name, kind, an optional derived_from, and an optional description.
    """
    raw_fields = definition.get("fields") or []
    if not raw_fields:
        raise EmptySchema(f"schema for {item_id!r} declares no fields")

    compiled: list[ComponentField] = []
    seen: set[str] = set()
    for entry in raw_fields:
        name = entry.get("name", "")
        if not _NAME_RE.match(name or ""):
            raise InvalidFieldName(
                f"schema for {item_id!r}: bad field name {name!r}"
            )
        if name in seen:
            raise DuplicateField(
                f"schema for {item_id!r}: duplicate field {name!r}"
            )
        seen.add(name)
        kind_text = entry.get("kind", "")
        try:
            kind = FieldKind(kind_text)
        except ValueError:
            raise SchemaError(
                f"schema for {item_id!r}: field {name!r} has unknown kind "
                f"{kind_text!r}"
            ) from None
        derived_from = entry.get("derived_from")
        if derived_from is not None and kind is not FieldKind.COUNT:
            raise DanglingDerivation(
                f"schema for {item_id!r}: derived_from is only valid on "
                f"count fields, found on {name!r}"
            )
        compiled.append(
            ComponentField(
                name=name,
                kind=kind,
                derived_from=derived_from,
                description=entry.get("description", ""),
            )
        )

    by_name = {f.name: f for f in compiled}
    for f in compiled:
        if f.derived_from is None:
            continue
        source = by_name.get(f.derived_from)
        if source is None or source.kind is not FieldKind.TEXT_LIST:
            raise DanglingDerivation(
                f"schema for {item_id!r}: count field {f.name!r} derives "
                f"from {f.derived_from!r}, which is not a declared "
                f"text_list field"
            )
    return ComponentSchema(item_id=item_id, fields=tuple(compiled))


_JSON_DECODER = json.JSONDecoder()


def extract_json_block(raw_model_output: str) -> str:
    """Return the first balanced top-level JSON object embedded in the text.

    Code fences and surrounding prose are ignored by construction: every
    "{" is tried as the start of an object until one parses. Nesting too
    deep for the parser ends the search. No repair is attempted.
    """
    for match in re.finditer(r"\{", raw_model_output):
        try:
            obj, end = _JSON_DECODER.raw_decode(raw_model_output, match.start())
        except json.JSONDecodeError:
            continue
        except RecursionError:
            raise NoJsonFound("model output nests JSON too deeply to parse")
        if isinstance(obj, dict):
            return raw_model_output[match.start():end]
    raise NoJsonFound("no balanced JSON object found in model output")


_KIND_LABEL = {
    FieldKind.BOOLEAN: "boolean",
    FieldKind.TEXT_LIST: "list of strings",
    FieldKind.COUNT: "non-negative integer",
    FieldKind.TEXT: "string",
}


def _json_type_name(value) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "integer"
    if isinstance(value, float):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, list):
        return "array"
    if isinstance(value, dict):
        return "object"
    return "null"


def _check_kind(f: ComponentField, value) -> None:
    kind = f.kind
    if kind is FieldKind.BOOLEAN:
        if not isinstance(value, bool):
            raise TypeMismatch(f.name, _KIND_LABEL[kind], _json_type_name(value))
    elif kind is FieldKind.TEXT_LIST:
        if not isinstance(value, list) or not all(
            isinstance(x, str) for x in value
        ):
            raise TypeMismatch(f.name, _KIND_LABEL[kind], _json_type_name(value))
    elif kind is FieldKind.COUNT:
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise TypeMismatch(f.name, _KIND_LABEL[kind], _json_type_name(value))
    elif kind is FieldKind.TEXT:
        if not isinstance(value, str):
            raise TypeMismatch(f.name, _KIND_LABEL[kind], _json_type_name(value))


def validate_representation(
    json_text: str, schema: ComponentSchema
) -> StructuredRepresentation:
    """Validate extracted JSON against the schema and normalize counts.

    Every declared field must be present with the declared kind. Derived
    counts are recomputed from their source list; a disagreeing supplied
    count is overwritten (the list is the auditable evidence) and the field
    name is recorded in inconsistency_flags. Unknown keys are dropped with
    a warning.
    """
    parsed = json.loads(json_text)
    if not isinstance(parsed, dict):
        raise TypeMismatch("$", "object", _json_type_name(parsed))

    unknown = [k for k in parsed if k not in set(schema.field_names())]
    if unknown:
        logger.warning(
            "dropping unknown keys %s for schema %s", unknown, schema.item_id
        )

    values: dict = {}
    flags: list[str] = []
    for f in schema.fields:
        if f.name not in parsed:
            raise MissingField(f.name)
        value = parsed[f.name]
        _check_kind(f, value)
        values[f.name] = value

    for f in schema.fields:
        if f.kind is FieldKind.COUNT and f.derived_from is not None:
            true_count = len(values[f.derived_from])
            if values[f.name] != true_count:
                values[f.name] = true_count
                flags.append(f.name)

    return StructuredRepresentation(
        schema_id=schema.item_id, values=values, inconsistency_flags=tuple(flags)
    )
