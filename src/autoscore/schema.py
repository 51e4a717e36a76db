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
    """A schema that does not compile, or model output it does not admit."""


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
    raw_fields = definition.get("fields", []) if isinstance(definition, dict) else None
    if not isinstance(raw_fields, list) or not all(
            isinstance(entry, dict) for entry in raw_fields):
        raise SchemaError(f"schema for {item_id!r} must be a mapping with a list "
                          f"of field mappings under fields")
    if not raw_fields:
        raise SchemaError(f"schema for {item_id!r} declares no fields")

    compiled: list[ComponentField] = []
    seen: set[str] = set()
    for entry in raw_fields:
        name = entry.get("name", "")
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise SchemaError(
                f"schema for {item_id!r}: bad field name {name!r}"
            )
        if name in seen:
            raise SchemaError(
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
            raise SchemaError(
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
        source = by_name.get(f.derived_from) if type(f.derived_from) is str else None
        if source is None or source.kind is not FieldKind.TEXT_LIST:
            raise SchemaError(
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
        except ValueError:  # JSONDecodeError, or an integer past int_max_str_digits
            continue
        except RecursionError:
            raise SchemaError("model output nests JSON too deeply to parse")
        if isinstance(obj, dict):
            return raw_model_output[match.start():end]
    raise SchemaError("no balanced JSON object found in model output")


# kind -> (label in the extraction prompt, label in a type error, check)
KINDS = {
    FieldKind.BOOLEAN: ("true or false", "boolean", lambda v: type(v) is bool),
    FieldKind.TEXT_LIST: (
        "list of text spans copied from the response", "list of strings",
        lambda v: type(v) is list and all(type(x) is str for x in v),
    ),
    FieldKind.COUNT: (
        "integer", "non-negative integer", lambda v: type(v) is int and v >= 0
    ),
    FieldKind.TEXT: ("string", "string", lambda v: type(v) is str),
}

# the JSON type of a json.loads value; the one left out, NoneType, is "null"
_JSON_TYPE = {
    bool: "boolean", int: "integer", float: "number", str: "string",
    list: "array", dict: "object",
}


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
        found = _JSON_TYPE.get(type(parsed), "null")
        raise SchemaError(f"field '$' expected object, found {found}")

    known = set(schema.field_names())
    unknown = [k for k in parsed if k not in known]
    if unknown:
        logger.warning(
            "dropping unknown keys %s for schema %s", unknown, schema.item_id
        )

    values: dict = {}
    flags: list[str] = []
    for f in schema.fields:
        if f.name not in parsed:
            raise SchemaError(f"required field {f.name!r} is missing")
        value = parsed[f.name]
        _, expected, check = KINDS[f.kind]
        if not check(value):
            found = _JSON_TYPE.get(type(value), "null")
            raise SchemaError(f"field {f.name!r} expected {expected}, found {found}")
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
