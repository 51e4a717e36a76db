"""Structured component representation: schema compilation, JSON extraction
from raw model output, and validation/normalization of extracted instances.

A schema declares which rubric-relevant components an item expects and how
each is encoded (boolean flag, list of text spans, count, or plain text).
Count fields may be derived from a text-list field, in which case the list
is the evidence of record: a count that disagrees with its source list is
rewritten to the list length and flagged.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass, field

from .core import AutoscoreError, StructuredRepresentation

logger = logging.getLogger(__name__)

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class SchemaError(AutoscoreError):
    """A schema that does not compile, or model output it does not admit;
    `advice` is what a repair prompt adds after the message."""

    def __init__(self, message: str, advice: str = ""):
        super().__init__(message)
        self.advice = advice


@dataclass(frozen=True)
class ComponentField:
    """One declared component: its JSON key, value kind (a key of KINDS),
    optional source list for derived counts, and the rubric meaning it
    captures."""

    name: str
    kind: str
    derived_from: str | None = None
    description: str = ""


@dataclass(frozen=True)
class ComponentSchema:
    """Ordered field declarations for one item's component representation,
    and what validate_representation checks, compiled once: each field
    name -> (type label, check), and the (derived count, source) pairs."""

    item_id: str
    fields: tuple[ComponentField, ...]
    checks: dict = field(init=False, repr=False, compare=False)
    derived: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "checks", {
            f.name: KINDS[f.kind][1:] for f in self.fields})
        object.__setattr__(self, "derived", tuple(
            (f.name, f.derived_from) for f in self.fields if f.derived_from is not None))

    def to_definition(self) -> dict:
        """Inverse of compile_schema, for embedding in run manifests: each
        ComponentField's fields in order, less a None derived_from and an
        empty description (their defaults)."""
        return {"fields": [{key: value for key, value in vars(f).items()
                            if value not in (None, "")} for f in self.fields]}


def compile_schema(item_id: str, definition: dict) -> ComponentSchema:
    """Build a ComponentSchema from a parsed config definition.

    The definition is a mapping with a "fields" list; each entry carries
    name, kind, an optional derived_from, and an optional description
    string, and no other key.
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
        unknown = [key for key in entry if key not in ComponentField.__dataclass_fields__]
        if unknown:
            raise SchemaError(f"schema for {item_id!r}: field {name!r} has "
                              f"unknown key {unknown[0]!r}")
        description = entry.get("description", "")
        if type(description) is not str:
            raise SchemaError(f"schema for {item_id!r}: field {name!r} has a "
                              f"description that is not a string: {description!r}")
        kind = entry.get("kind", "")
        if type(kind) is not str or kind not in KINDS:
            raise SchemaError(
                f"schema for {item_id!r}: field {name!r} has unknown kind {kind!r}"
            )
        derived_from = entry.get("derived_from")
        if derived_from is not None and kind != "count":
            raise SchemaError(
                f"schema for {item_id!r}: derived_from is only valid on "
                f"count fields, found on {name!r}"
            )
        compiled.append(ComponentField(name, kind, derived_from, description))

    by_name = {f.name: f for f in compiled}
    for f in compiled:
        if f.derived_from is None:
            continue
        source = by_name.get(f.derived_from) if type(f.derived_from) is str else None
        if source is None or source.kind != "text_list":
            raise SchemaError(
                f"schema for {item_id!r}: count field {f.name!r} derives "
                f"from {f.derived_from!r}, which is not a declared "
                f"text_list field"
            )
    return ComponentSchema(item_id=item_id, fields=tuple(compiled))


_JSON_DECODER = json.JSONDecoder()


def extract_json_block(raw_model_output: str) -> dict:
    """Decode the first balanced top-level JSON object embedded in the text.

    Code fences and surrounding prose are ignored by construction: every
    "{" is tried as the start of an object until one parses. Nesting too
    deep for the parser ends the search. No repair is attempted.
    """
    for match in re.finditer(r"\{", raw_model_output):
        try:
            obj, _ = _JSON_DECODER.raw_decode(raw_model_output, match.start())
        except ValueError:  # JSONDecodeError, or an integer past int_max_str_digits
            continue
        except RecursionError:
            raise SchemaError("model output nests JSON too deeply to parse")
        return obj  # raw_decode at a "{" gives an object or raises
    raise SchemaError("no balanced JSON object found in model output")


# kind -> (label in the extraction prompt, label in a type error, check)
KINDS = {
    "boolean": ("true or false", "boolean", lambda v: type(v) is bool),
    "text_list": (
        "list of text spans copied from the response", "list of strings",
        lambda v: type(v) is list and all(type(x) is str for x in v),
    ),
    "count": (
        "integer", "non-negative integer", lambda v: type(v) is int and v >= 0
    ),
    "text": ("string", "string", lambda v: type(v) is str),
}

# the JSON type of a decoded value; the one left out, NoneType, is "null"
_JSON_TYPE = {
    bool: "boolean", int: "integer", float: "number", str: "string",
    list: "array", dict: "object",
}


def validate_representation(
    parsed: dict, schema: ComponentSchema
) -> StructuredRepresentation:
    """Validate a decoded JSON object against the schema and normalize counts.

    Every declared field must be present with the declared kind. Derived
    counts are recomputed from their source list; a disagreeing supplied
    count is overwritten (the list is the auditable evidence) and the field
    name is recorded in inconsistency_flags. Unknown keys are dropped with
    a warning.
    """
    checks = schema.checks
    unknown = [k for k in parsed if k not in checks]
    if unknown:
        logger.warning(
            "dropping unknown keys %s for schema %s", unknown, schema.item_id
        )

    values: dict = {}
    for name, (expected, check) in checks.items():
        if name not in parsed:
            raise SchemaError(f"required field {name!r} is missing")
        value = values[name] = parsed[name]
        if not check(value):
            found = _JSON_TYPE.get(type(value), "null")
            raise SchemaError(f"field {name!r} expected {expected}, found {found}")

    flags: list[str] = []
    for name, source in schema.derived:
        true_count = len(values[source])
        if values[name] != true_count:
            values[name] = true_count
            flags.append(name)

    return StructuredRepresentation(
        schema_id=schema.item_id, values=values, inconsistency_flags=tuple(flags)
    )
