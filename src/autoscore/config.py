"""Run configuration: one YAML file defines the dataset registry (items),
backend endpoints, and execution defaults; CLI flags override individual
keys. Secrets never live in the config: the remote API key comes from
the AUTOSCORE_API_KEY environment variable only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import yaml

from . import agents
from .backend import (CachingBackend, RemoteBackend, ScriptedBackend, parse_jsonl,
                      scripted_rule)
from .core import AutoscoreError, ScoreRange, TaskContext, decode_json, read_file
from .ingest import DatasetSpec
from .schema import ComponentSchema, compile_schema


class ConfigError(AutoscoreError):
    pass


# the keys the backend: and run: sections accept; any other key is refused
BACKEND_KEYS = ("kind", "model", "base_url", "timeout_s", "max_in_flight",
                "cache_path", "replay_path", "script_path", "max_output_tokens")
RUN_KEYS = ("parallelism", "max_retries", "seed", "imputation")
# the keys an entry of items: accepts
ITEM_KEYS = ("family", "tsv_path", "essay_set", "gold_rule", "score_range",
             "question", "rubric_text", "reference_material", "schema",
             "templates")


@dataclass
class ItemConfig:
    """Everything registered for one item id."""

    dataset_spec: DatasetSpec
    context: TaskContext
    schema: ComponentSchema | None
    templates: dict[str, agents.PromptTemplate]  # keyed by stage name


@dataclass
class Config:
    path: Path
    backend_settings: dict
    run_settings: dict
    items: dict

    def item(self, item_id: str) -> ItemConfig:
        if item_id not in self.items:
            raise ConfigError(
                f"unknown item {item_id!r}; registered items: "
                f"{sorted(self.items)}"
            )
        return self.items[item_id]


def _require(mapping: dict, key: str, where: str):
    if key not in mapping:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return mapping[key]


def _mapping(value, where: str, accepted=None) -> dict:
    """A config section: left empty it reads as {}; it must be a mapping,
    with no key outside `accepted` when that is given."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {value!r}")
    unknown = [key for key in value if accepted is not None and key not in accepted]
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; the accepted keys "
                          f"are {', '.join(accepted)}")
    return value


def _load_template(
    stage: str, overrides: dict, config_dir: Path, where: str
) -> agents.PromptTemplate:
    """The stage's shipped prompt, with the text of any `<stage>_system` or
    `<stage>_user` override file in place of that part."""
    def read(part: str, default: str) -> str:
        key = f"{stage}_{part}"
        if key not in overrides:
            return default
        try:
            return (config_dir / overrides[key]).read_text(encoding="utf-8")
        except (OSError, TypeError, ValueError) as exc:
            raise ConfigError(
                f"{where}.templates.{key}: cannot read {overrides[key]}: {exc}"
            ) from None

    default = agents.STAGES[stage].template
    return agents.PromptTemplate(
        read("system", default.system_text), read("user", default.user_text)
    )


def _parse_item(item_id: str, raw: dict, config_dir: Path) -> ItemConfig:
    where = f"items.{item_id}"
    range_raw = _require(raw, "score_range", where)
    try:
        score_range = ScoreRange(range_raw["min"], range_raw["max"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}.score_range: {exc}") from exc

    try:
        dataset_spec = DatasetSpec(
            family=_require(raw, "family", where),
            tsv_path=_require(raw, "tsv_path", where),
            essay_set=_require(raw, "essay_set", where),
            score_range=score_range,
            gold_rule=raw.get("gold_rule", "first_rater"),
        )
        context = TaskContext(
            item_id=item_id,
            question=_require(raw, "question", where),
            rubric_text=_require(raw, "rubric_text", where),
            reference_material=raw.get("reference_material"),
            score_range=score_range,
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    # a relative path is read from the config file's directory
    dataset_spec = replace(dataset_spec,
                           tsv_path=str(config_dir / dataset_spec.tsv_path))

    schema = None
    if "schema" in raw:
        schema = compile_schema(item_id, raw["schema"])

    accepted = [f"{stage}_{part}" for stage in agents.STAGES
                for part in ("system", "user")]
    overrides = _mapping(raw.get("templates"), f"{where}.templates", accepted)
    return ItemConfig(
        dataset_spec=dataset_spec,
        context=context,
        schema=schema,
        templates={
            name: _load_template(name, overrides, config_dir, where)
            for name in agents.STAGES
        },
    )


def load_config(path) -> Config:
    path = Path(path)
    data = read_file(path, ConfigError, "config file")
    try:
        raw = yaml.safe_load(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")

    items = {
        item_id: _parse_item(
            item_id, _mapping(item_raw, f"items.{item_id}", ITEM_KEYS), path.parent
        )
        for item_id, item_raw in _mapping(raw.get("items"), "items").items()
    }
    return Config(
        path=path,
        backend_settings=_mapping(raw.get("backend"), "backend", BACKEND_KEYS),
        run_settings=_mapping(raw.get("run"), "run", RUN_KEYS),
        items=items,
    )


def build_backend(config: Config, kind_override: str | None = None):
    """Instantiate the configured backend; with `cache_path` set, a remote or
    scripted backend is wrapped in the write-through cache.

    kind: remote | replay | scripted. Replay is never cached: it already
    answers from its store, and a cache over it would turn every recorded
    answer into a 0 ms hit. Relative fixture/cache paths resolve against
    the config file's directory.
    """
    settings = config.backend_settings
    kind = kind_override or settings.get("kind")
    if kind not in ("remote", "replay", "scripted"):
        raise ConfigError(
            f"backend kind must be remote, replay or scripted, got {kind!r}"
        )
    model_name = settings.get("model", "gpt-4o")
    config_dir = config.path.parent

    def resolve(key: str) -> Path:
        value = _require(settings, key, "backend")
        if not isinstance(value, str) or not value:
            raise ConfigError(f"backend.{key} must be a non-empty string, got {value!r}")
        return config_dir / value  # an absolute value stays as it is

    try:  # each backend checks its own arguments
        if kind == "remote":
            limits = {key: settings[key] for key in ("timeout_s", "max_in_flight")
                      if key in settings}
            backend = RemoteBackend(_require(settings, "base_url", "backend"),
                                    model_name, **limits)
        elif kind == "replay":
            backend = CachingBackend(None, resolve("replay_path"), model_name)
        else:
            path = resolve("script_path")
            # a hand-written last line may lack its newline: read all the bytes
            rules = parse_jsonl(path, read_file(path, ConfigError, "scripted rules file"),
                                lambda line: scripted_rule(decode_json(line)),
                                ConfigError)
            backend = ScriptedBackend(rules=rules, model_name=model_name)
    except ValueError as exc:
        raise ConfigError(f"backend.{exc}") from None

    if kind != "replay" and settings.get("cache_path"):
        backend = CachingBackend(backend, resolve("cache_path"))
    return backend
