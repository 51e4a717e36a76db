"""Run configuration: one YAML file defines the dataset registry (items),
backend endpoints, and execution defaults; CLI flags override individual
keys. Secrets never live in the config: the remote API key comes from
the AUTOSCORE_API_KEY environment variable only.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from . import agents
from .backend import CachingBackend, RemoteBackend, ScriptedBackend
from .core import AutoscoreError, ScoreRange, TaskContext
from .ingest import DatasetSpec
from .pipeline import TemplateSet
from .schema import ComponentSchema, compile_schema


class ConfigError(AutoscoreError):
    pass


@dataclass
class ItemConfig:
    """Everything registered for one item id."""

    item_id: str
    dataset_spec: DatasetSpec
    context: TaskContext
    schema: ComponentSchema | None
    templates: TemplateSet


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


def _load_template_pair(
    base: agents.PromptTemplate,
    overrides: dict,
    name: str,
    config_dir: Path,
) -> agents.PromptTemplate:
    system_key = f"{name}_system"
    user_key = f"{name}_user"
    system_text = base.system_text
    user_text = base.user_text
    if system_key in overrides:
        system_text = (config_dir / overrides[system_key]).read_text(
            encoding="utf-8"
        )
    if user_key in overrides:
        user_text = (config_dir / overrides[user_key]).read_text(encoding="utf-8")
    return agents.PromptTemplate(name, system_text, user_text)


def _parse_item(item_id: str, raw: dict, config_dir: Path) -> ItemConfig:
    where = f"items.{item_id}"
    range_raw = _require(raw, "score_range", where)
    try:
        score_range = ScoreRange(int(range_raw["min"]), int(range_raw["max"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{where}.score_range: {exc}") from exc

    tsv_path = str(_require(raw, "tsv_path", where))
    if not Path(tsv_path).is_absolute():
        tsv_path = str(config_dir / tsv_path)
    try:
        dataset_spec = DatasetSpec(
            family=_require(raw, "family", where),
            tsv_path=tsv_path,
            essay_set=int(_require(raw, "essay_set", where)),
            item_id=item_id,
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

    schema = None
    if "schema" in raw:
        schema = compile_schema(item_id, raw["schema"])

    overrides = raw.get("templates", {}) or {}
    templates = TemplateSet(
        extraction=_load_template_pair(
            agents.DEFAULT_EXTRACTION_TEMPLATE, overrides, "extraction", config_dir
        ),
        scoring=_load_template_pair(
            agents.DEFAULT_SCORING_TEMPLATE, overrides, "scoring", config_dir
        ),
        baseline=_load_template_pair(
            agents.DEFAULT_BASELINE_TEMPLATE, overrides, "baseline", config_dir
        ),
    )
    return ItemConfig(
        item_id=item_id,
        dataset_spec=dataset_spec,
        context=context,
        schema=schema,
        templates=templates,
    )


def load_config(path) -> Config:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")

    items = {}
    for item_id, item_raw in (raw.get("items") or {}).items():
        items[item_id] = _parse_item(item_id, item_raw or {}, path.parent)

    return Config(
        path=path,
        backend_settings=raw.get("backend") or {},
        run_settings=raw.get("run") or {},
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
        p = Path(value)
        return p if p.is_absolute() else config_dir / p

    if kind == "remote":
        backend = RemoteBackend(
            base_url=_require(settings, "base_url", "backend"),
            model_name=model_name,
            timeout_s=float(settings.get("timeout_s", 120.0)),
            max_in_flight=settings.get("max_in_flight"),
        )
    elif kind == "replay":
        backend = CachingBackend(None, resolve("replay_path"), model_name)
    else:
        import json as _json

        rules_path = resolve("script_path")
        if not rules_path.exists():
            raise ConfigError(f"scripted rules file not found: {rules_path}")
        rules = [
            _json.loads(line)
            for line in rules_path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
        backend = ScriptedBackend(rules=rules, model_name=model_name)

    if kind != "replay" and settings.get("cache_path"):
        backend = CachingBackend(backend, resolve("cache_path"))
    return backend
