"""Command-line entry point.

Exit codes: 0 success (even with per-record failures, which are reported
in the summary), 2 configuration error, 3 dataset error or corrupt run
directory, 4 backend unavailable (a corrupt cache or replay file too).
Logs go to stderr; data goes to files and stdout.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from . import pipeline, report
from .backend import BackendUnavailable
from .config import ConfigError, build_backend, load_config
from .core import AutoscoreError
from .ingest import DatasetError, load_dataset, sample_ids
from .metrics import evaluate_run, load_gold_annotations, validate_components
from .schema import SchemaError, compile_schema

logger = logging.getLogger("autoscore")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATASET = 3
EXIT_BACKEND = 4


def _formatter(prog):
    return argparse.HelpFormatter(prog, width=96)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autoscore",
        description=(
            "Rubric-aligned two-agent scoring pipeline with a single-agent "
            "baseline, agreement metrics, and comparison reports."
        ),
        formatter_class=_formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_score = sub.add_parser(
        "score",
        help="score a dataset and persist the run directory",
        formatter_class=_formatter,
    )
    p_score.add_argument("--config", required=True, help="config YAML path")
    p_score.add_argument("--item", required=True, help="registered item id")
    p_score.add_argument(
        "--mode", choices=["autoscore", "baseline"], default="autoscore",
        help="two-agent pipeline or single-agent baseline",
    )
    p_score.add_argument(
        "--backend", choices=["remote", "replay", "scripted"], default=None,
        help="override the configured backend kind",
    )
    p_score.add_argument(
        "--parallelism", type=int, default=None, help="worker pool size"
    )
    p_score.add_argument("--out", required=True, help="run directory to write")
    p_score.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted run in --out",
    )

    p_eval = sub.add_parser(
        "evaluate",
        help="compute metrics for runs; paired modes get a comparison table",
        formatter_class=_formatter,
    )
    p_eval.add_argument(
        "--run", action="append", required=True, dest="runs",
        help="run directory (repeatable)",
    )
    p_eval.add_argument("--out", required=True, help="reports directory")

    p_val = sub.add_parser(
        "validate-components",
        help="component-recognition reliability against gold annotations",
        formatter_class=_formatter,
    )
    p_val.add_argument("--run", required=True, help="autoscore run directory")
    p_val.add_argument(
        "--gold", required=True, help="gold annotations JSONL path"
    )
    p_val.add_argument(
        "--sample-fraction", type=float, default=1.0,
        help="evaluate a seeded sample of the run's responses",
    )
    p_val.add_argument("--seed", type=int, default=0, help="sampling seed")
    p_val.add_argument(
        "--out", default=None, help="optional report output directory"
    )

    p_trade = sub.add_parser(
        "tradeoff",
        help="mean wall time vs QWK rows for plot-ready CSV",
        formatter_class=_formatter,
    )
    p_trade.add_argument(
        "--run", action="append", required=True, dest="runs",
        help="run directory (repeatable)",
    )
    p_trade.add_argument("--out", required=True, help="CSV output path")

    p_case = sub.add_parser(
        "case",
        help="audit record joining one response's autoscore and baseline runs",
        formatter_class=_formatter,
    )
    p_case.add_argument("--run-autoscore", required=True, help="autoscore run dir")
    p_case.add_argument("--run-baseline", required=True, help="baseline run dir")
    p_case.add_argument("--id", required=True, dest="response_id",
                        help="response id to audit")
    p_case.add_argument(
        "--config", required=True,
        help="config YAML (used to load the response text)",
    )
    p_case.add_argument(
        "--out", default=None, help="optional directory for case_<id>.md"
    )
    return parser


def cmd_score(args) -> int:
    config = load_config(args.config)
    item = config.item(args.item)
    if args.mode == "autoscore" and item.schema is None:
        raise ConfigError(
            f"item {args.item!r} has no component schema; autoscore needs one"
        )
    dataset = load_dataset(item.dataset_spec)
    backend = build_backend(config, args.backend)
    run_settings = config.run_settings
    run_config = pipeline.RunConfig(
        mode=args.mode,
        run_dir=Path(args.out),
        backend=backend,
        context=item.context,
        schema=item.schema if args.mode == "autoscore" else None,
        parallelism=args.parallelism or int(run_settings.get("parallelism", 1)),
        max_retries=int(run_settings.get("max_retries", 3)),
        seed=int(run_settings.get("seed", 0)),
        templates=item.templates,
        dataset_ref=args.item,
        imputation=run_settings.get("imputation", "fail"),
        max_output_tokens=config.backend_settings.get("max_output_tokens"),
    )
    if args.resume:
        result = pipeline.resume(Path(args.out), run_config, dataset)
    else:
        result = pipeline.score_dataset(run_config, dataset)
    mean_ms = result.mean_wall_time_ms()
    first_ms = _mean_first_attempt_ms(result)
    logger.info(
        "run complete: %d records, %d failures, mean wall time %s ms, "
        "mean first-attempt latency %s ms",
        len(result.records),
        len(result.failures),
        "-" if mean_ms is None else f"{mean_ms:.1f}",
        "-" if first_ms is None else f"{first_ms:.1f}",
    )
    for response_id, error in result.failures:
        logger.warning("failed %s: %s", response_id, error)
    return EXIT_OK


def _mean_first_attempt_ms(result) -> float | None:
    # per-attempt latencies are not persisted; approximate the first-attempt
    # cost by the per-call mean for records that needed no retries
    clean = [r for r in result.records if r.retries == 0]
    if not clean:
        return None
    calls = len(pipeline.STAGES[result.manifest["mode"]])
    return sum(r.wall_time_ms / calls for r in clean) / len(clean)


def cmd_evaluate(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = [pipeline.load_run(Path(r)) for r in args.runs]
    if len(runs) == 2:
        d0 = runs[0].manifest["dataset_digest"]
        d1 = runs[1].manifest["dataset_digest"]
        if d0 != d1:
            logger.error("dataset digests differ; runs are not comparable")
            return EXIT_DATASET

    reports = []
    for run_dir, result in zip(args.runs, runs):
        rep = evaluate_run(result)
        reports.append(rep)
        stem = Path(run_dir).name
        (out_dir / f"{stem}.metrics.json").write_text(
            rep.to_json() + "\n", encoding="utf-8"
        )
        (out_dir / f"{stem}.metrics.txt").write_text(
            rep.to_text(), encoding="utf-8"
        )
        print(rep.to_text())

    pairs = _comparison_pairs(runs, reports)
    if pairs:
        rows = [
            report.build_comparison_row(
                dataset_label=base_run.manifest.get("dataset_ref", "dataset"),
                model_label=base_run.manifest.get("model_name", "model"),
                baseline=base_rep,
                autoscore=auto_rep,
            )
            for base_run, base_rep, auto_rep in pairs
        ]
        text, payload = report.comparison_table(rows)
        (out_dir / "comparison.md").write_text(text, encoding="utf-8")
        (out_dir / "comparison.json").write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
        print(text)
    return EXIT_OK


def _comparison_pairs(runs, reports):
    """Match baseline/autoscore runs over the same dataset and model."""
    pairs = []
    by_key = {}
    for result, rep in zip(runs, reports):
        key = (
            result.manifest["dataset_digest"],
            result.manifest.get("backend_identity"),
        )
        by_key.setdefault(key, {})[result.manifest["mode"]] = (result, rep)
    for group in by_key.values():
        if "baseline" in group and "autoscore" in group:
            base_run, base_rep = group["baseline"]
            _, auto_rep = group["autoscore"]
            pairs.append((base_run, base_rep, auto_rep))
    return pairs


def cmd_validate_components(args) -> int:
    result = pipeline.load_run(Path(args.run))
    if result.manifest.get("mode") != "autoscore":
        raise ConfigError("component validation needs an autoscore run")
    schema_def = result.manifest.get("schema")
    if not schema_def:
        raise ConfigError("run manifest carries no schema definition")
    schema = compile_schema(result.manifest["item_id"], schema_def)
    gold = load_gold_annotations(args.gold)

    ids = [r.response_id for r in result.records]
    if args.sample_fraction < 1.0:
        chosen = sample_ids(ids, args.sample_fraction, args.seed)
        ids = [rid for rid in ids if rid in chosen]
    chosen_ids = set(ids)
    predicted = {
        r.response_id: r.representation
        for r in result.records
        if r.response_id in chosen_ids
    }
    gold_subset = {rid: gold[rid] for rid in ids if rid in gold}
    reliability = validate_components(predicted, gold_subset, schema)
    print(reliability.to_text())
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "reliability.json").write_text(
            reliability.to_json() + "\n", encoding="utf-8"
        )
        (out_dir / "reliability.txt").write_text(
            reliability.to_text(), encoding="utf-8"
        )
    return EXIT_OK


def cmd_tradeoff(args) -> int:
    inputs = []
    for run_dir in args.runs:
        result = pipeline.load_run(Path(run_dir))
        if not result.records:
            continue
        inputs.append((result, evaluate_run(result)))
    rows = report.tradeoff_data(inputs)
    csv_text = report.tradeoff_csv(rows)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(csv_text, encoding="utf-8")
    print(csv_text, end="")
    return EXIT_OK


def cmd_case(args) -> int:
    config = load_config(args.config)
    autoscore_run = pipeline.load_run(Path(args.run_autoscore))
    item_id = autoscore_run.manifest.get("item_id")
    item = config.item(item_id)
    dataset = load_dataset(item.dataset_spec)
    text_by_id = {r.response_id: r.text for r in dataset.responses}
    if args.response_id not in text_by_id:
        raise report.NotFound(
            f"response {args.response_id!r} not present in dataset {item_id!r}"
        )
    record = report.case_record(
        Path(args.run_autoscore),
        Path(args.run_baseline),
        args.response_id,
        response_text=text_by_id[args.response_id],
    )
    markdown = record.to_markdown()
    print(markdown)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"case_{args.response_id}.md").write_text(
            markdown + "\n", encoding="utf-8"
        )
    return EXIT_OK


_COMMANDS = {
    "score": cmd_score,
    "evaluate": cmd_evaluate,
    "validate-components": cmd_validate_components,
    "tradeoff": cmd_tradeoff,
    "case": cmd_case,
}


def main(argv=None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, SchemaError) as exc:
        logger.error("configuration error: %s", exc)
        return EXIT_CONFIG
    except (DatasetError, pipeline.ManifestMismatch, report.NotFound) as exc:
        logger.error("dataset error: %s", exc)
        return EXIT_DATASET
    except BackendUnavailable as exc:
        logger.error("backend unavailable: %s", exc)
        return EXIT_BACKEND
    except pipeline.RunDirConflict as exc:
        logger.error("%s", exc)
        return EXIT_CONFIG
    except AutoscoreError as exc:
        logger.error("%s: %s", type(exc).__name__, exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
