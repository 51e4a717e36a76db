"""Comparison tables with signed percentage deltas, a time/quality
tradeoff CSV, and per-response case-study audit records.

Delta convention: 100 * (new - base) / |base|, so the sign always tracks
the direction of change even when the baseline value is negative (a
correlation can be), and error metrics keep their raw sign: negative
means the error went down. Display rounding is two decimals, half away
from zero.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from decimal import ROUND_HALF_UP, Decimal

from .ingest import DatasetError

logger = logging.getLogger(__name__)

LOWER_IS_BETTER = ("mae", "rmse")
METRIC_ORDER = ("qwk", "accuracy", "pearson", "spearman", "mae", "rmse")


def delta_percent(base: float, new: float) -> float:
    """Signed relative change in percent (unrounded; see round2 for display).
    A zero base raises ZeroDivisionError."""
    return 100.0 * (new - base) / abs(base)


def round2(value: float) -> float:
    """Two decimals, ties away from zero, matching printed table precision."""
    return float(
        Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    )


def pairing_key(manifest: dict) -> tuple[str, str]:
    """Runs compare when they scored one dataset through one backend."""
    return manifest["dataset_digest"], manifest["backend_identity"]


def _better(metric: str, base, new) -> str:
    """'baseline' / 'autoscore' / 'tie' / 'undefined' for one metric pair."""
    if base is None or new is None:
        return "undefined"
    if base == new:
        return "tie"
    if metric in LOWER_IS_BETTER:
        return "autoscore" if new < base else "baseline"
    return "autoscore" if new > base else "baseline"


def comparison_table(results: list[tuple]) -> tuple[str, dict]:
    """Pair the baseline and autoscore runs among (run result, metrics
    report) pairs that share a pairing_key into the rows comparison.json
    holds, one per pair (no pair: no rows), and return (its text, that
    payload). Deltas follow the delta_percent convention rounded for
    display, None where either cell is undefined or the base is zero."""
    groups: dict[tuple, dict] = {}
    for result, rep in results:
        key = pairing_key(result.manifest)
        groups.setdefault(key, {})[result.manifest["mode"]] = (result, rep)
    rows: list[dict] = []
    for group in groups.values():
        if len(group) < 2:
            continue
        (base_run, base), (_, auto) = group["baseline"], group["autoscore"]
        dataset, model = base_run.manifest["dataset_ref"], base_run.manifest["model_name"]
        if base.n != auto.n:
            logger.warning(
                "%s/%s: baseline n=%d but autoscore n=%d (failures differ); "
                "metrics are not computed over identical responses",
                dataset, model, base.n, auto.n,
            )
        metrics: dict = {}
        for metric in METRIC_ORDER:
            b, a = getattr(base, metric), getattr(auto, metric)
            undefined = b is None or a is None or b == 0
            metrics[metric] = {
                "baseline": b,
                "autoscore": a,
                "delta_pct": None if undefined else round2(delta_percent(b, a)),
                "better": _better(metric, b, a),
            }
        rows.append({
            "dataset": dataset,
            "model": model,
            "n_baseline": base.n,
            "n_autoscore": auto.n,
            "metrics": metrics,
        })
    payload = {"rows": rows}
    return comparison_text(payload), payload


def comparison_text(payload: dict) -> str:
    """The markdown comparison.md holds, from the dict comparison.json
    holds: one table per row, with the better cell of each metric bolded
    (a tie bolds both) and a dash for an undefined cell or delta."""
    lines: list[str] = []
    for row in payload["rows"]:
        lines += [f"### {row['dataset']} / {row['model']}", "",
                  "| metric | baseline | autoscore | Δ(%) |", "|---|---|---|---|"]
        for metric, cell in row["metrics"].items():
            shown = ["—" if cell[side] is None
                     else f"**{cell[side]:.3f}**" if cell["better"] in (side, "tie")
                     else f"{cell[side]:.3f}"
                     for side in ("baseline", "autoscore")]
            delta = "—" if cell["delta_pct"] is None else f"{cell['delta_pct']:+.2f}%"
            lines.append(f"| {metric} | {shown[0]} | {shown[1]} | {delta} |")
        lines.append("")
    return "\n".join(lines)


def tradeoff_csv(results: list[tuple]) -> str:
    """One CSV line per (run result, metrics report) pair: the run's model,
    mode, mean wall time per successfully scored instance, and QWK. Every
    run must have records. A field is quoted only where CSV needs it."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["model", "variant", "mean_ms", "qwk"])
    for result, report in results:
        writer.writerow([result.manifest["model_name"], result.manifest["mode"],
                         result.mean_wall_time_ms(), report.qwk])
    return out.getvalue()


def _excerpt(text: str, limit: int = 240) -> str:
    text = " ".join(text.split())
    if len(text) <= limit:
        return text
    return text[: limit - 1].rstrip() + "…"


def case_record(
    autoscore_run, baseline_run, response_id: str, response_text: str
) -> str:
    """The markdown audit of one response across a loaded autoscore run and
    baseline run that comparison_table would pair: both predictions, the
    gold score, and the extracted components that fed autoscore.

    The response text is supplied by the caller (run directories persist
    predictions and transcripts, not the dataset itself); question and
    rubric come from the autoscore run's manifest.
    """
    auto, base = autoscore_run.manifest, baseline_run.manifest
    if (auto["mode"], base["mode"]) != ("autoscore", "baseline") or (
            pairing_key(auto) != pairing_key(base)):
        raise DatasetError("a case needs an autoscore and a baseline run of one "
                       "dataset through one backend")

    def find(run, mode):
        for record in run.records:
            if record.response_id == response_id:
                return record
        raise DatasetError(f"response {response_id!r} not scored in the {mode} run")

    auto_rec = find(autoscore_run, "autoscore")
    base_rec = find(baseline_run, "baseline")
    context = auto["context"]
    components = auto_rec.representation.values
    lines = [
        f"# Case {response_id}",
        "",
        f"Human score = {auto_rec.gold_score}, autoscore = "
        f"{auto_rec.predicted_score}, baseline = {base_rec.predicted_score}",
        "",
        f"**Assessment question:** {_excerpt(context['question'])}",
        "",
        f"**Student response:** {response_text}",
        "",
        f"**Rubric excerpt:** {_excerpt(context['rubric_text'], limit=400)}",
        "",
        "**Extracted components:**",
        "",
    ]
    for name, value in components.items():
        if isinstance(value, list):
            lines.append(f"- {name}:" + (" (none)" if not value else ""))
            for entry in value:
                lines.append(f"  - {entry}")
        else:
            lines.append(f"- {name}: {json.dumps(value)}")
    lines += [
        "",
        "```json",
        json.dumps(components, indent=2, ensure_ascii=True),
        "```",
        "",
    ]
    return "\n".join(lines)
