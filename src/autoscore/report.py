"""Comparison tables with signed percentage deltas, a time/quality
tradeoff CSV, and per-response case-study audit records.

Delta convention: 100 * (new - base) / |base|, so the sign always tracks
the direction of change even when the baseline value is negative (a
correlation can be), and error metrics keep their raw sign: negative
means the error went down. Display rounding is two decimals, half away
from zero.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
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


def _fmt(value, bold: bool) -> str:
    if value is None:
        return "—"
    text = f"{value:.3f}"
    return f"**{text}**" if bold else text


def _fmt_delta(delta) -> str:
    if delta is None:
        return "—"
    return f"{delta:+.2f}%"


def comparison_table(results: list[tuple]) -> tuple[str, dict]:
    """Pair the baseline and autoscore runs among (run result, metrics
    report) pairs that share a pairing_key, and render each pair as
    markdown plus a machine-readable dict (no pair: no rows).

    The better cell of each metric pair is bolded; ties bold both; deltas
    follow the delta_percent convention rounded for display, None where
    either cell is undefined or the base is zero.
    """
    groups: dict[tuple, dict] = {}
    for result, rep in results:
        key = pairing_key(result.manifest)
        groups.setdefault(key, {})[result.manifest["mode"]] = (result, rep)
    lines: list[str] = []
    payload_rows: list[dict] = []
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
        lines.append(f"### {dataset} / {model}")
        lines.append("")
        lines.append("| metric | baseline | autoscore | Δ(%) |")
        lines.append("|---|---|---|---|")
        row_payload: dict = {
            "dataset": dataset,
            "model": model,
            "n_baseline": base.n,
            "n_autoscore": auto.n,
            "metrics": {},
        }
        for metric in METRIC_ORDER:
            b, a = getattr(base, metric), getattr(auto, metric)
            undefined = b is None or a is None or b == 0
            delta = None if undefined else round2(delta_percent(b, a))
            winner = _better(metric, b, a)
            lines.append(
                f"| {metric} "
                f"| {_fmt(b, winner in ('baseline', 'tie'))} "
                f"| {_fmt(a, winner in ('autoscore', 'tie'))} "
                f"| {_fmt_delta(delta)} |"
            )
            row_payload["metrics"][metric] = {
                "baseline": b,
                "autoscore": a,
                "delta_pct": delta,
                "better": winner,
            }
        lines.append("")
        payload_rows.append(row_payload)
    return "\n".join(lines), {"rows": payload_rows}


def tradeoff_csv(results: list[tuple]) -> str:
    """One CSV line per (run result, metrics report) pair: the run's model,
    mode, mean wall time per successfully scored instance, and QWK. Every
    run must have records."""
    lines = ["model,variant,mean_ms,qwk"] + [
        f"{result.manifest['model_name']},{result.manifest['mode']},"
        f"{result.mean_wall_time_ms()!r},{report.qwk!r}"
        for result, report in results
    ]
    return "".join(line + "\n" for line in lines)


def _excerpt(text: str, limit: int = 240) -> str:
    text = " ".join(text.split())
    if len(text) <= limit:
        return text
    return text[: limit - 1].rstrip() + "…"


@dataclass(frozen=True)
class CaseRecord:
    """Audit view of one response across the paired runs: both predictions,
    the gold score, and the extracted components that fed autoscore."""

    response_id: str
    question_excerpt: str
    response_text: str
    rubric_excerpt: str
    components: dict
    gold: int | None
    autoscore_prediction: int
    baseline_prediction: int

    def to_markdown(self) -> str:
        lines = [
            f"# Case {self.response_id}",
            "",
            f"Human score = {self.gold}, autoscore = "
            f"{self.autoscore_prediction}, baseline = {self.baseline_prediction}",
            "",
            f"**Assessment question:** {self.question_excerpt}",
            "",
            f"**Student response:** {self.response_text}",
            "",
            f"**Rubric excerpt:** {self.rubric_excerpt}",
            "",
            "**Extracted components:**",
            "",
        ]
        for name, value in self.components.items():
            if isinstance(value, list):
                lines.append(f"- {name}:" + (" (none)" if not value else ""))
                for entry in value:
                    lines.append(f"  - {entry}")
            else:
                lines.append(f"- {name}: {json.dumps(value)}")
        lines += [
            "",
            "```json",
            json.dumps(self.components, indent=2, ensure_ascii=True),
            "```",
            "",
        ]
        return "\n".join(lines)


def case_record(
    autoscore_run, baseline_run, response_id: str, response_text: str
) -> CaseRecord:
    """Join one response's records in a loaded autoscore run and baseline
    run that comparison_table would pair into a CaseRecord.

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
    return CaseRecord(
        response_id=response_id,
        question_excerpt=_excerpt(context["question"]),
        response_text=response_text,
        rubric_excerpt=_excerpt(context["rubric_text"], limit=400),
        components=dict(auto_rec.representation.values),
        gold=auto_rec.gold_score,
        autoscore_prediction=auto_rec.predicted_score,
        baseline_prediction=base_rec.predicted_score,
    )
