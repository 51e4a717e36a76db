"""Agreement and error statistics for scoring runs and for component-level
reliability validation.

Score-level metrics (the six headline numbers):

    accuracy   exact agreement fraction
    qwk        quadratic weighted kappa over the full rubric scale:
               k = 1 - sum(w*O) / sum(w*E), w_ij = (i-j)^2 / (K-1)^2,
               E the outer product of the two marginals scaled to n
    mae/rmse   absolute and squared error
    pearson    linear correlation; spearman applies it to average ranks

Component-level reliability adds Cohen's kappa and F1 for boolean fields
and exact-match rates for count fields.

Every input is an integer (scores, doubled ranks, component counts) and
is accumulated in exact integer arithmetic, with a single
correctly-rounded float division (and square root where needed) at the
end, so results are bit-reproducible. Undefined correlations (zero
variance) raise ZeroVariance and are reported as null cells, never as 0.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from .backend import parse_jsonl
from .core import AutoscoreError, ScoreRange, StructuredRepresentation, decode_json, read_file
from .ingest import DatasetError
from .schema import ComponentSchema


class ZeroVariance(AutoscoreError):
    """Correlation is undefined: one of the vectors has no variance."""


@dataclass(frozen=True)
class PairedScores:
    """Gold/predicted integer score pairs over one rubric scale. No pairs or
    a score off the scale is bad data (DatasetError); unequal lengths are a
    caller's bug (ValueError)."""

    gold: tuple[int, ...]
    pred: tuple[int, ...]
    range: ScoreRange

    def __post_init__(self) -> None:
        if len(self.gold) == 0:
            raise DatasetError("no score pairs")
        if len(self.gold) != len(self.pred):
            raise ValueError("gold and pred must have equal lengths")
        for v in (*self.gold, *self.pred):
            if not self.range.contains(v):
                raise DatasetError(
                    f"score {v} outside range {self.range.min}..{self.range.max}"
                )

    @property
    def n(self) -> int:
        return len(self.gold)


def accuracy(p: PairedScores) -> float:
    matches = sum(1 for g, r in zip(p.gold, p.pred) if g == r)
    return matches / p.n


def confusion_matrix(p: PairedScores) -> tuple[tuple[int, ...], ...]:
    """K x K count matrix over the full declared scale; rows are gold."""
    k = p.range.cardinality
    lo = p.range.min
    counts = [[0] * k for _ in range(k)]
    for g, r in zip(p.gold, p.pred):
        counts[g - lo][r - lo] += 1
    return tuple(tuple(row) for row in counts)


def qwk(p: PairedScores) -> float:
    """Quadratic weighted kappa over all K rubric categories.

    Computed as 1 - n*A/B with A = sum (i-j)^2 O_ij and
    B = sum (i-j)^2 gold_hist_i * pred_hist_j; the (K-1)^2 weight
    normalization cancels. When B is zero both marginals sit on the same
    single category, agreement is perfect, and the value is 1.0 by
    convention (B cannot be zero otherwise).
    """
    observed = confusion_matrix(p)
    k = p.range.cardinality
    gold_hist = [sum(row) for row in observed]
    pred_hist = [sum(observed[i][j] for i in range(k)) for j in range(k)]
    a = sum(
        (i - j) ** 2 * observed[i][j] for i in range(k) for j in range(k)
    )
    b = sum(
        (i - j) ** 2 * gold_hist[i] * pred_hist[j]
        for i in range(k)
        for j in range(k)
    )
    if b == 0:
        return 1.0
    return 1.0 - (p.n * a) / b


def mae(p: PairedScores) -> float:
    return sum(abs(g - r) for g, r in zip(p.gold, p.pred)) / p.n


def rmse(p: PairedScores) -> float:
    sse = sum((g - r) ** 2 for g, r in zip(p.gold, p.pred))
    return math.sqrt(sse / p.n)


def _pearson_values(xs, ys) -> float:
    n = len(xs)
    if n < 2:
        raise ZeroVariance("correlation needs at least 2 points")
    sx, sy = sum(xs), sum(ys)
    num = n * sum(x * y for x, y in zip(xs, ys)) - sx * sy
    vx = n * sum(x * x for x in xs) - sx * sx
    vy = n * sum(y * y for y in ys) - sy * sy
    if vx == 0 or vy == 0:
        raise ZeroVariance("constant vector")
    return num / math.sqrt(vx * vy)


def pearson(p: PairedScores) -> float:
    return _pearson_values(p.gold, p.pred)


def _doubled_average_ranks(xs) -> list[int]:
    """Average ranks (ties shared), scaled by 2 so they stay integers."""
    n = len(xs)
    order = sorted(range(n), key=lambda i: xs[i])
    ranks = [0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        doubled = i + j + 2  # 2 * ((i + j) / 2 + 1)
        for t in range(i, j + 1):
            ranks[order[t]] = doubled
        i = j + 1
    return ranks


def spearman(p: PairedScores) -> float:
    """Rank correlation with average ranks for ties (scaling by 2 keeps the
    ranks integral and leaves the correlation unchanged)."""
    return _pearson_values(
        _doubled_average_ranks(p.gold), _doubled_average_ranks(p.pred)
    )


def cohen_kappa_binary(gold, pred) -> float:
    """Cohen's kappa for two boolean vectors: (po - pe) / (1 - pe).

    When pe = 1 both vectors are constant on the same class; agreement is
    perfect and the value is 1.0 by convention.
    """
    n = len(gold)
    if n == 0:
        raise DatasetError("no label pairs")
    if len(pred) != n:
        raise ValueError("gold and pred must have equal lengths")
    agree = sum(1 for g, r in zip(gold, pred) if bool(g) == bool(r))
    gold_true = sum(1 for g in gold if g)
    pred_true = sum(1 for r in pred if r)
    pe_num = gold_true * pred_true + (n - gold_true) * (n - pred_true)
    if pe_num == n * n:
        return 1.0
    po = agree / n
    pe = pe_num / (n * n)
    return (po - pe) / (1.0 - pe)


def f1_binary(gold, pred) -> float:
    """F1 on the positive (component present) class, as 2tp/(2tp+fp+fn).

    With no positives in gold and none predicted the score is 1.0 by
    convention; with positives present but none predicted it is 0.
    """
    if len(gold) == 0:
        raise DatasetError("no label pairs")
    if len(pred) != len(gold):
        raise ValueError("gold and pred must have equal lengths")
    tp = sum(1 for g, r in zip(gold, pred) if g and r)
    fp = sum(1 for g, r in zip(gold, pred) if not g and r)
    fn = sum(1 for g, r in zip(gold, pred) if g and not r)
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 1.0
    return 2 * tp / denom


def count_agreement(gold_counts, pred_counts) -> dict:
    """Element-wise stats over paired non-negative integer counts:
    {mae, rmse, pearson (None when undefined), exact_match_rate}."""
    n = len(gold_counts)
    if n == 0:
        raise DatasetError("no count pairs")
    if len(pred_counts) != n:
        raise ValueError("gold and pred must have equal lengths")
    l1 = sum(abs(g - r) for g, r in zip(gold_counts, pred_counts))
    sse = sum((g - r) ** 2 for g, r in zip(gold_counts, pred_counts))
    exact = sum(1 for g, r in zip(gold_counts, pred_counts) if g == r)
    try:
        corr = _pearson_values(list(gold_counts), list(pred_counts))
    except ZeroVariance:
        corr = None
    return {"mae": l1 / n, "rmse": math.sqrt(sse / n), "pearson": corr,
            "exact_match_rate": exact / n}


@dataclass(frozen=True, kw_only=True)
class MetricsReport:
    """One run's headline metrics and confusion matrix, in file order."""

    label: str | None = None
    n: int
    failures: int = 0
    accuracy: float
    qwk: float
    pearson: float | None
    spearman: float | None
    mae: float
    rmse: float
    confusion: tuple[tuple[int, ...], ...]

    def to_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        def cell(value) -> str:
            return "—" if value is None else f"{value:.4f}"

        # a row per field, in file order; a count (declared int) prints as is
        counts = {f.name for f in fields(self) if f.type == "int"}
        rows = [(name, str(value) if name in counts else cell(value))
                for name, value in vars(self).items() if name not in ("label", "confusion")]
        width = max(len(name) for name, _ in rows)
        lines = [f"{name:<{width}}  {value}" for name, value in rows]
        lines.append("confusion (rows = gold):")
        for row in self.confusion:
            lines.append("  " + " ".join(f"{c:4d}" for c in row))
        title = f"[{self.label}]" if self.label else ""
        return "\n".join(filter(None, [title, *lines])) + "\n"


def compute_report(
    p: PairedScores, failures: int = 0, label: str | None = None
) -> MetricsReport:
    def null_on_zero_variance(fn):
        try:
            return fn(p)
        except ZeroVariance:
            return None

    return MetricsReport(
        n=p.n,
        accuracy=accuracy(p),
        qwk=qwk(p),
        pearson=null_on_zero_variance(pearson),
        spearman=null_on_zero_variance(spearman),
        mae=mae(p),
        rmse=rmse(p),
        confusion=confusion_matrix(p),
        failures=failures,
        label=label,
    )


def evaluate_run(result) -> MetricsReport:
    """Score-level metrics for one run result (failures excluded, their
    count echoed in the report). Every record must carry a gold score."""
    records = result.records
    if not records:
        raise DatasetError("run has no successful records")
    missing = [r.response_id for r in records if r.gold_score is None]
    if missing:
        raise DatasetError(f"records without gold scores: {missing[:5]}")
    paired = PairedScores(
        gold=tuple(r.gold_score for r in records),
        pred=tuple(r.predicted_score for r in records),
        range=ScoreRange(**result.manifest["score_range"]),
    )
    return compute_report(paired, failures=len(result.failures),
                          label=result.manifest["mode"])


def reliability_text(report: dict) -> str:
    """The text form of a `validate_components` report."""
    lines = [f"n = {report['n']}"]
    for name, s in report["boolean_fields"].items():
        lines.append(f"{name}: accuracy {s['accuracy']:.4f}  f1 {s['f1']:.4f}  "
                     f"kappa {s['cohen_kappa']:.4f}")
    for name, s in report["count_fields"].items():
        corr = "—" if s["pearson"] is None else f"{s['pearson']:.4f}"
        lines.append(f"{name}: mae {s['mae']:.4f}  rmse {s['rmse']:.4f}  "
                     f"pearson {corr}  exact-match {s['exact_match_rate']:.4f}")
    lines.append(f"overall exact-match (all counts): "
                 f"{report['overall_exact_match_rate']:.4f}")
    return "\n".join(lines) + "\n"


def validate_components(
    predicted: dict[str, StructuredRepresentation],
    gold: dict[str, dict],
    schema: ComponentSchema,
) -> dict:
    """Component-recognition reliability against gold annotations, aligned
    by response id, as the dict reliability.json holds: n; per boolean
    field accuracy, F1 and Cohen's kappa; per count field `count_agreement`;
    and the joint all-counts exact-match rate. Gold must supply every
    boolean and count field of the schema for every aligned response, and
    each such gold and predicted value must pass the schema's own check for
    its kind."""
    pred_ids = set(predicted)
    gold_ids = set(gold)
    if pred_ids != gold_ids:
        missing = sorted(pred_ids - gold_ids)[:5]
        extra = sorted(gold_ids - pred_ids)[:5]
        raise DatasetError(
            f"predicted/gold ids differ (missing gold: {missing}, "
            f"extra gold: {extra})"
        )
    if not predicted:
        raise DatasetError("no responses to validate")

    ids = sorted(pred_ids)
    for rid in ids:
        rep = predicted[rid]
        if rep.schema_id != schema.item_id:
            raise DatasetError(
                f"{rid}: representation belongs to schema {rep.schema_id!r}, "
                f"expected {schema.item_id!r}"
            )

    compared = [f for f in schema.fields if f.kind in ("boolean", "count")]
    for f_ in compared:
        expected, check = schema.checks[f_.name]
        for rid in ids:
            if f_.name not in gold[rid]:
                raise DatasetError(
                    f"gold annotation for {rid} lacks field {f_.name!r}"
                )
            for whose, value in (("gold annotation", gold[rid][f_.name]),
                                 ("representation", predicted[rid].values.get(f_.name))):
                if not check(value):
                    raise DatasetError(f"{whose} for {rid} has {f_.name!r} = "
                                       f"{value!r}, expected {expected}")

    booleans, counts = {}, {}
    for f_ in compared:
        gold_vec = [gold[rid][f_.name] for rid in ids]
        pred_vec = [predicted[rid].values[f_.name] for rid in ids]
        if f_.kind == "count":
            counts[f_.name] = count_agreement(gold_vec, pred_vec)
        else:
            agree = sum(1 for g, r in zip(gold_vec, pred_vec) if g == r)
            booleans[f_.name] = {"accuracy": agree / len(ids),
                                 "f1": f1_binary(gold_vec, pred_vec),
                                 "cohen_kappa": cohen_kappa_binary(gold_vec, pred_vec)}

    # with no count fields every response matches on all of them: 1.0
    joint = sum(all(predicted[rid].values[name] == gold[rid][name] for name in counts)
                for rid in ids)
    return {"n": len(ids), "boolean_fields": booleans, "count_fields": counts,
            "overall_exact_match_rate": joint / len(ids)}


def _gold_annotation(line: str) -> tuple[str, dict]:
    entry = decode_json(line)
    rid, values = entry["response_id"], entry["values"]
    if type(rid) is not str:
        raise TypeError(f"response_id is {type(rid).__name__}, not a string")
    if not isinstance(values, dict):
        raise TypeError(f"values is {type(values).__name__}, not an object")
    return rid, values


def load_gold_annotations(path) -> dict[str, dict]:
    """Gold component annotations: JSONL of {response_id, values{...}}. A
    file that cannot be read, a line that does not parse, lacks either key,
    or has a response_id that is not a string or `values` that is not an
    object, and a response_id on two lines raise DatasetError naming the
    file (and the line or the id)."""
    data = read_file(path, DatasetError, "gold annotations file")
    gold: dict[str, dict] = {}
    # a hand-written last line may lack its newline: parse all the bytes
    for rid, values in parse_jsonl(path, data, _gold_annotation, DatasetError):
        if rid in gold:
            raise DatasetError(f"{path}: response_id {rid!r} is on two lines")
        gold[rid] = values
    return gold
