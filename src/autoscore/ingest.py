"""Loading the tab-separated short-answer (sas) and essay (aes) scoring
dumps, gold score resolution, and reproducible subsampling.

FAMILIES describes each family's TSV layout once: the columns a file must
have, the id/set/text columns, and the gold column for each gold rule.
load_dataset is the one loader and reads any family through that table.
Response text is taken verbatim (no cleaning), and every gold score must
validate against the item's score range or the row is rejected. Files are
decoded as UTF-8 with a per-line Latin-1 fallback, since the public dumps
mix encodings.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

from .core import AutoscoreError, ScoreRange, StudentResponse, read_file


class DatasetError(AutoscoreError):
    """Unusable input: a dataset file or row, gold, or a report's runs."""


# family -> (required columns, (id, set, text) columns, gold column per gold
# rule); the gold rules a family accepts are the ones its layout has a
# column for
FAMILIES = {
    "sas": (
        ("Id", "EssaySet", "Score1", "Score2", "EssayText"),
        ("Id", "EssaySet", "EssayText"),
        {"first_rater": "Score1"},
    ),
    "aes": (
        ("essay_id", "essay_set", "essay", "rater1_domain1", "rater2_domain1",
         "domain1_score"),
        ("essay_id", "essay_set", "essay"),
        {"first_rater": "rater1_domain1", "resolved_column": "domain1_score"},
    ),
}

@dataclass(frozen=True)
class DatasetSpec:
    """Where one evaluation corpus lives and how to read its gold scores."""

    family: str  # "sas" | "aes"
    tsv_path: str
    essay_set: int
    score_range: ScoreRange
    gold_rule: str = "first_rater"

    def __post_init__(self) -> None:
        if not isinstance(self.family, str) or self.family not in FAMILIES:
            raise ValueError(f"unknown dataset family {self.family!r}")
        if not isinstance(self.tsv_path, str) or not self.tsv_path.strip():
            raise ValueError(f"tsv_path must be a non-empty string, "
                             f"got {self.tsv_path!r}")
        if type(self.essay_set) is not int or self.essay_set <= 0:
            raise ValueError(f"essay_set must be positive: an integer >= 1, "
                             f"got {self.essay_set!r}")
        gold_rules = FAMILIES[self.family][2]
        if not isinstance(self.gold_rule, str) or self.gold_rule not in gold_rules:
            raise ValueError(f"gold_rule {self.gold_rule!r} is not one of the "
                             f"{self.family} rules: {', '.join(gold_rules)}")


@dataclass(frozen=True)
class Dataset:
    responses: tuple[StudentResponse, ...]

    def __len__(self) -> int:
        return len(self.responses)

    def digest(self) -> str:
        """Hash of all response ids and texts, in id order; guards resumed
        runs against silent dataset edits."""
        blob = "\x1e".join(
            f"{r.response_id}\x1f{r.text}"
            for r in sorted(self.responses, key=lambda r: r.response_id)
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _read_lines(raw: bytes) -> list[str]:
    lines = []
    for chunk in raw.split(b"\n"):
        chunk = chunk.rstrip(b"\r")
        try:
            lines.append(chunk.decode("utf-8"))
        except UnicodeDecodeError:
            lines.append(chunk.decode("latin-1"))
    # trailing newline produces one empty tail entry
    while lines and lines[-1] == "":
        lines.pop()
    return lines


def _parse_int(text: str, line_no: int, what: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise DatasetError(f"line {line_no}: {what} is not an integer: "
                           f"{text!r}") from None


def load_dataset(spec: DatasetSpec) -> Dataset:
    """Load the rows of `spec.essay_set` from a TSV in the family's layout,
    with gold from the column the spec's gold rule names there."""
    required, (id_col, set_col, text_col), gold_cols = FAMILIES[spec.family]
    gold_col = gold_cols[spec.gold_rule]
    path = Path(spec.tsv_path)
    lines = _read_lines(read_file(path, DatasetError, "dataset file"))
    if not lines:
        raise DatasetError(f"dataset file is empty: {path}")

    header = lines[0].split("\t")
    index = {name: i for i, name in enumerate(header)}
    for column in required:
        if column not in index:
            raise DatasetError(f"required column {column!r} not found")

    responses: list[StudentResponse] = []
    seen_ids: set[str] = set()
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != len(header):
            raise DatasetError(f"line {line_no}: expected {len(header)} "
                               f"fields, found {len(parts)}")
        essay_set = _parse_int(parts[index[set_col]], line_no, set_col)
        if essay_set != spec.essay_set:
            continue
        response_id = parts[index[id_col]].strip()
        if response_id in seen_ids:
            raise DatasetError(
                f"line {line_no}: duplicate response id {response_id!r}")
        seen_ids.add(response_id)
        gold = _parse_int(parts[index[gold_col]], line_no, gold_col)
        if not spec.score_range.contains(gold):
            raise DatasetError(
                f"line {line_no}: gold score {gold} outside range "
                f"{spec.score_range.min}..{spec.score_range.max}"
            )
        text = parts[index[text_col]]
        if not text.strip():
            raise DatasetError(f"line {line_no}: empty response text")
        responses.append(
            StudentResponse(
                response_id=response_id,
                text=text,
                gold_score=gold,
            )
        )

    if not responses:
        raise DatasetError(
            f"no rows with {set_col}={spec.essay_set} in {path}"
        )
    return Dataset(responses=tuple(responses))


def sample_size(total: int, fraction: float) -> int:
    """Round-half-up sample size, so 0.2 x 1850 = 370 exactly."""
    return int(math.floor(fraction * total + 0.5))


def sample_ids(ids: list[str], fraction: float, seed: int) -> set[str]:
    """Deterministic subset of ids: rank by a seeded hash, keep the first
    round(fraction * n). Depends only on (seed, ids), never on list order."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    k = sample_size(len(ids), fraction)
    ranked = sorted(
        ids,
        key=lambda rid: hashlib.sha256(f"{seed}:{rid}".encode("utf-8")).hexdigest(),
    )
    return set(ranked[:k])
