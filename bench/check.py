"""Correctness check of one finished run directory against the expected
table that gen.build_corpus wrote: scores, representation values,
inconsistency flags, retries, failure ids and floor-imputed ids.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path


def _lines(path: Path) -> list[dict]:
    """Parsed JSONL entries; a line that does not parse is left out, so its
    response counts as missing."""
    if not path.exists():
        return []
    entries = []
    for line in path.read_text(encoding="utf-8", errors="replace").splitlines():
        try:
            entries.append(json.loads(line))
        except ValueError:
            continue
    return entries


def _record_matches(record: dict, want: dict, mode: str) -> bool:
    """Score, retries and, in autoscore mode, the corrected representation
    and its flags. A floor-imputed baseline record expects the rubric
    minimum, which the expected table already holds as its score."""
    if (record.get("mode") != mode or record.get("retries") != want["retries"]
            or record.get("predicted_score") != want["score"]):
        return False
    rep = record.get("representation")
    if mode == "baseline":
        return rep is None
    return (isinstance(rep, dict) and rep.get("values") == want["values"]
            and rep.get("inconsistency_flags") == want["flags"])


def mismatched(run_dir: Path, expected: dict, mode: str) -> list[str]:
    """Ids whose outcome differs from the expected one: a wrong score or
    representation, a missing or extra record, or an unexpected failure."""
    records = {r.get("response_id"): r for r in _lines(run_dir / "records.jsonl")}
    failures = {f.get("response_id"): f for f in _lines(run_dir / "failures.jsonl")}
    bad = []
    for rid, outcomes in expected.items():
        want = outcomes[mode]
        if want["kind"] == "failure":
            ok = (rid in failures and rid not in records
                  and str(failures[rid].get("error")).startswith("ScoringFailed"))
        else:
            ok = (rid in records and rid not in failures
                  and _record_matches(records[rid], want, mode))
        if not ok:
            bad.append(rid)
    bad += sorted(str(rid) for rid in (records.keys() | failures.keys()) - expected.keys())
    return bad


def expected_model_calls(expected: dict, mode: str) -> int:
    return sum(outcomes[mode]["calls"] for outcomes in expected.values())


def differing_ids(lines: list[bytes], reference: list[bytes]) -> set[str]:
    """Responses whose records.jsonl line differs from the reference run's
    line at the same position (the file is in response id order)."""
    ids = set()
    for i, (line, ref) in enumerate(itertools.zip_longest(lines, reference, fillvalue=b"")):
        if line != ref:
            try:
                ids.add(json.loads(line or ref)["response_id"])
            except (ValueError, KeyError, TypeError):
                ids.add(f"line {i + 1}")
    return ids
