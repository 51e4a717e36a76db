"""Seeded inputs for the benchmark: dataset TSVs, the per-response model
script, the expected-outcome table, and a config file per workload.

Everything derives from (seed, family, index), so the same seed always
gives the same files, and a shorter corpus of one family is a prefix of a
longer one. The program under test receives only the TSV and the config;
the script is read by the model side (the scripted backend or the loopback
stub) and the expected table by the correctness check.

The model side finds a response by the token ``[[<id>]]`` that opens every
generated response text, so each answer is one dict lookup.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

MAX_RETRIES = 3  # run.max_retries in every generated config
MODEL_NAME = "bench-model"

# every MALFORMED_EVERY-th response (one seeded slot per block) gets one
# malformed first attempt; one seeded slot per EXHAUSTED_EVERY responses
# answers every scoring attempt malformed and uses up the retry budget. The
# slot lies in the first half of its block, so a corpus of half a block
# still holds one.
MALFORMED_EVERY = 10
EXHAUSTED_EVERY = 100
# share of extractions whose derived count disagrees with its evidence list
COUNT_DISAGREEMENT = 0.15

_WORDS = (
    "the a of to and in that is for it as was with be by on not he this are "
    "or his from at which but have an they you were her she there one all we "
    "their been has when who will more no if out so said what up its about "
    "into than them can only other new some could time these two may then do "
    "first any my now such like our over man me even most made after also did "
    "many before must through back years where much your way well down should "
    "because each just those people how too little state good very make world "
    "still own see men work long get here between both life being under never "
    "day same another know while last might us great old year off come since "
    "against go came right used take three wing mass flew farther heavier "
    "lighter trial measure data result launch distance repeat control variable "
    "conclusion evidence claim reason support improve design validity test "
    "experiment average record chart compare increase decrease therefore"
).split()

SAS_ITEM = {
    "family": "sas",
    "score_range": {"min": 0, "max": 3},
    "question": (
        "A student launched model wings of different masses and measured how "
        "far each flew. What conclusion does the data support, and how could "
        "the investigation be improved?"
    ),
    "reference_material": (
        "Data table: wing A (5 g) flew 4.1 m; wing B (10 g) flew 6.8 m; "
        "wing C (15 g) flew 9.2 m. One launch per wing."
    ),
    "rubric_text": (
        "Score 3: a valid conclusion and two improvements to the design or the "
        "validity of the results.\nScore 2: a valid conclusion with one "
        "improvement, or two improvements without a valid conclusion.\n"
        "Score 1: only one of these elements.\nScore 0: little or no correct "
        "information from the investigation.\n"
    ),
    "schema": {
        "fields": [
            {"name": "valid_conclusion", "kind": "boolean",
             "description": "whether the response draws a valid conclusion"},
            {"name": "conclusions", "kind": "text_list",
             "description": "conclusion statements copied from the response"},
            {"name": "design_improvements", "kind": "text_list",
             "description": "proposed improvements to the design"},
            {"name": "validity_improvements", "kind": "text_list",
             "description": "proposed improvements to validity"},
            {"name": "design_count", "kind": "count",
             "derived_from": "design_improvements"},
            {"name": "validity_count", "kind": "count",
             "derived_from": "validity_improvements"},
        ]
    },
}

AES_ITEM = {
    "family": "aes",
    "score_range": {"min": 1, "max": 6},
    "question": (
        "Write a letter to your local newspaper stating your opinion on the "
        "effects computers have on people. Persuade the readers to agree."
    ),
    "reference_material": None,
    "rubric_text": (
        "Score 6: a clear, insightful position supported by precise, relevant "
        "evidence and a fluent, well organized argument.\nScore 5: a clear "
        "position with relevant evidence and logical organization.\nScore 4: "
        "a position with adequate support.\nScore 3: a position with thin or "
        "uneven support.\nScore 2: a vague position with little support.\n"
        "Score 1: no discernible position or support.\n"
    ),
    "schema": {
        "fields": [
            {"name": "thesis_present", "kind": "boolean",
             "description": "whether the essay states a position"},
            {"name": "claims", "kind": "text_list",
             "description": "claims copied from the essay"},
            {"name": "evidence", "kind": "text_list",
             "description": "supporting evidence copied from the essay"},
            {"name": "claim_count", "kind": "count", "derived_from": "claims"},
            {"name": "evidence_count", "kind": "count",
             "derived_from": "evidence"},
            {"name": "organization", "kind": "text",
             "description": "one word: clear, loose or absent"},
        ]
    },
}

FAMILIES = {"sas": (SAS_ITEM, 20, 60), "aes": (AES_ITEM, 300, 600)}

_MALFORMED_EXTRACTION = (
    lambda values: "I could not find a clear structure in this response.",
    lambda values: json.dumps({k: v for k, v in list(values.items())[1:]}),
    lambda values: json.dumps(
        {k: (str(v) if isinstance(v, int) and not isinstance(v, bool) else v)
         for k, v in values.items()}
    ),
)
_MALFORMED_SCORE = (
    "The score is probably two.",
    '{"score": "2"}',
    '{"score": 9}',
    '{"grade": 2}',
)


def _rng(seed: int, family: str, tag: str) -> random.Random:
    return random.Random(f"{seed}/{family}/{tag}")


def _spans(rng: random.Random, words: list[str], k: int) -> list[str]:
    spans = []
    for _ in range(k):
        length = rng.randint(3, 6)
        start = rng.randrange(len(words) - length)
        spans.append(" ".join(words[start:start + length]))
    return spans


def _extraction(rng: random.Random, family: str, words: list[str]):
    """Model-side extraction values, and the representation the program
    must derive from them: counts equal to list lengths, with every
    disagreeing count flagged in schema field order."""
    if family == "sas":
        lists = {
            "conclusions": _spans(rng, words, rng.randint(0, 2)),
            "design_improvements": _spans(rng, words, rng.randint(0, 2)),
            "validity_improvements": _spans(rng, words, rng.randint(0, 2)),
        }
        values = {"valid_conclusion": bool(lists["conclusions"]), **lists}
        derived = (("design_count", "design_improvements"),
                   ("validity_count", "validity_improvements"))
    else:
        lists = {
            "claims": _spans(rng, words, rng.randint(1, 4)),
            "evidence": _spans(rng, words, rng.randint(0, 5)),
        }
        values = {"thesis_present": rng.random() < 0.9, **lists}
        derived = (("claim_count", "claims"), ("evidence_count", "evidence"))
    expected = dict(values)
    flags = []
    for count_field, source in derived:
        true_count = len(values[source])
        supplied = true_count
        if rng.random() < COUNT_DISAGREEMENT:
            supplied = true_count + 1
            flags.append(count_field)
        values[count_field] = supplied
        expected[count_field] = true_count
    if family == "aes":
        values["organization"] = expected["organization"] = rng.choice(
            ("clear", "loose", "absent")
        )
    return values, expected, flags


def _near(rng: random.Random, gold: int, lo: int, hi: int) -> int:
    if rng.random() < 0.6:
        return gold
    return min(hi, max(lo, gold + rng.choice((-1, 1))))


def build_corpus(seed: int, family: str, n: int) -> list[dict]:
    """One entry per response: TSV fields, the model script (attempt texts
    per stage) and the expected outcome per mode."""
    item, min_words, max_words = FAMILIES[family]
    lo, hi = item["score_range"]["min"], item["score_range"]["max"]
    prefix = "s" if family == "sas" else "e"
    corpus = []
    for i in range(n):
        block = i // MALFORMED_EVERY
        malformed = _rng(seed, family, f"m{block}").randrange(MALFORMED_EVERY) == i % MALFORMED_EVERY
        hblock = i // EXHAUSTED_EVERY
        exhausted = _rng(seed, family, f"x{hblock}").randrange(EXHAUSTED_EVERY // 2) == i % EXHAUSTED_EVERY
        rng = _rng(seed, family, f"r{i}")
        rid = f"{prefix}{i:06d}"
        words = rng.choices(_WORDS, k=rng.randint(min_words, max_words))
        text = f"[[{rid}]] " + " ".join(words)
        gold = rng.randint(lo, hi)
        values, rep, flags = _extraction(rng, family, words)
        auto_score = _near(rng, gold, lo, hi)
        base_score = _near(rng, gold, lo, hi)
        bad_stage = rng.choice(("extraction", "scoring")) if malformed else None

        extraction = [json.dumps(values)]
        if bad_stage == "extraction":
            extraction.insert(0, rng.choice(_MALFORMED_EXTRACTION)(values))
        if exhausted:
            first = rng.randrange(len(_MALFORMED_SCORE))
            bad = [_MALFORMED_SCORE[(first + k) % len(_MALFORMED_SCORE)]
                   for k in range(MAX_RETRIES)]
            scoring, baseline = bad, list(bad)
        else:
            scoring = [json.dumps({"score": auto_score})]
            baseline = [json.dumps({"score": base_score})]
            if malformed:
                baseline.insert(0, rng.choice(_MALFORMED_SCORE))
            if bad_stage == "scoring":
                scoring.insert(0, rng.choice(_MALFORMED_SCORE))

        auto_calls = len(extraction) + len(scoring)
        autoscore = (
            {"kind": "failure", "calls": auto_calls}
            if exhausted
            else {"kind": "record", "score": auto_score, "values": rep,
                  "flags": flags, "retries": auto_calls - 2,
                  "calls": auto_calls}
        )
        baseline_expected = {
            "kind": "record",
            "score": lo if exhausted else base_score,  # floor imputation
            "retries": len(baseline) - 1,
            "calls": len(baseline),
        }
        corpus.append({
            "id": rid,
            "text": text,
            "gold": gold,
            "rater2": _near(rng, gold, lo, hi),
            "script": {"extraction": extraction, "scoring": scoring,
                       "baseline": baseline},
            "expected": {"autoscore": autoscore, "baseline": baseline_expected},
        })
    return corpus


def write_tsv(path: Path, family: str, corpus: list[dict]) -> None:
    if family == "sas":
        header = "Id\tEssaySet\tScore1\tScore2\tEssayText"
        rows = [f"{c['id']}\t1\t{c['gold']}\t{c['rater2']}\t{c['text']}"
                for c in corpus]
    else:
        header = ("essay_id\tessay_set\tessay\trater1_domain1\t"
                  "rater2_domain1\tdomain1_score")
        rows = [f"{c['id']}\t1\t{c['text']}\t{c['gold']}\t{c['rater2']}\t"
                f"{c['gold']}" for c in corpus]
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def write_config(path: Path, family: str, tsv_path: Path, backend: dict,
                 imputation: str, seed: int) -> None:
    """Write the run config. JSON is valid YAML, so the program's own YAML
    loader reads it."""
    item = {k: v for k, v in FAMILIES[family][0].items()}
    item.update({"tsv_path": str(tsv_path), "essay_set": 1})
    config = {
        "backend": {"model": MODEL_NAME, **backend},
        "run": {"parallelism": 2, "max_retries": MAX_RETRIES, "seed": seed,
                "imputation": imputation},
        "items": {family: item},
    }
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")


def write_json(path: Path, corpus: list[dict], key: str) -> None:
    path.write_text(json.dumps({c["id"]: c[key] for c in corpus}),
                    encoding="utf-8")


def stage_of(messages) -> str:
    system, user = messages[0][1], messages[1][1]
    if system.startswith("You are a meticulous"):
        return "extraction"
    return "scoring" if "Components extracted" in user else "baseline"


def answer(script: dict, messages) -> str:
    """The scripted model: the reply for this response, stage and attempt.
    A re-prompt appends one user message, so the attempt index is the
    message count past (system, user)."""
    user = messages[1][1]
    start = user.index("[[") + 2
    rid = user[start:user.index("]]", start)]
    attempts = script[rid][stage_of(messages)]
    return attempts[min(len(messages) - 2, len(attempts) - 1)]
