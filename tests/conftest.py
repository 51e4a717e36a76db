"""Shared fixtures: the science-style schema, a synthetic 12-response
dataset with frozen gold/predicted scores, and deterministic scripted
backends keyed on request content (safe at any parallelism)."""

from __future__ import annotations

import json
import time

import pytest

from autoscore.backend import ScriptedBackend
from autoscore.core import ScoreRange, StudentResponse, TaskContext
from autoscore.ingest import Dataset
from autoscore.schema import compile_schema

SCIENCE_SCHEMA_DEF = {
    "fields": [
        {
            "name": "valid_conclusion",
            "kind": "boolean",
            "description": "whether the response draws a valid conclusion",
        },
        {
            "name": "conclusions",
            "kind": "text_list",
            "description": "conclusion statements copied from the response",
        },
        {
            "name": "design_improvements",
            "kind": "text_list",
            "description": "proposed improvements to the experimental design",
        },
        {
            "name": "validity_improvements",
            "kind": "text_list",
            "description": "proposed improvements to the validity of results",
        },
        {
            "name": "design_count",
            "kind": "count",
            "derived_from": "design_improvements",
            "description": "number of design improvements",
        },
        {
            "name": "validity_count",
            "kind": "count",
            "derived_from": "validity_improvements",
            "description": "number of validity improvements",
        },
    ]
}

SYNTH_IDS = [f"r{i:02d}" for i in range(1, 13)]
SYNTH_GOLD = dict(zip(SYNTH_IDS, [2, 3, 1, 0, 2, 3, 0, 1, 2, 3, 1, 2]))
SYNTH_PRED = dict(zip(SYNTH_IDS, [2, 3, 1, 0, 1, 3, 0, 2, 2, 3, 0, 2]))

RUBRIC_TEXT = (
    "Score 3: a valid conclusion and two improvements.\n"
    "Score 2: a valid conclusion with one improvement, or two improvements.\n"
    "Score 1: only one of these elements present.\n"
    "Score 0: little or no correct information."
)


def synth_response_text(rid: str) -> str:
    return (
        f"synthetic response {rid}: the trials should be repeated and the "
        f"conclusion restated clearly."
    )


def z_payload(rid: str) -> dict:
    """Deterministic extraction output for one synthetic response; r04
    deliberately declares a wrong design_count to exercise normalization."""
    k = int(rid[1:])
    design = [f"improvement {i} from {rid}" for i in range(k % 3)]
    validity = [f"validity fix from {rid}"] if k % 2 == 0 else []
    valid_conclusion = k % 2 == 1
    conclusions = [f"conclusion span from {rid}"] if valid_conclusion else []
    declared_design = len(design) + (1 if rid == "r04" else 0)
    return {
        "valid_conclusion": valid_conclusion,
        "conclusions": conclusions,
        "design_improvements": design,
        "validity_improvements": validity,
        "design_count": declared_design,
        "validity_count": len(validity),
    }


def synth_script(request) -> str:
    """Scripted completion keyed purely on request content."""
    blob = "\n".join(content for _, content in request.messages)
    rid = next(r for r in SYNTH_IDS if f"synthetic response {r}" in blob)
    if "Identify the rubric-relevant components" in blob:
        return json.dumps(z_payload(rid))
    return json.dumps({"score": SYNTH_PRED[rid]})


@pytest.fixture
def science_schema():
    return compile_schema("synth", SCIENCE_SCHEMA_DEF)


@pytest.fixture
def synth_context():
    return TaskContext(
        item_id="synth",
        question="How should the investigation be improved?",
        rubric_text=RUBRIC_TEXT,
        score_range=ScoreRange(0, 3),
        reference_material="procedure table",
    )


@pytest.fixture
def synth_dataset():
    responses = tuple(
        StudentResponse(
            response_id=rid,
            text=synth_response_text(rid),
            gold_score=SYNTH_GOLD[rid],
        )
        for rid in SYNTH_IDS
    )
    return Dataset(responses=responses)


@pytest.fixture
def scripted_backend():
    return ScriptedBackend(script=synth_script, model_name="synth-model")


@pytest.fixture
def scripted_backend_factory():
    def make():
        return ScriptedBackend(script=synth_script, model_name="synth-model")

    return make


ACCEPTANCE_LINES: list[str] = []


def pytest_configure(config):
    config._session_started_at = time.perf_counter()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    elapsed = time.perf_counter() - config._session_started_at
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
    status = "PASS" if elapsed < 60.0 else "FAIL"
    terminalreporter.write_line(
        f"ACCEPTANCE 9 (full test suite, no network, under 60 s): {status} "
        f"({elapsed:.1f} s elapsed)"
    )
