import json

import pytest

from autoscore import agents
from autoscore.backend import ScriptedBackend, request_digest
from autoscore.core import OutOfRange, Score, ScoreRange, StudentResponse, TaskContext
from autoscore.schema import MissingField, NoJsonFound, StructuredRepresentation

from conftest import SCIENCE_SCHEMA_DEF, z_payload
from autoscore.schema import compile_schema


@pytest.fixture
def context():
    return TaskContext(
        item_id="synth",
        question="How should the investigation be improved?",
        rubric_text="Score 1: one element. Score 0: nothing.",
        score_range=ScoreRange(0, 3),
        reference_material=None,
    )


@pytest.fixture
def response():
    return StudentResponse("r01", "synth", "synthetic response r01: repeat trials.")


class TestRender:
    def test_replaces_bound_placeholders(self):
        out = agents.render("Q: {question} R: {response}", {
            "question": "why?", "response": "because",
        })
        assert out == "Q: why? R: because"

    def test_unbound_placeholder_raises(self):
        with pytest.raises(agents.UnboundPlaceholder):
            agents.render("{question} {rubric_text}", {"question": "q"})

    def test_literal_braces_survive(self):
        out = agents.render(
            'Output exactly: {"score": <integer>} for {question}',
            {"question": "q"},
        )
        assert '{"score": <integer>}' in out

    def test_inserted_content_is_never_rescanned(self):
        # raw model output may itself contain placeholder-shaped text
        out = agents.render(
            "{previous_output} / {error}",
            {"previous_output": "oops {response} here", "error": "bad"},
        )
        assert out == "oops {response} here / bad"


class TestParseScore:
    def test_plain(self):
        assert agents.parse_score('{"score": 1}', ScoreRange(0, 2)) == Score(1)

    def test_fenced(self):
        assert agents.parse_score('```json {"score": 3} ```', ScoreRange(0, 3)) == Score(3)

    def test_non_integer(self):
        with pytest.raises(agents.NonInteger):
            agents.parse_score('{"score": 2.5}', ScoreRange(0, 3))

    def test_string_score(self):
        with pytest.raises(agents.NonInteger):
            agents.parse_score('{"score": "2"}', ScoreRange(0, 3))

    def test_boolean_score(self):
        with pytest.raises(agents.NonInteger):
            agents.parse_score('{"score": true}', ScoreRange(0, 3))

    def test_missing_key(self):
        with pytest.raises(MissingField):
            agents.parse_score('{"points": 2}', ScoreRange(0, 3))

    def test_no_json(self):
        with pytest.raises(NoJsonFound):
            agents.parse_score("two points", ScoreRange(0, 3))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            agents.parse_score('{"score": 9}', ScoreRange(0, 3))


SCIENCE = compile_schema("synth", SCIENCE_SCHEMA_DEF)


class TestRunExtraction:
    def test_conformant_output_needs_no_retry(self, context, response):
        backend = ScriptedBackend(responses=[json.dumps(z_payload("r01"))])
        outcome = agents.run_extraction(backend, context, response, SCIENCE)
        assert outcome.retries == 0
        assert isinstance(outcome.value, StructuredRepresentation)
        assert outcome.value.values["design_count"] == len(
            outcome.value.values["design_improvements"]
        )

    def test_retries_on_prose_then_succeeds(self, context, response):
        backend = ScriptedBackend(
            responses=["I will not comply.", json.dumps(z_payload("r01"))]
        )
        outcome = agents.run_extraction(backend, context, response, SCIENCE)
        assert outcome.retries == 1
        assert len(outcome.attempts) == 2
        assert outcome.wall_time_ms == sum(a.latency_ms for a in outcome.attempts)

    def test_prose_three_times_exhausts_retries(self, context, response):
        backend = ScriptedBackend(responses=["prose"] * 3)
        with pytest.raises(agents.ExtractionFailed):
            agents.run_extraction(backend, context, response, SCIENCE)
        assert backend.call_count == 3

    def test_retry_prompt_carries_the_validation_error(self, context, response):
        seen = []

        def script(request):
            seen.append(request.messages)
            if len(seen) == 1:
                return '{"valid_conclusion": "yes"}'
            return json.dumps(z_payload("r01"))

        backend = ScriptedBackend(script=script)
        agents.run_extraction(backend, context, response, SCIENCE)
        retry_messages = seen[1]
        assert len(retry_messages) == 3  # system, user, repair
        assert retry_messages[2][0] == "user"
        assert "valid_conclusion" in retry_messages[2][1]

    def test_frozen_replay_fixture_for_science_example(self, tmp_path, context):
        # frozen transcript for the exemplar response: authored once, then
        # replayed bit-deterministically through the digest-keyed store
        response = StudentResponse(
            "sci1",
            "synth",
            "the flight should be repeated with more trials, and the wing "
            "samples should be of equal mass",
        )
        z = {
            "valid_conclusion": False,
            "conclusions": [],
            "design_improvements": [
                "the flight should be repeated with more trials"
            ],
            "validity_improvements": [
                "the wing samples should be of equal mass"
            ],
            "design_count": 1,
            "validity_count": 1,
        }
        from autoscore.backend import CachingBackend

        fixture = tmp_path / "fixture.jsonl"
        recorder = CachingBackend(
            ScriptedBackend(responses=[json.dumps(z)], model_name="gpt"), fixture
        )
        recorded = agents.run_extraction(recorder, context, response, SCIENCE)

        replay = CachingBackend(None, fixture, "gpt")
        replayed = agents.run_extraction(replay, context, response, SCIENCE)
        assert replayed.value == recorded.value
        assert len(replayed.value.values["design_improvements"]) >= 1
        assert replayed.value.inconsistency_flags == ()


class TestRunScoring:
    def rep(self):
        return StructuredRepresentation("synth", z_payload("r02"))

    def test_clean_score(self, context, response):
        backend = ScriptedBackend(responses=['{"score": 2}'])
        outcome = agents.run_scoring(backend, self.rep(), context, response)
        assert outcome.value == Score(2)
        assert outcome.retries == 0

    def test_out_of_range_retry_includes_range_reminder(self, context, response):
        seen = []

        def script(request):
            seen.append(request.messages)
            return '{"score": 5}' if len(seen) == 1 else '{"score": 3}'

        backend = ScriptedBackend(script=script)
        outcome = agents.run_scoring(backend, self.rep(), context, response)
        assert outcome.value == Score(3)
        assert outcome.retries == 1
        repair = seen[1][2][1]
        assert "from 0 to 3" in repair

    def test_unparseable_three_times_fails(self, context, response):
        backend = ScriptedBackend(responses=["two points"] * 3)
        with pytest.raises(agents.ScoringFailed):
            agents.run_scoring(backend, self.rep(), context, response)

    def test_inconsistency_note_rendered_into_prompt(self, context, response):
        rep = StructuredRepresentation(
            "synth", z_payload("r02"), inconsistency_flags=("design_count",)
        )
        seen = []

        def script(request):
            seen.append(request.messages)
            return '{"score": 1}'

        agents.run_scoring(ScriptedBackend(script=script), rep, context, response)
        user_text = seen[0][1][1]
        assert "corrected to the list lengths: design_count" in user_text

    def test_scoring_prompt_is_a_pure_function_of_inputs(self, context, response):
        digests = []

        def script(request):
            digests.append(request_digest(request).digest)
            return '{"score": 1}'

        rep = self.rep()
        agents.run_scoring(ScriptedBackend(script=script), rep, context, response)
        agents.run_scoring(ScriptedBackend(script=script), rep, context, response)
        assert digests[0] == digests[1]


class TestRunBaseline:
    def test_direct_score(self, context, response):
        backend = ScriptedBackend(responses=['{"score": 0}'])
        outcome = agents.run_baseline(backend, context, response)
        assert outcome.value == Score(0)

    def test_near_empty_response_still_goes_to_backend(self, context):
        response = StudentResponse("r0", "synth", " . ")
        backend = ScriptedBackend(responses=['{"score": 0}'])
        outcome = agents.run_baseline(backend, context, response)
        assert outcome.value == Score(0)
        assert backend.call_count == 1

    def test_malformed_three_times_fails(self, context, response):
        backend = ScriptedBackend(responses=["nope"] * 3)
        with pytest.raises(agents.ScoringFailed):
            agents.run_baseline(backend, context, response)

    def test_baseline_prompt_never_mentions_schema_fields(self, context, response):
        prompts_seen = []

        def script(request):
            prompts_seen.append(
                "\n".join(content for _, content in request.messages)
            )
            return '{"score": 1}'

        agents.run_baseline(ScriptedBackend(script=script), context, response)
        blob = "\n".join(prompts_seen)
        for field in SCIENCE.field_names():
            assert field not in blob


def test_returned_scores_always_in_range_under_fuzzed_backends(context, response):
    # any scripted output either yields an in-range Score or a domain error
    outputs = [
        '{"score": %d}' % v for v in range(-3, 8)
    ] + ["prose", '{"score": 1.5}', '{"x": 1}']
    for text in outputs:
        backend = ScriptedBackend(responses=[text] * 3)
        try:
            outcome = agents.run_baseline(backend, context, response)
        except agents.ScoringFailed:
            continue
        assert context.score_range.contains(outcome.value.value)
