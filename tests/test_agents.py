import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from autoscore import agents
from autoscore.backend import ScriptedBackend, request_digest
from autoscore.core import ScoreRange, StudentResponse, TaskContext
from autoscore.schema import (
    SchemaError,
    StructuredRepresentation,
    extract_json_block,
    validate_representation,
)

from conftest import SCIENCE_SCHEMA_DEF, z_payload
from autoscore.schema import compile_schema


HUGE_SCORE = '{"score": ' + "9" * 5000 + "}"


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
    return StudentResponse("r01", "synthetic response r01: repeat trials.")


class TestRender:
    def test_replaces_bound_placeholders(self):
        out = agents.render("Q: {question} R: {response}", {
            "question": "why?", "response": "because",
        })
        assert out == "Q: why? R: because"

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


class TestStageTemplateRules:
    """compile_prompt refuses what no run could send, and run_<stage>
    compiles a plain template through it."""

    @pytest.mark.parametrize("stage,unbound", [
        ("extraction", ["error", "previous_output", "representation_json"]),
        ("scoring", ["error", "previous_output", "schema_description"]),
        ("baseline", ["error", "previous_output", "representation_json",
                      "schema_description"]),
    ])
    def test_placeholders_the_stage_cannot_bind_are_refused(
        self, context, stage, unbound
    ):
        names = ("question", "reference_material", "rubric_text", "response",
                 "score_min", "score_max", "schema_description",
                 "representation_json", "previous_output", "error")
        every = " ".join(f"{{{name}}}" for name in names)
        for template in (agents.PromptTemplate(every, ""), agents.PromptTemplate("", every)):
            with pytest.raises(ValueError) as excinfo:
                agents.compile_prompt(stage, template, context, SCIENCE)
            assert str(excinfo.value) == (
                f"the {stage} template uses placeholders its stage does not bind: "
                f"{unbound}")
        agents.compile_prompt(stage, agents.STAGES[stage].template, context, SCIENCE)

    def test_a_single_call_names_the_unbound_names_of_both_texts(
        self, context, response
    ):
        template = agents.PromptTemplate("{respnse}", "{response} {schema_description}")
        backend = ScriptedBackend(responses=['{"score": 1}'])
        with pytest.raises(ValueError) as excinfo:
            agents.run_baseline(backend, context, response, template=template)
        assert str(excinfo.value) == ("the baseline template uses placeholders its "
                                      "stage does not bind: ['respnse', "
                                      "'schema_description']")
        assert backend.call_count == 0

    @pytest.mark.parametrize("stage", ["extraction", "scoring", "baseline"])
    def test_user_text_without_the_response_is_refused_before_any_call(
        self, context, response, stage
    ):
        template = agents.PromptTemplate("sys", "Score in {score_min}..{score_max}")
        stage_input = {"extraction": SCIENCE, "baseline": None,
                       "scoring": StructuredRepresentation("synth", z_payload("r01"))}
        backend = ScriptedBackend(responses=['{"score": 1}'])
        with pytest.raises(ValueError) as excinfo:
            getattr(agents, f"run_{stage}")(backend, context, response,
                                            stage_input[stage], template=template)
        assert str(excinfo.value) == (f"the {stage} user prompt has no {{response}}, "
                                      f"so the model would never see the response")
        assert backend.call_count == 0

    def test_max_retries_below_one_is_refused_before_any_call(self, context, response):
        backend = ScriptedBackend(responses=['{"score": 1}'])
        with pytest.raises(ValueError, match="^max_retries must be at least 1$"):
            agents.run_stage("baseline", backend, context, response, None,
                             max_retries=0)
        assert backend.call_count == 0


# text that stresses the single pass and the JSON escaping: placeholders
# of every kind, stray braces, quotes, control and line-separator
# characters, and a character outside the BMP
_TRICKY = st.lists(st.sampled_from([
    "-", " ", "{", "}", "{{", '"', "\\", "\n", "\x00", "\x1f", "\u2028",
    "\u2029", "\U0001F600", "é", "{response}", "{question}", "{error}",
    "{representation_json}", '{"score": <integer>}',
])).map("".join)
_VALUES = _TRICKY | st.text(st.characters(blacklist_categories=("Cs",)))
_NAMES = ("question", "rubric_text", "response", "representation_json")


def _oracle(template_text, bindings):
    """The one-pass substitution every compiled prompt must reproduce."""
    return re.sub(r"\{([A-Za-z_][A-Za-z0-9_]*)\}",
                  lambda match: bindings[match.group(1)], template_text)


class TestCompiledPrompt:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(template=st.lists(_TRICKY | st.sampled_from(
               [f"{{{name}}}" for name in _NAMES])).map("".join),
           values=st.fixed_dictionaries({name: _VALUES for name in _NAMES}),
           holes=st.lists(st.sampled_from(_NAMES), unique=True).map(tuple))
    @example(template="{question} {response}{response}", values=dict.fromkeys(
        _NAMES, "{response} {question} }{"), holes=("response",))
    def test_filled_text_equals_render_and_carries_its_escape(
        self, template, values, holes
    ):
        bindings = {**values, "error": "e"}
        constants = {k: v for k, v in bindings.items() if k not in holes}
        filled = agents.compile_text(template, constants, holes).fill(values)
        assert filled == agents.render(template, bindings) == _oracle(template, bindings)
        assert filled.escaped == json.dumps(filled, ensure_ascii=False)[1:-1]

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(stage=st.sampled_from(["extraction", "scoring", "baseline"]),
           question=_VALUES, rubric=_VALUES, text=_VALUES)
    def test_each_stage_sends_what_render_gives(self, stage, question, rubric, text):
        # never blank, as TaskContext and StudentResponse require
        question, rubric, text = "Q " + question, "R " + rubric, "T " + text
        context = TaskContext("i", question, rubric, ScoreRange(0, 3), None)
        response = StudentResponse("r", text)
        rep = StructuredRepresentation("i", z_payload("r02"))
        stage_input = {"extraction": SCIENCE, "scoring": rep, "baseline": None}[stage]
        sent = []
        backend = ScriptedBackend(
            script=lambda request: sent.append(request.messages) or "{}")
        with pytest.raises(agents.RetriesExhausted):
            agents.run_stage(stage, backend, context, response, stage_input,
                             max_retries=1)
        bindings = {
            "question": question, "reference_material": "(none)",
            "rubric_text": rubric, "response": text, "score_min": "0",
            "score_max": "3", "schema_description": agents.describe_schema(SCIENCE),
            "representation_json": agents.representation_block(rep),
        }
        template = agents.STAGES[stage].template
        assert sent == [(("system", _oracle(template.system_text, bindings)),
                         ("user", _oracle(template.user_text, bindings)))]


# quotes, backslashes, control characters, U+2028/U+2029, non-BMP characters
# and lone surrogates, each with its own escape
_JSON_STRINGS = st.text(st.sampled_from(
    'a é"\\/\x00\x1f\x7f\u2028\u2029\U0001F600\U0010ffff\ud800\udfff'), max_size=6)
_FLAT_VALUES = st.dictionaries(_JSON_STRINGS, st.one_of(
    st.booleans(), st.integers(min_value=0), _JSON_STRINGS,
    st.lists(_JSON_STRINGS, max_size=3)), max_size=4)
_NESTED_VALUES = st.dictionaries(_JSON_STRINGS, st.recursive(
    st.none() | st.booleans() | st.integers() | _JSON_STRINGS
    | st.sampled_from([0.5, -1e-07, 1e300, math.nan, math.inf, -math.inf]),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(_JSON_STRINGS, children, max_size=3)),
    max_leaves=4,
), max_size=3)
_NOTE = ("\n\nNote: the following count fields disagreed with their evidence "
         "lists and were corrected to the list lengths: ")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(values=_FLAT_VALUES | _NESTED_VALUES,
       flags=st.sampled_from([(), ("design_count",), ("design_count", "n")]))
@example(values={}, flags=())
@example(values={"a": [], "b": {}, "c": [[]]}, flags=())
def test_representation_block_is_json_dumps_with_indent_2(values, flags):
    block = agents.representation_block(StructuredRepresentation("i", values, flags))
    note = _NOTE + ", ".join(flags) + "." if flags else ""
    assert block == json.dumps(values, ensure_ascii=True, indent=2) + note


class TestParseScore:
    def test_plain(self):
        assert agents.parse_score('{"score": 1}', ScoreRange(0, 2)) == 1

    def test_fenced(self):
        assert agents.parse_score('```json {"score": 3} ```', ScoreRange(0, 3)) == 3

    def test_non_integer(self):
        with pytest.raises(SchemaError, match="^score must be a JSON integer, got 2.5$"):
            agents.parse_score('{"score": 2.5}', ScoreRange(0, 3))

    def test_string_score(self):
        with pytest.raises(SchemaError, match="^score must be a JSON integer, got '2'$"):
            agents.parse_score('{"score": "2"}', ScoreRange(0, 3))

    def test_boolean_score(self):
        with pytest.raises(SchemaError, match="^score must be a JSON integer, got True$"):
            agents.parse_score('{"score": true}', ScoreRange(0, 3))

    def test_missing_key(self):
        with pytest.raises(SchemaError, match="^required field 'score' is missing$"):
            agents.parse_score('{"points": 2}', ScoreRange(0, 3))

    def test_no_json(self):
        with pytest.raises(SchemaError, match="^no balanced JSON object found"):
            agents.parse_score("two points", ScoreRange(0, 3))

    def test_out_of_range(self):
        with pytest.raises(SchemaError, match="^score 9 outside allowed range 0..3$"):
            agents.parse_score('{"score": 9}', ScoreRange(0, 3))

    def test_over_long_integer_is_a_domain_error(self):
        # longer than int_max_str_digits: json refuses it with a plain ValueError
        with pytest.raises(SchemaError, match="^no balanced JSON object found"):
            agents.parse_score(HUGE_SCORE, ScoreRange(0, 3))

    def test_over_long_integer_is_retried(self, context, response):
        backend = ScriptedBackend(responses=[HUGE_SCORE, '{"score": 2}'])
        outcome = agents.run_baseline(backend, context, response)
        assert outcome.value == 2
        assert outcome.retries == 1


SCIENCE = compile_schema("synth", SCIENCE_SCHEMA_DEF)

# replies a model might send: a score or a representation of any value
# types, other JSON values keyed by the names the parsers look for, JSON-ish
# fragments that leave objects open or malformed, and arbitrary text
_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
_KIND_VALUES = {"boolean": st.booleans(), "count": st.integers(-1, 4),
                "text_list": st.lists(st.text(max_size=6), max_size=3)}
_JSON_VALUES = (
    st.fixed_dictionaries({"score": _LEAVES | st.integers(-2, 5)})
    | st.fixed_dictionaries({f["name"]: _KIND_VALUES[f["kind"]]
                             for f in SCIENCE_SCHEMA_DEF["fields"]},
                            optional={"score": _LEAVES})
    | st.recursive(_LEAVES, lambda children: st.lists(children, max_size=4)
                   | st.dictionaries(st.sampled_from(["score", *(f.name for f in SCIENCE.fields)])
                                     | st.text(max_size=4), children, max_size=6),
                   max_leaves=12)
).map(json.dumps)
_FRAGMENTS = st.sampled_from([
    "{", "}", "[", "]", '"', ":", ",", "\\", '"score": ', '{"score": ', "-1", "1e400",
    "NaN", "-Infinity", "true", "null", "```json\n", "\n```", "9" * 5000,
    '{"a": ' + "[" * 100000,
])
_REPLIES = st.lists(_JSON_VALUES | _FRAGMENTS | st.text(max_size=12),
                    max_size=8).map("".join)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(text=_REPLIES)
def test_no_reply_text_raises_what_run_stage_does_not_catch(text):
    # run_stage re-prompts on SchemaError; any other
    # exception out of a parser would abort the whole run
    try:
        assert type(agents.parse_score(text, ScoreRange(0, 3))) is int
    except SchemaError:
        pass
    try:
        representation = validate_representation(extract_json_block(text), SCIENCE)
        assert isinstance(representation, StructuredRepresentation)
    except SchemaError:
        pass


def test_extraction_parser_refuses_over_long_integer(context):
    huge = '{"valid_conclusion": true, "design_count": ' + "9" * 5000 + "}"
    with pytest.raises(SchemaError, match="^no balanced JSON object found"):
        agents.STAGES["extraction"].parse(huge, context, SCIENCE)


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
        assert [t.agent_name for t in outcome.transcripts] == ["extraction"] * 2
        assert len({t.prompt_digest for t in outcome.transcripts}) == 2
        assert outcome.transcripts[0].raw_output == "I will not comply."
        assert outcome.wall_time_ms == 2  # one scripted millisecond per call

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
        outcome = agents.run_scoring(backend, context, response, self.rep())
        assert outcome.value == 2
        assert outcome.retries == 0

    def test_out_of_range_retry_includes_range_reminder(self, context, response):
        seen = []

        def script(request):
            seen.append(request.messages)
            return '{"score": 5}' if len(seen) == 1 else '{"score": 3}'

        backend = ScriptedBackend(script=script)
        outcome = agents.run_scoring(backend, context, response, self.rep())
        assert outcome.value == 3
        assert outcome.retries == 1
        repair = seen[1][2][1]
        assert "from 0 to 3" in repair

    def test_unparseable_three_times_fails(self, context, response):
        backend = ScriptedBackend(responses=["two points"] * 3)
        with pytest.raises(agents.ScoringFailed):
            agents.run_scoring(backend, context, response, self.rep())

    def test_inconsistency_note_rendered_into_prompt(self, context, response):
        rep = StructuredRepresentation(
            "synth", z_payload("r02"), inconsistency_flags=("design_count",)
        )
        seen = []

        def script(request):
            seen.append(request.messages)
            return '{"score": 1}'

        agents.run_scoring(ScriptedBackend(script=script), context, response, rep)
        user_text = seen[0][1][1]
        assert "corrected to the list lengths: design_count" in user_text

    def test_scoring_prompt_is_a_pure_function_of_inputs(self, context, response):
        digests = []

        def script(request):
            digests.append(request_digest(request))
            return '{"score": 1}'

        rep = self.rep()
        agents.run_scoring(ScriptedBackend(script=script), context, response, rep)
        agents.run_scoring(ScriptedBackend(script=script), context, response, rep)
        assert digests[0] == digests[1]


class TestRunBaseline:
    def test_direct_score(self, context, response):
        backend = ScriptedBackend(responses=['{"score": 0}'])
        outcome = agents.run_baseline(backend, context, response)
        assert outcome.value == 0

    def test_near_empty_response_still_goes_to_backend(self, context):
        response = StudentResponse("r0", " . ")
        backend = ScriptedBackend(responses=['{"score": 0}'])
        outcome = agents.run_baseline(backend, context, response)
        assert outcome.value == 0
        assert backend.call_count == 1

    def test_malformed_three_times_fails(self, context, response):
        backend = ScriptedBackend(responses=["nope"] * 3)
        with pytest.raises(agents.ScoringFailed):
            agents.run_baseline(backend, context, response)

    def test_repair_turns_are_pinned(self, context, response):
        # a reply's error text enters every later request, and so its digest
        # and every cache and replay key: these bytes may not move
        replies = ['{"score": 9}', '{"score": "2"}', "no json", '{"score": 7}']
        seen = []

        def script(request):
            seen.append(request)
            return replies[len(seen) - 1]

        with pytest.raises(agents.ScoringFailed, match=r"^gave up after 4 attempts: "
                           r"score 7 outside allowed range 0\.\.3$"):
            agents.run_baseline(ScriptedBackend(script=script), context, response,
                                max_retries=4)
        repair = ("Your previous reply was:\n{}\n\nIt could not be used: {}\n\n"
                  "Reply again, following the required output format exactly, "
                  "with no surrounding text.\n")
        assert seen[-1].messages[2:] == (
            ("user", repair.format('{"score": 9}', "score 9 outside allowed range "
                                   "0..3 -- the score must be an integer from 0 to 3")),
            ("user", repair.format('{"score": "2"}',
                                   "score must be a JSON integer, got '2'")),
            ("user", repair.format("no json",
                                   "no balanced JSON object found in model output")),
        )
        assert [request.digest for request in seen] == [
            "7abdbb509406d0d505d610e63188dce38d058b0748d77255f6b90a01f239a8de",
            "993d29d9162a9e93d009306882b70401508b308b80222ec2ebdd45f22fb5a7c2",
            "afc9126dfc1d21b6c00bf1607810b70955c9f54a4c378071c30cef3a65bc132e",
            "13f90a342d3378fe4b36a3d344f3ce0e1facbbba7f3ba2a69a6bea0c9ec5b4c3",
        ]

    def test_baseline_prompt_never_mentions_schema_fields(self, context, response):
        prompts_seen = []

        def script(request):
            prompts_seen.append(
                "\n".join(content for _, content in request.messages)
            )
            return '{"score": 1}'

        agents.run_baseline(ScriptedBackend(script=script), context, response)
        blob = "\n".join(prompts_seen)
        for field in SCIENCE.fields:
            assert field.name not in blob


def test_returned_scores_always_in_range_under_fuzzed_backends(context, response):
    # any scripted output either yields an in-range score or a domain error
    outputs = [
        '{"score": %d}' % v for v in range(-3, 8)
    ] + ["prose", '{"score": 1.5}', '{"x": 1}']
    for text in outputs:
        backend = ScriptedBackend(responses=[text] * 3)
        try:
            outcome = agents.run_baseline(backend, context, response)
        except agents.ScoringFailed:
            continue
        assert context.score_range.contains(outcome.value)
