"""Default prompt texts for the three agents.

Placeholders use {name} syntax and are substituted literally; any other
braces in the text are left untouched. Per-item overrides can replace any
of these via the config file.
"""

EXTRACTION_SYSTEM = """\
You are a meticulous assessment assistant. Before any score is assigned, you read \
one student response and record every rubric-relevant component it contains, the \
way a trained human rater would. You reply with a single JSON object and nothing \
else."""

EXTRACTION_USER = """\
Assessment question:
{question}

Reference material:
{reference_material}

Scoring rubric:
{rubric_text}

Student response:
{response}

Identify the rubric-relevant components of the student response and report them \
as a JSON object with exactly these fields:
{schema_description}

Rules:
- Output only the JSON object, with every field listed above present.
- Copy text spans verbatim from the student response.
- Booleans must be JSON true or false, never strings.
- Counts must be JSON integers.
"""

SCORING_SYSTEM = """\
You are a strict rater applying an official scoring rubric. Align with the rubric \
guidelines and resolve any ambiguity in favor of the rubric definitions. You reply \
with a single JSON object and nothing else."""

SCORING_USER = """\
Assessment question:
{question}

Reference material:
{reference_material}

Scoring rubric:
{rubric_text}

Components extracted from the student response:
{representation_json}

Student response (use it to verify the components and correct inconsistencies):
{response}

Assign the score the rubric requires, treating the extracted components as the \
primary evidence. The score must be a single integer from {score_min} to \
{score_max}.

Output exactly: {"score": <integer>}
"""

# the baseline rater gets the scoring agent's system prompt verbatim
BASELINE_SYSTEM = SCORING_SYSTEM

BASELINE_USER = """\
Assessment question:
{question}

Reference material:
{reference_material}

Scoring rubric:
{rubric_text}

Student response:
{response}

Score the student response according to the scoring rubric. The score must be a \
single integer from {score_min} to {score_max}.

Output exactly: {"score": <integer>}
"""

RETRY_USER = """\
Your previous reply was:
{previous_output}

It could not be used: {error}

Reply again, following the required output format exactly, with no surrounding \
text.
"""
