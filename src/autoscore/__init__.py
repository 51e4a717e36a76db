"""Rubric-aligned two-agent automated scoring pipeline.

One agent extracts rubric-relevant components from a student response into
a validated structured representation; a second assigns the score from
that representation, the original response, and the rubric. A single-agent
baseline, agreement metrics, reliability validation, and comparison
reports round out the toolkit.

The package root exports nothing; import from the submodules.
"""
