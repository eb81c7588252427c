import dataclasses
from pathlib import Path

import pytest

from reranklab import (
    DEFAULT_TEMPLATE,
    PromptMode,
    PromptTemplate,
    ValidationError,
    assemble_prompt,
    load_template,
)

GOLDEN = Path(__file__).parent / "golden"
QUERY = "how to help a jammed finger"
PASSAGE = "A broken finger is often more painful than a jammed finger."


class TestGoldenPrompts:
    """Assembled prompts must byte-match the hand-transcribed references."""

    @pytest.mark.parametrize(
        "mode,golden",
        [
            (PromptMode.DIRECT, "direct_prompt.txt"),
            (PromptMode.OPEN_THINK, "open_think_prompt.txt"),
            (PromptMode.FORCED_THINK, "forced_think_prompt.txt"),
        ],
    )
    def test_byte_exact(self, mode, golden):
        expected = (GOLDEN / golden).read_bytes()
        got = assemble_prompt(DEFAULT_TEMPLATE, QUERY, PASSAGE, mode).encode("utf-8")
        assert got == expected

    def test_forced_suffix(self):
        prompt = assemble_prompt(DEFAULT_TEMPLATE, "a", "b", PromptMode.FORCED_THINK)
        assert prompt.endswith("<think>\nOkay, I have finished thinking.\n</think>")

    def test_open_think_suffix(self):
        prompt = assemble_prompt(DEFAULT_TEMPLATE, "a", "b", PromptMode.OPEN_THINK)
        assert prompt.endswith("<think>")

    def test_direct_ends_at_assistant_turn(self):
        prompt = assemble_prompt(DEFAULT_TEMPLATE, "a", "b", PromptMode.DIRECT)
        assert prompt.endswith("<|im_start|>assistant\n")


class TestSubstitution:
    def test_substituted_exactly_once(self):
        prompt = assemble_prompt(DEFAULT_TEMPLATE, "aXa", "bYb", PromptMode.DIRECT)
        assert prompt.count("aXa") == 1
        assert prompt.count("bYb") == 1
        assert "{query}" not in prompt and "{passage}" not in prompt

    def test_placeholder_like_values_survive(self):
        # a query containing the literal passage placeholder must not be
        # re-substituted by the passage value
        prompt = assemble_prompt(
            DEFAULT_TEMPLATE, "weird {passage} query", "actual passage", PromptMode.DIRECT
        )
        assert "weird {passage} query" in prompt
        assert prompt.count("actual passage") == 1

    def test_template_requires_single_placeholders(self):
        with pytest.raises(ValidationError):
            PromptTemplate(user="Query: {query}")
        with pytest.raises(ValidationError):
            PromptTemplate(user="{query} {passage} {passage}")

    def test_markers_non_empty(self):
        with pytest.raises(ValidationError):
            PromptTemplate(think_open="")


class TestTemplateFiles:
    def test_load_override(self, tmp_path):
        path = tmp_path / "template.json"
        path.write_text(
            '{"system": "Custom system.", "forced_body": '
            '"Okay, I think I have finished thinking."}'
        )
        t = load_template(str(path))
        assert t.system == "Custom system."
        assert t.forced_body == "Okay, I think I have finished thinking."
        assert t.user == DEFAULT_TEMPLATE.user

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "template.json"
        path.write_text('{"nonsense": 1}')
        with pytest.raises(ValidationError, match="unknown template fields"):
            load_template(str(path))

    @pytest.mark.parametrize("content, message", [
        ('{"user": 5}', r"template\.json: template field 'user' must be a string, got 5"),
        ('{"user": "no placeholders"}', r"template\.json: user text must contain \{query\}"),
        ("[]", r"template\.json: template must be a JSON object"),
        ("{oops", r"template\.json: invalid JSON template"),
    ], ids=["number-field", "no-placeholders", "array", "broken"])
    def test_bad_file_names_the_file(self, tmp_path, content, message):
        path = tmp_path / "template.json"
        path.write_text(content)
        with pytest.raises(ValidationError, match=message):
            load_template(str(path))


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(PromptTemplate)])
@pytest.mark.parametrize("value", [5, None])
def test_template_fields_must_be_strings(field, value):
    with pytest.raises(ValidationError, match=f"template field {field!r} must be a string"):
        PromptTemplate(**{field: value})
