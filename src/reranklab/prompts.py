"""Prompt templates and byte-exact assembly for the three scoring modes.

The default template wraps a relevance question in the Qwen-style chat
markup, with the decision answered by a literal 'true' or 'false' token.
Collection-specific templates can be loaded from JSON files; every field
below may be overridden there.

Assembly modes:

* ``direct``       — ends at the start of the assistant turn; the decision
                     token is the first thing the model says.
* ``open_think``   — ends immediately after the think-open marker, leaving
                     the model to produce its reasoning.
* ``forced_think`` — ends after a complete, pre-filled think block, so the
                     model can only answer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from enum import Enum

from .data import read_json_object
from .types import ValidationError

DEFAULT_SYSTEM = (
    "Determine if the following passage is relevant to the query. "
    "Answer only with 'true' or 'false'."
)
DEFAULT_USER = "Query: {query}\nPassage: {passage}"
DEFAULT_FORCED_BODY = "Okay, I have finished thinking."


class PromptMode(str, Enum):
    DIRECT = "direct"
    OPEN_THINK = "open_think"
    FORCED_THINK = "forced_think"


@dataclass(frozen=True)
class PromptTemplate:
    system: str = DEFAULT_SYSTEM
    user: str = DEFAULT_USER
    assistant_prefix: str = ""
    think_open: str = "<think>"
    think_close: str = "</think>"
    forced_body: str = DEFAULT_FORCED_BODY
    answer_scaffold: str = "\n"  # appended after think-close before reading logits
    turn_start: str = "<|im_start|>"
    turn_end: str = "<|im_end|>"

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, str):
                raise ValidationError(f"template field {f.name!r} must be a string, got {value!r}")
        for placeholder in ("{query}", "{passage}"):
            n = self.user.count(placeholder)
            if n != 1:
                raise ValidationError(
                    f"user text must contain {placeholder} exactly once, found {n}"
                )
        if not self.think_open or not self.think_close:
            raise ValidationError("think markers must be non-empty")


DEFAULT_TEMPLATE = PromptTemplate()

_PLACEHOLDER = re.compile(r"(\{query\}|\{passage\})")


def _fill(user_template: str, query_text: str, passage_text: str) -> str:
    # single-pass substitution: placeholder-like text inside the values
    # must never be re-substituted
    parts = _PLACEHOLDER.split(user_template)
    out = []
    for part in parts:
        if part == "{query}":
            out.append(query_text)
        elif part == "{passage}":
            out.append(passage_text)
        else:
            out.append(part)
    return "".join(out)


def assemble_prompt(
    template: PromptTemplate,
    query_text: str,
    passage_text: str,
    mode: PromptMode,
) -> str:
    """Render the full prompt for one (query, passage) pair, byte-exact.

    The caller is responsible for any passage truncation; the text arrives
    here ready for substitution.
    """
    t = template
    base = (
        f"{t.turn_start}system\n{t.system}\n{t.turn_end}\n"
        f"{t.turn_start}user\n{_fill(t.user, query_text, passage_text)}\n{t.turn_end}\n"
        f"{t.turn_start}assistant\n{t.assistant_prefix}"
    )
    if mode is PromptMode.DIRECT:
        return base
    if mode is PromptMode.OPEN_THINK:
        return base + t.think_open
    if mode is PromptMode.FORCED_THINK:
        return base + f"{t.think_open}\n{t.forced_body}\n{t.think_close}"
    raise ValidationError(f"unknown prompt mode {mode!r}")


def load_template(path: str) -> PromptTemplate:
    """Read a template override file (JSON object of PromptTemplate fields)."""
    raw = read_json_object(path, "template")
    known = {f.name for f in fields(PromptTemplate)}
    unknown = set(raw) - known
    if unknown:
        raise ValidationError(f"{path}: unknown template fields {sorted(unknown)}")
    try:
        return PromptTemplate(**raw)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
