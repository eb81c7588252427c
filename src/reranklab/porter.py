"""Porter's suffix-stripping stemmer (the classic 1980 algorithm).

Operates on single lowercase words. Words of length <= 2 are returned
unchanged, matching the reference behaviour.
"""

from __future__ import annotations

_VOWELS = "aeiou"


def _is_consonant(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_consonant(word, i - 1)
    return True


def _measure(stem: str) -> int:
    """Number of vowel->consonant transitions, i.e. m in [C](VC)^m[V]."""
    m = 0
    prev_vowel = False
    for i in range(len(stem)):
        cons = _is_consonant(stem, i)
        if prev_vowel and cons:
            m += 1
        prev_vowel = not cons
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_consonant(stem, i) for i in range(len(stem)))


def _ends_double_consonant(stem: str) -> bool:
    return (
        len(stem) >= 2
        and stem[-1] == stem[-2]
        and _is_consonant(stem, len(stem) - 1)
    )


def _ends_cvc(stem: str) -> bool:
    # consonant-vowel-consonant where the final consonant is not w, x or y
    if len(stem) < 3:
        return False
    return (
        _is_consonant(stem, len(stem) - 3)
        and not _is_consonant(stem, len(stem) - 2)
        and _is_consonant(stem, len(stem) - 1)
        and stem[-1] not in "wxy"
    )


# (suffix, replacement) tables; within a step the longest matching suffix
# decides the rule, and a failed condition ends the step.
_STEP2 = sorted(
    [
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"), ("anci", "ance"),
        ("izer", "ize"), ("abli", "able"), ("alli", "al"), ("entli", "ent"),
        ("eli", "e"), ("ousli", "ous"), ("ization", "ize"), ("ation", "ate"),
        ("ator", "ate"), ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
        ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"),
    ],
    key=lambda rule: -len(rule[0]),
)

_STEP3 = sorted(
    [
        ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
        ("ical", "ic"), ("ful", ""), ("ness", ""),
    ],
    key=lambda rule: -len(rule[0]),
)

_STEP4 = sorted(
    [
        (suffix, "") for suffix in (
            "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
            "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
        )
    ],
    key=lambda rule: -len(rule[0]),
)


def _by_last_letter(table: list[tuple[str, str]]) -> dict[str, tuple[tuple[str, str], ...]]:
    """``table``'s rules grouped by their suffix's last letter, each group in table order.

    A word can only end with a suffix that ends in its own last letter, so
    the first rule of its group that it matches is the first of the table.
    """
    groups: dict[str, list[tuple[str, str]]] = {}
    for rule in table:
        groups.setdefault(rule[0][-1], []).append(rule)
    return {letter: tuple(rules) for letter, rules in groups.items()}


_STEP2_RULES, _STEP3_RULES, _STEP4_RULES = map(_by_last_letter, (_STEP2, _STEP3, _STEP4))


def _first_rule(word: str, rules: dict[str, tuple[tuple[str, str], ...]]) -> tuple[str, str] | None:
    """The first rule of a :func:`_by_last_letter` table whose suffix ends ``word``."""
    for rule in rules.get(word[-1:], ()):
        if word.endswith(rule[0]):
            return rule
    return None


def _apply_table(word: str, rules, min_measure: int) -> str:
    rule = _first_rule(word, rules)
    if rule is None:
        return word
    stem = word[: -len(rule[0])]
    return stem + rule[1] if _measure(stem) > min_measure else word


def porter_stem(word: str) -> str:
    if len(word) <= 2:
        return word
    w = word

    # step 1a: plurals
    if w.endswith("sses"):
        w = w[:-2]
    elif w.endswith("ies"):
        w = w[:-2]
    elif w.endswith("ss"):
        pass
    elif w.endswith("s"):
        w = w[:-1]

    # step 1b: -ed / -ing
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            w = w[:-1]
    else:
        cleaned = False
        if w.endswith("ed") and _has_vowel(w[:-2]):
            w = w[:-2]
            cleaned = True
        elif w.endswith("ing") and _has_vowel(w[:-3]):
            w = w[:-3]
            cleaned = True
        if cleaned:
            if w.endswith(("at", "bl", "iz")):
                w += "e"
            elif _ends_double_consonant(w) and w[-1] not in "lsz":
                w = w[:-1]
            elif _measure(w) == 1 and _ends_cvc(w):
                w += "e"

    # step 1c: terminal y -> i when the stem has a vowel
    if w.endswith("y") and _has_vowel(w[:-1]):
        w = w[:-1] + "i"

    w = _apply_table(w, _STEP2_RULES, 0)
    w = _apply_table(w, _STEP3_RULES, 0)

    # step 4: drop residual suffixes when m > 1
    rule = _first_rule(w, _STEP4_RULES)
    if rule is not None:
        stem = w[: -len(rule[0])]
        if _measure(stem) > 1 and (rule[0] != "ion" or stem[-1:] in ("s", "t")):
            w = stem

    # step 5a: tidy final e
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            w = stem

    # step 5b: -ll -> -l when m > 1
    if w.endswith("ll") and _measure(w) > 1:
        w = w[:-1]

    return w
