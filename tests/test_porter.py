"""Suffix-stripper checks.

Expected values are full-algorithm outputs derived by hand-tracing the
published rules step by step (the per-step illustration pairs differ:
later steps keep stripping, e.g. agreed -> agree -> agre at step 5a).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reranklab import porter
from reranklab.porter import porter_stem

CASES = [
    # step 1a
    ("caresses", "caress"),
    ("ponies", "poni"),
    ("ties", "ti"),
    ("caress", "caress"),
    ("cats", "cat"),
    # step 1b and its cleanup
    ("feed", "feed"),
    ("agreed", "agre"),
    ("plastered", "plaster"),
    ("bled", "bled"),
    ("motoring", "motor"),
    ("sing", "sing"),
    ("conflated", "conflat"),
    ("troubled", "troubl"),
    ("sized", "size"),
    ("hopping", "hop"),
    ("tanned", "tan"),
    ("falling", "fall"),
    ("hissing", "hiss"),
    ("fizzed", "fizz"),
    ("failing", "fail"),
    ("filing", "file"),
    ("stemming", "stem"),
    ("jammed", "jam"),
    # step 1c
    ("happy", "happi"),
    ("sky", "sky"),
    ("query", "queri"),
    # step 2 chains into 3/4/5
    ("relational", "relat"),
    ("conditional", "condit"),
    ("rational", "ration"),
    ("valenci", "valenc"),
    ("hesitanci", "hesit"),
    ("digitizer", "digit"),
    ("radicalli", "radic"),
    ("differentli", "differ"),
    ("vileli", "vile"),
    ("analogousli", "analog"),
    ("vietnamization", "vietnam"),
    ("predication", "predic"),
    ("operator", "oper"),
    ("feudalism", "feudal"),
    ("decisiveness", "decis"),
    ("hopefulness", "hope"),
    ("callousness", "callous"),
    ("formaliti", "formal"),
    ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    # step 3
    ("triplicate", "triplic"),
    ("formative", "form"),
    ("formalize", "formal"),
    ("electriciti", "electr"),
    ("electrical", "electr"),
    ("hopeful", "hope"),
    ("goodness", "good"),
    # step 4
    ("revival", "reviv"),
    ("allowance", "allow"),
    ("inference", "infer"),
    ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"),
    ("adjustable", "adjust"),
    ("defensible", "defens"),
    ("irritant", "irrit"),
    ("replacement", "replac"),
    ("adjustment", "adjust"),
    ("dependent", "depend"),
    ("adoption", "adopt"),
    ("communism", "commun"),
    ("activate", "activ"),
    ("angulariti", "angular"),
    ("homologous", "homolog"),
    ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    ("document", "document"),
    # step 5
    ("probate", "probat"),
    ("rate", "rate"),
    ("cease", "ceas"),
    ("controll", "control"),
    ("roll", "roll"),
    # multi-step compositions
    ("generalizations", "gener"),
    ("oscillators", "oscil"),
    ("retrieval", "retriev"),
    ("relevance", "relev"),
    ("reasoning", "reason"),
]


@pytest.mark.parametrize("word,expected", CASES)
def test_full_algorithm(word, expected):
    assert porter_stem(word) == expected


def test_short_words_unchanged():
    for w in ("a", "is", "be", "on"):
        assert porter_stem(w) == w


def test_never_grows_and_deterministic():
    for w, _ in CASES:
        out = porter_stem(w)
        assert len(out) <= len(w) + 1  # +1 for the -e restorations in 1b
        assert porter_stem(w) == out


# each step table in its order, and the same table keyed by last letter
TABLES = [(porter._STEP2, porter._STEP2_RULES), (porter._STEP3, porter._STEP3_RULES),
          (porter._STEP4, porter._STEP4_RULES)]
SUFFIXES = sorted({suffix for table, _ in TABLES for suffix, _ in table})


def linear_first_rule(word, table):
    """The reference lookup: scan the ordered table for the first suffix ending ``word``."""
    for rule in table:
        if word.endswith(rule[0]):
            return rule
    return None


@settings(max_examples=500, deadline=None)
@given(stem=st.text(alphabet="abceilnorstuvyz", max_size=8),
       suffixes=st.lists(st.sampled_from(SUFFIXES), max_size=3))
def test_keyed_tables_find_the_first_rule_of_the_ordered_table(stem, suffixes):
    word = stem + "".join(suffixes)  # suffix-heavy, so rules nest and overlap
    for table, keyed in TABLES:
        assert porter._first_rule(word, keyed) == linear_first_rule(word, table)


def test_keyed_tables_keep_every_rule_in_order():
    for table, keyed in TABLES:
        for letter, rules in keyed.items():
            assert list(rules) == [rule for rule in table if rule[0].endswith(letter)]
        assert sum(map(len, keyed.values())) == len(table)
