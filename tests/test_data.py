import json

import pytest

from reranklab import ReasoningTrace, RunEntry, ScoredPair, ValidationError
from reranklab.cli import main
from reranklab.data import (
    load_corpus,
    load_qrels,
    load_queries,
    read_json_object,
    read_records,
    read_run,
    read_scored,
    write_qrels,
    write_run,
    write_scored,
)


class TestCorpus:
    def test_jsonl(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "p1", "text": "alpha"}\n{"id": "p2", "text": "beta"}\n')
        corpus = load_corpus(str(path))
        assert corpus.size == 2
        assert corpus.passage("p2").text == "beta"

    def test_integer_id_reads_as_its_digits(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": 7, "text": "alpha"}\n')
        assert load_corpus(str(path)).passage("7").text == "alpha"

    def test_tsv(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("p1\talpha text\np2\tbeta, with commas\n")
        corpus = load_corpus(str(path))
        assert corpus.passage("p2").text == "beta, with commas"

    def test_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        lines = [json.dumps({"id": f"p{i}", "text": "x"}) for i in range(6)]
        lines.append(json.dumps({"id": "p3", "text": "again"}))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match=":7"):
            load_corpus(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("")
        with pytest.raises(ValidationError, match="empty corpus"):
            load_corpus(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "p1", "text": "ok"}\n{broken\n')
        with pytest.raises(ValidationError, match=":2"):
            load_corpus(str(path))

    @pytest.mark.parametrize("line", [
        '{"id": "p 1", "text": "x"}', '{"id": "", "text": "x"}', "p 1\tx", "\tx",
    ], ids=["space-json", "empty-json", "space-tsv", "empty-tsv"])
    def test_id_must_be_one_run_column(self, tmp_path, line):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"id": "p0", "text": "ok"}\n' + line + "\n")
        with pytest.raises(ValidationError,
                           match=r"corpus\.jsonl:2: passage id must be non-empty without whitespace"):
            load_corpus(str(path))

    def test_text_with_newline_escapes_survive(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"id": "p1", "text": "line one\nline two"}) + "\n")
        assert load_corpus(str(path)).passage("p1").text == "line one\nline two"


class TestQueries:
    def test_load(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text('{"id": "q1", "text": "a question"}\n')
        queries = load_queries(str(path))
        assert queries[0].id == "q1"

    def test_empty_text_rejected_with_line(self, tmp_path):
        path = tmp_path / "queries.jsonl"
        path.write_text('{"id": "q1", "text": ""}\n')
        with pytest.raises(ValidationError, match=":1"):
            load_queries(str(path))


    def test_id_must_be_one_run_column(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("q1\tfirst\n\nq 2\tsecond\n")
        with pytest.raises(ValidationError,
                           match=r"queries\.tsv:3: query id must be non-empty without whitespace"):
            load_queries(str(path))

    def test_duplicate_id_names_both_lines(self, tmp_path):
        path = tmp_path / "queries.tsv"
        path.write_text("q1\tfirst\nq1\tagain\n")
        with pytest.raises(ValidationError, match=r"queries\.tsv:2: duplicate query id 'q1' "
                                                  r"\(first seen on line 1\)"):
            load_queries(str(path))


class TestQrels:
    def test_parse(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 3\nq1 0 d2 0\nq2 0 d1 1\n")
        qrels = load_qrels(str(path))
        assert qrels == {"q1": {"d1": 3, "d2": 0}, "q2": {"d1": 1}}

    def test_non_integer_grade(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 x\n")
        with pytest.raises(ValidationError, match="integer"):
            load_qrels(str(path))

    def test_negative_grade_rejected(self, tmp_path):
        path = tmp_path / "q.qrels"
        path.write_text("q1 0 d1 3\nq1 0 d2 -1\n")
        with pytest.raises(ValidationError, match=r"q\.qrels:2: grade must be >= 0, got -1"):
            load_qrels(str(path))

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 3\nq1 0 d1 2\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_qrels(str(path))

    def test_roundtrip(self, tmp_path):
        qrels = {"q1": {"d1": 3, "d2": 0}, "q2": {"d9": 2}}
        path = tmp_path / "qrels.txt"
        write_qrels(str(path), qrels)
        assert load_qrels(str(path)) == qrels


class TestRunFiles:
    def _entries(self):
        return [
            RunEntry("q1", "d2", 1, 0.880797, "tag"),
            RunEntry("q1", "d1", 2, 0.25, "tag"),
            RunEntry("q2", "d3", 1, 1.5, "tag"),
        ]

    def test_roundtrip_identity(self, tmp_path):
        path = tmp_path / "a.run"
        write_run(str(path), self._entries())
        assert read_run(str(path)) == self._entries()

    def test_fixed_six_decimal_score(self, tmp_path):
        path = tmp_path / "a.run"
        write_run(str(path), [RunEntry("q1", "d1", 1, 0.8807970, "t")])
        assert path.read_text() == "q1 Q0 d1 1 0.880797 t\n"

    def test_read_tolerates_whitespace(self, tmp_path):
        path = tmp_path / "a.run"
        path.write_text("q1   Q0\td1    1   0.900000\ttag\n")
        entries = read_run(str(path))
        assert entries[0] == RunEntry("q1", "d1", 1, 0.9, "tag")

    def test_bad_rank_parse(self, tmp_path):
        path = tmp_path / "a.run"
        path.write_text("q1 Q0 d1 one 0.9 t\n")
        with pytest.raises(ValidationError, match="rank"):
            read_run(str(path))

    def test_rank_gap_rejected(self, tmp_path):
        path = tmp_path / "a.run"
        path.write_text("q1 Q0 d1 1 0.9 t\nq1 Q0 d2 3 0.5 t\n")
        with pytest.raises(ValidationError, match="contiguous"):
            read_run(str(path))

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "a.run"
        path.write_text("q1 Q0 d1 1 0.9 t\nq1 Q0 d1 2 0.5 t\n")
        with pytest.raises(ValidationError, match="duplicate"):
            read_run(str(path))

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN", "1e999", "0.5x"])
    def test_score_must_be_finite_number(self, tmp_path, score):
        path = tmp_path / "x.run"
        path.write_text(f"q1 Q0 p1 1 9.0 t\nq1 Q0 p2 2 {score} t\n")
        with pytest.raises(ValidationError, match=r"x\.run:2: score must be a finite number"):
            read_run(str(path))

    def test_non_monotonic_scores_reordered_with_warning(self, tmp_path, caplog):
        path = tmp_path / "a.run"
        path.write_text("q1 Q0 low 1 0.100000 t\nq1 Q0 high 2 0.900000 t\n")
        with caplog.at_level("WARNING"):
            entries = read_run(str(path))
        assert "re-ranking by score" in caplog.text
        assert [e.passage_id for e in entries] == ["high", "low"]
        assert [e.rank for e in entries] == [1, 2]

    def test_write_validates_invariants(self, tmp_path):
        bad = [RunEntry("q1", "d1", 1, 0.1, "t"), RunEntry("q1", "d2", 2, 0.9, "t")]
        with pytest.raises(ValidationError):
            write_run(str(tmp_path / "bad.run"), bad)

    @pytest.mark.parametrize("row, message", [
        (RunEntry("q1", "d1", 1, 0.5, ""), "without whitespace"),
        (RunEntry("q1", "d1", 1, 0.5, "my tag"), "without whitespace"),
        (RunEntry("q1", "p 1", 1, 0.5, "t"), "without whitespace"),
        (RunEntry("q\t1", "d1", 1, 0.5, "t"), "without whitespace"),
        (RunEntry("q0", "d0", 2, 0.4, "t"), r"duplicate run entry for \('q0', 'd0'\)"),
    ], ids=[
        "empty-tag", "space-in-tag", "space-in-passage-id", "tab-in-query-id",
        "repeated-pair",
    ])
    def test_write_refuses_rows_that_would_not_read_back(self, tmp_path, row, message):
        path = tmp_path / "a.run"
        with pytest.raises(ValidationError, match=message):
            write_run(str(path), [RunEntry("q0", "d0", 1, 0.5, "t"), row])
        assert not path.exists()


class TestScoredDump:
    def test_roundtrip_with_traces(self, tmp_path):
        pairs = [
            ScoredPair(
                "q1",
                "p1",
                0.75,
                traces=(ReasoningTrace("line one\nline two", True, 5),),
            ),
            ScoredPair("q1", "p2", 0.5, per_sample_scores=(0.25, 0.75)),
        ]
        path = tmp_path / "dump.jsonl"
        write_scored(str(path), pairs, "reason")
        loaded, strategy = read_scored(str(path))
        assert strategy == "reason"
        assert loaded == pairs

    def test_mixed_strategies_rejected(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        rows = [
            {"query_id": "q", "passage_id": "a", "score": 0.5, "strategy": "reason"},
            {"query_id": "q", "passage_id": "b", "score": 0.5, "strategy": "direct"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(ValidationError, match="mixed strategies"):
            read_scored(str(path))

    def test_repeated_pair_rejected(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        rows = [
            {"query_id": "q", "passage_id": "a", "score": 1.0, "strategy": "direct"},
            {"query_id": "q", "passage_id": "b", "score": 0.0, "strategy": "direct"},
            {"query_id": "q", "passage_id": "a", "score": 1.0, "strategy": "direct"},
        ]
        path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
        with pytest.raises(ValidationError, match=r"dump\.jsonl:3: duplicate scored pair "
                                                  r"\('q', 'a'\) \(first seen on line 1\)"):
            read_scored(str(path))

    @pytest.mark.parametrize("row", [
        '{"query_id": 7, "passage_id": "a", "score": 0.5}', "[1, 2]", "null",
    ], ids=["number-id", "array", "null"])
    def test_record_shape_checked(self, tmp_path, row):
        path = tmp_path / "dump.jsonl"
        path.write_text(row + "\n")
        with pytest.raises(ValidationError, match=r"dump\.jsonl:1: bad scored record"):
            read_scored(str(path))

    def test_score_floats_roundtrip_exactly(self, tmp_path):
        value = 0.12345678901234567
        path = tmp_path / "dump.jsonl"
        write_scored(str(path), [ScoredPair("q", "p", value)], "direct")
        loaded, _ = read_scored(str(path))
        assert loaded[0].score == value


def _word(line):
    word = line.strip()
    if word == "bad":
        raise ValidationError("bad word")
    return (None if word.startswith("~") else word), word


class TestReadRecords:
    def test_blank_lines_skipped_and_none_keys_unchecked(self, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("a\n\n  \t\n~x\n~x\nb")
        assert read_records(str(path), _word, "word", "no words") == ["a", "~x", "~x", "b"]

    @pytest.mark.parametrize("content, message", [
        ("a\n\nb\na\n", r"words\.txt:4: duplicate word 'a' \(first seen on line 1\)"),
        ("a\nbad\n", r"words\.txt:2: bad word$"),
        ("\n \n", r"words\.txt: no words$"),
        ("", r"words\.txt: no words$"),
    ], ids=["duplicate", "parse-error", "blank", "empty"])
    def test_errors_name_file_and_line(self, tmp_path, content, message):
        path = tmp_path / "words.txt"
        path.write_text(content)
        with pytest.raises(ValidationError, match=message):
            read_records(str(path), _word, "word", "no words")

    def test_invalid_json_named_once(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n{"a": \n')
        with pytest.raises(ValidationError, match=r"^[^:]*rows\.jsonl:2: invalid JSON: Expecting"):
            read_records(str(path), lambda line: (None, json.loads(line)), "row", "no rows")

    def test_not_utf8_is_validation_error(self, tmp_path):
        path = tmp_path / "rows.txt"
        path.write_bytes(b"ok\n\xff\xfe\n")
        with pytest.raises(ValidationError, match=r"rows\.txt: not UTF-8 text"):
            read_records(str(path), _word, "word", "no words")


class TestReadJsonObject:
    @pytest.mark.parametrize("content, message", [
        (b"{not json", r"cfg\.json: invalid JSON config: "),
        (b"", r"cfg\.json: invalid JSON config: "),
        (b"\xff{}", r"cfg\.json: invalid JSON config: "),
        (b"[1, 2]", r"cfg\.json: config must be a JSON object$"),
        (b'"text"', r"cfg\.json: config must be a JSON object$"),
    ], ids=["broken", "empty", "not-utf8", "array", "string"])
    def test_refuses_anything_but_one_object(self, tmp_path, content, message):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        with pytest.raises(ValidationError, match=message):
            read_json_object(str(path), "config")


class TestConfig:
    @pytest.fixture
    def ws(self, tmp_path):
        (tmp_path / "a.run").write_text("q1 Q0 p1 1 1.0 t\n")
        (tmp_path / "qrels.txt").write_text("q1 0 p1 1\n")
        return tmp_path

    def _eval(self, ws, config: str, *flags: str):
        (ws / "config.json").write_text(config)
        out = ws / "out"
        code = main(["eval", "--run-in", str(ws / "a.run"), "--qrels", str(ws / "qrels.txt"),
                     *flags, "--config", str(ws / "config.json"), "--out-dir", str(out)])
        return code, out

    def test_file_then_cli_override(self, ws):
        code, out = self._eval(ws, '{"k": 50, "strategy": "reason", "seed": 3}', "--k", "10")
        assert code == 0
        config = json.loads((out / "resolved_config.json").read_text())
        assert config["k"] == 10          # CLI wins
        assert config["strategy"] == "reason"  # file value kept
        assert config["seed"] == 3        # flags not given do not override
        assert '"k": 10' in (out / "eval.jsonl").read_text()

    def test_unknown_keys_rejected(self, ws, capsys):
        code, out = self._eval(ws, '{"no_such_knob": 1}')
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err
        assert not out.exists()

    def test_file_values_follow_the_flag_types(self, ws, capsys):
        accepted = {"k": None, "k1": 1, "temperature": 0.5, "allow_partial": True, "tag": "t"}
        code, out = self._eval(ws, json.dumps(accepted))
        assert code == 0
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["k1"] == 1 and type(resolved["k1"]) is int  # an int counts as a float
        for key, value in [("k", "10"), ("k1", None), ("seed", True), ("samples", 2.5),
                           ("allow_partial", 1), ("model", None), ("stopwords", ["a"])]:
            code, _ = self._eval(ws, json.dumps({key: value}))
            assert code == 2
            assert f"config key '{key}' must be" in capsys.readouterr().err

    def test_resolved_dump_is_deterministic(self, tmp_path):
        (tmp_path / "corpus.jsonl").write_text('{"id": "p1", "text": "splints"}\n')
        (tmp_path / "config.json").write_text('{"stemmer": "porter", "k1": 1.2}')
        argv = ["index", "--corpus", str(tmp_path / "corpus.jsonl"), "--b", "0.5",
                "--config", str(tmp_path / "config.json"), "--out-dir", str(tmp_path / "out")]
        resolved = tmp_path / "out" / "resolved_config.json"
        assert main(argv) == 0
        first = resolved.read_bytes()
        resolved.unlink()
        assert main(argv) == 0
        assert resolved.read_bytes() == first
