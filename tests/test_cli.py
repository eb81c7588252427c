import argparse
import builtins
import errno
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from reranklab import RerankStrategy, ScoredPair, StrategyKind, cli, data
from reranklab.cli import build_parser, main
from reranklab.rerank import iter_scores

from conftest import make_corpus, make_queries, write_corpus_file, write_queries_file


@pytest.fixture
def workspace(tmp_path):
    """Corpus, queries, qrels, and a mock table on disk."""
    corpus = make_corpus(30, seed=5)
    queries = make_queries(4, seed=11)
    write_corpus_file(tmp_path / "corpus.jsonl", corpus)
    write_queries_file(tmp_path / "queries.jsonl", queries)

    qrels_lines = []
    for q in queries:
        for i, p in enumerate(corpus.passages[:8]):
            qrels_lines.append(f"{q.id} 0 {p.id} {i % 4}")
    (tmp_path / "qrels.txt").write_text("\n".join(qrels_lines) + "\n")

    table = {
        "single_token_vocab": ["true", "false"],
        "default_logits": "hash",
        "default_reasoning": "Okay, sample {seed} weighs the passage. Done.</think>",
    }
    (tmp_path / "mock.json").write_text(json.dumps(table))
    (tmp_path / "flaky.json").write_text(json.dumps(  # fails every pair of the first query
        {**table, "rules": [{"contains": [f"Query: {queries[0].text}\n"], "fail": True}]}))
    return tmp_path


def _index_and_retrieve(ws, out):
    assert main([
        "index", "--corpus", str(ws / "corpus.jsonl"), "--out-dir", str(out),
    ]) == 0
    assert main([
        "retrieve", "--index", str(out / "bm25_index.json"),
        "--queries", str(ws / "queries.jsonl"), "--k", "10",
        "--out-dir", str(out),
    ]) == 0
    return out / "bm25.run"


class TestIndexRetrieve:
    def test_pipeline_through_retrieve(self, workspace, tmp_path, capsys):
        run_path = _index_and_retrieve(workspace, tmp_path / "out")
        assert run_path.exists()
        lines = run_path.read_text().splitlines()
        assert 0 < len(lines) <= 40
        assert all(len(line.split()) == 6 for line in lines)
        out = capsys.readouterr().out
        assert "indexed 30 passages" in out

    def test_empty_stopwords_file_means_no_stopwords(self, workspace, tmp_path, capsys):
        (workspace / "stopwords.txt").write_text("")
        corpus = str(workspace / "corpus.jsonl")
        assert main(["index", "--corpus", corpus, "--out-dir", str(tmp_path / "a")]) == 0
        plain = capsys.readouterr().out.split(" -> ")[0]  # "indexed N passages, M terms"
        assert main(["index", "--corpus", corpus, "--stopwords", str(workspace / "stopwords.txt"),
                     "--out-dir", str(tmp_path / "b")]) == 0
        assert capsys.readouterr().out.split(" -> ")[0] == plain

    def test_k_flag_limits_candidates(self, workspace, tmp_path):
        out = tmp_path / "out"
        assert main([
            "index", "--corpus", str(workspace / "corpus.jsonl"), "--out-dir", str(out),
        ]) == 0
        assert main([
            "retrieve", "--index", str(out / "bm25_index.json"),
            "--queries", str(workspace / "queries.jsonl"), "--k", "2",
            "--out-dir", str(out),
        ]) == 0
        per_query = {}
        for line in (out / "bm25.run").read_text().splitlines():
            qid = line.split()[0]
            per_query[qid] = per_query.get(qid, 0) + 1
        assert all(n <= 2 for n in per_query.values())

    def test_missing_index_names_path(self, workspace, tmp_path, capsys):
        code = main([
            "retrieve", "--index", str(tmp_path / "nope.json"),
            "--queries", str(workspace / "queries.jsonl"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        "{not json",
        "[]",
        '{"format": "reranklab-bm25-index", "version": 2}',
    ], ids=["broken", "array", "no-sections"])
    def test_malformed_index_is_data_error(self, workspace, tmp_path, capsys, content):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        code = main([
            "retrieve", "--index", str(bad),
            "--queries", str(workspace / "queries.jsonl"),
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "bad.json" in capsys.readouterr().err

    def test_v1_index_asks_for_a_rebuild(self, workspace, tmp_path, capsys):
        old = tmp_path / "bm25_index.json"
        for version in (1, 2):  # refused by the version alone, whatever the postings hold
            old.write_text(json.dumps({
                "format": "reranklab-bm25-index", "version": version, "doc_ids": ["p0"],
                "doc_lengths": [1],
                "analyzer": {"lowercase": True, "token_pattern": "[^\\W_]+", "stopwords": None,
                             "stemmer": "none"},
                "params": {"k1": 0.9, "b": 0.4}, "postings": {"cat": [[0, 1]]},
            }))
            code = main([
                "retrieve", "--index", str(old),
                "--queries", str(workspace / "queries.jsonl"),
                "--out-dir", str(tmp_path / "out"),
            ])
            assert code == 2
            assert (f"{old}: index format v{version} is no longer read; re-run `reranklab index`"
                    in capsys.readouterr().err)

    def test_tag_with_whitespace_is_data_error(self, workspace, tmp_path, capsys):
        out = tmp_path / "out"
        assert main([
            "index", "--corpus", str(workspace / "corpus.jsonl"), "--out-dir", str(out),
        ]) == 0
        run_dir = tmp_path / "retrieved"
        for tag in ("my tag", ""):  # an empty tag is refused too, not read as bm25
            code = main([
                "retrieve", "--index", str(out / "bm25_index.json"),
                "--queries", str(workspace / "queries.jsonl"), "--tag", tag,
                "--out-dir", str(run_dir),
            ])
            assert code == 2
            assert repr(tag) in capsys.readouterr().err
            assert not (run_dir / f"{tag}.run").exists()
            assert not run_dir.exists()

    def test_passage_id_with_whitespace_fails_at_index(self, workspace, tmp_path, capsys):
        corpus = workspace / "spaced.jsonl"
        corpus.write_text('{"id": "p0", "text": "fine"}\n{"id": "p 1", "text": "spaced"}\n')
        out = tmp_path / "out"
        assert main(["index", "--corpus", str(corpus), "--out-dir", str(out)]) == 2
        assert f"{corpus}:2: passage id must be non-empty without whitespace" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def test_missing_corpus_is_data_error(self, tmp_path):
        assert main([
            "index", "--corpus", str(tmp_path / "ghost.jsonl"),
            "--out-dir", str(tmp_path / "out"),
        ]) == 2

    def test_runs_in_the_same_second_get_their_own_directories(self, workspace, tmp_path,
                                                                monkeypatch):
        out = tmp_path / "out"
        assert main(["index", "--corpus", str(workspace / "corpus.jsonl"),
                     "--out-dir", str(out)]) == 0
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("time.strftime", lambda fmt: "20260101-000000")
        retrieve = ["retrieve", "--index", str(out / "bm25_index.json"),
                    "--queries", str(workspace / "queries.jsonl")]
        first = tmp_path / "runs" / "bm25-20260101-000000"
        assert main(retrieve + ["--k", "3"]) == 0
        first_run = (first / "bm25.run").read_bytes()
        assert main(retrieve + ["--k", "6"]) == 0
        second = tmp_path / "runs" / "bm25-20260101-000000-2"
        assert sorted((tmp_path / "runs").iterdir()) == [first, second]
        assert (first / "bm25.run").read_bytes() == first_run
        assert len(first_run.splitlines()) == 4 * 3
        assert len((second / "bm25.run").read_bytes()) > len(first_run)
        for run_dir, k in ((first, 3), (second, 6)):
            assert json.loads((run_dir / "resolved_config.json").read_text())["k"] == k


class TestRerankCommand:
    def _rerank(self, ws, out, run_path, strategy, extra=()):
        return main([
            "rerank",
            "--corpus", str(ws / "corpus.jsonl"),
            "--queries", str(ws / "queries.jsonl"),
            "--run-in", str(run_path),
            "--strategy", strategy,
            "--backend", f"mock:{ws / 'mock.json'}",
            "--out-dir", str(out),
            *extra,
        ])

    def test_direct_strategy_writes_run_and_dump(self, workspace, tmp_path):
        run_path = _index_and_retrieve(workspace, tmp_path / "stage1")
        out = tmp_path / "rr"
        assert self._rerank(workspace, out, run_path, "direct") == 0
        assert (out / "direct.run").exists()
        dump = [
            json.loads(line)
            for line in (out / "direct_scored.jsonl").read_text().splitlines()
        ]
        assert all(d["strategy"] == "direct" for d in dump)
        assert all(d["traces"] == [] for d in dump)
        assert (out / "resolved_config.json").exists()

    def test_self_consistency_dump_has_samples(self, workspace, tmp_path):
        run_path = _index_and_retrieve(workspace, tmp_path / "stage1")
        out = tmp_path / "sc"
        assert self._rerank(
            workspace, out, run_path, "self_consistency", ["--samples", "3"]
        ) == 0
        dump = [
            json.loads(line)
            for line in (out / "self_consistency_scored.jsonl").read_text().splitlines()
        ]
        assert all(len(d["per_sample_scores"]) == 3 for d in dump)
        assert all(len(d["traces"]) == 3 for d in dump)

    def test_flags_that_do_not_apply_change_nothing(self, workspace, tmp_path, monkeypatch):
        # a direct run takes one sample and generates nothing, so --samples and --temperature
        # leave its strategy, its requests and its files as a plain direct run has them
        run_path = _index_and_retrieve(workspace, tmp_path / "stage1")
        handed = []

        def recording(backend, template, strategy, *rest, **kwargs):
            payloads = []
            complete = backend._complete
            backend._complete = lambda payload: (payloads.append(payload), complete(payload))[1]
            handed.append((strategy, payloads))
            return iter_scores(backend, template, strategy, *rest, **kwargs)

        monkeypatch.setattr(cli, "iter_scores", recording)
        for name, extra in (("plain", []), ("flagged", ["--samples", "5", "--temperature", "0.9"])):
            assert self._rerank(workspace, tmp_path / name, run_path, "direct", extra) == 0
        (plain, plain_requests), (flagged, flagged_requests) = handed
        assert plain == flagged == RerankStrategy(StrategyKind.DIRECT)
        assert plain_requests and flagged_requests == plain_requests
        # resolved_config.json records the flags as given (ROADMAP item 25), so it differs
        files = [{f.name: f.read_bytes() for f in (tmp_path / name).iterdir()
                  if f.name != "resolved_config.json"} for name in ("plain", "flagged")]
        assert sorted(files[0]) == ["direct.run", "direct_scored.jsonl"]
        assert files[1] == files[0]

    @pytest.mark.parametrize("flag, value, named", [
        ("--temperature", "-1", "temperature"), ("--top-p", "0", "top_p"),
        ("--max-reasoning-tokens", "0", "max_tokens"),
    ])
    def test_a_flag_that_does_not_apply_is_still_checked(self, workspace, tmp_path, capsys,
                                                           flag, value, named):
        run_path = _index_and_retrieve(workspace, tmp_path / "stage1")
        out = tmp_path / "checked"
        assert self._rerank(workspace, out, run_path, "direct", [flag, value]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_across_concurrency(self, workspace, tmp_path):
        run_path = _index_and_retrieve(workspace, tmp_path / "stage1")
        outputs = []
        for i, workers in enumerate(("1", "8")):
            out = tmp_path / f"c{i}"
            assert self._rerank(
                workspace, out, run_path, "reason", ["--concurrency", workers]
            ) == 0
            outputs.append(
                (out / "reason.run").read_bytes()
                + (out / "reason_scored.jsonl").read_bytes()
            )
        assert outputs[0] == outputs[1]

    def test_tag_with_whitespace_fails_before_any_work(self, workspace, tmp_path, capsys):
        run_path = _index_and_retrieve(workspace, tmp_path / "stage1")
        capsys.readouterr()
        out = tmp_path / "rr"
        (workspace / "empty_tag.json").write_text('{"tag": ""}')
        for extra, tag in ((["--tag", "my tag"], "my tag"), (["--tag", ""], ""),
                           (["--config", str(workspace / "empty_tag.json")], "")):
            code = self._rerank(workspace, out, run_path, "direct", extra)
            assert code == 2
            assert f"got {tag!r}" in capsys.readouterr().err
            assert not out.exists()

    def test_missing_backend_is_data_error(self, workspace, tmp_path, capsys):
        run_path = _index_and_retrieve(workspace, tmp_path / "stage1")
        out = tmp_path / "rr"
        code = main([
            "rerank", "--corpus", str(workspace / "corpus.jsonl"),
            "--queries", str(workspace / "queries.jsonl"), "--run-in", str(run_path),
            "--out-dir", str(out),
        ])
        assert code == 2
        assert "--backend is required" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag_is_usage_error(self, workspace, tmp_path, capsys):
        code = main(["rerank", "--no-such-flag"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_backend_failure_exit_code(self, workspace, tmp_path):
        run_path = _index_and_retrieve(workspace, tmp_path / "stage1")
        table = {
            "single_token_vocab": ["true", "false"],
            "rules": [{"contains": [], "fail": True}],
        }
        (workspace / "failing.json").write_text(json.dumps(table))
        code = main([
            "rerank",
            "--corpus", str(workspace / "corpus.jsonl"),
            "--queries", str(workspace / "queries.jsonl"),
            "--run-in", str(run_path),
            "--strategy", "direct",
            "--backend", f"mock:{workspace / 'failing.json'}",
            "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 3
        assert not (tmp_path / "out").exists()  # the dump was begun, then removed with its dir

    def test_allow_partial_records_failures(self, workspace, tmp_path):
        run_path = _index_and_retrieve(workspace, tmp_path / "stage1")
        # fail exactly the pairs mentioning the first-ranked passage's text
        first = run_path.read_text().splitlines()[0].split()
        victim_qid, victim_pid = first[0], first[2]
        corpus_rows = {
            json.loads(line)["id"]: json.loads(line)["text"]
            for line in (workspace / "corpus.jsonl").read_text().splitlines()
        }
        table = {
            "single_token_vocab": ["true", "false"],
            "default_logits": [1.0, 0.0],
            "rules": [
                {"contains": [f"Passage: {corpus_rows[victim_pid]}"], "fail": True}
            ],
        }
        (workspace / "flaky.json").write_text(json.dumps(table))
        out = tmp_path / "partial"
        code = main([
            "rerank",
            "--corpus", str(workspace / "corpus.jsonl"),
            "--queries", str(workspace / "queries.jsonl"),
            "--run-in", str(run_path),
            "--strategy", "direct",
            "--backend", f"mock:{workspace / 'flaky.json'}",
            "--out-dir", str(out),
            "--allow-partial",
        ])
        assert code == 0
        failures = [
            json.loads(line)
            for line in (out / "direct_failures.jsonl").read_text().splitlines()
        ]
        assert {(f["query_id"], f["passage_id"]) for f in failures} >= {
            (victim_qid, victim_pid)
        }
        # the failed pair sank to the bottom of its query with a placeholder score
        rows = [
            line.split()
            for line in (out / "direct.run").read_text().splitlines()
            if line.startswith(victim_qid + " ")
        ]
        assert rows[-1][2] == victim_pid or any(
            r[2] == victim_pid and float(r[4]) < 0 for r in rows
        )

    def test_clean_rerun_removes_an_earlier_failures_file(self, workspace, tmp_path):
        run_path = _index_and_retrieve(workspace, tmp_path / "stage1")
        victim = run_path.read_text().splitlines()[0].split()[2]
        text = {row["id"]: row["text"] for row in
                map(json.loads, (workspace / "corpus.jsonl").read_text().splitlines())}[victim]
        table = {"single_token_vocab": ["true", "false"],
                 "rules": [{"contains": [f"Passage: {text}"], "fail": True}]}
        (workspace / "flaky.json").write_text(json.dumps(table))
        out = tmp_path / "out"
        argv = ["rerank", "--corpus", str(workspace / "corpus.jsonl"),
                "--queries", str(workspace / "queries.jsonl"), "--run-in", str(run_path),
                "--strategy", "direct", "--out-dir", str(out)]
        assert main([*argv, "--backend", f"mock:{workspace / 'flaky.json'}",
                     "--allow-partial"]) == 0
        assert (out / "direct_failures.jsonl").read_text()
        assert main([*argv, "--backend", f"mock:{workspace / 'mock.json'}"]) == 0
        assert sorted(f.name for f in out.iterdir()) == [
            "direct.run", "direct_scored.jsonl", "resolved_config.json"]

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_temperature_is_data_error(self, workspace, tmp_path, capsys, value):
        run_path = _index_and_retrieve(workspace, tmp_path / "stage1")
        out = tmp_path / "hot"
        code = self._rerank(workspace, out, run_path, "reason", ["--temperature", value])
        assert code == 2
        assert "temperature" in capsys.readouterr().err
        assert not (out / "reason.run").exists()

    def test_infinite_timeout_is_data_error(self, workspace, tmp_path, capsys):
        run_path = _index_and_retrieve(workspace, tmp_path / "stage1")
        out = tmp_path / "slow"
        code = self._rerank(workspace, out, run_path, "direct", ["--timeout", "inf"])
        assert code == 2
        assert "timeout" in capsys.readouterr().err
        assert not (out / "direct.run").exists()

    def test_non_finite_first_stage_score_is_data_error(self, workspace, tmp_path, capsys):
        run_path = tmp_path / "bad.run"
        run_path.write_text("q1 Q0 p1 1 nan t\nq1 Q0 p2 2 inf t\n")
        code = self._rerank(workspace, tmp_path / "out", run_path, "direct")
        assert code == 2
        assert f"{run_path}:1: score must be a finite number" in capsys.readouterr().err

    def test_capture_then_replay_writes_identical_outputs(self, workspace, tmp_path, stub_server):
        url, state = stub_server
        run_path = workspace / "stage1.run"
        run_path.write_text(
            "q00 Q0 p0000 1 3.0 bm25\nq00 Q0 p0001 2 2.0 bm25\nq01 Q0 p0002 1 1.0 bm25\n"
        )
        capture = tmp_path / "capture.jsonl"
        live, replay = tmp_path / "live", tmp_path / "replay"
        flags = ["--samples", "2", "--concurrency", "2"]
        assert self._rerank(workspace, live, run_path, "self_consistency",
                            [*flags, "--backend", url, "--capture", str(capture)]) == 0
        sent = len(state.requests)
        assert sent == len(capture.read_text().splitlines()) == 2 + 3 * 2 * 2
        assert self._rerank(workspace, replay, run_path, "self_consistency",
                            [*flags, "--backend", f"replay:{capture}"]) == 0
        assert len(state.requests) == sent  # replay never went on the wire
        for name in ("self_consistency.run", "self_consistency_scored.jsonl"):
            assert (replay / name).read_bytes() == (live / name).read_bytes()

    def test_replayed_malformed_response_exits_3(self, workspace, tmp_path, stub_server, capsys):
        url, _ = stub_server
        run_path = workspace / "stage1.run"
        run_path.write_text("q00 Q0 p0000 1 3.0 bm25\n")
        capture = tmp_path / "capture.jsonl"
        assert self._rerank(workspace, tmp_path / "live", run_path, "direct",
                            ["--backend", url, "--capture", str(capture)]) == 0
        records = [json.loads(line) for line in capture.read_text().splitlines()]
        records[-1]["response"]["choices"][0]["logprobs"] = None  # the pair's score read
        capture.write_text("".join(json.dumps(r) + "\n" for r in records))
        out = tmp_path / "replay"
        assert self._rerank(workspace, out, run_path, "direct",
                            ["--backend", f"replay:{capture}"]) == 3
        assert "response field 'logprobs' must be an object, got null" in capsys.readouterr().err
        assert not (out / "direct.run").exists()

    def test_mock_rule_sets_logits_and_seeded_reasoning(self, workspace, tmp_path):
        first = json.loads((workspace / "corpus.jsonl").read_text().splitlines()[0])
        table = {
            "single_token_vocab": ["true", "false"],
            "default_logits": [0.0, 0.0],
            "rules": [{
                "contains": [f"Passage: {first['text']}\n"],
                "logits": [3.0, -3.0],
                "reasoning": "Sample {seed} finds it relevant.</think>",
            }],
        }
        (workspace / "rules.json").write_text(json.dumps(table))
        run_path = workspace / "stage1.run"
        run_path.write_text(f"q00 Q0 {first['id']} 1 2.0 bm25\nq00 Q0 p0001 2 1.0 bm25\n")
        out = tmp_path / "sc"
        assert main([
            "rerank", "--corpus", str(workspace / "corpus.jsonl"),
            "--queries", str(workspace / "queries.jsonl"), "--run-in", str(run_path),
            "--strategy", "self_consistency", "--samples", "2",
            "--backend", f"mock:{workspace / 'rules.json'}", "--out-dir", str(out),
        ]) == 0
        dump = {
            d["passage_id"]: d
            for d in map(json.loads, (out / "self_consistency_scored.jsonl").read_text().splitlines())
        }
        ruled, default = dump[first["id"]], dump["p0001"]
        assert ruled["per_sample_scores"] == [1 / (1 + math.exp(-6.0))] * 2
        texts = [t["text"] for t in ruled["traces"]]
        assert all(re.fullmatch(r"Sample -?\d+ finds it relevant\.", t) for t in texts)
        assert texts[0] != texts[1]  # each sample's own seed
        assert default["per_sample_scores"] == [0.5, 0.5]
        assert all("finds it relevant" not in t["text"] for t in default["traces"])

    def test_config_file_with_cli_override(self, workspace, tmp_path):
        run_path = _index_and_retrieve(workspace, tmp_path / "stage1")
        config = {
            "corpus": str(workspace / "corpus.jsonl"),
            "queries": str(workspace / "queries.jsonl"),
            "run_in": str(run_path),
            "strategy": "direct",
            "backend": f"mock:{workspace / 'mock.json'}",
        }
        (workspace / "config.json").write_text(json.dumps(config))
        out = tmp_path / "cfg"
        assert main([
            "rerank", "--config", str(workspace / "config.json"),
            "--strategy", "forced_no_reason",  # overrides the file
            "--out-dir", str(out),
        ]) == 0
        assert (out / "forced_no_reason.run").exists()
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["strategy"] == "forced_no_reason"


# (kind, file name, content, where the error points, command over the workspace)
MALFORMED = [
    ("corpus", "bad.jsonl", '{"id": "p1", "text": "ok"}\n{broken\n', ":2: invalid JSON",
     lambda ws, bad: ["index", "--corpus", bad]),
    ("queries", "bad.tsv", "q1 has no tab\n", ":1: expected JSON object",
     lambda ws, bad: ["rerank", "--corpus", ws / "corpus.jsonl", "--queries", bad]),
    ("qrels", "bad.qrels", "q00 0 p0000 3\nq00 0 p0001\n", ":2: expected 'qid iteration",
     lambda ws, bad: ["eval", "--run-in", ws / "ok.run", "--qrels", bad]),
    ("run-in", "bad.run", "\nq00 Q0 p0000 one 1.0 t\n", ":2: rank must be an integer",
     lambda ws, bad: ["eval", "--run-in", bad, "--qrels", ws / "qrels.txt"]),
    ("run-five-fields", "bad.run", "q00 Q0 p0000 1 1.0\n",
     ":1: expected 'qid Q0 docid rank score tag', got 5 fields",
     lambda ws, bad: ["eval", "--run-in", bad, "--qrels", ws / "qrels.txt"]),
    ("scored", "bad_scored.jsonl", '{"query_id": "q00", "score": 0.5}\n',
     ":1: bad scored record",
     lambda ws, bad: ["analyze", "--scored", bad]),
    ("scored-third-record", "bad_scored.jsonl",
     '{"query_id": "q00", "passage_id": "p0000", "score": 0.5}\n'
     '{"query_id": "q00", "passage_id": "p0001", "score": 0.25}\n'
     '{"query_id": "q00", "passage_id": "p0002"}\n',
     ":3: bad scored record",
     lambda ws, bad: ["analyze", "--scored", bad, "--qrels", ws / "qrels.txt"]),
    ("config", "bad_config.json", '{"k": 10,}', ": invalid JSON config",
     lambda ws, bad: ["eval", "--config", bad]),
    ("template", "bad_template.json", '{"user": 5}', ": template field 'user'",
     lambda ws, bad: [*_rerank_inputs(ws), "--template", bad]),
    ("index", "bad_index.json", "[]", ": index must be a JSON object",
     lambda ws, bad: ["retrieve", "--index", bad, "--queries", ws / "queries.jsonl"]),
    ("mock-table", "bad_table.json", "[1, 2]", ": mock table must be a JSON object",
     lambda ws, bad: [*_rerank_inputs(ws), "--backend", f"mock:{bad}"]),
    ("mock-vocab", "bad_table.json", '{"single_token_vocab": 5}',
     ": mock table field 'single_token_vocab' must be a list of strings",
     lambda ws, bad: [*_rerank_inputs(ws), "--backend", f"mock:{bad}"]),
    ("mock-logits", "bad_table.json", '{"default_logits": "x"}',
     ": mock table field 'default_logits' must be",
     lambda ws, bad: [*_rerank_inputs(ws), "--backend", f"mock:{bad}"]),
    ("mock-rules", "bad_table.json", '{"rules": [5]}',
     ": mock table field 'rules' must be a list of objects",
     lambda ws, bad: [*_rerank_inputs(ws), "--backend", f"mock:{bad}"]),
    ("mock-rule-field", "bad_table.json", '{"rules": [{"contain": ["splints"], "logits": [9, 0]}]}',
     ": mock table rule 0 has unknown field 'contain'",
     lambda ws, bad: [*_rerank_inputs(ws), "--backend", f"mock:{bad}"]),
    ("mock-table-field", "bad_table.json", '{"default_logit": [9.0, 0.0]}',
     ": mock table has unknown field 'default_logit'",
     lambda ws, bad: [*_rerank_inputs(ws), "--backend", f"mock:{bad}"]),
    ("capture-json", "bad_capture.jsonl", '{"request": {}, "response":\n', ":1: invalid JSON",
     lambda ws, bad: [*_rerank_inputs(ws), "--backend", f"replay:{bad}"]),
    ("capture-key", "bad_capture.jsonl", '\n{"request": {}}\n', ":2: capture record",
     lambda ws, bad: [*_rerank_inputs(ws), "--backend", f"replay:{bad}"]),
    ("capture-empty", "bad_capture.jsonl", "\n", ": empty capture log",
     lambda ws, bad: [*_rerank_inputs(ws), "--backend", f"replay:{bad}"]),
    ("stopwords", "bad_stopwords.txt", b"\xff\xfe", ": not UTF-8 text",
     lambda ws, bad: ["index", "--corpus", ws / "corpus.jsonl", "--stopwords", bad]),
    ("corpus-no-id", "bad.jsonl", '{"id": "p1", "text": "ok"}\n{"text": "no id"}\n',
     ":2: record must have 'id' and 'text' fields", lambda ws, bad: ["index", "--corpus", bad]),
    ("corpus-text-null", "bad.jsonl", '{"id": "p1", "text": null}\n',
     ":1: 'id' must be a string or an integer and 'text' a string",
     lambda ws, bad: ["index", "--corpus", bad]),
    ("queries-id-null", "bad.jsonl", '{"id": "q1", "text": "a"}\n{"id": null, "text": "b"}\n',
     ":2: 'id' must be a string or an integer",
     lambda ws, bad: ["rerank", "--corpus", ws / "corpus.jsonl", "--queries", bad]),
    ("scored-trace-text", "bad_scored.jsonl",
     '{"query_id": "q00", "passage_id": "p0000", "score": 0.5,'
     ' "traces": [{"text": 5, "terminated": true, "token_count": 3}]}\n',
     ":1: bad scored record: a trace needs a string text",
     lambda ws, bad: ["dump-traces", "--scored", bad, "--corpus", ws / "corpus.jsonl",
                      "--queries", ws / "queries.jsonl"]),
    ("scored-terminated", "bad_scored.jsonl",
     '{"query_id": "q00", "passage_id": "p0000", "score": 0.5,'
     ' "traces": [{"text": "t", "terminated": 1, "token_count": 3}]}\n',
     ":1: bad scored record: a trace needs", lambda ws, bad: ["analyze", "--scored", bad]),
    ("scored-token-count", "bad_scored.jsonl",
     '{"query_id": "q00", "passage_id": "p0000", "score": 0.5,'
     ' "traces": [{"text": "t", "terminated": false, "token_count": -1}]}\n',
     ":1: bad scored record: a trace needs", lambda ws, bad: ["analyze", "--scored", bad]),
    ("scored-score-bool", "bad_scored.jsonl",
     '{"query_id": "q00", "passage_id": "p0000", "score": true}\n',
     ":1: bad scored record: score and per_sample_scores must be numbers",
     lambda ws, bad: ["analyze", "--scored", bad]),
    ("scored-sample-bool", "bad_scored.jsonl",
     '{"query_id": "q00", "passage_id": "p0000", "score": 1.0, "per_sample_scores": [true]}\n',
     ":1: bad scored record: score and per_sample_scores must be numbers",
     lambda ws, bad: ["analyze", "--scored", bad]),
    ("scored-mean", "bad_scored.jsonl",
     '{"query_id": "q00", "passage_id": "p0000", "score": 0.5, "per_sample_scores": [0.25, 0.5]}\n',
     ":1: bad scored record: score 0.5 is not the mean of per-sample scores (0.375)",
     lambda ws, bad: ["analyze", "--scored", bad]),
    ("scored-strategy", "bad_scored.jsonl",
     '{"query_id": "q00", "passage_id": "p0000", "score": 0.5, "strategy": 5}\n',
     ":1: strategy must be a string, got 5", lambda ws, bad: ["analyze", "--scored", bad]),
]


def _rerank_inputs(ws):
    return ["rerank", "--corpus", ws / "corpus.jsonl", "--queries", ws / "queries.jsonl",
            "--run-in", ws / "ok.run"]


class TestMalformedInputs:
    @pytest.mark.parametrize("kind, name, content, where, command", MALFORMED,
                             ids=[case[0] for case in MALFORMED])
    def test_exits_2_naming_the_file(self, workspace, tmp_path, capsys,
                                     kind, name, content, where, command):
        (workspace / "ok.run").write_text("q00 Q0 p0000 1 2.0 t\nq00 Q0 p0001 2 1.0 t\n")
        bad = workspace / name
        if isinstance(content, bytes):
            bad.write_bytes(content)
        else:
            bad.write_text(content)
        out = tmp_path / "out"
        code = main([str(arg) for arg in command(workspace, bad)] + ["--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"{bad}{where}" in err
        assert not out.exists()


def _with_mock(ws):
    return [*_rerank_inputs(ws), "--backend", f"mock:{ws / 'mock.json'}"]


# (config file content, command over the workspace): a value of the wrong JSON type for its
# key, or one outside its flag's choices
WRONG_TYPES = [
    ('{"k": "10"}', lambda ws: ["retrieve", "--index", ws / "idx" / "bm25_index.json",
                                "--queries", ws / "queries.jsonl"]),
    ('{"k1": null}', lambda ws: ["index", "--corpus", ws / "corpus.jsonl"]),
    ('{"concurrency": "2"}', _with_mock),
    ('{"samples": 2.5, "strategy": "self_consistency"}', _with_mock),
    ('{"strategy": "bogus"}', _with_mock),
    ('{"gain": "cubic"}', lambda ws: ["eval", "--run-in", ws / "ok.run",
                                      "--qrels", ws / "qrels.txt"]),
    ('{"stemmer": "snowball"}', lambda ws: ["index", "--corpus", ws / "corpus.jsonl"]),
    ('{"grade_rule": "gt9"}', lambda ws: ["analyze", "--scored", ws / "scored.jsonl",
                                          "--qrels", ws / "qrels.txt"]),
    ('{"k1": NaN, "temperature": Infinity}', lambda ws: [
        "retrieve", "--index", ws / "idx" / "bm25_index.json", "--queries", ws / "queries.jsonl"]),
]


def _config(ws, content):
    (ws / "config.json").write_text(content)
    return ["--config", ws / "config.json"]


# (command over the workspace, the setting the error names): values that would corrupt output
CORRUPTING_NUMBERS = [
    (lambda ws: [*_with_mock(ws), "--max-passage-chars", "-3"], "max_passage_chars"),
    (lambda ws: [*_with_mock(ws), "--concurrency", "-3"], "concurrency"),
    (lambda ws: [*_with_mock(ws), "--strategy", "direct", *_config(ws, '{"samples": 0}')],
     "samples"),
    (lambda ws: ["index", "--corpus", ws / "corpus.jsonl", "--k1", "nan"], "k1"),
    (lambda ws: ["index", "--corpus", ws / "corpus.jsonl", "--k1", "inf"], "k1"),
    (lambda ws: ["analyze", "--scored", ws / "scored.jsonl", "--qrels", ws / "qrels.txt",
                 "--score-threshold", "nan"], "score_threshold"),
    (lambda ws: ["analyze", "--scored", ws / "scored.jsonl", "--score-threshold", "nan"],
     "score_threshold"),
]


# (the input, whether it is a directory or a file, command over the workspace and that path):
# a path the command cannot read or write
UNUSABLE_PATHS = [
    ("corpus", "dir", lambda ws, bad: ["index", "--corpus", bad]),
    ("index", "dir", lambda ws, bad: ["retrieve", "--index", bad,
                                      "--queries", ws / "queries.jsonl"]),
    ("config", "dir", lambda ws, bad: ["eval", "--config", bad]),
    ("stopwords", "dir", lambda ws, bad: ["index", "--corpus", ws / "corpus.jsonl",
                                          "--stopwords", bad]),
    ("template", "dir", lambda ws, bad: [*_with_mock(ws), "--template", bad]),
    ("replay", "dir", lambda ws, bad: [*_rerank_inputs(ws), "--backend", f"replay:{bad}"]),
    ("out-dir", "file", lambda ws, bad: ["index", "--corpus", ws / "corpus.jsonl",
                                         "--out-dir", bad]),
]


class TestRefusedValues:
    @pytest.fixture
    def ws(self, workspace):
        (workspace / "ok.run").write_text("q00 Q0 p0000 1 2.0 t\nq00 Q0 p0001 2 1.0 t\n")
        (workspace / "scored.jsonl").write_text(
            '{"query_id": "q00", "passage_id": "p0000", "score": 0.5, "strategy": "direct"}\n')
        assert main(["index", "--corpus", str(workspace / "corpus.jsonl"),
                     "--out-dir", str(workspace / "idx")]) == 0
        return workspace

    @pytest.mark.parametrize("content, command", WRONG_TYPES,
                             ids=["k-string", "k1-null", "concurrency-string", "samples-float",
                                  "strategy-choice", "gain-choice", "stemmer-choice",
                                  "grade-rule-choice", "k1-nan-in-retrieve"])
    def test_config_value_of_wrong_type_exits_2(self, ws, tmp_path, capsys, content, command):
        config = ws / "config.json"
        config.write_text(content)
        out = tmp_path / "out"
        code = main([str(arg) for arg in command(ws)]
                    + ["--config", str(config), "--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        key = next(iter(json.loads(content)))
        assert f"{config}: config key {key!r} must be" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind, made, command", UNUSABLE_PATHS,
                             ids=[case[0] for case in UNUSABLE_PATHS])
    def test_unusable_path_exits_2_naming_it(self, ws, tmp_path, capsys, kind, made, command):
        bad = ws / "unusable"
        bad.mkdir() if made == "dir" else bad.write_text("x\n")
        out = tmp_path / "out"
        argv = [str(arg) for arg in command(ws, bad)]
        code = main(argv if "--out-dir" in argv else argv + ["--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert str(bad) in err
        assert not out.exists() and not (bad / "resolved_config.json").exists()

    @pytest.mark.parametrize("command, setting", CORRUPTING_NUMBERS,
                             ids=["passage-chars-negative", "concurrency-negative",
                                  "samples-zero-in-config", "k1-nan", "k1-inf", "threshold-nan",
                                  "threshold-nan-no-qrels"])
    def test_corrupting_number_exits_2(self, ws, tmp_path, capsys, command, setting):
        out = tmp_path / "out"
        code = main([str(arg) for arg in command(ws)] + ["--out-dir", str(out)])
        err = capsys.readouterr().err
        assert code == 2, err
        assert f"{setting} must be" in err
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["mock", "replay"])
    def test_capture_needs_an_http_backend(self, ws, tmp_path, capsys, scheme):
        target = ws / ("mock.json" if scheme == "mock" else "capture.jsonl")
        log, out = tmp_path / "log.jsonl", tmp_path / "out"
        code = main([str(arg) for arg in _rerank_inputs(ws)]
                    + ["--backend", f"{scheme}:{target}", "--capture", str(log),
                       "--out-dir", str(out)])
        assert code == 2
        assert "--capture mirrors HTTP requests" in capsys.readouterr().err
        assert not log.exists() and not out.exists()


@pytest.fixture
def reranked(workspace, tmp_path):
    """Index, first-stage run and reason rerank; returns the rerank's run dir."""
    run_path = _index_and_retrieve(workspace, tmp_path / "stage1")
    out = tmp_path / "rr"
    assert main([
        "rerank",
        "--corpus", str(workspace / "corpus.jsonl"),
        "--queries", str(workspace / "queries.jsonl"),
        "--run-in", str(run_path),
        "--strategy", "reason",
        "--backend", f"mock:{workspace / 'mock.json'}",
        "--out-dir", str(out),
    ]) == 0
    return out


class TestEvalAnalyze:
    def test_eval_reports_mean(self, workspace, reranked, tmp_path, capsys):
        out = tmp_path / "eval"
        assert main([
            "eval", "--run-in", str(reranked / "reason.run"),
            "--qrels", str(workspace / "qrels.txt"),
            "--out-dir", str(out),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "ndcg@10" in stdout and "gain=exponential" in stdout
        rows = [json.loads(line) for line in (out / "eval.jsonl").read_text().splitlines()]
        assert "mean_ndcg" in rows[-1]

    def test_gain_flag_changes_header_and_values(self, workspace, reranked, capsys):
        main([
            "eval", "--run-in", str(reranked / "reason.run"),
            "--qrels", str(workspace / "qrels.txt"),
        ])
        exp_out = capsys.readouterr().out
        main([
            "eval", "--run-in", str(reranked / "reason.run"),
            "--qrels", str(workspace / "qrels.txt"), "--gain", "linear",
        ])
        lin_out = capsys.readouterr().out
        assert "gain=exponential" in exp_out
        assert "gain=linear" in lin_out
        assert exp_out != lin_out

    def test_hand_computed_ndcg_value(self, tmp_path, capsys):
        # grades (0, 3, 1) at ranks 1..3, exponential gain:
        # DCG = 7/log2(3) + 1/2, IDCG = 7 + 1/log2(3) -> 0.6443
        (tmp_path / "toy.run").write_text(
            "q1 Q0 a 1 0.900000 t\nq1 Q0 b 2 0.500000 t\nq1 Q0 c 3 0.100000 t\n"
        )
        (tmp_path / "toy.qrels").write_text("q1 0 a 0\nq1 0 b 3\nq1 0 c 1\n")
        assert main([
            "eval", "--run-in", str(tmp_path / "toy.run"),
            "--qrels", str(tmp_path / "toy.qrels"), "--k", "3",
        ]) == 0
        assert "0.6443" in capsys.readouterr().out

    def test_perfect_run_scores_one(self, workspace, tmp_path, capsys):
        # a run ranked exactly by descending grade must hit mean 1.0
        qrels = {"q00": {"p0000": 3, "p0001": 2, "p0002": 0}}
        lines = [
            "q00 Q0 p0000 1 0.900000 ideal",
            "q00 Q0 p0001 2 0.500000 ideal",
            "q00 Q0 p0002 3 0.100000 ideal",
        ]
        (tmp_path / "ideal.run").write_text("\n".join(lines) + "\n")
        (tmp_path / "q.qrels").write_text(
            "\n".join(f"q00 0 {p} {g}" for p, g in qrels["q00"].items()) + "\n"
        )
        assert main([
            "eval", "--run-in", str(tmp_path / "ideal.run"),
            "--qrels", str(tmp_path / "q.qrels"),
        ]) == 0
        assert "mean\t1.0000" in capsys.readouterr().out

    def test_analyze_distribution_and_classification(self, workspace, reranked, tmp_path, capsys):
        out = tmp_path / "analysis"
        assert main([
            "analyze", "--scored", str(reranked / "reason_scored.jsonl"),
            "--qrels", str(workspace / "qrels.txt"),
            "--out-dir", str(out),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "score distribution" in stdout
        assert "bin counts sum" in stdout
        assert "precision=" in stdout
        machine = json.loads((out / "analysis.json").read_text())
        assert sum(machine["bin_counts"]) == machine["total"]
        assert "classification" in machine

    def test_analysis_json_says_when_precision_is_undefined(self, workspace, reranked, tmp_path):
        # no score is above 1.0, so nothing is predicted positive: precision 0.0 means "undefined"
        out = tmp_path / "analysis"
        assert main([
            "analyze", "--scored", str(reranked / "reason_scored.jsonl"),
            "--qrels", str(workspace / "qrels.txt"), "--score-threshold", "1.0",
            "--out-dir", str(out),
        ]) == 0
        classification = json.loads((out / "analysis.json").read_text())["classification"]
        assert classification["precision_undefined"] is True
        assert classification["precision"] == 0.0
        assert classification["tp"] == classification["fp"] == 0

    def test_analyze_without_qrels(self, reranked, capsys):
        assert main([
            "analyze", "--scored", str(reranked / "reason_scored.jsonl"),
        ]) == 0
        assert "classification report skipped" in capsys.readouterr().out

    def test_dump_traces_table(self, workspace, reranked, capsys):
        assert main([
            "dump-traces", "--scored", str(reranked / "reason_scored.jsonl"),
            "--corpus", str(workspace / "corpus.jsonl"),
            "--queries", str(workspace / "queries.jsonl"),
        ]) == 0
        stdout = capsys.readouterr().out
        assert "query" in stdout
        assert "passage" in stdout
        assert "reasoning" in stdout
        assert "relevance  :" in stdout
        assert "Okay, sample" in stdout  # the mock's reasoning text

    def test_dump_traces_records_its_config(self, workspace, reranked, tmp_path):
        out = tmp_path / "traces"
        scored = str(reranked / "reason_scored.jsonl")
        assert main([
            "dump-traces", "--scored", scored,
            "--corpus", str(workspace / "corpus.jsonl"),
            "--queries", str(workspace / "queries.jsonl"),
            "--out-dir", str(out),
        ]) == 0
        assert (out / "traces.txt").exists()
        assert json.loads((out / "resolved_config.json").read_text())["scored"] == scored


# q1: grades (0, 3, 1) at ranks 1..3, exponential gain, k=3:
# DCG = 7/log2(3) + 1/2, IDCG = 7 + 1/log2(3) -> 0.6442869262030828;
# q2 is judged with no relevant passage, so it is reported at 0.0 and skipped
TOY_RUN = ("q1 Q0 a 1 0.900000 t\nq1 Q0 b 2 0.500000 t\nq1 Q0 c 3 0.100000 t\n"
           "q2 Q0 d 1 0.700000 t\n")
TOY_QRELS = "q1 0 a 0\nq1 0 b 3\nq1 0 c 1\nq2 0 d 0\n"
EVAL_TXT = ("ndcg@3  gain=exponential\n"
            "q1\t0.6443\n"
            "q2\t0.0000  (skipped: no relevant docs)\n"
            "mean\t0.6443  (1 queries)\n")
EVAL_JSONL = ('{"query_id": "q1", "ndcg@3": 0.6442869262030828}\n'
              '{"query_id": "q2", "ndcg@3": 0.0}\n'
              '{"mean_ndcg": 0.6442869262030828, "evaluated_queries": 1, '
              '"skipped_queries": ["q2"], "gain": "exponential", "k": 3}\n')

# scores 1.0, 0.0, 0.6 and 0.05 fall in bins 9, 0, 6 and 0; with grades a=3, b=0, c=2
# and d unjudged, gt2 at threshold 0.5 gives a tp, a tn and an fp (c: 0.6 > 0.5, grade 2)
TOY_SCORES = {"a": 1.0, "b": 0.0, "c": 0.6, "d": 0.05}
TOY_GRADES = "q1 0 a 3\nq1 0 b 0\nq1 0 c 2\n"
DISTRIBUTION_TXT = """\
strategy: direct

score distribution (10 bins; last bin closed at 1.0)
[0.0, 0.1)\t2\t0.5000
[0.1, 0.2)\t0\t0.0000
[0.2, 0.3)\t0\t0.0000
[0.3, 0.4)\t0\t0.0000
[0.4, 0.5)\t0\t0.0000
[0.5, 0.6)\t0\t0.0000
[0.6, 0.7)\t1\t0.2500
[0.7, 0.8)\t0\t0.0000
[0.8, 0.9)\t0\t0.0000
[0.9, 1.0]\t1\t0.2500
total\t4
regions: low=0.5000 partial=0.2500 high=0.2500

bin counts sum 4 == total 4: ok

"""
CLASSIFICATION_TXT = """\
relevance classification  (predict positive when score > 0.5)
positive grades: gt2  (the ge2 convention also exists; see --grade-rule)
tp=1 fp=1 tn=1 fn=0  judged=3 unjudged=1
precision=0.5000
recall=1.0000
f1=0.6667
"""
DISTRIBUTION_JSON = """\
{
  "bin_counts": [
    2,
    0,
    0,
    0,
    0,
    0,
    1,
    0,
    0,
    1
  ],
  "bin_edges": [
    0.0,
    0.1,
    0.2,
    0.3,
    0.4,
    0.5,
    0.6,
    0.7,
    0.8,
    0.9,
    1.0
  ],
"""
CLASSIFICATION_JSON = """\
  "classification": {
    "f1": 0.6666666666666666,
    "fn": 0,
    "fp": 1,
    "grade_rule": "gt2",
    "precision": 0.5,
    "precision_undefined": false,
    "recall": 1.0,
    "recall_undefined": false,
    "score_threshold": 0.5,
    "tn": 1,
    "tp": 1,
    "unjudged": 1
  },
"""
REGIONS_JSON = """\
  "high_fraction": 0.25,
  "low_fraction": 0.5,
  "partial_fraction": 0.25,
  "strategy": "direct",
  "total": 4
}
"""

# two pairs of a reason dump, one with a trace; passage c is not in the corpus
TRACES_TXT = """\
query      [q1]: what ranks passages
passage    [a]: bm25 ranks passages
strategy   : reason
relevance  : 0.750000
reasoning  (5 tokens):
The passage names bm25.
------------------------------------------------------------------------
query      [q1]: what ranks passages
passage    [c]: (unknown passage)
strategy   : reason
relevance  : 0.250000
reasoning  : (none)
"""


class TestReportBytes:
    """Every report file, and stdout, byte for byte on inputs small enough to check by hand."""

    @pytest.fixture(autouse=True)
    def _in_tmp_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # so that a runs/ directory made without --out-dir shows

    @staticmethod
    def _check(argv, out_dir, capsys, stdout, files):
        """Run ``argv``: it prints ``stdout``; with --out-dir it writes exactly ``files``
        ({name: text}) and resolved_config.json there, and without it writes nothing."""
        found = sorted(Path.cwd().iterdir())
        out = Path.cwd() / "out"
        assert main(argv + (["--out-dir", str(out)] if out_dir else [])) == 0
        assert capsys.readouterr().out == stdout
        if out_dir:
            assert sorted(p.name for p in out.iterdir()) == sorted(
                [*files, "resolved_config.json"])
            for name, text in files.items():
                assert (out / name).read_bytes() == text.encode(), name
        else:
            assert sorted(Path.cwd().iterdir()) == found

    @pytest.mark.parametrize("out_dir", [True, False])
    def test_eval(self, tmp_path, capsys, out_dir):
        (tmp_path / "toy.run").write_text(TOY_RUN)
        (tmp_path / "toy.qrels").write_text(TOY_QRELS)
        argv = ["eval", "--run-in", str(tmp_path / "toy.run"),
                "--qrels", str(tmp_path / "toy.qrels"), "--k", "3"]
        self._check(argv, out_dir, capsys, EVAL_TXT,
                    {"eval.txt": EVAL_TXT, "eval.jsonl": EVAL_JSONL})

    @pytest.mark.parametrize("out_dir", [True, False])
    @pytest.mark.parametrize("qrels", [True, False])
    def test_analyze(self, tmp_path, capsys, qrels, out_dir):
        (tmp_path / "direct_scored.jsonl").write_text("".join(
            json.dumps({"query_id": "q1", "passage_id": pid, "score": score,
                        "per_sample_scores": [], "traces": [], "strategy": "direct"}) + "\n"
            for pid, score in TOY_SCORES.items()))
        (tmp_path / "toy.qrels").write_text(TOY_GRADES)
        argv = ["analyze", "--scored", str(tmp_path / "direct_scored.jsonl")]
        argv += ["--qrels", str(tmp_path / "toy.qrels")] if qrels else []
        text = DISTRIBUTION_TXT + (CLASSIFICATION_TXT if qrels else
                                   "no qrels supplied; classification report skipped\n")
        machine = DISTRIBUTION_JSON + (CLASSIFICATION_JSON if qrels else "") + REGIONS_JSON
        self._check(argv, out_dir, capsys, text,
                    {"analysis.txt": text, "analysis.json": machine})

    @pytest.mark.parametrize("out_dir", [True, False])
    def test_dump_traces(self, tmp_path, capsys, out_dir):
        (tmp_path / "corpus.jsonl").write_text(
            '{"id": "a", "text": "bm25 ranks passages"}\n'
            '{"id": "b", "text": "porter stems words"}\n')
        (tmp_path / "queries.jsonl").write_text('{"id": "q1", "text": "what ranks passages"}\n')
        trace = {"text": "The passage names bm25.\n", "terminated": True, "token_count": 5}
        (tmp_path / "reason_scored.jsonl").write_text("".join(
            json.dumps({"query_id": "q1", "passage_id": pid, "score": score,
                        "per_sample_scores": [], "traces": traces, "strategy": "reason"}) + "\n"
            for pid, score, traces in (("a", 0.75, [trace]), ("c", 0.25, []))))
        argv = ["dump-traces", "--scored", str(tmp_path / "reason_scored.jsonl"),
                "--corpus", str(tmp_path / "corpus.jsonl"),
                "--queries", str(tmp_path / "queries.jsonl")]
        self._check(argv, out_dir, capsys, TRACES_TXT, {"traces.txt": TRACES_TXT})


def _subparsers():
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _commands():
    return list(_subparsers())


def _declared(skip=("help", "config")):
    """dest -> {command: (type, default, choices, const, nargs, required)} over the parser's
    subcommands."""
    table = {}
    for command, parser in _subparsers().items():
        for a in parser._actions:
            if a.dest not in skip:
                table.setdefault(a.dest, {})[command] = (
                    a.type, a.default, a.choices and tuple(a.choices), a.const, a.nargs,
                    a.required)
    return table


# command -> (the values it is given over the workspace and a reranked stage, the input
# that goes missing when it must fail); every command of the parser needs an entry
GIVEN = {
    "index": (lambda ws, rr: {"corpus": str(ws / "corpus.jsonl"), "k1": 1.2,
                              "stemmer": "porter", "no_lowercase": True}, "corpus"),
    "retrieve": (lambda ws, rr: {"index": str(rr.parent / "stage1" / "bm25_index.json"),
                                 "queries": str(ws / "queries.jsonl"), "k": 5, "tag": "first"},
                 "queries"),
    "rerank": (lambda ws, rr: {"corpus": str(ws / "corpus.jsonl"),
                               "queries": str(ws / "queries.jsonl"),
                               "run_in": str(rr.parent / "stage1" / "bm25.run"),
                               "strategy": "self_consistency", "samples": 2, "seed": 3,
                               "backend": f"mock:{ws / 'flaky.json'}",
                               "allow_partial": True}, "run_in"),
    "eval": (lambda ws, rr: {"run_in": str(rr / "reason.run"), "qrels": str(ws / "qrels.txt"),
                             "k": 5, "gain": "linear"}, "qrels"),
    "analyze": (lambda ws, rr: {"scored": str(rr / "reason_scored.jsonl"),
                                "qrels": str(ws / "qrels.txt"), "score_threshold": 0.25,
                                "grade_rule": "ge2"}, "qrels"),
    "dump-traces": (lambda ws, rr: {"scored": str(rr / "reason_scored.jsonl"),
                                    "corpus": str(ws / "corpus.jsonl"),
                                    "queries": str(ws / "queries.jsonl")}, "queries"),
}


def _argv(command, values, out):
    flags = [f"--{key.replace('_', '-')}" for key in values]
    args = [[flag] if value is True else [flag, str(value)]
            for flag, value in zip(flags, values.values())]
    return [command, *(a for pair in args for a in pair), "--out-dir", str(out)]


class TestLifecycle:
    @pytest.mark.parametrize("command", _commands())
    def test_resolved_config_records_the_run_and_comes_last(self, workspace, reranked,
                                                            tmp_path, command):
        values = GIVEN[command][0](workspace, reranked)
        out = tmp_path / "out"
        assert main(_argv(command, values, out)) == 0
        resolved_path = out / "resolved_config.json"
        resolved = json.loads(resolved_path.read_text())
        assert {key: resolved[key] for key in values} == values
        assert resolved["out_dir"] == str(out)
        assert sorted(resolved) == sorted(_declared())  # every command records every setting
        written = [p.stat().st_mtime_ns for p in out.iterdir()]
        assert len(written) > 1 and resolved_path.stat().st_mtime_ns == max(written)

    @pytest.mark.parametrize("command", _commands())
    def test_failed_command_leaves_no_resolved_config(self, workspace, reranked, tmp_path,
                                                      capsys, command):
        make, missing = GIVEN[command]
        values = {**make(workspace, reranked), missing: str(workspace / "missing")}
        out = tmp_path / "out"
        out.mkdir()
        assert main(_argv(command, values, out)) == 2
        assert "file not found" in capsys.readouterr().err
        assert list(out.iterdir()) == []


_OPEN = io.open


def _writes(monkeypatch, fail_at: int = 0) -> list[str]:
    """The names of the files opened for writing from now on; the ``fail_at``-th (from 1)
    is opened and then fails with OSError, as a full disk would."""
    names = []

    def open_(file, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            names.append(Path(file).name)
            if len(names) == fail_at:
                _OPEN(file, mode, *args, **kwargs).close()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(file))
        return _OPEN(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", open_)
    monkeypatch.setattr(io, "open", open_)  # pathlib opens through io.open
    return names


def _tree(root: Path) -> dict:
    """Every path under ``root``: a file's bytes, or None for a directory."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


class TestFailureAtomicity:
    """A failed command changes nothing it found and leaves nothing behind: no output, no
    ``.partial`` file, no directory, no line on stdout. ``made``: ``--out-dir`` exists and
    is empty; ``new``: it and its parent do not exist; ``runs``: no ``--out-dir``;
    ``prior``: an earlier run of the command is there (``rerank``'s holds a failures file).
    Those four fail at the command's last write. ``resolved-dir`` and ``last-dir``: an
    earlier run is there, with ``resolved_config.json`` or the command's last output
    replaced by a directory."""

    @pytest.mark.parametrize("where", ["made", "new", "runs", "prior", "resolved-dir",
                                       "last-dir"])
    @pytest.mark.parametrize("command", _commands())
    def test_failed_command_leaves_nothing_behind(self, workspace, reranked, tmp_path,
                                                  monkeypatch, capsys, command, where):
        monkeypatch.chdir(tmp_path)
        out = None if where == "runs" else tmp_path / ("new/deeper" if where == "new" else "out")
        argv = _argv(command, GIVEN[command][0](workspace, reranked), out)
        argv = argv[:-2] if out is None else argv
        written = _writes(monkeypatch)
        assert main(argv) == 0  # counts the command's writes
        if not written:
            pytest.skip(f"{command} writes nothing without --out-dir")
        assert written[-1].startswith("resolved_config.json")
        count, last = len(written), written[-2].removesuffix(".partial")
        if where in ("made", "new", "runs"):
            shutil.rmtree(tmp_path / ("runs" if out is None else out.relative_to(tmp_path).parts[0]))
            if where == "made":
                out.mkdir()
        else:
            for f in out.iterdir():  # distinct bytes, so that a file written over in place shows
                f.write_bytes(f"earlier {f.name}\n".encode())
            if where != "prior":
                doomed = out / ("resolved_config.json" if where == "resolved-dir" else last)
                doomed.unlink()
                doomed.mkdir()
        found = _tree(tmp_path)
        capsys.readouterr()
        _writes(monkeypatch, fail_at=0 if where.endswith("-dir") else count - 1)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err.startswith("reranklab: ") and "Traceback" not in err, err
        assert out == ""  # nothing names an output that was not published
        assert _tree(tmp_path) == found


def _float_flags():
    """(command, dest, option) for every float flag the parser declares."""
    return [(command, a.dest, a.option_strings[0]) for command, parser in _subparsers().items()
            for a in parser._actions if a.type is float]


class TestTagPathSeparator:
    """A tag names one run-file column and one file, so a tag that holds a path separator is
    refused before anything is written, with or without ``--out-dir``."""

    @pytest.mark.parametrize("out", [None, "out"])
    @pytest.mark.parametrize("tag", ["a/b", "../escaped"])
    @pytest.mark.parametrize("command", ["retrieve", "rerank"])
    def test_refused_and_nothing_written(self, workspace, reranked, tmp_path, monkeypatch,
                                         capsys, command, tag, out):
        work = tmp_path / "work"  # so that a file "../" would place stays in the tree compared
        work.mkdir()
        monkeypatch.chdir(work)
        argv = _argv(command, {**GIVEN[command][0](workspace, reranked), "tag": tag}, out)
        argv = argv[:-2] if out is None else argv
        found = _tree(tmp_path)
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", f"reranklab: tag must not hold a path separator, got {tag!r}\n")
        assert _tree(tmp_path) == found


class TestNonFinite:
    """NaN is not valid JSON, so no float setting may carry it into resolved_config.json."""

    @pytest.mark.parametrize("given", ["config", "flag"])
    @pytest.mark.parametrize("command, dest, option", _float_flags(),
                             ids=[f"{c}-{d}" for c, d, _ in _float_flags()])
    def test_nan_exits_2_and_writes_nothing(self, workspace, reranked, tmp_path, capsys,
                                            command, dest, option, given):
        values = {k: v for k, v in GIVEN[command][0](workspace, reranked).items() if k != dest}
        out = tmp_path / "out"
        out.mkdir()
        config = tmp_path / "nan.json"
        config.write_text(f'{{"{dest}": NaN}}')
        extra = ["--config", str(config)] if given == "config" else [option, "nan"]
        capsys.readouterr()
        assert main(_argv(command, values, out) + extra) == 2
        err = capsys.readouterr().err
        expected = (f"{config}: config key {dest!r} must be a finite number, got NaN"
                    if given == "config" else f"{dest} must be")
        assert expected in err, err
        assert list(out.iterdir()) == []


def _traced_peak_mb(argv) -> float:
    tracemalloc.start()
    try:
        assert main([str(a) for a in argv]) == 0
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestStreaming:
    """rerank and analyze hold one pair's traces at a time, not the run's."""

    def test_self_consistency_peaks_like_direct(self, tmp_path, capsys):
        # 20 queries x 20 candidates = 400 pairs; 8 traces of ~700 characters per pair
        write_corpus_file(tmp_path / "corpus.jsonl", make_corpus(200, seed=3))
        write_queries_file(tmp_path / "queries.jsonl", make_queries(20, seed=4))
        reasoning = "Okay, sample {seed} " + "weighs the passage against the query; " * 18
        (tmp_path / "mock.json").write_text(json.dumps({
            "single_token_vocab": ["true", "false"], "default_logits": "hash",
            "default_reasoning": reasoning + "</think>",
        }))
        assert main(["index", "--corpus", str(tmp_path / "corpus.jsonl"),
                     "--out-dir", str(tmp_path / "idx")]) == 0
        assert main(["retrieve", "--index", str(tmp_path / "idx" / "bm25_index.json"),
                     "--queries", str(tmp_path / "queries.jsonl"), "--k", "20",
                     "--out-dir", str(tmp_path / "idx")]) == 0
        assert len((tmp_path / "idx" / "bm25.run").read_text().splitlines()) == 400
        peaks = {}
        for strategy, extra in (("direct", []), ("self_consistency", ["--samples", "8"])):
            out = tmp_path / strategy
            peaks[f"rerank.{strategy}"] = _traced_peak_mb([
                "rerank", "--corpus", tmp_path / "corpus.jsonl",
                "--queries", tmp_path / "queries.jsonl", "--run-in", tmp_path / "idx" / "bm25.run",
                "--strategy", strategy, "--backend", f"mock:{tmp_path / 'mock.json'}",
                "--out-dir", out, *extra,
            ])
            peaks[f"analyze.{strategy}"] = _traced_peak_mb([
                "analyze", "--scored", out / f"{strategy}_scored.jsonl",
                "--out-dir", out / "analyze",
            ])
        capsys.readouterr()
        dump = tmp_path / "self_consistency" / "self_consistency_scored.jsonl"
        assert dump.stat().st_size > 2e6  # the traces the commands must not hold
        # one pair's traces and the JSON of its line are all a stage may add over direct;
        # holding every trace to the end peaks near 3.3 MB (rerank) and 3.1 MB (analyze),
        # against about 0.37 and 0.18 MB for direct
        assert peaks["rerank.self_consistency"] < 1.1 * peaks["rerank.direct"] + 0.2, peaks
        assert peaks["analyze.self_consistency"] < 1.1 * peaks["analyze.direct"] + 0.2, peaks

    def test_analyze_keeps_a_score_a_pair(self, tmp_path, capsys):
        # 100 queries x 100 pairs of a direct dump; every pair held without its traces, to bin
        # and classify, peaked at about 267-278 B a pair. The dump reader's duplicate check keeps
        # about 160-170 B of what is left, a (query id, passage id) key a pair
        rng = random.Random(7)
        data.write_scored(str(tmp_path / "direct_scored.jsonl"), (
            ScoredPair(f"q{q:03d}", f"p{(q * 37 + r) % 5000:05d}", rng.random())
            for q in range(100) for r in range(100)), "direct")
        peak = _traced_peak_mb(["analyze", "--scored", tmp_path / "direct_scored.jsonl",
                                "--out-dir", tmp_path / "out"]) * 1e6
        capsys.readouterr()
        assert "total\t10000" in (tmp_path / "out" / "analysis.txt").read_text()
        assert peak / 10_000 <= 225, peak / 10_000


    def test_rerank_holds_compact_rows_beyond_its_inputs(self, tmp_path, capsys):
        # 40 queries x 100 candidates; a whole-run list of outcomes, a pair-keyed dict of
        # them and rows with their own id strings held about 330 B a pair beyond the inputs
        corpus, queries = make_corpus(300, seed=3), make_queries(40, seed=4)
        write_corpus_file(tmp_path / "corpus.jsonl", corpus)
        write_queries_file(tmp_path / "queries.jsonl", queries)
        rng = random.Random(5)
        (tmp_path / "first.run").write_text("".join(
            f"{q.id} Q0 {p.id} {rank} {1 - rank / 1000:.6f} bm25\n" for q in queries
            for rank, p in enumerate(rng.sample(corpus.passages, 100), start=1)))
        (tmp_path / "mock.json").write_text(json.dumps({
            "single_token_vocab": ["true", "false"], "default_logits": "hash"}))
        tracemalloc.start()
        try:
            inputs = (data.load_corpus(str(tmp_path / "corpus.jsonl")),
                      data.load_queries(str(tmp_path / "queries.jsonl")),
                      data.read_run(str(tmp_path / "first.run")))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del inputs
        peak = _traced_peak_mb([
            "rerank", "--corpus", tmp_path / "corpus.jsonl", "--queries", tmp_path / "queries.jsonl",
            "--run-in", tmp_path / "first.run", "--strategy", "direct",
            "--backend", f"mock:{tmp_path / 'mock.json'}", "--out-dir", tmp_path / "out",
        ]) * 1e6
        capsys.readouterr()
        assert (peak - held) / 4000 <= 200, (peak - held) / 4000


class TestSettingsTable:
    def test_a_setting_shared_by_commands_is_declared_alike(self):
        # main keeps one action per dest, for --config checks and resolved_config.json
        shared = {dest: by_command for dest, by_command in _declared(skip=("help",)).items()
                  if len(by_command) > 1}
        assert {"corpus", "queries", "run_in", "k", "tag", "qrels", "scored", "config",
                "out_dir"} <= set(shared)
        for dest, by_command in shared.items():
            assert len(set(by_command.values())) == 1, (dest, by_command)


class TestDependencies:
    def test_offline_rerank_runs_without_requests(self, workspace, tmp_path):
        """The package has no runtime dependencies: ``requests`` must not be needed."""
        run_path = _index_and_retrieve(workspace, tmp_path / "stage1")
        out = tmp_path / "offline"
        argv = [
            "rerank",
            "--corpus", str(workspace / "corpus.jsonl"),
            "--queries", str(workspace / "queries.jsonl"),
            "--run-in", str(run_path),
            "--strategy", "reason",
            "--backend", f"mock:{workspace / 'mock.json'}",
            "--out-dir", str(out),
        ]
        script = (
            "import sys\n"
            "sys.modules['requests'] = None  # any import of it now raises ImportError\n"
            "import reranklab\n"
            "from reranklab.cli import main\n"
            f"sys.exit(main({argv!r}))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "reason.run").exists()

    def test_every_export_resolves(self):
        import reranklab

        assert [name for name in reranklab.__all__ if not hasattr(reranklab, name)] == []
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", "from reranklab import *"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


class TestHelp:
    @pytest.mark.parametrize("command", _commands())
    def test_help_lists_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--out-dir" in out and "--config" in out

    def test_no_command_is_usage_error(self):
        assert main([]) == 1
