"""The CLI loop's artifacts and the requests it sends, byte for byte, on a fixed tiny world.

A change meant to keep every result (a refactor, a faster path) must leave
each digest below as it is. When a change is meant to alter an artifact or
a request, record the new digests and say which files changed and why.
"""

import hashlib
import json

from reranklab.cli import main

from conftest import (
    make_corpus, make_queries, write_corpus_file, write_qrels_file, write_queries_file,
)

STRATEGIES = ("direct", "forced_no_reason", "reason", "self_consistency")

# sha256 of every file the loop writes, and of its stdout, by path under the working directory
DIGESTS = {
    "direct/analyze/analysis.json": "ded32ff07d2718432ad91df8a85ab218eaa2b458b9f7bce0523404bc8749ca03",
    "direct/analyze/analysis.txt": "fb03a476eedf4317a9534c8c205cefbba8d1527be8f86fd21be517ef8074bc3e",
    "direct/analyze/resolved_config.json": "5db2a03fb3021169cef76cf58aa09bded3c8a65a9828a88e98c435ee0dfff8f1",
    "direct/direct.run": "6e27d223bed3b32836da9b7828333c0d11185c0a8675cda94c7d43ac5aecb06f",
    "direct/direct_scored.jsonl": "11d474fd69cf5c619de819c72314bd4c9a12239d7334b0d33b4cf42f1e7e436f",
    "direct/eval/eval.jsonl": "4e8731d07170d5513c0286d2cafb1de0c1f886d82c353eb06b2cd20048f17c22",
    "direct/eval/eval.txt": "b7973c1af0f728139b6a99a899d68b8cf306968eaf890e7ebc04f85c4368919d",
    "direct/eval/resolved_config.json": "9f71390d9374eea6149a4095a2546bbafe3946209debe0aca88c04761fbdc3ec",
    "direct/resolved_config.json": "f2e732b7d6e5b66f7492c04e3f07bcfc09adabe28ae2ed9b75d4f66149716301",
    "direct/traces/resolved_config.json": "f4108bdd59abf39ff1eae5a8f38ef0de6ac4e38e04699d6c3e13ae7965e00680",
    "direct/traces/traces.txt": "d13351ab3d1e1ec4e159a095c0310547e1a5014d15d15dee6dc48cf7607229a2",
    "first/bm25.run": "59663cd393fb81115030a0b8b0ba96e0e61d90df9588c072c23982cef81e0778",
    "first/resolved_config.json": "7fd0fce33de73219b29f795518fc493807573e45dbad0cf6ea84a0ca9a2df756",
    "forced_no_reason/analyze/analysis.json": "5bb6a5150b5830f93aa0445ba62c2200ef6d1a6b5aff21a67212e0766569809e",
    "forced_no_reason/analyze/analysis.txt": "b6ade7f567dac9df3e3c4a31252eb51f7c86cf04efc06dd7e15770bcb1534046",
    "forced_no_reason/analyze/resolved_config.json": "eccfec8521afc41044374e0d1b46deb50059fac408719f6a5112f9944248d17b",
    "forced_no_reason/eval/eval.jsonl": "c2d3a9299d356182e7cf0ae568a7cc807bd16bdc35ed24ce498dc0fb0094a9ec",
    "forced_no_reason/eval/eval.txt": "0a8486f3f55a19b5bbafc6f77c67d92ec538ba6aca6fe23585cb6c86d14912ba",
    "forced_no_reason/eval/resolved_config.json": "cb69677e70a0a94df2dbf4fd61e4a7929b0d52fd548f657ed6c919415cb60ec0",
    "forced_no_reason/forced_no_reason.run": "f34a56f19c4bf6e7a6bcc8bacdf0b63de7e099950062e8c62821f14c60c0f397",
    "forced_no_reason/forced_no_reason_scored.jsonl": "bb1ced43a6914ce8457a3e13a661a8e0abe5c9330ca69fb42c9eab5dbf8a8564",
    "forced_no_reason/resolved_config.json": "b4eb1ef873d597d9d854e8ef8d90ca65b90657aaf3a72054d273e391a0d9ba52",
    "forced_no_reason/traces/resolved_config.json": "b0893da56b72356ff96a6cab424b6867f4bfed988f459576d36aabb623deb7ee",
    "forced_no_reason/traces/traces.txt": "8e6d8d60c3ad8cc40b564e56fd3edd30bf37175106b9cb78f724de088c9e6733",
    "index/bm25_index.json": "372e33df3e3c74403903ef6a4a303c92375de8f96b7444bac08a2ffe32ff3943",
    "index/resolved_config.json": "d98f55885700f458486d43d6aea0a191a509ef79d1d3717866a2f82df137e338",
    "reason/analyze/analysis.json": "77ecee3fc096ae462aae06e776d921fab9d5b51ac0cbed9bb68315e2b30fedd0",
    "reason/analyze/analysis.txt": "ac34c42092d15129539d934863c3a3e6ec2a5a4cb59b74d1e065c07c145d66de",
    "reason/analyze/resolved_config.json": "f1a3e5a04031963548a50235d5d4b1f659323f038581d226f0df51956f5fa8f2",
    "reason/eval/eval.jsonl": "6577afeffa21ae5300a755390707db77bbbca68e07ff82ef316d545742a393c1",
    "reason/eval/eval.txt": "b8798e762612d5f633ce1d12ddb85cf4cb990f1a65cbbe967049a911f6fb1255",
    "reason/eval/resolved_config.json": "10ad3e8ff88a653050462161ff880cec15691e8a9e7cb51fadcc183da97b012d",
    "reason/reason.run": "e7b72d7c9eb14c0a19d7721773f820e1128cad6387cef0f050b56e5e220c993f",
    "reason/reason_scored.jsonl": "ade960892aec8e979971919f9020c951acb0ec67fb9bb082613f911f9c5dd3f9",
    "reason/resolved_config.json": "3bd9457fa08ea17304be1a8f9400c812af2a6b157b7ee42a02f2cdce1137de38",
    "reason/traces/resolved_config.json": "3a621d576639ea161b778c59896f51407e6ecad3c1466781cc42d4a4d002b272",
    "reason/traces/traces.txt": "d32fb78c33063ae9e74e85e6f1c298f4b674af0f7e3e7beb898f8c2f93fbfc81",
    "self_consistency/analyze/analysis.json": "a2ef9be77cc5e5ce26f07899469a8d8a95bf9c7a82bd91fa744daee3d83cc2df",
    "self_consistency/analyze/analysis.txt": "4b38e73f82033763f3f15a40da565893cde611eddd3d33243c8b9fad282c8134",
    "self_consistency/analyze/resolved_config.json": "4cea6e0f52119b56e6be5db944733090c27e27404659c0cea6922e33d985fe64",
    "self_consistency/eval/eval.jsonl": "3a417c9574faf4dc88e13397dd05cc4f02e755370af1bdc0cb6ad7a6b4f874bc",
    "self_consistency/eval/eval.txt": "71b641d142cdcc83104c66fa520409adee23be8fc82a7f19abce548ac92ff381",
    "self_consistency/eval/resolved_config.json": "140f0b4e1d9a77787db0d0777c27575846414abbb3519697794d6287b4fa7803",
    "self_consistency/resolved_config.json": "c242be825bd234161c213c3753c317de284d647a55ccee14581a20d7c8110328",
    "self_consistency/self_consistency.run": "652cab31da51033fb88434265c423d9f8e9d9c7418372aa2f36ca5c5e001408b",
    "self_consistency/self_consistency_scored.jsonl": "9586de41e8f080ae3eb3edf226e4717ca0d237d51a0e3645000087053c372d47",
    "self_consistency/traces/resolved_config.json": "7deaf5b19614994c3bd68b08f63b7b2477e02070f1961c7ac28c543f99c29176",
    "self_consistency/traces/traces.txt": "097b0685e6c81080e8cbccdec3449c56d0e45fcdadc4fa3f0d50bcdf1424a6ee",
    "stdout": "1870d5adf5d29945cf78f33f1dfa7b36b88a53262d9c700e8de1afb0802a2b6f",
}


def _steps() -> list[list[str]]:
    steps = [
        ["index", "--corpus", "corpus.jsonl", "--stemmer", "porter", "--out-dir", "index"],
        ["retrieve", "--index", "index/bm25_index.json", "--queries", "queries.jsonl",
         "--k", "8", "--out-dir", "first"],
    ]
    for s in STRATEGIES:
        steps += [
            ["rerank", "--corpus", "corpus.jsonl", "--queries", "queries.jsonl",
             "--run-in", "first/bm25.run", "--strategy", s, "--samples", "3",
             "--backend", "mock:mock.json", "--out-dir", s],
            ["eval", "--run-in", f"{s}/{s}.run", "--qrels", "qrels.txt",
             "--out-dir", f"{s}/eval"],
            ["analyze", "--scored", f"{s}/{s}_scored.jsonl", "--qrels", "qrels.txt",
             "--out-dir", f"{s}/analyze"],
            ["dump-traces", "--scored", f"{s}/{s}_scored.jsonl", "--corpus", "corpus.jsonl",
             "--queries", "queries.jsonl", "--out-dir", f"{s}/traces"],
        ]
    return steps


def test_cli_loop_artifacts_keep_their_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # relative paths, so resolved_config.json is stable
    corpus = make_corpus(40, seed=3)
    queries = make_queries(5, seed=13)
    write_corpus_file("corpus.jsonl", corpus)
    write_queries_file("queries.jsonl", queries)
    write_qrels_file("qrels.txt", {q.id: {p.id: (i * 3 + j) % 4
                                          for j, p in enumerate(corpus.passages[:16])}
                                   for i, q in enumerate(queries)})
    (tmp_path / "mock.json").write_text(json.dumps({
        "single_token_vocab": ["true", "false"],
        "default_logits": "hash",
        "default_reasoning": "Sample {seed} weighs the passage. Done.</think>",
    }))
    inputs = {p.name for p in tmp_path.iterdir()}
    for argv in _steps():
        assert main(argv) == 0, argv
    digests = {str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.rglob("*"))
               if p.is_file() and p.name not in inputs}
    digests["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == DIGESTS


# sha256 of each strategy's captured request objects, as sorted canonical JSON lines
REQUEST_DIGESTS = {
    "direct": "152a16d2fd099489748d033030ba37a4be96ccae72ab08c73df3ae0889ec30c9",
    "forced_no_reason": "b4ad415964abf155f8c3047576ac203728f4873cba5d43c5688f27e74484d23b",
    "reason": "51ae350b4a47b6a089ad160df34aac3fbed39469535262db922c3165a17941a3",
    "self_consistency": "0b04a72b47b2f9ac901c975cc250b01c275c30ebcf3ec1bf01279f8b22dd402b",
}


def test_wire_requests_keep_their_digests(tmp_path, monkeypatch, stub_server):
    url, _ = stub_server
    monkeypatch.chdir(tmp_path)
    corpus = make_corpus(6, seed=3)
    write_corpus_file("corpus.jsonl", corpus)
    write_queries_file("queries.jsonl", make_queries(2, seed=13))
    (tmp_path / "first.run").write_text("".join(
        f"q{q:02d} Q0 {p.id} {rank} {1 - rank / 10:.6f} bm25\n"
        for q in range(2) for rank, p in enumerate(corpus.passages[3 * q:3 * q + 3], start=1)))
    digests = {}
    for s in STRATEGIES:
        argv = ["rerank", "--corpus", "corpus.jsonl", "--queries", "queries.jsonl",
                "--run-in", "first.run", "--strategy", s, "--samples", "2",
                "--concurrency", "2", "--backend", url, "--capture", f"{s}.capture",
                "--out-dir", s]
        assert main(argv) == 0, argv
        # workers append in completion order, so the requests are compared in sorted order
        lines = sorted(json.dumps(json.loads(line)["request"], sort_keys=True)
                       for line in (tmp_path / f"{s}.capture").read_text().splitlines())
        digests[s] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digests == REQUEST_DIGESTS
