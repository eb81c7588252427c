"""Command-line pipeline: index -> retrieve -> rerank -> eval -> analyze.

Stages hand off through files (TREC-style runs, JSONL dumps), so externally
produced artifacts can be injected at any point: a run file from another
retriever replaces the built-in first stage, a scored dump from another
scorer feeds the analysis commands.

Exit codes: 0 success, 1 usage, 2 data validation, 3 backend failure.
The only environment variable consulted is RERANKLAB_API_TOKEN, sent as a
bearer token to HTTP backends.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from . import bm25, data, metrics, prompts
from .rerank import RerankStrategy, StrategyKind, rerank, score_candidates
from .backend import (
    BackendConfig,
    BackendError,
    CompletionsBackend,
    HttpCompletionsBackend,
    ReplayBackend,
    SamplingParams,
    load_mock_table,
)
from .types import ValidationError

ENV_TOKEN = "RERANKLAB_API_TOKEN"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(f"{self.prog}: error: {message}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--out-dir", dest="out_dir", help="run directory for outputs")


def build_parser() -> _Parser:
    parser = _Parser(prog="reranklab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("index", help="build and persist a BM25 index")
    _add_common(p)
    p.add_argument("--corpus", help="corpus file (JSONL id/text or TSV)")
    p.add_argument("--k1", type=float, help="BM25 k1 (default 0.9)")
    p.add_argument("--b", type=float, help="BM25 b (default 0.4)")
    p.add_argument("--stemmer", choices=["none", "porter"], help="analyzer stemmer")
    p.add_argument("--stopwords", help="file with one stopword per line")
    p.add_argument(
        "--no-lowercase", dest="no_lowercase", action="store_const", const=True,
        help="keep original case when tokenizing",
    )
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("retrieve", help="run first-stage retrieval to a run file")
    _add_common(p)
    p.add_argument("--index", help="persisted index file")
    p.add_argument("--queries", help="queries file (JSONL id/text or TSV)")
    p.add_argument("--k", type=int, help="candidates per query (default 100)")
    p.add_argument("--tag", help="run tag (default bm25)")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("rerank", help="score and reorder first-stage candidates")
    _add_common(p)
    p.add_argument("--corpus", help="corpus file")
    p.add_argument("--queries", help="queries file")
    p.add_argument("--run-in", dest="run_in", help="first-stage run file")
    p.add_argument(
        "--strategy",
        choices=[k.value for k in StrategyKind],
        help="scoring strategy (default direct)",
    )
    p.add_argument("--samples", type=int, help="samples for self_consistency (default 8)")
    p.add_argument(
        "--backend",
        help="backend: completions URL, mock:<table.json>, or replay:<capture.jsonl>",
    )
    p.add_argument("--model", help="model name sent to the backend")
    p.add_argument(
        "--concurrency", type=int,
        help="HTTP requests in flight (default 1); mock and replay backends score "
        "on the calling thread, with identical output at any value",
    )
    p.add_argument("--seed", type=int, help="base seed for per-sample seed derivation")
    p.add_argument(
        "--allow-partial", dest="allow_partial", action="store_const", const=True,
        help="record pair failures and fall back to first-stage order instead of aborting",
    )
    p.add_argument("--template", help="prompt template override file (JSON)")
    p.add_argument("--tag", help="run tag (default: strategy name)")
    p.add_argument("--temperature", type=float, help="sampling temperature")
    p.add_argument("--top-p", dest="top_p", type=float, help="nucleus sampling cutoff")
    p.add_argument(
        "--max-reasoning-tokens", dest="max_reasoning_tokens", type=int,
        help="token budget for reasoning generation (default 1024)",
    )
    p.add_argument(
        "--max-passage-chars", dest="max_passage_chars", type=int,
        help="passage truncation before prompting (default 2048; 0 disables)",
    )
    p.add_argument("--timeout", type=float, help="per-request timeout seconds")
    p.add_argument("--max-attempts", dest="max_attempts", type=int, help="retry attempts")
    p.add_argument("--capture", help="mirror HTTP requests/responses to this JSONL file")
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("eval", help="NDCG@k evaluation of a run against qrels")
    _add_common(p)
    p.add_argument("--run-in", dest="run_in", help="run file to evaluate")
    p.add_argument("--qrels", help="TREC qrels file")
    p.add_argument("--k", type=int, help="cutoff (default 10)")
    p.add_argument("--gain", choices=list(metrics.GAIN_MODES), help="gain function")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="score distribution and classification reports")
    _add_common(p)
    p.add_argument("--scored", help="scored-pair dump from rerank")
    p.add_argument("--qrels", help="qrels file (enables the classification report)")
    p.add_argument(
        "--score-threshold", dest="score_threshold", type=float,
        help="positive prediction above this score (default 0.5)",
    )
    p.add_argument("--grade-rule", dest="grade_rule", choices=list(metrics.GRADE_RULES),
                   help="positive label rule (default gt2)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("dump-traces", help="human-readable reasoning trace listing")
    _add_common(p)
    p.add_argument("--scored", help="scored-pair dump from rerank")
    p.add_argument("--corpus", help="corpus file (for passage text)")
    p.add_argument("--queries", help="queries file (for query text)")
    p.set_defaults(func=cmd_dump_traces)

    return parser


def _config_from_args(args: argparse.Namespace) -> data.PipelineConfig:
    file_values = data.read_json_object(args.config, "config") if args.config else {}
    cli_values = {
        k: v
        for k, v in vars(args).items()
        if k in data.PipelineConfig.field_names()
    }
    return data.PipelineConfig.from_sources(file_values, cli_values)


def _run_dir(config: data.PipelineConfig, tag: str) -> Path:
    if config.out_dir:
        out = Path(config.out_dir)
    else:
        out = Path("runs") / f"{tag}-{time.strftime('%Y%m%d-%H%M%S')}"
    out.mkdir(parents=True, exist_ok=True)
    return out


def _analyzer(config: data.PipelineConfig) -> bm25.AnalyzerConfig:
    stopwords = None
    if config.stopwords:
        path = data.require_path(config.stopwords, "stopwords")
        words = [w.strip() for w in path.read_text(encoding="utf-8").splitlines()]
        stopwords = frozenset(w for w in words if w)
    return bm25.AnalyzerConfig(
        lowercase=not config.no_lowercase,
        stopwords=stopwords,
        stemmer=config.stemmer,
    )


def cmd_index(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    corpus = data.load_corpus(str(data.require_path(config.corpus, "corpus")))
    index = bm25.build_index(corpus, _analyzer(config), bm25.Bm25Params(config.k1, config.b))
    out = _run_dir(config, "index")
    index_path = out / "bm25_index.json"
    bm25.save_index(index, str(index_path))
    config.write_resolved(str(out / "resolved_config.json"))
    print(f"indexed {index.doc_count} passages, {len(index.postings)} terms -> {index_path}")
    return 0


def cmd_retrieve(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    tag = config.tag or "bm25"
    data.check_run_field("tag", tag)
    index = bm25.load_index(str(data.require_path(config.index, "index")))
    queries = data.load_queries(str(data.require_path(config.queries, "queries")))
    k = config.k if config.k is not None else 100
    entries = [
        replace(c, tag=tag) for query in queries for c in bm25.retrieve_top_k(index, query, k)
    ]
    out = _run_dir(config, tag)
    run_path = out / f"{tag}.run"
    data.write_run(str(run_path), entries)
    config.write_resolved(str(out / "resolved_config.json"))
    print(f"retrieved {len(entries)} candidates for {len(queries)} queries -> {run_path}")
    return 0


def _build_backend(config: data.PipelineConfig, concurrency: int) -> CompletionsBackend:
    target = config.backend
    if not target:
        raise ValidationError(
            "--backend is required: a completions URL, mock:<table.json>, "
            "or replay:<capture.jsonl>"
        )
    base = BackendConfig(
        endpoint=target,
        model=config.model,
        timeout=config.timeout,
        max_in_flight=max(concurrency, 1),
        max_attempts=config.max_attempts,
        capture_path=config.capture,
        auth_token=os.environ.get(ENV_TOKEN),
    )
    if target.startswith("mock:"):
        path = data.require_path(target[len("mock:"):], "mock table")
        return load_mock_table(str(path), config=base)
    if target.startswith("replay:"):
        path = data.require_path(target[len("replay:"):], "capture log")
        return ReplayBackend(str(path), config=base)
    return HttpCompletionsBackend(base)


def _sampling(config: data.PipelineConfig, kind: StrategyKind) -> SamplingParams:
    # greedy by default; self-consistency needs sampling diversity
    if kind is StrategyKind.SELF_CONSISTENCY:
        temperature = 0.7 if config.temperature is None else config.temperature
        top_p = 0.95 if config.top_p is None else config.top_p
    else:
        temperature = 0.0 if config.temperature is None else config.temperature
        top_p = 1.0 if config.top_p is None else config.top_p
    return SamplingParams(
        temperature=temperature,
        top_p=top_p,
        max_tokens=config.max_reasoning_tokens,
    )


def cmd_rerank(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    corpus = data.load_corpus(str(data.require_path(config.corpus, "corpus")))
    queries = data.load_queries(str(data.require_path(config.queries, "queries")))
    candidates = data.read_run(str(data.require_path(config.run_in, "first-stage run")))

    kind = StrategyKind(config.strategy)
    samples = config.samples if kind is StrategyKind.SELF_CONSISTENCY else 1
    strategy = RerankStrategy(
        kind=kind, samples=samples, max_passage_chars=config.max_passage_chars
    )
    template = prompts.load_template(config.template) if config.template else prompts.DEFAULT_TEMPLATE
    tag = config.tag or kind.value
    data.check_run_field("tag", tag)
    backend = _build_backend(config, config.concurrency)
    try:
        backend.validate_decision_tokens()
        scored, failures = score_candidates(
            backend,
            template,
            strategy,
            {q.id: q for q in queries},
            corpus,
            candidates,
            _sampling(config, kind),
            base_seed=config.seed,
            concurrency=config.concurrency,
            allow_partial=config.allow_partial,
        )
    finally:
        backend.close()
    failed = frozenset((f.query_id, f.passage_id) for f in failures)
    entries = rerank(candidates, scored, tag, failed=failed)

    out = _run_dir(config, tag)
    run_path = out / f"{tag}.run"
    data.write_run(str(run_path), entries)
    dump_path = out / f"{tag}_scored.jsonl"
    data.write_scored(str(dump_path), scored, kind.value)
    if failures:
        with open(out / f"{tag}_failures.jsonl", "w", encoding="utf-8") as fh:
            for f in failures:
                fh.write(
                    json.dumps(
                        {"query_id": f.query_id, "passage_id": f.passage_id, "error": f.error}
                    )
                    + "\n"
                )
    config.write_resolved(str(out / "resolved_config.json"))
    print(
        f"scored {len(scored)} pairs ({len(failures)} failed) with {kind.value} "
        f"-> {run_path}"
    )
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    run_entries = data.read_run(str(data.require_path(config.run_in, "run")))
    judgments = data.load_qrels(str(data.require_path(config.qrels, "qrels")))
    k = config.k if config.k is not None else 10
    report = metrics.ndcg_at_k(run_entries, judgments, k=k, gain=config.gain)
    text = report.format()
    print(text)
    if config.out_dir:
        out = _run_dir(config, "eval")
        (out / "eval.txt").write_text(text + "\n", encoding="utf-8")
        with open(out / "eval.jsonl", "w", encoding="utf-8") as fh:
            for qid, value in report.per_query.items():
                fh.write(json.dumps({"query_id": qid, f"ndcg@{k}": value}) + "\n")
            fh.write(
                json.dumps(
                    {
                        "mean_ndcg": report.mean,
                        "evaluated_queries": report.evaluated,
                        "skipped_queries": list(report.skipped),
                        "gain": report.gain,
                        "k": report.k,
                    }
                )
                + "\n"
            )
        config.write_resolved(str(out / "resolved_config.json"))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    pairs, strategy = data.read_scored(str(data.require_path(config.scored, "scored dump")))
    dist = metrics.bin_scores([p.score for p in pairs])
    if sum(dist.counts) != dist.total:  # bin bookkeeping must balance
        raise AssertionError("bin counts do not sum to the sample total")
    blocks = [
        f"strategy: {strategy}",
        dist.format(),
        f"bin counts sum {sum(dist.counts)} == total {dist.total}: ok",
    ]
    report = None
    if config.qrels:
        judgments = data.load_qrels(str(data.require_path(config.qrels, "qrels")))
        report = metrics.classify(
            pairs, judgments,
            score_threshold=config.score_threshold,
            grade_rule=config.grade_rule,
        )
        blocks.append(report.format())
    else:
        blocks.append("no qrels supplied; classification report skipped")
    text = "\n\n".join(blocks)
    print(text)
    if config.out_dir:
        out = _run_dir(config, "analyze")
        (out / "analysis.txt").write_text(text + "\n", encoding="utf-8")
        machine = {
            "strategy": strategy,
            "bin_edges": list(metrics.BIN_EDGES),
            "bin_counts": list(dist.counts),
            "total": dist.total,
            "low_fraction": dist.low_fraction,
            "partial_fraction": dist.partial_fraction,
            "high_fraction": dist.high_fraction,
        }
        if report is not None:
            machine["classification"] = {
                "tp": report.tp, "fp": report.fp, "tn": report.tn, "fn": report.fn,
                "precision": report.precision, "recall": report.recall, "f1": report.f1,
                "score_threshold": report.score_threshold,
                "grade_rule": report.grade_rule,
                "unjudged": report.unjudged,
            }
        (out / "analysis.json").write_text(
            json.dumps(machine, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        config.write_resolved(str(out / "resolved_config.json"))
    return 0


def cmd_dump_traces(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    pairs, strategy = data.read_scored(str(data.require_path(config.scored, "scored dump")))
    corpus = data.load_corpus(str(data.require_path(config.corpus, "corpus")))
    queries = {q.id: q for q in data.load_queries(str(data.require_path(config.queries, "queries")))}
    blocks = []
    for p in pairs:
        query_text = queries[p.query_id].text if p.query_id in queries else "(unknown query)"
        passage_text = (
            corpus.passage(p.passage_id).text if p.passage_id in corpus else "(unknown passage)"
        )
        lines = [
            f"query      [{p.query_id}]: {query_text}",
            f"passage    [{p.passage_id}]: {passage_text}",
            f"strategy   : {strategy}",
            f"relevance  : {p.score:.6f}",
        ]
        if p.per_sample_scores:
            lines.append(
                "per-sample : " + ", ".join(f"{s:.6f}" for s in p.per_sample_scores)
            )
        if p.traces:
            for i, t in enumerate(p.traces):
                label = f"reasoning {i + 1}" if len(p.traces) > 1 else "reasoning"
                suffix = "" if t.terminated else "  [truncated: token budget]"
                lines.append(f"{label}  ({t.token_count} tokens){suffix}:")
                lines.append(t.text.rstrip("\n"))
        else:
            lines.append("reasoning  : (none)")
        blocks.append("\n".join(lines))
    text = ("\n" + "-" * 72 + "\n").join(blocks)
    print(text)
    if config.out_dir:
        out = _run_dir(config, "traces")
        (out / "traces.txt").write_text(text + "\n", encoding="utf-8")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValidationError, FileNotFoundError) as exc:
        print(f"reranklab: {exc}", file=sys.stderr)
        return 2
    except BackendError as exc:
        print(f"reranklab: backend failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
