"""Command-line pipeline: index -> retrieve -> rerank -> eval -> analyze.

Stages hand off through files (TREC-style runs, JSONL dumps), so externally
produced artifacts can be injected at any point: a run file from another
retriever replaces the built-in first stage, a scored dump from another
scorer feeds the analysis commands.

Every command runs the same lifecycle in :func:`main`: parse the arguments,
resolve one :class:`PipelineConfig` (config file, then flags), run the
command, and write ``resolved_config.json`` into the directory the command
wrote, last and only if the command succeeded. A command only computes: it
takes the config and returns its output directory, or ``None`` when it
wrote nothing (``eval``, ``analyze`` and ``dump-traces`` without
``--out-dir``).

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
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Sequence, get_args, get_type_hints

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


@dataclass
class PipelineConfig:
    """Resolved settings for a pipeline run; file values then CLI overrides.

    The config file is a JSON object of these fields, each value of its
    field's type. :func:`main` writes the resolved configuration beside a
    command's outputs so a run can be reproduced from the artifacts alone.
    """

    corpus: str | None = None
    queries: str | None = None
    qrels: str | None = None
    run_in: str | None = None
    index: str | None = None
    template: str | None = None
    out_dir: str | None = None
    scored: str | None = None
    backend: str | None = None
    model: str = ""
    strategy: str = "direct"
    samples: int = 8
    k: int | None = None
    gain: str = "exponential"
    grade_rule: str = "gt2"
    score_threshold: float = 0.5
    concurrency: int = 1
    seed: int = 0
    allow_partial: bool = False
    tag: str | None = None
    k1: float = 0.9
    b: float = 0.4
    stemmer: str = "none"
    stopwords: str | None = None
    no_lowercase: bool = False
    temperature: float | None = None
    top_p: float | None = None
    max_reasoning_tokens: int = 1024
    max_passage_chars: int = 2048
    timeout: float = 120.0
    max_attempts: int = 3
    capture: str | None = None

    @classmethod
    def field_names(cls) -> set[str]:
        return {f.name for f in fields(cls)}

    @classmethod
    def from_sources(cls, file_values: dict, cli_values: dict) -> "PipelineConfig":
        unknown = set(file_values) - cls.field_names()
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        hints = get_type_hints(cls)
        for key, value in file_values.items():
            kinds = get_args(hints[key]) or (hints[key],)  # int | None: (int, NoneType)
            if type(value) not in kinds and not (type(value) is int and float in kinds):
                names = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
                raise ValidationError(f"config key {key!r} must be {names}, got {json.dumps(value)}")
        merged = dict(file_values)
        merged.update({k: v for k, v in cli_values.items() if v is not None})
        return cls(**{k: v for k, v in merged.items() if k in cls.field_names()})


def require_path(path: str | None, what: str) -> Path:
    if not path:
        raise ValidationError(f"{what} path is required")
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"{what} file not found: {path}")
    return p


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    file_values = data.read_json_object(args.config, "config") if args.config else {}
    cli_values = {
        k: v
        for k, v in vars(args).items()
        if k in PipelineConfig.field_names()
    }
    try:
        return PipelineConfig.from_sources(file_values, cli_values)
    except ValidationError as exc:  # only the file's keys and values are checked there
        raise ValidationError(f"{args.config}: {exc}") from None


def _run_dir(config: PipelineConfig, tag: str) -> Path:
    if config.out_dir:
        out = Path(config.out_dir)
    else:
        out = Path("runs") / f"{tag}-{time.strftime('%Y%m%d-%H%M%S')}"
    out.mkdir(parents=True, exist_ok=True)
    return out


def _report(config: PipelineConfig, name: str, text: str) -> Path | None:
    """Print a text report; with --out-dir, write it there as ``name`` and return the dir."""
    print(text)
    if not config.out_dir:
        return None
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text + "\n", encoding="utf-8")
    return out


def _analyzer(config: PipelineConfig) -> bm25.AnalyzerConfig:
    stopwords = None
    if config.stopwords:
        path = require_path(config.stopwords, "stopwords")
        try:  # not data.read_records: an empty file means no stopwords
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc
        words = [w.strip() for w in text.splitlines()]
        stopwords = frozenset(w for w in words if w)
    return bm25.AnalyzerConfig(
        lowercase=not config.no_lowercase,
        stopwords=stopwords,
        stemmer=config.stemmer,
    )


def cmd_index(config: PipelineConfig) -> Path:
    corpus = data.load_corpus(str(require_path(config.corpus, "corpus")))
    index = bm25.build_index(corpus, _analyzer(config), bm25.Bm25Params(config.k1, config.b))
    out = _run_dir(config, "index")
    index_path = out / "bm25_index.json"
    bm25.save_index(index, str(index_path))
    print(f"indexed {index.doc_count} passages, {len(index.postings)} terms -> {index_path}")
    return out


def cmd_retrieve(config: PipelineConfig) -> Path:
    tag = config.tag or "bm25"
    data.check_run_field("tag", tag)
    index = bm25.load_index(str(require_path(config.index, "index")))
    queries = data.load_queries(str(require_path(config.queries, "queries")))
    k = config.k if config.k is not None else 100
    entries = [
        replace(c, tag=tag) for query in queries for c in bm25.retrieve_top_k(index, query, k)
    ]
    out = _run_dir(config, tag)
    run_path = out / f"{tag}.run"
    data.write_run(str(run_path), entries)
    print(f"retrieved {len(entries)} candidates for {len(queries)} queries -> {run_path}")
    return out


def _build_backend(config: PipelineConfig) -> CompletionsBackend:
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
        max_in_flight=config.concurrency,
        max_attempts=config.max_attempts,
        capture_path=config.capture,
        auth_token=os.environ.get(ENV_TOKEN),
    )
    if config.capture and target.startswith(("mock:", "replay:")):
        raise ValidationError("--capture mirrors HTTP requests; mock: and replay: send none")
    if target.startswith("mock:"):
        path = require_path(target[len("mock:"):], "mock table")
        return load_mock_table(str(path), config=base)
    if target.startswith("replay:"):
        path = require_path(target[len("replay:"):], "capture log")
        return ReplayBackend(str(path), config=base)
    return HttpCompletionsBackend(base)


def _sampling(config: PipelineConfig, kind: StrategyKind) -> SamplingParams:
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


def cmd_rerank(config: PipelineConfig) -> Path:
    # checked before any work: resolved_config.json must not record a value the run ignored
    for name in ("concurrency", "samples"):
        if getattr(config, name) < 1:
            raise ValidationError(f"{name} must be >= 1, got {getattr(config, name)}")
    corpus = data.load_corpus(str(require_path(config.corpus, "corpus")))
    queries = data.load_queries(str(require_path(config.queries, "queries")))
    candidates = data.read_run(str(require_path(config.run_in, "first-stage run")))

    kind = StrategyKind(config.strategy)
    samples = config.samples if kind is StrategyKind.SELF_CONSISTENCY else 1
    strategy = RerankStrategy(
        kind=kind, samples=samples, max_passage_chars=config.max_passage_chars
    )
    template = prompts.load_template(config.template) if config.template else prompts.DEFAULT_TEMPLATE
    tag = config.tag or kind.value
    data.check_run_field("tag", tag)
    backend = _build_backend(config)
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
                fh.write(json.dumps(asdict(f)) + "\n")
    print(
        f"scored {len(scored)} pairs ({len(failures)} failed) with {kind.value} "
        f"-> {run_path}"
    )
    return out


def cmd_eval(config: PipelineConfig) -> Path | None:
    run_entries = data.read_run(str(require_path(config.run_in, "run")))
    judgments = data.load_qrels(str(require_path(config.qrels, "qrels")))
    k = config.k if config.k is not None else 10
    report = metrics.ndcg_at_k(run_entries, judgments, k=k, gain=config.gain)
    out = _report(config, "eval.txt", report.format())
    if out:
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
    return out


def cmd_analyze(config: PipelineConfig) -> Path | None:
    pairs, strategy = data.read_scored(str(require_path(config.scored, "scored dump")))
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
        judgments = data.load_qrels(str(require_path(config.qrels, "qrels")))
        report = metrics.classify(
            pairs, judgments,
            score_threshold=config.score_threshold,
            grade_rule=config.grade_rule,
        )
        blocks.append(report.format())
    else:
        blocks.append("no qrels supplied; classification report skipped")
    out = _report(config, "analysis.txt", "\n\n".join(blocks))
    if out:
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
    return out


def cmd_dump_traces(config: PipelineConfig) -> Path | None:
    pairs, strategy = data.read_scored(str(require_path(config.scored, "scored dump")))
    corpus = data.load_corpus(str(require_path(config.corpus, "corpus")))
    queries = {q.id: q for q in data.load_queries(str(require_path(config.queries, "queries")))}
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
    return _report(config, "traces.txt", ("\n" + "-" * 72 + "\n").join(blocks))


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = _config_from_args(args)
        out = args.func(config)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValidationError, FileNotFoundError) as exc:
        print(f"reranklab: {exc}", file=sys.stderr)
        return 2
    except BackendError as exc:
        print(f"reranklab: backend failure: {exc}", file=sys.stderr)
        return 3
    if out is not None:  # last: a failed command leaves no resolved config behind
        (out / "resolved_config.json").write_text(
            json.dumps(asdict(config), sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
