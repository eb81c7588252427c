"""Command-line pipeline: index -> retrieve -> rerank -> eval -> analyze.

Stages hand off through files (TREC-style runs, JSONL dumps), so externally
produced artifacts can be injected at any point: a run file from another
retriever replaces the built-in first stage, a scored dump from another
scorer feeds the analysis commands.

Each setting is declared once, as a flag in :func:`build_parser`, with its
type, choices and default. Every command runs the same lifecycle in
:func:`main`: parse the arguments; with ``--config``, check each file key
against the flag that declares it (any command's flag), make the file's
values the command's defaults and parse again, so flags win; run the
command; and write ``resolved_config.json`` (every command's settings) into
the directory the command wrote, last and only if the command succeeded. A
command only computes: it takes the parsed arguments and returns its output
directory, or ``None`` when it wrote nothing (``eval``, ``analyze`` and
``dump-traces`` without ``--out-dir``).

Exit codes: 0 success, 1 usage, 2 data validation or an unreadable or
unwritable path, 3 backend failure.
The only environment variable consulted is RERANKLAB_API_TOKEN, sent as a
bearer token to HTTP backends.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from dataclasses import asdict, replace
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
    p.add_argument("--k1", type=float, default=0.9, help="BM25 k1 (default %(default)s)")
    p.add_argument("--b", type=float, default=0.4, help="BM25 b (default %(default)s)")
    p.add_argument("--stemmer", choices=["none", "porter"], default="none",
                   help="analyzer stemmer")
    p.add_argument("--stopwords", help="file with one stopword per line")
    p.add_argument(
        "--no-lowercase", dest="no_lowercase", action="store_true",
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
        choices=[k.value for k in StrategyKind], default=StrategyKind.DIRECT.value,
        help="scoring strategy (default %(default)s)",
    )
    p.add_argument("--samples", type=int, default=8,
                   help="samples for self_consistency (default %(default)s)")
    p.add_argument(
        "--backend",
        help="backend: completions URL, mock:<table.json>, or replay:<capture.jsonl>",
    )
    p.add_argument("--model", default="", help="model name sent to the backend")
    p.add_argument(
        "--concurrency", type=int, default=1,
        help="HTTP requests in flight (default %(default)s), scheduled by twice as many workers; "
        "mock and replay backends score on the calling thread, identically at any value",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="base seed for per-sample seed derivation")
    p.add_argument(
        "--allow-partial", dest="allow_partial", action="store_true",
        help="record pair failures and fall back to first-stage order instead of aborting",
    )
    p.add_argument("--template", help="prompt template override file (JSON)")
    p.add_argument("--tag", help="run tag (default: strategy name)")
    p.add_argument("--temperature", type=float, help="sampling temperature")
    p.add_argument("--top-p", dest="top_p", type=float, help="nucleus sampling cutoff")
    p.add_argument(
        "--max-reasoning-tokens", dest="max_reasoning_tokens", type=int, default=1024,
        help="token budget for reasoning generation (default %(default)s)",
    )
    p.add_argument(
        "--max-passage-chars", dest="max_passage_chars", type=int, default=2048,
        help="passage truncation before prompting (default %(default)s; 0 disables)",
    )
    p.add_argument("--timeout", type=float, default=120.0,
                   help="per-request timeout seconds")
    p.add_argument("--max-attempts", dest="max_attempts", type=int, default=3,
                   help="retry attempts")
    p.add_argument("--capture", help="mirror HTTP requests/responses to this JSONL file")
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("eval", help="NDCG@k evaluation of a run against qrels")
    _add_common(p)
    p.add_argument("--run-in", dest="run_in", help="run file to evaluate")
    p.add_argument("--qrels", help="TREC qrels file")
    p.add_argument("--k", type=int, help="cutoff (default 10)")
    p.add_argument("--gain", choices=list(metrics.GAIN_MODES), default="exponential",
                   help="gain function")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze", help="score distribution and classification reports")
    _add_common(p)
    p.add_argument("--scored", help="scored-pair dump from rerank")
    p.add_argument("--qrels", help="qrels file (enables the classification report)")
    p.add_argument(
        "--score-threshold", dest="score_threshold", type=float, default=0.5,
        help="positive prediction above this score (default %(default)s)",
    )
    p.add_argument("--grade-rule", dest="grade_rule", choices=list(metrics.GRADE_RULES),
                   default="gt2", help="positive label rule (default %(default)s)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("dump-traces", help="human-readable reasoning trace listing")
    _add_common(p)
    p.add_argument("--scored", help="scored-pair dump from rerank")
    p.add_argument("--corpus", help="corpus file (for passage text)")
    p.add_argument("--queries", help="queries file (for query text)")
    p.set_defaults(func=cmd_dump_traces)

    return parser


def _config_defaults(path: str, settings: dict[str, argparse.Action]) -> dict:
    """The --config file's values, each checked against the flag that declares its key."""
    values = data.read_json_object(path, "config")
    unknown = set(values) - set(settings)
    if unknown:
        raise ValidationError(f"{path}: unknown config keys: {sorted(unknown)}")
    for key, value in values.items():
        action = settings[key]
        kind = bool if action.nargs == 0 else action.type or str  # store_true takes a bool
        kinds = (kind, type(None)) if action.default is None else (kind,)
        if type(value) not in kinds and not (type(value) is int and kind is float):
            names = " or ".join("null" if k is type(None) else k.__name__ for k in kinds)
            raise ValidationError(
                f"{path}: config key {key!r} must be {names}, got {json.dumps(value)}")
        if action.choices and value not in action.choices:
            raise ValidationError(f"{path}: config key {key!r} must be one of "
                                  f"{', '.join(action.choices)}, got {json.dumps(value)}")
    return values


def require_path(path: str | None, what: str) -> Path:
    if not path:
        raise ValidationError(f"{what} path is required")
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"{what} file not found: {path}")
    return p


def _run_dir(args: argparse.Namespace, tag: str) -> Path:
    """``--out-dir`` as given, or a new ``runs/<tag>-<time>[-N]`` that no other run shares."""
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return out
    stem = f"runs/{tag}-{time.strftime('%Y%m%d-%H%M%S')}"
    for n in itertools.count(1):
        out = Path(stem if n == 1 else f"{stem}-{n}")
        try:
            out.mkdir(parents=True)  # raises if a command started in the same second made it
            return out
        except FileExistsError:
            continue


def _report(args: argparse.Namespace, name: str, text: str) -> Path | None:
    """Print a text report; with --out-dir, write it there as ``name`` and return the dir."""
    print(text)
    if not args.out_dir:
        return None
    out = _run_dir(args, name)
    (out / name).write_text(text + "\n", encoding="utf-8")
    return out


def _analyzer(args: argparse.Namespace) -> bm25.AnalyzerConfig:
    stopwords = None
    if args.stopwords:
        path = require_path(args.stopwords, "stopwords")
        try:  # not data.read_records: an empty file means no stopwords
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc
        words = [w.strip() for w in text.splitlines()]
        stopwords = frozenset(w for w in words if w)
    return bm25.AnalyzerConfig(
        lowercase=not args.no_lowercase,
        stopwords=stopwords,
        stemmer=args.stemmer,
    )


def cmd_index(args: argparse.Namespace) -> Path:
    corpus = data.load_corpus(str(require_path(args.corpus, "corpus")))
    index = bm25.build_index(corpus, _analyzer(args), bm25.Bm25Params(args.k1, args.b))
    out = _run_dir(args, "index")
    index_path = out / "bm25_index.json"
    bm25.save_index(index, str(index_path))
    print(f"indexed {index.doc_count} passages, {len(index.postings)} terms -> {index_path}")
    return out


def cmd_retrieve(args: argparse.Namespace) -> Path:
    tag = args.tag or "bm25"
    data.check_run_field("tag", tag)
    index = bm25.load_index(str(require_path(args.index, "index")))
    queries = data.load_queries(str(require_path(args.queries, "queries")))
    k = args.k if args.k is not None else 100
    entries = [
        replace(c, tag=tag) for query in queries for c in bm25.retrieve_top_k(index, query, k)
    ]
    out = _run_dir(args, tag)
    run_path = out / f"{tag}.run"
    data.write_run(str(run_path), entries)
    print(f"retrieved {len(entries)} candidates for {len(queries)} queries -> {run_path}")
    return out


def _build_backend(args: argparse.Namespace) -> CompletionsBackend:
    target = args.backend
    if not target:
        raise ValidationError(
            "--backend is required: a completions URL, mock:<table.json>, "
            "or replay:<capture.jsonl>"
        )
    base = BackendConfig(
        endpoint=target,
        model=args.model,
        timeout=args.timeout,
        max_in_flight=args.concurrency,
        max_attempts=args.max_attempts,
        capture_path=args.capture,
        auth_token=os.environ.get(ENV_TOKEN),
    )
    if args.capture and target.startswith(("mock:", "replay:")):
        raise ValidationError("--capture mirrors HTTP requests; mock: and replay: send none")
    if target.startswith("mock:"):
        path = require_path(target[len("mock:"):], "mock table")
        return load_mock_table(str(path), config=base)
    if target.startswith("replay:"):
        path = require_path(target[len("replay:"):], "capture log")
        return ReplayBackend(str(path), config=base)
    return HttpCompletionsBackend(base)


def _sampling(args: argparse.Namespace, kind: StrategyKind) -> SamplingParams:
    # greedy by default; self-consistency needs sampling diversity
    sampled = kind is StrategyKind.SELF_CONSISTENCY
    return SamplingParams(
        temperature=(0.7 if sampled else 0.0) if args.temperature is None else args.temperature,
        top_p=(0.95 if sampled else 1.0) if args.top_p is None else args.top_p,
        max_tokens=args.max_reasoning_tokens,
    )


def cmd_rerank(args: argparse.Namespace) -> Path:
    # checked before any work: resolved_config.json must not record a value the run ignored
    for name in ("concurrency", "samples"):
        if getattr(args, name) < 1:
            raise ValidationError(f"{name} must be >= 1, got {getattr(args, name)}")
    corpus = data.load_corpus(str(require_path(args.corpus, "corpus")))
    queries = data.load_queries(str(require_path(args.queries, "queries")))
    candidates = data.read_run(str(require_path(args.run_in, "first-stage run")))

    kind = StrategyKind(args.strategy)
    samples = args.samples if kind is StrategyKind.SELF_CONSISTENCY else 1
    strategy = RerankStrategy(
        kind=kind, samples=samples, max_passage_chars=args.max_passage_chars
    )
    template = prompts.load_template(args.template) if args.template else prompts.DEFAULT_TEMPLATE
    tag = args.tag or kind.value
    data.check_run_field("tag", tag)
    backend = _build_backend(args)
    try:
        backend.validate_decision_tokens()
        scored, failures = score_candidates(
            backend,
            template,
            strategy,
            {q.id: q for q in queries},
            corpus,
            candidates,
            _sampling(args, kind),
            base_seed=args.seed,
            concurrency=args.concurrency,
            allow_partial=args.allow_partial,
        )
    finally:
        backend.close()
    failed = frozenset((f.query_id, f.passage_id) for f in failures)
    entries = rerank(candidates, scored, tag, failed=failed)

    out = _run_dir(args, tag)
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


def cmd_eval(args: argparse.Namespace) -> Path | None:
    run_entries = data.read_run(str(require_path(args.run_in, "run")))
    judgments = data.load_qrels(str(require_path(args.qrels, "qrels")))
    k = args.k if args.k is not None else 10
    report = metrics.ndcg_at_k(run_entries, judgments, k=k, gain=args.gain)
    out = _report(args, "eval.txt", report.format())
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


def cmd_analyze(args: argparse.Namespace) -> Path | None:
    pairs, strategy = data.read_scored(str(require_path(args.scored, "scored dump")))
    dist = metrics.bin_scores([p.score for p in pairs])
    if sum(dist.counts) != dist.total:  # bin bookkeeping must balance
        raise AssertionError("bin counts do not sum to the sample total")
    blocks = [
        f"strategy: {strategy}",
        dist.format(),
        f"bin counts sum {sum(dist.counts)} == total {dist.total}: ok",
    ]
    report = None
    if args.qrels:
        judgments = data.load_qrels(str(require_path(args.qrels, "qrels")))
        report = metrics.classify(
            pairs, judgments,
            score_threshold=args.score_threshold,
            grade_rule=args.grade_rule,
        )
        blocks.append(report.format())
    else:
        blocks.append("no qrels supplied; classification report skipped")
    out = _report(args, "analysis.txt", "\n\n".join(blocks))
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
            machine["classification"] = asdict(report)
        (out / "analysis.json").write_text(
            json.dumps(machine, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    return out


def cmd_dump_traces(args: argparse.Namespace) -> Path | None:
    pairs, strategy = data.read_scored(str(require_path(args.scored, "scored dump")))
    corpus = data.load_corpus(str(require_path(args.corpus, "corpus")))
    queries = {q.id: q for q in data.load_queries(str(require_path(args.queries, "queries")))}
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
    return _report(args, "traces.txt", ("\n" + "-" * 72 + "\n").join(blocks))


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    # every command's settings by dest; a dest that several commands share is declared alike
    settings = {a.dest: a for p in commands.choices.values() for a in p._actions
                if a.dest not in ("help", "config")}
    try:
        args = parser.parse_args(argv)
        if args.config:  # the file's values become the command's defaults, so flags win
            commands.choices[args.command].set_defaults(**_config_defaults(args.config, settings))
            args = parser.parse_args(argv)
        out = args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValidationError, OSError) as exc:
        print(f"reranklab: {exc}", file=sys.stderr)
        return 2
    except BackendError as exc:
        print(f"reranklab: backend failure: {exc}", file=sys.stderr)
        return 3
    if out is not None:  # last: a failed command leaves no resolved config behind
        resolved = {key: getattr(args, key, a.default) for key, a in settings.items()}
        (out / "resolved_config.json").write_text(
            json.dumps(resolved, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
