"""Command-line pipeline: index -> retrieve -> rerank -> eval -> analyze.

Stages hand off through files (TREC-style runs, JSONL dumps), so externally
produced artifacts can be injected at any point: a run file from another
retriever replaces the built-in first stage, a scored dump from another
scorer feeds the analysis commands.

Each setting is a flag in :func:`build_parser`, with its type, choices and
default; a setting that several commands take is declared in each of them,
alike. Every command runs the same lifecycle in :func:`main`: parse the
arguments; with ``--config``, check each file key against the flag that
declares it (any command's flag), make the file's values the command's
defaults and parse again, so flags win; then run the command inside
:func:`_staging`. A command only computes: it takes the parsed arguments
and ``stage(name, tag)``, writes each output to the temporary path that
``stage`` returns, and returns its stdout text. Once the command returns,
``resolved_config.json`` (every command's settings) is staged last and
every staged file takes its name; only then is the text printed. If
anything fails, no staged file is published, every directory made for the
run is removed and nothing is printed on stdout. The report commands
``eval``, ``analyze`` and ``dump-traces`` write only through
:func:`_report`, which stages their files under ``--out-dir`` and writes
nothing without it.

Exit codes: 0 success, 1 usage, 2 data validation or an unreadable or
unwritable path, 3 backend failure.
The only environment variable consulted is RERANKLAB_API_TOKEN, sent as a
bearer token to HTTP backends.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import itertools
import json
import math
import os
import sys
import time
from array import array
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import bm25, data, metrics, prompts
from .rerank import PairFailure, RerankStrategy, StrategyKind, iter_scores, rerank
from .backend import (
    BackendConfig,
    BackendError,
    CompletionsBackend,
    HttpCompletionsBackend,
    ReplayBackend,
    load_mock_table,
)
from .types import RunEntry, ScoredPair, ValidationError, ranked_lists

ENV_TOKEN = "RERANKLAB_API_TOKEN"
_Stage = Callable[[str, str], Path]  # stage(name, tag), see _staging


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
        if type(value) is float and not math.isfinite(value):  # NaN is not valid JSON
            raise ValidationError(f"{path}: config key {key!r} must be a finite number, "
                                  f"got {json.dumps(value)}")
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


@contextlib.contextmanager
def _staging(args: argparse.Namespace, resolved: dict):
    """``stage(name, tag)`` for the body: the path it writes ``name`` to, ``<name>.partial``.

    The first call makes the run directory: ``--out-dir`` as given, or a new
    ``runs/<tag>-<time>[-N]`` that no other run shares. Once the body
    succeeds, ``resolved_config.json`` is staged last and each staged file
    takes its name, so a file of an earlier run in ``--out-dir`` stays as it
    was until then; a name staged but not written removes the earlier file of
    that name. If anything fails, the staged files are removed and then each
    directory made for the run, deepest first, so a failed command leaves
    nothing behind and changes nothing it found.
    """
    made: list[Path] = []
    staged: dict[Path, Path] = {}

    def stage(name: str, tag: str) -> Path:
        if staged:
            out = next(iter(staged)).parent
        else:
            out = Path(args.out_dir or "runs")
            made.extend(d for d in (out, *out.parents) if not d.exists())
            if args.out_dir:
                out.mkdir(parents=True, exist_ok=True)
            else:
                stem = f"runs/{tag}-{time.strftime('%Y%m%d-%H%M%S')}"
                for n in itertools.count(1):
                    out = Path(stem if n == 1 else f"{stem}-{n}")
                    with contextlib.suppress(FileExistsError):  # made by a command this second
                        out.mkdir(parents=True)
                        break
                made.insert(0, out)
        if (out / name).is_dir():  # refused now, so that no rename fails once others are done
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out / name))
        staged[out / name] = out / f"{name}.partial"
        staged[out / name].unlink(missing_ok=True)  # one a killed run left must not be published
        return staged[out / name]

    try:
        yield stage
        if staged:
            stage("resolved_config.json", "").write_text(
                json.dumps(resolved, sort_keys=True, indent=2) + "\n", encoding="utf-8")
        for path, partial in staged.items():
            if partial.exists():
                os.replace(partial, path)
            else:
                path.unlink(missing_ok=True)
    except BaseException:
        for partial in staged.values():
            partial.unlink(missing_ok=True)
        for d in made:
            with contextlib.suppress(OSError):  # not empty: another command wrote there
                d.rmdir()
        raise


def _report(args: argparse.Namespace, stage: _Stage, files: dict[str, str]) -> None:
    """With --out-dir, stage and write each ``{name: text}`` there in order; else nothing."""
    if args.out_dir:
        for name, text in files.items():
            stage(name, name).write_text(text + "\n", encoding="utf-8")


def _analyzer(args: argparse.Namespace) -> bm25.AnalyzerConfig:
    stopwords = None
    if args.stopwords:
        path = require_path(args.stopwords, "stopwords")
        try:  # not data.iter_records: an empty file means no stopwords
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


def cmd_index(args: argparse.Namespace, stage: _Stage) -> str:
    corpus = data.load_corpus(str(require_path(args.corpus, "corpus")))
    index = bm25.build_index(corpus, _analyzer(args), bm25.Bm25Params(args.k1, args.b))
    index_path = stage("bm25_index.json", "index")
    bm25.save_index(index, str(index_path))
    return (f"indexed {index.doc_count} passages, {len(index.postings)} terms "
            f"-> {index_path.with_suffix('')}")


def _tag(args: argparse.Namespace, default: str) -> str:
    """The run's tag, refused unless it is one run-file column and one file name."""
    tag = default if args.tag is None else args.tag
    data.check_run_field("tag", tag)
    if set(tag) & {"/", os.sep, os.altsep}:  # would name a file in another directory
        raise ValidationError(f"tag must not hold a path separator, got {tag!r}")
    return tag


def cmd_retrieve(args: argparse.Namespace, stage: _Stage) -> str:
    tag = _tag(args, "bm25")
    index = bm25.load_index(str(require_path(args.index, "index")))
    queries = data.load_queries(str(require_path(args.queries, "queries")))
    k = args.k if args.k is not None else 100
    entries = [
        replace(c, tag=tag) for query in queries for c in bm25.retrieve_top_k(index, query, k)
    ]
    run_path = stage(f"{tag}.run", tag)
    data.write_run(str(run_path), entries)
    return (f"retrieved {len(entries)} candidates for {len(queries)} queries "
            f"-> {run_path.with_suffix('')}")


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


def cmd_rerank(args: argparse.Namespace, stage: _Stage) -> str:
    # an out-of-range value is refused before any input is read or request sent
    for name in ("concurrency", "samples"):
        if getattr(args, name) < 1:
            raise ValidationError(f"{name} must be >= 1, got {getattr(args, name)}")
    strategy, sampling = RerankStrategy.resolve(
        args.strategy, args.samples, args.max_passage_chars,
        args.temperature, args.top_p, args.max_reasoning_tokens,
    )
    corpus = data.load_corpus(str(require_path(args.corpus, "corpus")))
    queries = data.load_queries(str(require_path(args.queries, "queries")))
    candidates = data.read_run(str(require_path(args.run_in, "first-stage run")))
    template = prompts.load_template(args.template) if args.template else prompts.DEFAULT_TEMPLATE
    tag = _tag(args, args.strategy)
    with contextlib.closing(_build_backend(args)) as backend:
        backend.validate_decision_tokens()
        outcomes = iter_scores(
            backend, template, strategy, {q.id: q for q in queries}, corpus, candidates, sampling,
            base_seed=args.seed, concurrency=args.concurrency, allow_partial=args.allow_partial,
        )
        # read_run gives each query's rows together and the stream keeps their order, so
        # each query's outcomes arrive together: each pair goes to the dump as it is
        # scored, and only the ids and score of the query being scored are kept for rerank
        run: list[RunEntry] = []
        failures: list[PairFailure] = []

        def scored_pairs():
            for rows in ranked_lists(candidates).values():
                kept: list[ScoredPair | PairFailure] = []
                for o in itertools.islice(outcomes, len(rows)):
                    if isinstance(o, PairFailure):
                        failures.append(o)
                    else:
                        yield o
                        o = ScoredPair(o.query_id, o.passage_id, o.score)  # traces dropped
                    kept.append(o)
                run.extend(rerank(rows, kept, tag))

        with contextlib.closing(outcomes):
            data.write_scored(str(stage(f"{tag}_scored.jsonl", tag)), scored_pairs(), args.strategy)
    run_path = stage(f"{tag}.run", tag)
    # queries in id order, as one rerank of the whole run writes them
    data.write_run(str(run_path), sorted(run, key=lambda e: e.query_id))
    # staged even when empty: an earlier run's failures must not sit beside this run
    failures_path = stage(f"{tag}_failures.jsonl", tag)
    if failures:
        with open(failures_path, "w", encoding="utf-8") as fh:
            for f in failures:
                fh.write(json.dumps(asdict(f)) + "\n")
    return (f"scored {len(candidates) - len(failures)} pairs ({len(failures)} failed) "
            f"with {args.strategy} -> {run_path.with_suffix('')}")


def cmd_eval(args: argparse.Namespace, stage: _Stage) -> str:
    run_entries = data.read_run(str(require_path(args.run_in, "run")))
    judgments = data.load_qrels(str(require_path(args.qrels, "qrels")))
    k = args.k if args.k is not None else 10
    report = metrics.ndcg_at_k(run_entries, judgments, k=k, gain=args.gain)
    text = report.format()
    rows = [{"query_id": qid, f"ndcg@{k}": value} for qid, value in report.per_query.items()]
    rows.append({"mean_ndcg": report.mean, "evaluated_queries": report.evaluated,
                 "skipped_queries": report.skipped, "gain": report.gain, "k": report.k})
    _report(args, stage, {"eval.txt": text, "eval.jsonl": "\n".join(map(json.dumps, rows))})
    return text


def cmd_analyze(args: argparse.Namespace, stage: _Stage) -> str:
    scored = str(require_path(args.scored, "scored dump"))
    judgments = data.load_qrels(str(require_path(args.qrels, "qrels"))) if args.qrels else {}
    scores = array("d")
    strategy = ""

    def pairs() -> Iterator[ScoredPair]:  # one pass over the dump; each score is kept
        nonlocal strategy
        for pair, strategy in data.iter_scored(scored):
            scores.append(pair.score)
            yield pair

    # classified with or without qrels: classify checks the threshold before the dump is
    # read, since resolved_config.json must hold valid JSON
    report = metrics.classify(pairs(), judgments, score_threshold=args.score_threshold,
                              grade_rule=args.grade_rule)
    dist = metrics.bin_scores(scores)
    blocks = [
        f"strategy: {strategy}",
        dist.format(),
        f"bin counts sum {sum(dist.bin_counts)} == total {dist.total}: ok",
    ]
    machine = {"strategy": strategy, "bin_edges": metrics.BIN_EDGES, **asdict(dist)}
    if args.qrels:
        blocks.append(report.format())
        machine["classification"] = asdict(report)
    else:
        blocks.append("no qrels supplied; classification report skipped")
    text = "\n\n".join(blocks)
    _report(args, stage, {"analysis.txt": text,
                          "analysis.json": json.dumps(machine, indent=2, sort_keys=True)})
    return text


def cmd_dump_traces(args: argparse.Namespace, stage: _Stage) -> str:
    scored = str(require_path(args.scored, "scored dump"))
    corpus = data.load_corpus(str(require_path(args.corpus, "corpus")))
    queries = {q.id: q for q in data.load_queries(str(require_path(args.queries, "queries")))}
    blocks = []
    for p, strategy in data.iter_scored(scored):
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
    _report(args, stage, {"traces.txt": text})
    return text


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
        resolved = {key: getattr(args, key, a.default) for key, a in settings.items()}
        with _staging(args, resolved) as stage:
            text = args.func(args, stage)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValidationError, OSError) as exc:
        print(f"reranklab: {exc}", file=sys.stderr)
        return 2
    except BackendError as exc:
        print(f"reranklab: backend failure: {exc}", file=sys.stderr)
        return 3
    print(text)  # only once every output is in place
    return 0


if __name__ == "__main__":
    sys.exit(main())
