"""Command-line interface: private release and query serving.

Subcommands share one ``main``:

* ``release`` — the release pipeline, optionally writing the marginals as
  CSVs and persisting the result into a
  :class:`~repro.serving.store.ReleaseStore`; the classic flag-only form
  (no subcommand) is an alias of it::

      python -m repro release --input survey.csv --k 2 --epsilon 0.5 \
          --out store/
      python -m repro --input survey.csv --k 2 --strategy F --output released/

* ``query`` — answer marginal / point / slice queries from a store, with
  per-cell error bars, at zero additional privacy cost::

      python -m repro query --store store/ --attributes region income
      python -m repro query --store store/ --attributes region \
          --where smoker=yes

* ``stats`` — validate and summarise a trace written by
  ``release --trace=json --trace-out trace.json``, or health-check a release
  store's stored vectors against their pinned digests::

      python -m repro stats trace.json
      python -m repro stats --store store/

* ``serve`` — expose a store over HTTP (:mod:`repro.net`): deadline-aware,
  load-shedding query serving with graceful SIGTERM drain::

      python -m repro serve --store store/ --port 8080

Release commands accept ``--checkpoint DIR`` (and ``--resume``) to stage each
measured batch crash-safely; a release killed mid-measurement resumes from
the staged batches and produces output bitwise identical to an uninterrupted
run with the same seed.

Release commands accept ``--trace[=summary|json|logfmt]`` to run under the
observability recorder (:mod:`repro.obs`) and emit the spans, metrics and
privacy-budget ledger of the release; tracing never changes the released
values (seeded releases are bitwise identical with tracing on or off).

The CLI is a thin wrapper over :func:`repro.core.release_marginals` and
:class:`~repro.serving.service.QueryService`; programmatic use should go
through the API.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core.engine import MarginalReleaseEngine
from repro.core.result import ReleaseResult
from repro.data.loader import load_csv
from repro.domain.dataset import Dataset
from repro.domain.schema import Schema
from repro.exceptions import ReproError
from repro.mechanisms.privacy import PrivacyBudget
from repro.obs import (
    summarise,
    to_json,
    to_logfmt,
    tracing,
    validate_payload,
)
from repro.queries.workload import (
    MarginalWorkload,
    all_k_way,
    anchored_workload,
    star_workload,
)
from repro.recovery.nonneg import project_nonnegative, round_to_integers
from repro.serving.service import QueryService
from repro.serving.store import ReleaseStore
from repro.utils.bits import bit_indices


def build_release_parser() -> argparse.ArgumentParser:
    """Parser of the ``release`` subcommand (and of the flag-only form).

    Abbreviations are disabled so that e.g. a truncated ``--out`` cannot
    silently match ``--output`` and write CSV files where a store was
    expected.
    """
    parser = argparse.ArgumentParser(
        prog="repro release",
        description="Release marginals under differential privacy, optionally "
        "persisting them into a queryable release store.",
        allow_abbrev=False,
    )
    parser.add_argument("--input", required=True, help="path to the input CSV file")
    parser.add_argument(
        "--columns",
        nargs="+",
        default=None,
        help="columns to use (default: every column in the file)",
    )
    parser.add_argument(
        "--no-header",
        action="store_true",
        help="treat the first row as data (columns are then column_0, column_1, ...)",
    )
    parser.add_argument("--k", type=int, default=2, help="marginal order to release (default 2)")
    parser.add_argument(
        "--star",
        action="store_true",
        help="additionally release half of the (k+1)-way marginals (the paper's Q*_k)",
    )
    parser.add_argument(
        "--anchor",
        default=None,
        help="additionally release every (k+1)-way marginal containing this attribute (Q^a_k)",
    )
    parser.add_argument("--epsilon", type=float, default=1.0, help="privacy budget epsilon")
    parser.add_argument(
        "--delta",
        type=float,
        default=None,
        help="delta for (epsilon, delta)-differential privacy (default: pure epsilon-DP)",
    )
    parser.add_argument(
        "--strategy",
        default="F",
        choices=["I", "Q", "F", "C"],
        help="strategy matrix: I base counts, Q marginals, F Fourier, C clustering",
    )
    parser.add_argument(
        "--uniform",
        action="store_true",
        help="use classic uniform noise instead of the optimal non-uniform budgeting",
    )
    parser.add_argument(
        "--backend",
        default="auto",
        choices=["auto", "dense", "record"],
        help="count backend: dense 2**d vector, record-native arrays, or auto "
        "(dense for small domains, record-native for wide schemas)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="hash-shard the record-native backend into this many partitions "
        "(marginals are computed per shard in parallel and summed; results "
        "are bitwise identical for any shard count; default: auto-shard "
        "large datasets on multi-core machines)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker pool size for sharded measurement "
        "(default: min(shards, cores))",
    )
    parser.add_argument(
        "--memory-budget",
        default=None,
        metavar="BYTES",
        help="stream the input CSV under this ingest memory budget (e.g. 256M, "
        "1GiB, or plain bytes): rows are deduplicated incrementally and "
        "compacted runs spill to disk instead of growing the buffer, so "
        "files far larger than memory ingest flat; released values are "
        "bitwise identical to the in-memory pipeline (record backend)",
    )
    parser.add_argument(
        "--no-consistency",
        action="store_true",
        help="skip the consistency projection (answers may contradict each other)",
    )
    parser.add_argument(
        "--nonnegative",
        action="store_true",
        help="clip negative cells and round to integers before writing",
    )
    parser.add_argument("--seed", type=int, default=None, help="random seed for reproducibility")
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="stage each measured batch into DIR (crash-safe, atomic-rename "
        "writes) so an interrupted release can be resumed; only the marginal "
        "measurement kernel (strategies Q/I/C) is checkpointable",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay the batches already staged in --checkpoint and measure "
        "only the missing ones; the resumed release is bitwise identical to "
        "an uninterrupted run with the same seed",
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the execution plan (stages, batches, per-group expected variance) "
        "instead of performing the release",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="summary",
        default=None,
        choices=["summary", "json", "logfmt"],
        help="run the release under the observability recorder and emit the "
        "trace (spans, metrics, privacy-budget ledger) in the chosen format "
        "(bare --trace prints the human summary); released values are "
        "bitwise unchanged",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write the trace to FILE instead of stdout (requires --trace)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="directory for the released marginal CSVs (default: print a summary only)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="release-store directory to persist the release into (created if missing)",
    )
    parser.add_argument(
        "--release-id",
        default=None,
        help="id to store the release under (default: an increasing release-NNNN)",
    )
    parser.add_argument(
        "--overwrite",
        action="store_true",
        help="replace an existing release with the same id",
    )
    return parser


def build_query_parser() -> argparse.ArgumentParser:
    """Parser of the ``query`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro query",
        description="Answer marginal, point and slice queries from a release store "
        "(pure post-processing: no additional privacy budget is consumed).",
        allow_abbrev=False,
    )
    parser.add_argument("--store", required=True, help="release-store directory")
    parser.add_argument(
        "--release",
        default=None,
        help="release id to query (default: the newest release covering the query)",
    )
    parser.add_argument(
        "--attributes",
        nargs="*",
        default=[],
        help="attributes of the queried marginal (empty plus --where: a point/slice query; "
        "empty alone: the total count)",
    )
    parser.add_argument(
        "--where",
        action="append",
        default=[],
        metavar="ATTR=VALUE",
        help="fix an attribute to a value (label or integer code); repeatable",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the answer as JSON instead of a table",
    )
    parser.add_argument(
        "--batch",
        default=None,
        metavar="FILE",
        help="answer a JSON-lines file of queries through the grouped batch "
        "path instead: each line is an object with optional 'attributes', "
        "'mask', 'where' and 'release' keys (as in the HTTP API); answers are "
        "printed as JSON lines (request order) and a timing summary goes to "
        "stderr",
    )
    return parser


def build_stats_parser() -> argparse.ArgumentParser:
    """Parser of the ``stats`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro stats",
        description="Validate a JSON trace written by 'release --trace=json' "
        "and print its summary (spans, metrics, privacy-budget ledger) — or, "
        "with --store, integrity-check a release store's marginal vectors.",
        allow_abbrev=False,
    )
    parser.add_argument(
        "trace", nargs="?", default=None, help="path to the JSON trace file"
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="health-check the release store at DIR instead: read every "
        "stored marginal vector end to end and verify it against its pinned "
        "sha256 digest (exit code 1 when any release is corrupt)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the validated trace payload (or the store health report) "
        "as JSON instead of the summary",
    )
    return parser


def _store_health_lines(report: Dict[str, object]) -> List[str]:
    lines = [f"store   : {report['root']} ({report['releases']} release(s))"]
    for entry in report["reports"]:  # type: ignore[union-attr]
        if entry["ok"]:
            lines.append(
                f"{entry['release_id']}: OK ({entry['verified']}/{entry['marginals']} "
                f"vectors digest-verified, {entry['layout']} layout)"
            )
        else:
            lines.append(f"{entry['release_id']}: CORRUPT")
            for problem in entry["corrupt"]:
                lines.append(f"  - {problem['error']}")
    lines.append("health  : " + ("OK" if report["ok"] else "DEGRADED"))
    return lines


def _main_stats(argv: Sequence[str]) -> int:
    args = build_stats_parser().parse_args(argv)
    try:
        if (args.store is None) == (args.trace is None):
            raise ReproError("pass either a trace file or --store DIR (not both)")
        if args.store is not None:
            # Exit-code contract: 2 = the store itself is missing (operator
            # pointed at the wrong directory), 1 = the store exists but holds
            # corrupt or unreadable releases, 0 = healthy.
            store_path = Path(args.store)
            if not store_path.exists():
                print(
                    f"error: release store {store_path} does not exist "
                    "(pass the directory a 'repro release --out' created)",
                    file=sys.stderr,
                )
                return 2
            report = ReleaseStore(args.store, create=False).verify_all()
            if args.json:
                print(json.dumps(report, indent=2, sort_keys=True))
            else:
                print("\n".join(_store_health_lines(report)))
            return 0 if report["ok"] else 1
        try:
            payload = json.loads(Path(args.trace).read_text())
        except json.JSONDecodeError as error:
            raise ReproError(f"{args.trace} is not valid JSON: {error}") from error
        validate_payload(payload)
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(summarise(payload))
        return 0
    except (ReproError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def build_serve_parser() -> argparse.ArgumentParser:
    """Parser of the ``serve`` subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve a release store over HTTP: POST /v1/query and "
        "/v1/query/batch answer marginal / point / slice queries (pure "
        "post-processing, zero additional privacy budget); GET /healthz, "
        "/readyz and /statsz expose liveness, readiness and the "
        "observability trace.  The edge sheds load with honest 503s once "
        "its pending queue fills, honours per-request X-Deadline-Ms "
        "budgets, and drains gracefully on SIGTERM.",
        allow_abbrev=False,
    )
    parser.add_argument("--store", required=True, help="release-store directory")
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=8080, help="bind port (0 picks a free port)"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="query worker threads (default: the machine's core count)",
    )
    parser.add_argument(
        "--cache-size", type=int, default=1024, help="answer-cache entries (0 disables)"
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=1024,
        help="admission bound: queries admitted but unfinished before the "
        "server sheds with 503 + Retry-After",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-request deadline budget when the client sends no "
        "X-Deadline-Ms header (default: none)",
    )
    parser.add_argument(
        "--max-batch", type=int, default=512, help="queries per coalesced batch"
    )
    parser.add_argument(
        "--drain-grace",
        type=float,
        default=10.0,
        help="seconds to let in-flight requests finish during SIGTERM drain",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        default=3,
        help="consecutive failures that open a pinned release's circuit breaker",
    )
    parser.add_argument(
        "--breaker-cooldown",
        type=float,
        default=30.0,
        help="seconds an open breaker refuses pinned requests before probing",
    )
    parser.add_argument(
        "--verify-start",
        action="store_true",
        help="integrity-check every stored vector before accepting traffic "
        "(refuses to start on a corrupt store)",
    )
    parser.add_argument(
        "--no-obs",
        action="store_true",
        help="serve without the observability recorder (/statsz stays up "
        "but reports only server counters)",
    )
    return parser


def _serve_forever(service: QueryService, config, *, obs: bool) -> int:
    """Run the server until SIGTERM/SIGINT, then drain and report."""
    import asyncio
    import signal

    from repro.net.server import QueryServer
    from repro.obs import runtime as _obs_runtime
    from repro.obs.tracer import Recorder

    server = QueryServer(service, config)
    if obs:
        # A span cap keeps the long-running recorder's memory bounded;
        # counters, gauges and histograms aggregate in place regardless.
        _obs_runtime.enable(Recorder(max_spans=10_000))

    async def _run() -> int:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix loop: Ctrl-C surfaces as KeyboardInterrupt
        host, port = await server.start()
        store = service.store
        releases = len(store.release_ids()) if store is not None else 1
        print(
            f"serving : http://{host}:{port} "
            f"({server.workers} worker(s), {releases} release(s))",
            file=sys.stderr,
            flush=True,
        )
        await stop.wait()
        print(
            "draining: listener closed; flushing in-flight requests",
            file=sys.stderr,
            flush=True,
        )
        report = await server.drain()
        print(
            f"drained : {report['completed']} completed, "
            f"{report['aborted']} aborted",
            file=sys.stderr,
            flush=True,
        )
        return 0 if report["aborted"] == 0 else 1

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover - non-Unix fallback
        return 0
    finally:
        if obs:
            _obs_runtime.disable()


def _main_serve(argv: Sequence[str]) -> int:
    args = build_serve_parser().parse_args(argv)
    from repro.net.server import ServerConfig

    try:
        store_path = Path(args.store)
        if not store_path.exists():
            print(
                f"error: release store {store_path} does not exist "
                "(pass the directory a 'repro release --out' created)",
                file=sys.stderr,
            )
            return 2
        store = ReleaseStore(args.store, create=False)
        if args.verify_start:
            report = store.verify_all()
            if not report["ok"]:
                print("\n".join(_store_health_lines(report)), file=sys.stderr)
                print(
                    "error: store failed verification; refusing to serve",
                    file=sys.stderr,
                )
                return 1
        service = QueryService(
            store, cache_size=args.cache_size, batch_workers=args.workers
        )
        config = ServerConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_pending=args.max_pending,
            default_deadline_ms=args.deadline_ms,
            max_batch=args.max_batch,
            drain_grace_s=args.drain_grace,
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown_s=args.breaker_cooldown,
        )
        return _serve_forever(service, config, obs=not args.no_obs)
    except (ReproError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _build_workload(dataset: Dataset, args: argparse.Namespace) -> MarginalWorkload:
    schema = dataset.schema
    if args.k < 1 or args.k > len(schema):
        raise ReproError(
            f"--k must lie between 1 and the number of attributes ({len(schema)}), got {args.k}"
        )
    if args.star and args.anchor:
        raise ReproError("--star and --anchor are mutually exclusive")
    if args.star:
        return star_workload(schema, args.k)
    if args.anchor is not None:
        return anchored_workload(schema, args.k, args.anchor)
    return all_k_way(schema, args.k)


def _labelled_cells(schema: Schema, mask: int, values) -> List[tuple]:
    """``(labels, value)`` per marginal cell, skipping padding cells."""
    names = schema.attributes_of_mask(mask)
    blocks = [schema.bit_block(name) for name in names]
    bits = bit_indices(mask)
    cells: List[tuple] = []
    for cell, value in enumerate(values):
        # Recover each attribute's code from the compact cell index.
        full = 0
        for j, bit in enumerate(bits):
            if (cell >> j) & 1:
                full |= 1 << bit
        labels = []
        padding = False
        for name, (offset, width) in zip(names, blocks):
            code = (full >> offset) & ((1 << width) - 1)
            attribute = schema.attribute(name)
            if code >= attribute.cardinality:
                padding = True
                break
            labels.append(attribute.label_of(code))
        if padding:
            continue  # padding cells of non-power-of-two attributes are always zero
        cells.append((labels, float(value)))
    return cells


def _marginal_rows(
    schema: Schema, mask: int, values, *, std_error: Optional[float] = None
) -> List[List[str]]:
    """Rows (one per cell) for a released marginal, with value labels."""
    rows: List[List[str]] = []
    for labels, value in _labelled_cells(schema, mask, values):
        row = labels + [f"{value:.4f}"]
        if std_error is not None:
            row.append(f"{std_error:.4f}")
        rows.append(row)
    return rows


def _write_outputs(dataset: Dataset, result: ReleaseResult, output: Path) -> List[Path]:
    output.mkdir(parents=True, exist_ok=True)
    written = []
    for query, values in zip(result.workload.queries, result.marginals):
        names = dataset.schema.attributes_of_mask(query.mask)
        file_path = output / ("marginal_" + "_".join(names) + ".csv")
        with file_path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(list(names) + ["count"])
            writer.writerows(_marginal_rows(dataset.schema, query.mask, values))
        written.append(file_path)
    return written


def _summary(dataset: Dataset, result: ReleaseResult) -> str:
    budget = result.budget
    privacy = (
        f"epsilon = {budget.epsilon:g}"
        if budget.is_pure
        else f"epsilon = {budget.epsilon:g}, delta = {budget.delta:g}"
    )
    lines = [
        f"dataset            : {dataset.name} ({len(dataset)} records, {len(dataset.schema)} attributes)",
        f"workload           : {result.workload.name} ({len(result.workload)} marginals, "
        f"{result.workload.total_cells} cells)",
        f"privacy            : {privacy}",
        f"strategy           : {result.strategy_name} ({result.budgeting} budgeting)",
        f"consistent output  : {result.consistent}",
        f"predicted variance : {result.expected_total_variance:.4g}",
        f"release time       : {result.total_time:.3f} s",
    ]
    return "\n".join(lines)


class _StreamedDataset:
    """Dataset-shaped summary of a CSV ingested via the streaming builder.

    ``--memory-budget`` never materialises the record matrix, so the summary
    and workload construction work off this shim (schema + row count) while
    the release itself measures from the streamed count source.
    """

    def __init__(self, name: str, schema: Schema, rows: int):
        self.name = name
        self.schema = schema
        self._rows = int(rows)

    def __len__(self) -> int:
        return self._rows


def _stream_input(args: argparse.Namespace):
    """Ingest the input CSV under ``--memory-budget``.

    Returns the dataset shim (for the summary/workload) and the streamed
    count source the engine will measure from.  Two passes over the file:
    one to infer the schema, one to encode batches into the builder —
    memory stays bounded by the distinct-record runs, never the row count.
    """
    from repro.data.loader import infer_csv_schema
    from repro.shards.streaming import StreamingSourceBuilder

    if args.backend == "dense":
        raise ReproError(
            "--memory-budget streams the input into a record-native source; "
            "it cannot be combined with --backend dense"
        )
    schema = infer_csv_schema(
        args.input, columns=args.columns, has_header=not args.no_header
    )
    builder = StreamingSourceBuilder(schema, memory_budget=args.memory_budget)
    builder.add_csv(args.input, columns=args.columns, has_header=not args.no_header)
    source = builder.build(shards=args.shards, workers=args.workers)
    dataset = _StreamedDataset(Path(args.input).stem, schema, builder.rows_ingested)
    return dataset, source


def _run_release(args: argparse.Namespace):
    """The release pipeline behind ``release`` and the flag-only form.

    With ``--explain`` the execution plan is printed and no release is
    performed (``result`` is then ``None``).  With ``--trace`` the release
    runs under a fresh observability recorder, returned as the third element
    (``None`` otherwise).
    """
    if args.trace_out is not None and args.trace is None:
        raise ReproError("--trace-out requires --trace")
    if args.resume and args.checkpoint is None:
        raise ReproError("--resume requires --checkpoint")
    if args.memory_budget is not None:
        dataset, data = _stream_input(args)
    else:
        dataset = load_csv(args.input, columns=args.columns, has_header=not args.no_header)
        data = dataset
    workload = _build_workload(dataset, args)
    budget = (
        PrivacyBudget.pure(args.epsilon)
        if args.delta is None
        else PrivacyBudget.approximate(args.epsilon, args.delta)
    )
    engine = MarginalReleaseEngine(
        workload,
        args.strategy,
        non_uniform=not args.uniform,
        consistency=not args.no_consistency,
        backend=args.backend,
        shards=args.shards,
        workers=args.workers,
    )
    if args.explain:
        print(engine.explain(budget, data=data))
        return dataset, None, None
    if args.trace is not None:
        with tracing() as recorder:
            result = engine.release(
                data, budget, rng=args.seed,
                checkpoint=args.checkpoint, resume=args.resume,
            )
    else:
        recorder = None
        result = engine.release(
            data, budget, rng=args.seed,
            checkpoint=args.checkpoint, resume=args.resume,
        )
    if args.nonnegative:
        marginals = round_to_integers(project_nonnegative(result.marginals))
        result = ReleaseResult(
            workload=result.workload,
            marginals=marginals,
            strategy_name=result.strategy_name,
            allocation=result.allocation,
            consistent=False,  # clipping/rounding may break exact consistency
            expected_total_variance=result.expected_total_variance,
            elapsed_seconds=result.elapsed_seconds,
        )
    return dataset, result, recorder


def _emit_trace(args: argparse.Namespace, recorder) -> None:
    """Render the recorder in the ``--trace`` format, to stdout or a file."""
    if recorder is None:
        return
    if args.trace == "json":
        text = to_json(recorder)
    elif args.trace == "logfmt":
        text = to_logfmt(recorder)
    else:
        text = summarise(recorder)
    if args.trace_out is not None:
        Path(args.trace_out).write_text(text + "\n")
        print(f"wrote {args.trace} trace to {args.trace_out}")
    else:
        print(text)


def _main_release(argv: Sequence[str]) -> int:
    args = build_release_parser().parse_args(argv)
    try:
        dataset, result, recorder = _run_release(args)
        if result is None:  # --explain: the plan was printed instead
            return 0
        print(_summary(dataset, result))
        if args.output is not None:
            written = _write_outputs(dataset, result, Path(args.output))
            print(f"wrote {len(written)} marginal files to {args.output}")
        if args.out is not None:
            store = ReleaseStore(args.out)
            release_id = store.put(
                result, release_id=args.release_id, overwrite=args.overwrite
            )
            layout = store.metadata(release_id)["layout"]
            print(f"stored release {release_id!r} in {args.out} ({layout} layout)")
        _emit_trace(args, recorder)
        return 0
    except (ReproError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def _parse_where(clauses: Sequence[str]) -> Dict[str, str]:
    where: Dict[str, str] = {}
    for clause in clauses:
        if "=" not in clause:
            raise ReproError(f"--where expects ATTR=VALUE, got {clause!r}")
        name, value = clause.split("=", 1)
        name = name.strip()
        if not name:
            raise ReproError(f"--where expects ATTR=VALUE, got {clause!r}")
        if name in where:
            raise ReproError(f"attribute {name!r} appears twice in --where")
        where[name] = value.strip()
    return where


def _query_payload(answer, schema: Schema, where) -> Dict[str, object]:
    free_names = schema.attributes_of_mask(answer.query_mask)
    cells = [
        {"labels": labels, "value": value}
        for labels, value in _labelled_cells(schema, answer.query_mask, answer.values)
    ]
    return {
        "release": answer.release_id,
        "attributes": list(free_names),
        "where": {str(k): v for k, v in (where or {}).items()},
        "source_cuboid": list(schema.attributes_of_mask(answer.plan.source_mask)),
        "per_cell_std_error": answer.std_error,
        "cached": answer.cached,
        "cells": cells,
    }


def _read_batch_requests(path: str, release: Optional[str]):
    """Parse a JSON-lines batch-query file into ``(requests, pinned release)``.

    Each line is validated by the HTTP API's query parser; blank and ``#``
    lines are skipped.  ``--release`` pins every line that names no release;
    as in ``/v1/query/batch``, all lines must then pin the same release (or
    none).
    """
    from repro.net.http import ProtocolError
    from repro.net.protocol import parse_query_payload

    requests = []
    batch_pin, pinned_by = release, "--release"
    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            request, pin = parse_query_payload(json.loads(line))
        except json.JSONDecodeError as error:
            raise ReproError(f"{path}:{number} is not valid JSON: {error}") from error
        except ProtocolError as error:
            raise ReproError(f"{path}:{number}: {error}") from error
        pin = release if pin is None else pin
        if not requests and release is None:
            batch_pin, pinned_by = pin, f"line {number}"
        elif pin != batch_pin:
            ours, theirs = ("no release" if p is None else repr(p) for p in (pin, batch_pin))
            raise ReproError(
                f"{path}:{number}: pins {ours} but {pinned_by} pins {theirs}; all "
                "queries in a batch must pin the same release (or none)"
            )
        requests.append(request)
    if not requests:
        raise ReproError(f"batch file {path} contains no queries")
    return requests, batch_pin


def _main_query_batch(service: QueryService, args: argparse.Namespace) -> int:
    requests, release_id = _read_batch_requests(args.batch, args.release)
    start = time.perf_counter()
    answers = service.query_batch(requests, release_id=release_id)
    elapsed = time.perf_counter() - start
    for request, answer in zip(requests, answers):
        schema = service.planner(answer.release_id).release.workload.schema
        print(json.dumps(_query_payload(answer, schema, request.where)))
    stats = service.stats()
    plan_cache = stats["plan_cache"]  # type: ignore[index]
    qps = len(answers) / elapsed if elapsed > 0 else float("inf")
    print(
        f"batch    : {len(answers)} queries in {elapsed * 1e3:.2f} ms "
        f"({qps:,.0f} qps, {elapsed / len(answers) * 1e6:.1f} us/query)",
        file=sys.stderr,
    )
    print(
        f"grouping : {stats['batch_groups']} aggregation group(s); plan cache "
        f"{plan_cache['hits']} hit(s) / {plan_cache['misses']} miss(es)",  # type: ignore[index]
        file=sys.stderr,
    )
    return 0


def _main_query(argv: Sequence[str]) -> int:
    args = build_query_parser().parse_args(argv)
    try:
        store = ReleaseStore(args.store, create=False)
        service = QueryService(store)
        if args.batch is not None:
            if args.attributes or args.where:
                raise ReproError(
                    "--batch answers queries from FILE; drop --attributes/--where"
                )
            return _main_query_batch(service, args)
        where = _parse_where(args.where)
        answer = service.query(
            args.attributes, where=where or None, release_id=args.release
        )
        schema = service.planner(answer.release_id).release.workload.schema
        if args.json:
            print(json.dumps(_query_payload(answer, schema, where), indent=2))
            return 0
        free_names = schema.attributes_of_mask(answer.query_mask)
        source_names = schema.attributes_of_mask(answer.plan.source_mask)
        print(f"release   : {answer.release_id}")
        print(f"marginal  : {', '.join(free_names) if free_names else '(total count)'}")
        if where:
            predicate = ", ".join(f"{name}={value}" for name, value in where.items())
            print(f"where     : {predicate}")
        print(
            f"source    : {', '.join(source_names)} "
            f"(x{answer.plan.expansion} cells per answer cell)"
        )
        print(f"std error : {answer.std_error:.4f} per cell")
        header = list(free_names) + ["count", "std_error"]
        print("  ".join(header))
        for row in _marginal_rows(
            schema, answer.query_mask, answer.values, std_error=answer.std_error
        ):
            print("  ".join(row))
        return 0
    except (ReproError, OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code.

    Dispatches on an optional leading subcommand (``release`` / ``query`` /
    ``stats`` / ``serve``); anything else is the flag-only form, an alias of
    ``release``.
    """
    arguments = list(argv) if argv is not None else sys.argv[1:]
    commands = {
        "release": _main_release,
        "query": _main_query,
        "stats": _main_stats,
        "serve": _main_serve,
    }
    if arguments and arguments[0] in commands:
        return commands[arguments[0]](arguments[1:])
    return _main_release(arguments)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
