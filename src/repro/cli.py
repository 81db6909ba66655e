"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``detect``     run a distributed detector on a generated or loaded graph
``construct``  build one of the paper's constructions and audit/save it
``reduce``     execute the Theorem 1.2 disjointness reduction on an instance
``fool``       run the Theorem 4.1 adversary against an algorithm family
``bounds``     print the paper's predicted complexities at given parameters
``cache``      inspect or clear the construction cache
``lint``       static CONGEST model-soundness check (rules L1-L8)
``serve``      run the JSONL-over-TCP detection server (repro.serve)
``policy``     inspect an execution-policy spec (canonical form + hash)

Engine-backed commands (``detect``, ``experiment``) execute inside a
:class:`~repro.runtime.session.RunSession`: the individual flags
(``--lane --jobs --metrics --seed``) build an
:class:`~repro.runtime.policy.ExecutionPolicy`, ``--policy
"field=value,..."`` overrides them, and ``--record PATH`` writes the
session's JSONL run record.

Examples
--------
::

    python -m repro detect --pattern c4 --graph gnp --n 100 --p 0.05 --iterations 400
    python -m repro detect --pattern triangle --graph grid --rows 6 --cols 7
    python -m repro detect --pattern k4 --policy "lane=vectorized,metrics=lite"
    python -m repro detect --pattern c4 --record run.jsonl
    python -m repro detect --pattern k4 --faults "drop:0.1|seed:7"
    python -m repro experiment e9 --resume e9.jsonl
    python -m repro construct --which hk --k 3 --out hk.edges
    python -m repro reduce --k 2 --n 6 --density 0.3
    python -m repro fool --bits 2 --n-per-part 10
    python -m repro experiment e1
    python -m repro bounds --n 4096 --k 3 --bandwidth 16
    python -m repro cache stats
    python -m repro lint src/ --json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import networkx as nx
import numpy as np

__all__ = ["main", "build_parser"]


class UsageError(Exception):
    """A bad command line: :func:`main` prints it as one stderr line and
    returns 2, argparse's exit status for usage errors."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Distributed subgraph detection (SPAA 2018 reproduction): "
            "detectors, constructions, and executable lower bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="run a detector on a graph")
    p.add_argument("--pattern", required=True,
                   help="triangle | c<even length, e.g. c4/c6> | "
                        "odd-c<odd length> | k<s >= 3, e.g. k4> | path<t> "
                        "(the server's grammar)")
    p.add_argument("--graph", default="gnp", choices=["gnp", "grid", "cycle", "file"])
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("--rows", type=int, default=5)
    p.add_argument("--cols", type=int, default=5)
    p.add_argument("--length", type=int, default=8, help="cycle graph length")
    p.add_argument("--path", help="edge-list file (with --graph file)")
    p.add_argument("--bandwidth", type=int, default=None,
                   help="per-edge bits B; unset, the policy's bandwidth, "
                        "then the detector's own default")
    p.add_argument("--iterations", type=int, default=300)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for amplified detectors "
                        "(decision is identical to --jobs 1)")
    p.add_argument("--lane", default="object", choices=["object", "vectorized"],
                   help="execution lane for k<s> cliques and odd-c<length> "
                        "cycles (vectorized = batched numpy kernels, "
                        "bit-identical to object)")
    p.add_argument("--metrics", default="full", choices=["full", "lite"],
                   help="engine accounting: 'lite' keeps aggregate totals "
                        "only (faster; same decision)")
    p.add_argument("--policy", default=None, metavar="SPEC",
                   help="execution-policy overrides as 'field=value,...' "
                        "(e.g. 'lane=vectorized,jobs=4,metrics=lite', or "
                        "adaptive amplification via "
                        "'amplify_confidence=0.9,amplify_max_seeds=500' and "
                        "load governing via 'governor_budget=100000'); "
                        "applied on top of the individual flags")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="deterministic fault-injection plan, e.g. "
                        "'drop:0.1|corrupt:0.05|crash:3@2|seed:7' "
                        "(see repro.faults; same schedule in both lanes)")
    p.add_argument("--record", default=None, metavar="PATH",
                   help="write the session's JSONL run record here")

    p = sub.add_parser("construct", help="build a paper construction")
    p.add_argument("--which", required=True, choices=["hk", "gkn", "template", "bipartite"])
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--out", help="write the graph as an edge list here")

    p = sub.add_parser("reduce", help="run the Theorem 1.2 reduction")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--density", type=float, default=0.3)
    p.add_argument("--bandwidth", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("fool", help="run the Theorem 4.1 adversary")
    p.add_argument("--bits", type=int, default=2, help="fingerprint width")
    p.add_argument("--n-per-part", type=int, default=8)
    p.add_argument("--family", default="trunc", choices=["trunc", "hash", "full"])

    p = sub.add_parser("experiment", help="run a paper experiment")
    p.add_argument("name", help="e1, e1-live, e2, e2-live, e3, e4, e4-scaling, "
                                "e5, e5-live, e6, e6-live, e7, e8, e9, "
                                "or 'all'")
    p.add_argument("--policy", default=None, metavar="SPEC",
                   help="execution-policy overrides as 'field=value,...' "
                        "for the session the runners execute in (includes "
                        "the adaptive-amplification and governor fields, "
                        "e.g. 'amplify_confidence=0.9,governor_budget=1000000')")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="deterministic fault-injection plan applied to every "
                        "engine run, e.g. 'drop:0.1|seed:7' (repro.faults)")
    p.add_argument("--resume", default=None, metavar="RECORD",
                   help="checkpoint journal (JSONL run record): completed "
                        "sweep cells found here are skipped and fresh cells "
                        "are journaled as they finish; pass a non-existent "
                        "path to start a new resumable sweep")
    p.add_argument("--record", default=None, metavar="PATH",
                   help="write the session's JSONL run record here")

    p = sub.add_parser("cache", help="inspect or clear the construction cache")
    p.add_argument("action", nargs="?", default="stats", choices=["stats", "clear"])
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="machine-readable JSON instead of a table")

    p = sub.add_parser("bounds", help="print predicted complexities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--s", type=int, default=3)
    p.add_argument("--bandwidth", type=int, default=16)

    p = sub.add_parser(
        "lint", help="static CONGEST model-soundness check (rules L1-L8)"
    )
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="machine-readable JSON report instead of text")
    p.add_argument("--bandwidth", type=int, default=None,
                   help="arm rule L5's exceeds-B check for constant-size "
                        "messages")
    p.add_argument("--rules", default=None,
                   help="comma-separated subset of rule ids to run "
                        "(e.g. L2,L3)")
    p.add_argument("--deep", action="store_true",
                   help="whole-program analysis: call-graph seed taint "
                        "(L3), wrapped message sizes (L5), determinism "
                        "(L7) and pool concurrency (L8)")
    p.add_argument("--diff", metavar="BASE", default=None,
                   help="report only findings in .py files changed "
                        "against git ref BASE (analysis still covers "
                        "the whole tree)")

    p = sub.add_parser(
        "serve", help="run the JSONL-over-TCP detection server"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="TCP port (0 = pick a free one; the bound port is "
                        "printed on startup)")
    p.add_argument("--policy", default=None, metavar="SPEC",
                   help="base execution policy as 'field=value,...'; "
                        "per-request policy specs are applied on top. "
                        "'governor_budget=N' (and 'governor_decay') build "
                        "the one shared load governor, which also drives "
                        "load-aware admission")
    p.add_argument("--max-inflight", type=int, default=8,
                   help="admission ceiling on concurrently executing "
                        "requests (scaled down by the governor when a "
                        "budget is set)")
    p.add_argument("--max-queue", type=int, default=64,
                   help="admission queue depth; requests beyond it are "
                        "rejected with an 'overload' error")
    p.add_argument("--cache-size", type=int, default=256,
                   help="result-cache capacity (LRU entries)")
    p.add_argument("--deadline-ms", type=int, default=None,
                   help="default per-request deadline in milliseconds "
                        "(requests may carry their own 'deadline_ms')")
    p.add_argument("--cache-journal", default=None, metavar="PATH",
                   help="crash-safe result-cache journal (JSONL, "
                        "restored on start; see docs/serving.md)")
    p.add_argument("--governor-state", default=None, metavar="PATH",
                   help="governor sidecar (JSON, keyed by the base "
                        "policy's hash) restored on start and saved on "
                        "stop; needs 'governor_budget' in --policy")

    p = sub.add_parser(
        "policy", help="inspect an execution-policy spec"
    )
    p.add_argument("action", choices=["hash"],
                   help="'hash': print the 12-hex policy hash and the "
                        "canonical spec")
    p.add_argument("spec", nargs="?", default="",
                   help="policy spec as 'field=value,...' (empty = the "
                        "default policy)")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="machine-readable JSON instead of two lines")

    return parser


# ----------------------------------------------------------------------
def _build_graph(args) -> nx.Graph:
    from .graphs import generators
    from .graphs.io import read_edgelist

    if args.graph == "gnp":
        return generators.erdos_renyi(args.n, args.p, np.random.default_rng(args.seed))
    if args.graph == "grid":
        return generators.grid(args.rows, args.cols)
    if args.graph == "cycle":
        return generators.cycle(args.length)
    if args.graph == "file":
        if not args.path:
            raise UsageError("repro: --graph file requires --path")
        return read_edgelist(args.path)
    raise UsageError(f"repro: unknown graph kind {args.graph}")


def _session_from_args(args) -> "object":
    """Build the command's :class:`RunSession` from its policy flags.

    The individual flags form the base policy; a ``--policy`` spec
    overrides them field by field.  ``--record`` opens a trace record
    (written by the caller after the session closes).
    """
    from .runtime import ExecutionPolicy, PolicyError, RunSession

    fields = {}
    for name in ("lane", "jobs", "metrics", "seed", "faults"):
        if getattr(args, name, None) is not None:
            fields[name] = getattr(args, name)
    try:
        policy = ExecutionPolicy(**fields)
        if getattr(args, "policy", None):
            policy = ExecutionPolicy.from_spec(args.policy, base=policy)
    except PolicyError as exc:
        raise UsageError(f"repro: bad execution policy: {exc}") from None
    return RunSession(policy, record=bool(getattr(args, "record", None)))


def _cmd_detect(args) -> int:
    from .core import (
        detect_clique,
        detect_cycle_linear,
        detect_even_cycle,
        detect_tree,
        detect_triangle_congest,
    )
    from .congest import BandwidthExceeded
    from .graphs import generators
    from .serve.protocol import ProtocolError, parse_pattern

    try:
        _, kind, arg, _ = parse_pattern(args.pattern)
    except ProtocolError as exc:
        raise UsageError(f"repro: {exc}") from None
    g = _build_graph(args)
    print(f"graph: {g.number_of_nodes()} nodes, {g.number_of_edges()} edges")

    ses = _session_from_args(args)
    seed, bw = ses.policy.seed, args.bandwidth
    with ses:
        try:
            if kind == "triangle":
                res = detect_triangle_congest(g, bw, seed=seed, session=ses)
                summary = (f"triangle detected: {res.rejected} (rounds: {res.rounds}, "
                           f"bits: {res.metrics.total_bits})")
            elif kind == "clique":
                res = detect_clique(g, arg, bw, seed=seed, session=ses)
                summary = f"K_{arg} detected: {res.rejected} (rounds: {res.rounds})"
            elif kind == "odd-cycle":
                rep = detect_cycle_linear(
                    g, arg, args.iterations, seed=seed, bandwidth=bw, session=ses
                )
                summary = (f"C_{arg} detected: {rep.detected} "
                           f"({rep.iterations_run} iterations x "
                           f"{rep.rounds_per_iteration} rounds)")
            elif kind == "even-cycle":
                rep = detect_even_cycle(
                    g, arg, args.iterations, seed=seed, bandwidth=bw, session=ses
                )
                summary = (f"C_{2 * arg} detected: {rep.detected} "
                           f"({rep.iterations_run} iterations x "
                           f"{rep.rounds_per_iteration} rounds; "
                           f"Theorem 1.1 schedule R1={rep.schedule.r1} "
                           f"R2={rep.schedule.r2})")
            else:
                rep = detect_tree(
                    g, generators.path(arg), args.iterations, seed=seed,
                    bandwidth=bw, session=ses,
                )
                summary = (f"P_{arg} detected: {rep.detected} "
                           f"({rep.iterations_run} iterations x "
                           f"{rep.rounds_per_iteration} rounds)")
        except (BandwidthExceeded, ValueError) as exc:
            # The detector refused its input (a bandwidth too small for
            # the pattern, say): a usage error, not a crash.
            print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
    print(summary)
    if args.record:
        print(f"run record: {ses.save_record(args.record)}")
    return 0


def _cmd_construct(args) -> int:
    from .graphs import GknFamily, build_hk, build_template_graph, diameter
    from .graphs.bipartite_gadget import BipartiteHostFamily
    from .graphs.io import write_edgelist
    from .graphs.properties import is_bipartite

    if args.which == "hk":
        hk = build_hk(args.k)
        g = hk.graph
        print(f"H_{args.k}: {hk.num_vertices} vertices "
              f"(formula {hk.expected_size()}), diameter {diameter(g)}")
    elif args.which == "gkn":
        fam = GknFamily(args.k, args.n)
        gxy = fam.build([], [])
        g = gxy.graph
        print(f"G_(k={args.k}, n={args.n}): {g.number_of_nodes()} vertices, "
              f"m={fam.m} triangles/side, diameter {diameter(g)}, "
              f"Alice cut {len(gxy.alice_cut())}")
    elif args.which == "template":
        g = build_template_graph(args.n)
        print(f"G_T(n={args.n}): {g.number_of_nodes()} vertices, "
              f"special degree {args.n + 2}")
    else:
        fam = BipartiteHostFamily(args.s, args.k, args.n)
        host = fam.build([], [])
        g = host.graph
        print(f"bipartite host (s={args.s}, k={args.k}, n={args.n}): "
              f"{g.number_of_nodes()} vertices, bipartite={is_bipartite(g)}, "
              f"Alice cut {len(host.alice_cut())}")
    if args.out:
        # Relabel tuple vertices to ints for a portable edge list.
        order = sorted(g.nodes(), key=repr)
        mapping = {v: i for i, v in enumerate(order)}
        write_edgelist(nx.relabel_nodes(g, mapping), args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_reduce(args) -> int:
    from .commcomplexity.disjointness import random_instance
    from .lowerbounds.superlinear import implied_round_lower_bound, run_reduction

    inst = random_instance(args.n, np.random.default_rng(args.seed), density=args.density)
    r = run_reduction(args.k, args.n, inst.x, inst.y,
                      bandwidth=args.bandwidth, seed=args.seed)
    print(f"instance: |X|={len(inst.x)} |Y|={len(inst.y)} disjoint={inst.disjoint}")
    print(f"protocol answer: disjoint={r.disjoint_answer} correct={r.correct}")
    print(f"rounds={r.rounds} bits={r.total_bits} cut={r.cut_alice}")
    print(f"implied round lower bound n^2/(cut(B+1)) = "
          f"{implied_round_lower_bound(args.n, r.cut_alice, r.bandwidth):.2f}")
    return 0 if r.correct else 1


def _cmd_fool(args) -> int:
    from .congest.identifiers import partitioned_namespace
    from .lowerbounds.fooling import attack
    from .lowerbounds.transcripts import (
        FullIdExchange,
        HashedIdExchange,
        TruncatedIdExchange,
    )

    parts = partitioned_namespace(args.n_per_part)
    if args.family == "trunc":
        algo = TruncatedIdExchange(args.bits)
    elif args.family == "hash":
        algo = HashedIdExchange(args.bits)
    else:
        algo = FullIdExchange(3 * args.n_per_part)
    rep = attack(algo, parts)
    print(f"triangles: {rep.num_triples}, largest transcript bucket: "
          f"{rep.largest_bucket}, Erdős threshold: {rep.erdos_threshold:.0f}")
    print(f"fooled: {rep.fooled}")
    if rep.certificate:
        c = rep.certificate
        print(f"hexagon: {c.hexagon_ids}  Claim 4.4 verified: {c.claim_4_4_verified}")
        print(f"rejecting nodes: {c.rejecting_nodes}")
    return 0


def _cmd_experiment(args) -> int:
    from . import experiments

    names = experiments.available() if args.name == "all" else [args.name]
    ok = True
    ses = _session_from_args(args)
    ckpt = None
    if args.resume:
        from pathlib import Path

        from .runtime import CheckpointError, RunSession, SweepCheckpoint

        try:
            if Path(args.resume).exists():
                ckpt = SweepCheckpoint.resume(args.resume, ses.policy)
                print(f"resuming: {ckpt.completed} completed cells "
                      f"in {args.resume}")
            else:
                ckpt = SweepCheckpoint.fresh(ses.policy, args.resume)
        except CheckpointError as exc:
            raise UsageError(f"repro: cannot resume {args.resume}: {exc}") \
                from None
        # The checkpoint's journal doubles as the session's run record so
        # engine trace events and cell entries land in the same file.
        ses = RunSession(ses.policy, record=ckpt.record)
    with ses:
        for name in names:
            report = experiments.run(name, session=ses, checkpoint=ckpt)
            print(report.format_report())
            print()
            ok = ok and report.reproduced
    if ckpt is not None:
        print(f"checkpoint journal: {ckpt.finish()}")
    if args.record:
        print(f"run record: {ses.save_record(args.record)}")
    return 0 if ok else 1


def _cmd_cache(args) -> int:
    from .graphs import cache_stats, clear_all

    if args.action == "clear":
        clear_all()
        print("construction cache cleared")
        return 0
    stats = cache_stats()
    if args.as_json:
        import json

        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"{'construction':<18} {'hits':>6} {'misses':>7} {'size':>5} {'max':>5}")
    for name in sorted(stats):
        s = stats[name]
        print(f"{name:<18} {s['hits']:>6} {s['misses']:>7} "
              f"{s['currsize']:>5} {s['maxsize']:>5}")
    return 0


def _cmd_bounds(args) -> int:
    from .theory.bounds import (
        bipartite_detection_lower_bound,
        clique_listing_lower_bound,
        deterministic_triangle_bits,
        even_cycle_detection_rounds,
        hk_detection_lower_bound,
        local_congest_separation,
        one_round_triangle_bandwidth,
    )

    n, k, s, b = args.n, args.k, args.s, args.bandwidth
    print(f"paper bounds at n={n}, k={k}, s={s}, B={b}:")
    print(f"  Thm 1.1  C_{2*k} detection rounds     O(n^(1-1/(k(k-1)))) "
          f"= {even_cycle_detection_rounds(n, k):.1f}")
    print(f"  Thm 1.2  H_{k}-freeness rounds        Ω(n^(2-1/k)/(Bk))   "
          f"= {hk_detection_lower_bound(n, k, b):.1f}")
    if s >= 2 and k >= 2:
        print(f"  §3.4     bipartite H_(s,k) rounds    Ω(n^(2-1/k-1/s)/(Bk)) "
              f"= {bipartite_detection_lower_bound(n, k, s, b):.1f}")
    print(f"  Thm 4.1  deterministic triangle bits Ω(log N)           "
          f"= {deterministic_triangle_bits(n):.1f}")
    print(f"  Thm 5.1  one-round triangle bandwidth Ω(Δ)              "
          f"= {one_round_triangle_bandwidth(n):.0f} at Δ=n")
    if s >= 3:
        print(f"  §1.1     listing K_{s} rounds          Ω̃(n^(1-2/s))       "
              f"= {clique_listing_lower_bound(n, s):.1f}")
    local, congest = local_congest_separation(n, b)
    print(f"  §1.1     LOCAL vs CONGEST at k=Θ(log n): {local:.0f} rounds "
          f"vs {congest:.3g} rounds")
    return 0


def _cmd_lint(args) -> int:
    from .lint import changed_files, lint_paths

    include = args.rules.split(",") if args.rules else None
    try:
        restrict = changed_files(args.diff) if args.diff else None
        report = lint_paths(
            args.paths,
            bandwidth=args.bandwidth,
            include=include,
            deep=args.deep,
            restrict=restrict,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    print(report.render_json() if args.as_json else report.render_text())
    return report.exit_code()


def _cmd_serve(args) -> int:
    import asyncio

    from .runtime import ExecutionPolicy, PolicyError
    from .serve import DetectionServer

    base = None
    if args.policy:
        try:
            base = ExecutionPolicy.from_spec(args.policy)
        except PolicyError as exc:
            raise UsageError(f"repro: bad execution policy: {exc}") from None

    async def _run() -> int:
        try:
            srv = DetectionServer(
                host=args.host,
                port=args.port,
                base_policy=base,
                max_inflight=args.max_inflight,
                max_queue=args.max_queue,
                cache_size=args.cache_size,
                default_deadline_ms=args.deadline_ms,
                cache_journal=args.cache_journal,
                governor_state=args.governor_state,
            )
        except ValueError as exc:
            print(f"repro serve: {exc}", file=sys.stderr)
            return 2
        await srv.start()
        # Handlers before the banner: a supervisor may signal the moment
        # it reads the port.  Flushed so scripts reading our stdout can
        # discover the bound port (--port 0) before the first request.
        srv.install_signal_handlers(asyncio.get_running_loop())
        print(f"serving on {args.host}:{srv.bound_port}", flush=True)
        await srv.serve_forever()
        return 0

    return asyncio.run(_run())


def _cmd_policy(args) -> int:
    from .runtime import ExecutionPolicy, PolicyError

    try:
        policy = ExecutionPolicy.from_spec(args.spec)
    except PolicyError as exc:
        raise UsageError(f"repro: bad execution policy: {exc}") from None
    if args.as_json:
        import json

        print(json.dumps(
            {
                "policy_hash": policy.policy_hash(),
                "spec": policy.spec(),
                "fields": policy.as_dict(),
            },
            indent=2,
            sort_keys=True,
        ))
        return 0
    print(f"policy_hash: {policy.policy_hash()}")
    print(f"spec: {policy.spec() or '(default)'}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "detect": _cmd_detect,
        "construct": _cmd_construct,
        "reduce": _cmd_reduce,
        "fool": _cmd_fool,
        "experiment": _cmd_experiment,
        "bounds": _cmd_bounds,
        "cache": _cmd_cache,
        "lint": _cmd_lint,
        "serve": _cmd_serve,
        "policy": _cmd_policy,
    }
    try:
        return handlers[args.command](args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
