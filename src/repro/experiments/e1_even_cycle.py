"""E1 runner -- Theorem 1.1's round complexity, as a library call."""

from __future__ import annotations

import time
from typing import Optional, Sequence

import networkx as nx

from ..core.even_cycle import IterationSchedule, detect_even_cycle
from ..theory.bounds import even_cycle_exponent
from .common import ExperimentReport, fit_against, run_cell

__all__ = ["run", "run_live"]


def run(
    k: int = 2,
    ns: Optional[Sequence[int]] = None,
    edge_constant: float = 1.0,
    tolerance: float = 0.12,
    r_squared_min: float = 0.9,
    session: Optional["RunSession"] = None,
    checkpoint: Optional["SweepCheckpoint"] = None,
) -> ExperimentReport:
    """Sweep the per-iteration round schedule over ``ns`` and fit the
    exponent against ``1 - 1/(k(k-1))``; tabulate the linear baseline."""
    from ..runtime.session import use_session

    ses = use_session(session)
    ses.note("e1-analytic", k=k)
    if ns is None:
        ns = [2**i for i in range(7, 15)]
    rows = []
    rounds = []
    for n in ns:
        sched = IterationSchedule.build(n, k, edge_constant)
        baseline = n + 2 * k + 2
        rows.append(
            (
                n,
                sched.total_rounds,
                baseline,
                "Thm 1.1" if sched.total_rounds < baseline else "baseline",
            )
        )
        rounds.append(sched.total_rounds)
    check = fit_against(
        f"C_{2*k} rounds/iteration exponent",
        list(ns),
        rounds,
        even_cycle_exponent(k),
        tolerance,
        r_squared_min=r_squared_min,
    )
    return ExperimentReport(
        experiment=f"E1 (k={k})",
        claim=(
            f"Theorem 1.1: C_{2*k}-detection in O(n^{{{even_cycle_exponent(k):.3f}}}) "
            "rounds -- sublinear, vs the O(n) baseline"
        ),
        header=("n", "rounds/iter", "baseline O(n)", "winner"),
        rows=rows,
        checks=[check],
        notes=[
            f"edge-budget constant {edge_constant} (see DESIGN.md deviations)",
        ],
    )


def run_live(
    k: int = 2,
    ns: Optional[Sequence[int]] = None,
    iterations: int = 4,
    edge_constant: float = 1.0,
    seed: int = 0,
    tolerance: float = 0.15,
    r_squared_min: float = 0.75,
    session: Optional["RunSession"] = None,
    checkpoint: Optional["SweepCheckpoint"] = None,
) -> ExperimentReport:
    """Execute Theorem 1.1 end to end on a C_{2k}-free sweep.

    Unlike :func:`run` (an analytic schedule sweep), this drives the
    simulator: each ``n`` runs ``iterations`` color-coded iterations of the
    even-cycle detector on the cycle ``C_n`` (odd ``n`` is forced so the
    instance is C_{2k}-free and every iteration executes).  The
    ``session``'s policy ``jobs`` fans the iterations over worker
    processes and its ``metrics`` selects the engine's accounting mode;
    neither changes decisions or bit totals.  Without a session the sweep
    runs inline under ``metrics=lite``.  The fitted exponent uses
    *executed* rounds, so the R² floor is looser than the analytic
    sweep's.  With a ``checkpoint``, each ``n`` is one journaled cell: a
    resumed sweep skips completed cells and reproduces the same report.
    """
    from ..runtime.policy import ExecutionPolicy
    from ..runtime.session import RunSession

    ses = session
    if ses is None:
        ses = RunSession(ExecutionPolicy(metrics="lite"), owns_pools=False)
    if ns is None:
        ns = [65, 97, 129, 193]
    rows = []
    executed = []
    used_ns = []
    seeds_saved_total = 0
    start = time.perf_counter()
    for n in ns:
        n_odd = n if n % 2 == 1 else n + 1  # odd cycles contain no C_{2k}

        def _cell(n_odd: int = n_odd) -> dict:
            graph = nx.cycle_graph(n_odd)
            rep = detect_even_cycle(
                graph,
                k,
                iterations=iterations,
                seed=seed,
                edge_constant=edge_constant,
                session=ses,
            )
            if rep.detected:
                raise RuntimeError(
                    f"E1-live: detector claimed C_{2*k} in the odd cycle "
                    f"C_{n_odd}"
                )
            return {
                "iterations_run": rep.iterations_run,
                "total_rounds": rep.total_rounds,
                "total_bits": rep.total_bits,
                "seeds_saved": rep.seeds_saved,
            }

        values, _ = run_cell(checkpoint, f"e1-live-k{k}", seed, n_odd, _cell)
        per_iter = values["total_rounds"] / max(1, values["iterations_run"])
        rows.append(
            (n_odd, values["iterations_run"], f"{per_iter:.1f}",
             values["total_bits"])
        )
        executed.append(per_iter)
        used_ns.append(n_odd)
        # .get(): journals written before adaptive amplification landed
        # have no seeds_saved key; replayed cells then count as zero.
        seeds_saved_total += values.get("seeds_saved", 0)
    elapsed = time.perf_counter() - start
    check = fit_against(
        f"C_{2*k} executed rounds/iteration exponent",
        used_ns,
        executed,
        even_cycle_exponent(k),
        tolerance,
        r_squared_min=r_squared_min,
    )
    return ExperimentReport(
        experiment=(
            f"E1-live (k={k}, jobs={ses.policy.jobs}, metrics={ses.policy.metrics})"
        ),
        claim=(
            f"Theorem 1.1 executed: measured rounds/iteration tracks "
            f"O(n^{{{even_cycle_exponent(k):.3f}}})"
        ),
        header=("n", "iterations", "rounds/iter", "total bits"),
        rows=rows,
        checks=[check],
        notes=[
            f"wall-clock {elapsed:.2f}s",
            f"adaptive amplification saved {seeds_saved_total} seed runs",
        ],
        extras={
            "elapsed_seconds": elapsed,
            "seeds_saved": seeds_saved_total,
        },
    )
