"""Programmatic experiment runners: regenerate any paper experiment in code.

Usage::

    from repro import experiments
    print(experiments.run("e1", k=3).format_report())
    for name in experiments.available():
        print(experiments.run(name).format_report())

Each runner regenerates one experiment of DESIGN.md's index as a plain
library call with sweepable parameters and a typed
:class:`~repro.experiments.common.ExperimentReport` result -- the API a
downstream user scripts against, and what tier-1's shape tests assert on.
"""

from typing import Any, Callable, Dict, List

from . import (
    e1_even_cycle,
    e2_superlinear,
    e3_fooling,
    e4_one_round,
    e5_listing,
    e6_separation,
    e7_baselines,
    e8_property_testing,
    e9_fault_sensitivity,
    f_constructions,
)
from .common import ExperimentReport, FitCheck

_REGISTRY: Dict[str, Callable[..., ExperimentReport]] = {
    "e1": e1_even_cycle.run,
    "e1-live": e1_even_cycle.run_live,
    "e2": e2_superlinear.run,
    "e2-live": e2_superlinear.run_live,
    "e3": e3_fooling.run,
    "e4": e4_one_round.run,
    "e4-scaling": e4_one_round.run_scaling,
    "e5": e5_listing.run,
    "e5-live": e5_listing.run_live,
    "e6": e6_separation.run,
    "e6-live": e6_separation.run_live,
    "e7": e7_baselines.run,
    "e8": e8_property_testing.run,
    "e9": e9_fault_sensitivity.run,
    "f": f_constructions.run,
}


def available() -> List[str]:
    """Names accepted by :func:`run`."""
    return sorted(_REGISTRY)


def run(name: str, session: Any = None, **kwargs: Any) -> ExperimentReport:
    """Run experiment ``name`` with runner-specific keyword overrides.

    Every runner accepts ``session`` (a
    :class:`~repro.runtime.session.RunSession`): engine-backed runners
    route their detector calls through it (policy-driven jobs / metrics /
    lane, optional trace record); analytic runners annotate the record.
    Every runner also accepts ``checkpoint`` (a
    :class:`~repro.runtime.checkpoint.SweepCheckpoint`); the engine-backed
    sweeps (``e1-live``, ``e9``) journal each completed cell through it
    and skip journaled cells on resume, the contract behind
    ``repro experiment ... --resume``.
    """
    try:
        runner = _REGISTRY[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(available())}"
        ) from None
    return runner(session=session, **kwargs)


__all__ = ["available", "run", "ExperimentReport", "FitCheck"]
