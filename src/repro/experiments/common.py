"""Shared plumbing for the experiment runners.

Each module in :mod:`repro.experiments` regenerates one experiment from the
paper (see DESIGN.md's index) as a *library call*: ``run(...)`` returns a
typed result with the measured series, fitted exponents, and a ``verdict``
comparing against the paper's claim; ``format_report`` renders it for
humans.  Tier-1's paper-shape tests assert on these reports at the
documented parameters; users sweep their own ranges the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..theory.bounds import fit_power_law_exponent

__all__ = [
    "FitCheck",
    "ExperimentReport",
    "fit_against",
    "format_table",
    "run_cell",
]


def run_cell(
    checkpoint: Optional["SweepCheckpoint"],
    label: str,
    seed: int,
    n: int,
    compute: Callable[[], Dict[str, Any]],
) -> Tuple[Dict[str, Any], bool]:
    """Run one sweep cell under an optional checkpoint journal.

    ``compute()`` does the real work and returns the cell's measured
    values as a JSON-serializable dict.  Without a checkpoint this is
    just ``(compute(), False)``.  With one, a journaled ``(label, seed,
    n)`` cell is replayed from the journal (``replayed=True``) without
    recomputation, and a fresh cell's values are journaled with an
    atomic flush before returning -- the contract behind ``repro
    experiment ... --resume`` (see
    :class:`~repro.runtime.checkpoint.SweepCheckpoint`).
    """
    if checkpoint is not None:
        cached = checkpoint.done((label, seed, n))
        if cached is not None:
            return dict(cached.extra.get("values", {})), True
    values = compute()
    if checkpoint is not None:
        from ..runtime.record import TraceEvent

        checkpoint.complete(
            (label, seed, n),
            TraceEvent(kind="note", label=f"cell:{label}", seed=seed,
                       extra={"values": values}),
        )
    return values, False


@dataclass(frozen=True)
class FitCheck:
    """A measured power-law fit against a predicted exponent.

    ``r_squared_min`` is the fit-quality floor a check must clear to count
    as a match.  The default (0.9) suits the full published sweeps; small-n
    smoke sweeps have too few points for a tight fit and should pass a
    lower floor through :func:`fit_against` instead of silently failing.
    """

    name: str
    predicted: float
    fitted: float
    r_squared: float
    tolerance: float
    r_squared_min: float = 0.9

    @property
    def matches(self) -> bool:
        return abs(self.fitted - self.predicted) <= self.tolerance and (
            self.r_squared >= self.r_squared_min
        )

    def describe(self) -> str:
        flag = "OK " if self.matches else "OFF"
        return (
            f"[{flag}] {self.name}: fitted {self.fitted:.3f} vs predicted "
            f"{self.predicted:.3f} (±{self.tolerance}, R²={self.r_squared:.3f}, "
            f"floor {self.r_squared_min:.2f})"
        )


@dataclass
class ExperimentReport:
    """Uniform result shell: series rows + checks + free-form extras."""

    experiment: str
    claim: str
    header: Tuple[str, ...]
    rows: List[Tuple]
    checks: List[FitCheck] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def reproduced(self) -> bool:
        return all(c.matches for c in self.checks)

    def format_report(self) -> str:
        lines = [f"== {self.experiment} ==", self.claim, ""]
        lines.append(format_table(self.header, self.rows))
        for c in self.checks:
            lines.append(c.describe())
        for n in self.notes:
            lines.append(f"note: {n}")
        lines.append(
            f"verdict: {'shape reproduced' if self.reproduced else 'MISMATCH'}"
        )
        return "\n".join(lines)


def fit_against(
    name: str,
    xs: Sequence[float],
    ys: Sequence[float],
    predicted: float,
    tolerance: float,
    r_squared_min: float = 0.9,
) -> FitCheck:
    fitted, r2 = fit_power_law_exponent(xs, ys)
    return FitCheck(
        name=name,
        predicted=predicted,
        fitted=fitted,
        r_squared=r2,
        tolerance=tolerance,
        r_squared_min=r_squared_min,
    )


def format_table(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    srows = [tuple(str(c) for c in r) for r in rows]
    sheader = tuple(str(h) for h in header)
    widths = [
        max(len(sheader[i]), *(len(r[i]) for r in srows)) if srows else len(sheader[i])
        for i in range(len(sheader))
    ]
    out = ["  ".join(h.ljust(w) for h, w in zip(sheader, widths))]
    out.append("-" * len(out[0]))
    for r in srows:
        out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(out)
