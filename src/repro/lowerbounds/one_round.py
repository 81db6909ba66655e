"""The Theorem 5.1 harness: information accounting for one-round protocols.

Section 5 shows one-round triangle detection needs bandwidth ``Ω(Δ)`` by
playing two lemmas against each other on the template-graph distribution μ:

* **Lemma 5.3 (information is necessary).**  Conditioned on
  ``X_ab = X_ac = 1``, a correct protocol's accept indicator at ``v_a``
  changes distribution noticeably with ``X_bc``; by data processing,
  ``I(X_bc; M_ba, M_ca | N_a, X_ab=1, X_ac=1) >= 0.3``.
  We reproduce this empirically: measure the accept probabilities
  ``p_0 = Pr[acc_a | X_bc=0]`` and ``p_1 = Pr[acc_a | X_bc=1]`` and convert
  the gap into the exact MI of the decision bit
  (:func:`decision_information`), which lower-bounds the message MI.

* **Lemma 5.4 (information is scarce).**  The messages ``M_ba, M_ca``
  cannot carry more than ``4(|M_ba| + |M_ca|)/(n+1) + 2/n`` bits about
  ``X_bc``, because the coordinate hiding ``X_bc`` sits at a uniformly
  random (permutation-scrambled) index the senders cannot prioritise.
  We compute the conditional MI **exactly** in the *pinned world*: fix the
  identifier assignment and permutations, pin ``X_ab = X_ac = 1``, and
  enumerate all remaining edge bits -- the message distributions
  ``p(M_ba | X_bc)``, ``p(M_ca | X_bc)`` are then exact pushforwards of
  ``2^n`` equally likely leaf-bit vectors, and the two are conditionally
  independent given ``X_bc`` (they live on disjoint randomness), exactly
  the product structure Lemma 5.4's proof exploits.  Averaging over
  sampled pinnings marginalises the permutation randomness, recovering
  the paper's quantity.

A protocol that is both correct (Lemma 5.3 forces MI >= 0.3) and
low-bandwidth (Lemma 5.4 caps MI at ``O(B/n)``) is impossible once
``B = o(n)`` -- Theorem 5.1.  Experiment E4 sweeps bandwidth and watches
the two curves cross.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.triangle import OneRoundProtocol, run_one_round_protocol
from ..graphs.template_graph import sample_input
from ..infotheory.entropy import binary_entropy, independent_pair_mutual_information

__all__ = [
    "decision_information",
    "AcceptGapReport",
    "measure_accept_gap",
    "lemma_5_4_bound",
    "PinnedWorldMI",
    "pinned_world_mi",
    "Theorem51Report",
    "theorem_5_1_experiment",
]


def decision_information(p0: float, p1: float) -> float:
    """Exact ``I(X; acc)`` for a binary decision with
    ``Pr[acc | X=0] = p0``, ``Pr[acc | X=1] = p1`` and uniform ``X``:
    ``h((p0+p1)/2) - (h(p0) + h(p1))/2`` (the Jensen gap of binary
    entropy).  This is the quantitative heart of Lemma 5.3: a behavioural
    gap *is* mutual information, and by data processing it lower-bounds
    the MI of the messages the decision was computed from.
    """
    for p in (p0, p1):
        if not 0.0 <= p <= 1.0:
            raise ValueError("probabilities must be in [0,1]")
    return max(
        0.0,
        binary_entropy((p0 + p1) / 2.0)
        - (binary_entropy(p0) + binary_entropy(p1)) / 2.0,
    )


@dataclass
class AcceptGapReport:
    """Empirical Lemma 5.3 quantities."""

    p_accept_xbc0: float
    p_accept_xbc1: float
    samples_used: int
    decision_mi_lower_bound: float
    error_rate: float


def measure_accept_gap(
    protocol: OneRoundProtocol,
    n: int,
    rng: np.random.Generator,
    num_samples: int = 2000,
    id_space: Optional[int] = None,
) -> AcceptGapReport:
    """Estimate the Lemma 5.3 accept-probability gap.

    Samples μ conditioned on ``X_ab = X_ac = 1`` and no duplicate
    identifiers (the events the paper conditions on), splits by ``X_bc``,
    and reports the decision-bit MI lower bound.
    """
    acc0 = acc1 = n0 = n1 = 0
    errors = 0
    total = 0
    if id_space is None:
        id_space = max(n**3, 1024)
    attempts = 0
    while total < num_samples and attempts < 50 * num_samples:
        attempts += 1
        sample = sample_input(n, rng, id_space=id_space)
        if sample.has_duplicate_ids():
            continue
        out = run_one_round_protocol(protocol, sample)
        total += 1
        if not out.correct:
            errors += 1
        if not (sample.x_ab and sample.x_ac):
            continue
        accepted = not out.rejected
        if sample.x_bc:
            n1 += 1
            acc1 += accepted
        else:
            n0 += 1
            acc0 += accepted
    if n0 == 0 or n1 == 0:
        raise RuntimeError("conditioning produced an empty cell; more samples")
    p0 = acc0 / n0
    p1 = acc1 / n1
    return AcceptGapReport(
        p_accept_xbc0=p0,
        p_accept_xbc1=p1,
        samples_used=total,
        decision_mi_lower_bound=decision_information(p0, p1),
        error_rate=errors / max(total, 1),
    )


def lemma_5_4_bound(msg_bits_ba: int, msg_bits_ca: int, n: int) -> float:
    """The paper's ceiling: ``4(|M_ca| + |M_ba|)/(n+1) + 2/n``."""
    if n < 1:
        raise ValueError("need n >= 1")
    return 4.0 * (msg_bits_ba + msg_bits_ca) / (n + 1) + 2.0 / n


@dataclass
class PinnedWorldMI:
    """Exact conditional MI in one pinned world + the average over worlds."""

    mi_per_world: List[float]
    mean_mi: float
    max_message_bits: int
    bound: float

    @property
    def within_bound(self) -> bool:
        return self.mean_mi <= self.bound + 1e-9


def _message_distribution(
    protocol: OneRoundProtocol,
    ids: Tuple[int, ...],
    own_id: int,
    pinned: Dict[int, int],
    x_bc_index: int,
    n_free_max: int,
    rng: np.random.Generator,
) -> Dict[int, Dict[str, float]]:
    """Exact ``p(M | X_bc = b)`` for one sender, enumerating free leaf bits.

    ``pinned`` maps coordinate -> forced bit (the X_ab / X_ac = 1 pins);
    ``x_bc_index`` is the coordinate carrying ``X_bc``.  Free coordinates
    are enumerated exhaustively (or sampled from the caller's ``rng`` if
    there are more than ``n_free_max`` of them -- still exact per sampled
    assignment, and replayable from the run's master seed).
    """
    m = len(ids)
    free = [i for i in range(m) if i not in pinned and i != x_bc_index]
    out: Dict[int, Dict[str, float]] = {0: {}, 1: {}}
    exhaustive = len(free) <= n_free_max
    if exhaustive:
        assignments = range(1 << len(free))
        weight = 1.0 / (1 << len(free))
    else:  # pragma: no cover - large-n escape hatch
        assignments = [int(x) for x in rng.integers(0, 1 << len(free), size=4096)]
        weight = 1.0 / 4096
    for b in (0, 1):
        for mask in assignments:
            bits = [0] * m
            for coord, val in pinned.items():
                bits[coord] = val
            bits[x_bc_index] = b
            for j, coord in enumerate(free):
                bits[coord] = (mask >> j) & 1
            msg = protocol.message(ids, tuple(bits), own_id)
            out[b][msg] = out[b].get(msg, 0.0) + weight
    return out


def pinned_world_mi(
    protocol: OneRoundProtocol,
    n: int,
    rng: np.random.Generator,
    num_worlds: int = 10,
    id_space: Optional[int] = None,
    n_free_max: int = 14,
) -> PinnedWorldMI:
    """Exact ``I(X_bc; M_ba, M_ca | pinning, X_ab=1, X_ac=1)`` averaged
    over sampled pinnings (see module docstring)."""
    if id_space is None:
        id_space = max(n**3, 1024)
    mis: List[float] = []
    max_bits = 0
    worlds = 0
    attempts = 0
    while worlds < num_worlds and attempts < 100 * num_worlds:
        attempts += 1
        sample = sample_input(n, rng, id_space=id_space)
        if sample.has_duplicate_ids():
            continue
        worlds += 1
        # X_bc uniform; M_ba, M_ca independent given X_bc.
        tables = []
        for sender, other in (("b", "c"), ("c", "b")):
            inp = sample.inputs[sender]
            dist = _message_distribution(
                protocol,
                inp.ids,
                inp.own_id,
                pinned={inp.partner_index["a"]: 1},
                x_bc_index=inp.partner_index[other],
                n_free_max=n_free_max,
                rng=rng,
            )
            msgs = sorted(dist[0].keys() | dist[1].keys())
            max_bits = max(max_bits, *map(len, msgs))
            tables.append([[dist[b].get(m, 0.0) for m in msgs] for b in (0, 1)])
        mis.append(independent_pair_mutual_information(*tables))
    if not mis:
        raise RuntimeError("no duplicate-free worlds sampled; enlarge id_space")
    return PinnedWorldMI(
        mi_per_world=mis,
        mean_mi=float(np.mean(mis)),
        max_message_bits=max_bits,
        bound=lemma_5_4_bound(max_bits, max_bits, n),
    )


@dataclass
class Theorem51Report:
    """Everything experiment E4 tabulates for one (protocol, n) point."""

    protocol_name: str
    n: int
    bandwidth: int
    error_rate: float
    accept_gap: AcceptGapReport
    message_mi: PinnedWorldMI
    lemma_5_3_needs: float = 0.3

    @property
    def information_starved(self) -> bool:
        """Lemma 5.4 ceiling below the Lemma 5.3 floor: the protocol cannot
        be correct (Theorem 5.1's contradiction)."""
        return self.message_mi.bound < self.lemma_5_3_needs


def theorem_5_1_experiment(
    protocol: OneRoundProtocol,
    n: int,
    rng: np.random.Generator,
    num_samples: int = 1500,
    num_worlds: int = 8,
) -> Theorem51Report:
    """Run both lemmas' measurements against one protocol."""
    gap = measure_accept_gap(protocol, n, rng, num_samples=num_samples)
    mi = pinned_world_mi(protocol, n, rng, num_worlds=num_worlds)
    return Theorem51Report(
        protocol_name=getattr(protocol, "name", type(protocol).__name__),
        n=n,
        bandwidth=mi.max_message_bits,
        error_rate=gap.error_rate,
        accept_gap=gap,
        message_mi=mi,
    )
