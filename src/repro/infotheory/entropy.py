"""Shannon entropy and (conditional) mutual information, exact.

Implements exactly the quantities Section 2 ("Information theory") defines:

* ``H(X)`` -- Shannon entropy (bits);
* ``H(X|Y) = E_y[H(X | Y=y)]`` -- conditional entropy;
* ``I(X;Y) = H(X) - H(X|Y)`` -- mutual information;
* ``I(X;Y|Z) = H(X|Z) - H(X|Y,Z)`` -- conditional mutual information,
  including the paper's abuse of notation ``I(X;Y | Z=z)`` (condition the
  joint on the event first, then take MI).

Most functions take a :class:`~repro.infotheory.distributions.JointDistribution`
and variable *names*, so expressions read like the paper:
``mutual_information(mu, ["X_bc"], ["M_ba", "M_ca"], given=["N_a"])``.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Sequence

import numpy as np

from .distributions import JointDistribution

__all__ = [
    "entropy",
    "conditional_entropy",
    "mutual_information",
    "independent_pair_mutual_information",
    "conditional_mutual_information",
    "binary_entropy",
    "kl_divergence",
    "binary_kl",
    "pinsker_bound",
]

_EPS = 1e-12
_BLOCK_CELLS = 1 << 20  # 8 MB of float64 per H(B, C) block


def binary_entropy(p: float) -> float:
    """``h(p)`` in bits; endpoints give 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    if p < _EPS or p > 1.0 - _EPS:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def entropy(dist: JointDistribution, names: Optional[Sequence[str]] = None) -> float:
    """``H(X)`` for the (joint) variable(s) ``names`` (all if omitted), in bits."""
    if names is None:
        names = dist.variables
    marg = dist.marginal(list(names))
    return -sum(p * math.log2(p) for p in marg.pmf.values() if p > _EPS)


def conditional_entropy(
    dist: JointDistribution, x: Sequence[str], given: Sequence[str]
) -> float:
    """``H(X | Y) = H(X, Y) - H(Y)`` (the chain-rule form; exact)."""
    return entropy(dist, list(x) + list(given)) - entropy(dist, given)


def mutual_information(
    dist: JointDistribution,
    x: Sequence[str],
    y: Sequence[str],
    given: Optional[Sequence[str]] = None,
) -> float:
    """``I(X; Y)`` or, with ``given``, ``I(X; Y | Z)`` in bits.

    ``I(X;Y|Z) = H(X|Z) - H(X|Y,Z)``, exactly as defined in Section 2.
    Clamped at 0 against floating-point negatives.
    """
    if given:
        val = conditional_entropy(dist, x, given) - conditional_entropy(
            dist, x, list(y) + list(given)
        )
    else:
        val = entropy(dist, x) - conditional_entropy(dist, x, y)
    return max(0.0, val)


def independent_pair_mutual_information(cond_b: Any, cond_c: Any) -> float:
    """``I(X; B, C) = H(B, C) - H(B | X) - H(C | X)`` for uniform ``X`` and
    ``B``, ``C`` independent given ``X``, from ``cond_b[x, b] = p(b | x)``
    and ``cond_c[x, c]``.  ``H(B, C)`` is summed in blocks of ``_BLOCK_CELLS``
    cells, so the product joint :func:`mutual_information` needs is never built.
    """

    def h(p: np.ndarray) -> float:
        p = p[p > _EPS]
        return float(-np.sum(p * np.log2(p)))

    cond_b, cond_c = np.asarray(cond_b, float), np.asarray(cond_c, float)
    w, step = 1.0 / len(cond_b), max(1, _BLOCK_CELLS // cond_c.shape[1])
    h_bc = sum(h(w * cond_b[:, i:i + step].T @ cond_c) for i in range(0, cond_b.shape[1], step))
    return max(0.0, h_bc - w * (h(cond_b) + h(cond_c)))


def kl_divergence(p: Sequence[float], q: Sequence[float]) -> float:
    """``D(p || q)`` in bits over matched finite supports.

    Infinite when ``p`` puts mass where ``q`` does not.  This is the
    quantity behind Lemma 5.3's "change in behavior translates to a lower
    bound on mutual information": ``I(X; M) = E_x[D(P_{M|X=x} || P_M)]``.
    """
    if len(p) != len(q):
        raise ValueError("supports must match")
    for dist in (p, q):
        if any(v < -_EPS for v in dist) or abs(sum(dist) - 1.0) > 1e-6:
            raise ValueError("arguments must be probability vectors")
    total = 0.0
    for pi, qi in zip(p, q):
        if pi <= _EPS:
            continue
        if qi <= _EPS:
            return math.inf
        total += pi * math.log2(pi / qi)
    return max(0.0, total)


def binary_kl(p: float, q: float) -> float:
    """``d(p || q)`` for Bernoulli parameters, in bits."""
    return kl_divergence([p, 1.0 - p], [q, 1.0 - q])


def pinsker_bound(p: Sequence[float], q: Sequence[float]) -> float:
    """Pinsker's inequality, rearranged: a lower bound on ``D(p || q)``
    from total-variation distance: ``D >= 2 * TV² / ln 2`` (bits).

    Used as a sanity floor for the measured divergences in the Theorem 5.1
    experiments: any behavioural gap of TV ``t`` certifies at least this
    much information.
    """
    if len(p) != len(q):
        raise ValueError("supports must match")
    tv = 0.5 * sum(abs(pi - qi) for pi, qi in zip(p, q))
    return 2.0 * tv * tv / math.log(2.0)


def conditional_mutual_information(
    dist: JointDistribution,
    x: Sequence[str],
    y: Sequence[str],
    /,
    given: Optional[Sequence[str]] = None,
    **events: Any,
) -> float:
    """``I(X; Y | Z, W=w)``: condition on events, then take (conditional) MI.

    This is the paper's ``I(X_bc; M_ba, M_ca | N_a, X_ab=1, X_ac=1)``
    pattern: ``N_a`` stays a conditioning *variable* while ``X_ab, X_ac``
    are pinned to *values*.  ``x`` and ``y`` are positional-only so that
    event kwargs may use any variable name (a variable literally named
    ``given`` is the one exception).
    """
    d = dist.condition(**events) if events else dist
    return mutual_information(d, x, y, given=given)
