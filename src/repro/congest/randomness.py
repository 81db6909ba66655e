"""Per-node private randomness, one derivation for both engine lanes.

A seeded run gives node ``p`` (the ``p``-th identifier in ascending
order) the stream ``default_rng(s_p)``, where ``s_0, s_1, ...`` are
successive ``integers(0, 2**63)`` draws of ``default_rng(seed)``.  The
object lane and the vectorized lane both hold that family as one
:class:`LazyRngs`, so a node's colour draws and coin flips agree
bit-for-bit between lanes.

Nothing is built up front.  The seeds are derived in one ``size=n`` draw
the first time any stream is used, and each generator is constructed on
its first real use.  The draw the paper's colour coding makes -- one
``integers(0, high)`` per node -- needs no generator in runs of at least
``_MIRROR_MIN_STREAMS`` nodes: it is computed for every node at once by a
numpy mirror of ``SeedSequence`` -> PCG64 -> Lemire's bounded draw.  The vectorized lane takes the whole array
(:meth:`LazyRngs.first_integers`); an object-lane node reads its own entry
through its :class:`NodeRng` (:meth:`LazyRngs.first_draw`).  A generator
built after such a draw replays it, so every stream continues exactly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["LazyRngs", "NodeRng", "first_integers"]


# numpy's seeding and bounded-draw constants, mirrored by
# LazyRngs._mirror: SeedSequence's hash mixing (bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (pcg64.h).
_M32 = np.uint64(0xFFFFFFFF)
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MUL_HI = np.uint64(2549297995355413924)
_PCG_MUL_LO = np.uint64(4865540595714422341)


def _hash_consts(init: int, mult: int, count: int) -> List[np.uint32]:
    """The scalar ``hash_const`` sequence of ``count`` SeedSequence hash
    steps: step ``i`` xors with entry ``i`` and multiplies by entry
    ``i + 1``."""
    out = [init]
    for _ in range(count):
        out.append((out[-1] * mult) & 0xFFFFFFFF)
    return [np.uint32(c) for c in out]


# SeedSequence.mix_entropy hashes 4 pool words, then 12 cross-mixes;
# generate_state(4, uint64) hashes 8 output words.
_MIX_CONSTS = _hash_consts(_SS_INIT_A, _SS_MULT_A, 16)
_OUT_CONSTS = _hash_consts(_SS_INIT_B, _SS_MULT_B, 8)


def _mulhi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of each ``a * b`` (schoolbook over 32-bit halves)."""
    a0, a1 = a & _M32, a >> np.uint64(32)
    b0, b1 = b & _M32, b >> np.uint64(32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> np.uint64(32)) + (p01 & _M32) + (p10 & _M32)
    return (
        a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32))
        + (mid >> np.uint64(32))
    )


def _pcg64_first_output(seeds: np.ndarray) -> np.ndarray:
    """First ``next_uint64`` of ``default_rng(s)`` for every seed, as uint64.

    ``default_rng(s)`` is ``PCG64(SeedSequence(s))``.  The seed's 32-bit
    little-endian words (two at most, for ``s < 2**64``) are hashed into a
    4-word pool, which yields the 128-bit initial state and stream
    increment; PCG64 seeds with two LCG steps and outputs with a third
    (XSL-RR).  All 128-bit arithmetic runs in ``(hi, lo)`` uint64 limbs;
    uint32/uint64 array products wrap, which is exactly the C semantics.
    """
    s = seeds.astype(np.uint64)
    hc = iter(_MIX_CONSTS)
    c = next(hc)

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal c
        value = value ^ c
        c = next(hc)
        value = value * c
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = _SS_MIX_L * x - _SS_MIX_R * y
        return out ^ (out >> np.uint32(16))

    zero = np.zeros(s.shape[0], dtype=np.uint32)
    words = [(s & _M32).astype(np.uint32), (s >> np.uint64(32)).astype(np.uint32)]
    pool = [hashmix(w) for w in words + [zero, zero]]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    state32 = []
    for i in range(8):
        value = (pool[i % 4] ^ _OUT_CONSTS[i]) * _OUT_CONSTS[i + 1]
        state32.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    # generate_state(4, uint64): little-endian pairs of 32-bit words.
    init_hi, init_lo, seq_hi, seq_lo = (
        state32[2 * i] | (state32[2 * i + 1] << np.uint64(32)) for i in range(4)
    )
    inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)

    def step(hi: np.ndarray, lo: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        new_hi = _mulhi64(lo, _PCG_MUL_LO) + lo * _PCG_MUL_HI + hi * _PCG_MUL_LO
        new_lo = lo * _PCG_MUL_LO + inc_lo
        carry = (new_lo < inc_lo).astype(np.uint64)
        return new_hi + inc_hi + carry, new_lo

    # pcg_setseq_128_srandom_r: state = 0; step; state += initstate; step.
    lo = inc_lo + init_lo
    hi = inc_hi + init_hi + (lo < init_lo).astype(np.uint64)
    hi, lo = step(hi, lo)
    hi, lo = step(hi, lo)  # pcg64_random_r steps before it outputs
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))


#: Below this many streams the first draw builds each node's generator
#: (about 15 µs with the draw) instead of computing the mirror, whose
#: cost (about 200 µs of small numpy calls) barely depends on n: the two
#: break even near 16 streams (CPython 3.11, numpy 2.4).
_MIRROR_MIN_STREAMS = 16


class LazyRngs:
    """Every node's generator of one seeded run, built on first use.

    Constructing ``n`` :class:`numpy.random.Generator` objects costs about
    19 µs each, which dominated the object lane's set-up on served graphs
    and the vectorized lane's at ``n ~ 10^5`` (over a second at
    ``n = 65536``).  This sequence holds the seeds (derived on first need
    by :meth:`derive`) and builds each generator at its first ``[p]``
    access, caching it for repeat reads.  One bounded draw per node
    needs no generator at all (from ``_MIRROR_MIN_STREAMS`` streams up):
    the vectorized lane reads the whole array (:meth:`first_integers`),
    an object-lane node its own entry (:meth:`first_draw`).

    Positions take that first draw one at a time (object lane) or all at
    once (vectorized lane), so ``_drawn[p]`` records the ``high`` each
    position's draw used (0: none).  A generator built afterwards replays
    it and continues the stream exactly.

    Seed derivation is bit-identical to ``n`` sequential
    ``master.integers(0, 2**63)`` draws: numpy's bounded draw with a
    power-of-two bound consumes exactly one 64-bit word per value (masking
    never rejects), so the ``size=n`` draw yields the same stream --
    pinned by a regression test.
    """

    __slots__ = ("_master", "_n", "_seed_array", "_made", "_drawn", "_low32", "_firsts")

    def __init__(self, seeds: np.ndarray):
        self._master: Any = None
        self._n = int(seeds.shape[0])
        self._seed_array: Optional[np.ndarray] = seeds
        self._made: Dict[int, np.random.Generator] = {}
        self._drawn: Optional[np.ndarray] = None
        #: Low 32 bits of every stream's first output (see _mirror).
        self._low32: Optional[np.ndarray] = None
        #: high -> every position's first integers(0, high), -1 where the
        #: position must draw from its real generator (see first_draw).
        self._firsts: Dict[int, np.ndarray] = {}

    @classmethod
    def derive(cls, seed: Any, n: int) -> "LazyRngs":
        """The ``n`` streams of master ``seed``; no generator is built
        (not even the master's) until a stream is used."""
        self = cls(np.empty(0, dtype=np.int64))
        self._master, self._n, self._seed_array = seed, n, None
        return self

    @property
    def _seeds(self) -> np.ndarray:
        seeds = self._seed_array
        if seeds is None:
            seeds = np.random.default_rng(self._master).integers(0, 2**63, size=self._n)
            self._seed_array = seeds
        return seeds

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, pos: int) -> np.random.Generator:
        rng = self._made.get(pos)
        if rng is None:
            rng = np.random.default_rng(int(self._seeds[pos]))
            drawn = self._drawn
            if drawn is not None and drawn[pos]:
                rng.integers(0, int(drawn[pos]))
            self._made[pos] = rng
        return rng

    def touched(self, pos: int) -> bool:
        """Whether position ``pos``'s stream was drawn from or built."""
        drawn = self._drawn
        return pos in self._made or (drawn is not None and bool(drawn[pos]))

    def first_integers(self, high: int) -> np.ndarray:
        """Every node's first ``self[p].integers(0, high)``, as int64.

        Bit-identical to the per-node calls, without building a generator
        (see :meth:`_mirror`) once there are ``_MIRROR_MIN_STREAMS``
        streams; the few positions whose Lemire draw might reject draw
        from, and keep, their real generator.  Every generator
        built later is advanced past this draw, so ``self[p]`` continues
        each node's stream exactly.  Must be the streams' first use.  If
        this process's numpy draw no longer matches the mirror (checked
        once per process, see :func:`_first_draw_matches_numpy`), every
        node draws from its real generator, so the answer never depends
        on the mirror.
        """
        if not 1 <= high <= 2**32:
            raise ValueError(f"high must be in [1, 2**32], got {high}")
        if self._made or self._drawn is not None:
            raise RuntimeError("first_integers must be the first use of the generators")
        self._drawn = np.full(len(self), high, dtype=np.int64)
        if high > 1 and (len(self) < _MIRROR_MIN_STREAMS or not _first_draw_matches_numpy()):
            # Too few streams to pay for the mirror, or numpy changed its
            # seeding or bounded draw: use real generators.
            out = np.empty(len(self), dtype=np.int64)
            for p in range(len(self)):
                rng = self._made[p] = np.random.default_rng(int(self._seeds[p]))
                out[p] = rng.integers(0, high)
            return out
        return self._mirrored_draw(high)

    def first_draw(self, pos: int, high: int) -> Optional[np.int64]:
        """Position ``pos``'s first ``integers(0, high)``, read from the
        lane-wide array for ``high`` (computed once per run and bound),
        or ``None`` when the node must draw from its real generator: the
        run has fewer than ``_MIRROR_MIN_STREAMS`` streams, the stream was
        already used, ``high`` is outside ``[1, 2**32]``, the position's
        Lemire draw might reject, or numpy no longer matches the mirror."""
        if (
            len(self) < _MIRROR_MIN_STREAMS
            or self.touched(pos)
            or not 1 <= high <= 2**32
            or not _first_draw_matches_numpy()
        ):
            return None
        out = self._firsts.get(high)
        if out is None:
            out = self._firsts[high] = self._mirror(high)
        value = out[pos]
        if value < 0:
            return None
        if self._drawn is None:
            self._drawn = np.zeros(len(self), dtype=np.int64)
        self._drawn[pos] = high
        return value

    def _mirror(self, high: int) -> np.ndarray:
        """Every position's first ``integers(0, high)`` for ``1 <= high <=
        2**32``, computed without a generator; -1 where Lemire might reject.

        ``SeedSequence`` -> PCG64 seeding -> one 64-bit output, whose low
        32 bits feed numpy's Lemire bounded draw (``high == 2**32`` takes
        the word as is; ``high == 1`` draws nothing).  Lemire rejects only
        when the product's low word falls under ``high`` (probability
        ``high / 2**32``).
        """
        if high == 1:
            # rng == 0: numpy returns the bound without consuming output.
            return np.zeros(len(self), dtype=np.int64)
        low32 = self._low32
        if low32 is None:
            low32 = self._low32 = _pcg64_first_output(self._seeds) & _M32
        if high == 2**32:
            return low32.astype(np.int64)
        m = low32 * np.uint64(high)
        out = (m >> np.uint64(32)).astype(np.int64)
        out[(m & _M32) < np.uint64(high)] = -1
        return out

    def _mirrored_draw(self, high: int) -> np.ndarray:
        """:meth:`first_integers` via the numpy mirror; Lemire-rejected
        positions build (and keep) their real generator."""
        out = self._mirror(high)
        for p in np.nonzero(out < 0)[0].tolist():
            rng = self._made[p] = np.random.default_rng(int(self._seeds[p]))
            out[p] = rng.integers(0, high)
        return out


def _is_int(value: Any) -> bool:
    return type(value) is int or isinstance(value, np.integer)


class NodeRng:
    """One object-lane node's stream of a :class:`LazyRngs`, standing in
    for its :class:`numpy.random.Generator`.

    A first ``integers(0, high)`` (or ``integers(high)``) is read from the
    lane-wide array (:meth:`LazyRngs.first_draw`).  Any other use builds
    the real generator -- advanced past a draw already served -- and
    forwards to it, so the node sees exactly the stream
    ``default_rng(s_p)`` would give it.
    """

    __slots__ = ("_rngs", "_pos")

    def __init__(self, rngs: LazyRngs, pos: int) -> None:
        self._rngs = rngs
        self._pos = pos

    def integers(
        self,
        low: Any,
        high: Any = None,
        size: Any = None,
        dtype: Any = np.int64,
        endpoint: bool = False,
    ) -> Any:
        if size is None and dtype is np.int64 and not endpoint:
            bound = low if high is None else high
            if _is_int(bound) and (high is None or (_is_int(low) and low == 0)):
                value = self._rngs.first_draw(self._pos, int(bound))
                if value is not None:
                    return value
        return self._rngs[self._pos].integers(
            low, high, size=size, dtype=dtype, endpoint=endpoint
        )

    def __getattr__(self, name: str) -> Any:
        # Private names (pickle's and copy's probes among them) are not
        # forwarded: the slots may not be set yet.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._rngs[self._pos], name)


#: Cached outcome of :func:`_first_draw_matches_numpy` for this process.
_FIRST_DRAW_OK: Optional[bool] = None


def _first_draw_matches_numpy() -> bool:
    """Whether the mirrored first draw agrees with this process's numpy.

    numpy does not promise that ``Generator.integers`` keeps its stream
    across releases, so the first call compares
    :meth:`LazyRngs._mirrored_draw` with ``default_rng(s).integers(0,
    high)`` on fixed seeds -- one- and two-word seeds, powers of two and
    odd bounds, and a bound near ``2**32`` whose draws mostly take the
    Lemire rejection path -- and caches the verdict.  On a mismatch both
    lanes draw from real generators instead.
    """
    global _FIRST_DRAW_OK
    if _FIRST_DRAW_OK is None:
        seeds = np.array([0, 1, 2, 2**32, 2**32 + 1, 12345, 2**63 - 1], dtype=np.int64)
        ok = True
        for high in (2, 5, 2**31 + 1, 2**32 - 2**30, 2**32):
            # A throwaway instance: its fallback generators are discarded.
            got = LazyRngs(seeds)._mirrored_draw(high)
            want = [np.random.default_rng(int(s)).integers(0, high) for s in seeds.tolist()]
            ok = ok and got.tolist() == want
        _FIRST_DRAW_OK = ok
    return _FIRST_DRAW_OK


def first_integers(rngs: Sequence[Optional[np.random.Generator]], high: int) -> np.ndarray:
    """Every position's first ``rngs[p].integers(0, high)``, as int64.

    :class:`LazyRngs` computes the whole array without building a
    generator.  Raises ``ValueError`` for an unseeded run, whose ``rngs``
    is a list of ``None``.
    """
    if isinstance(rngs, LazyRngs):
        return rngs.first_integers(high)
    raise ValueError("per-node randomness needs a seeded run")
