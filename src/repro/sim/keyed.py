"""Keyed draws, evaluated a batch at a time.

Every per-client draw in the fleet models is ``np.random.default_rng(key)``
for an integer key ``(seed, stream, ...)``.  Building that generator costs
far more than drawing from it, so this module computes what it *starts
from* for a whole batch of keys in array lanes: ``SeedSequence``'s pool mix,
``generate_state(4, uint64)``, ``PCG64``'s ``srandom`` (DESIGN.md,
"Determinism discipline").  A prefetched value is a memo of a pure function;
a miss — never prefetched, evicted, or a component outside ``[0, 2**32)`` —
is answered by :func:`generator`, the reference the kernel is tested against.
"""

from itertools import islice
from typing import List, Optional, Tuple

import numpy as np

BLOCK = 256  # dispatches a Lookahead evaluates per kernel call
_KEEP = 4 * BLOCK  # entries a memo keeps beyond its newest batch, oldest out first

_POOL = 4
_XSHIFT = np.uint32(16)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_HI, _PCG_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_LOW32, _S32 = np.uint64(0xFFFFFFFF), np.uint64(32)


#: The single-key path, and the reference the kernel must equal.
generator = np.random.default_rng


def words(*components) -> Optional[np.ndarray]:
    """Key components (scalars or equal-length sequences) as an ``(N, L)`` uint32
    table, a key per row; None if empty or a component is not one entropy word."""
    try:
        columns = [np.asarray(c, dtype=np.int64) for c in components]
    except OverflowError:
        return None
    table = np.stack(np.broadcast_arrays(*columns), -1).reshape(-1, len(columns))
    if table.size == 0 or table.min() < 0 or table.max() > 0xFFFFFFFF:
        return None
    return table.astype(np.uint32)


def _hash_constants(init: int, mult: int, count: int) -> list:
    """``(constant, constant * mult)`` per hashmix call — independent of the data."""
    chain = [init * pow(mult, k, 1 << 32) & 0xFFFFFFFF for k in range(count + 1)]
    return [(np.uint32(a), np.uint32(b)) for a, b in zip(chain, chain[1:])]


def _hashmix(value, constant):
    value = (value ^ constant[0]) * constant[1]
    return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> _XSHIFT)


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """``state * PCG_MULT + inc`` mod 2**128 on (hi, lo) uint64 lanes."""
    a0, a1, b0, b1 = lo & _LOW32, lo >> _S32, _PCG_LO & _LOW32, _PCG_LO >> _S32
    p01, p10 = a0 * b1, a1 * b0
    middle = ((a0 * b0) >> _S32) + (p01 & _LOW32) + (p10 & _LOW32)
    carry = a1 * b1 + (p01 >> _S32) + (p10 >> _S32) + (middle >> _S32)
    product_lo = lo * _PCG_LO  # carry: its high word, through 32-bit halves
    out_lo = product_lo + inc_lo
    out_hi = carry + hi * _PCG_LO + lo * _PCG_HI + inc_hi + (out_lo < product_lo)
    return out_hi, out_lo


def _seed_lanes(table: np.ndarray):
    """``PCG64(SeedSequence(row))``'s (state_hi, state_lo, inc_hi, inc_lo) lanes."""
    count, length = table.shape
    constants = iter(_hash_constants(_INIT_A, _MULT_A, _POOL * max(_POOL, length)))
    zero = np.zeros(count, dtype=np.uint32)
    pool = [
        _hashmix(table[:, i] if i < length else zero, next(constants))
        for i in range(_POOL)
    ]
    for src in range(max(_POOL, length)):  # the pool, then any further words
        for dst in range(_POOL):
            if src != dst:
                source = pool[src] if src < _POOL else table[:, src]
                pool[dst] = _mix(pool[dst], _hashmix(source, next(constants)))
    # generate_state(4, uint64): eight uint32 words cycling over the pool,
    # paired little-endian into (seed_hi, seed_lo, seq_hi, seq_lo).
    out = [
        _hashmix(pool[i % _POOL], constant).astype(np.uint64)
        for i, constant in enumerate(_hash_constants(_INIT_B, _MULT_B, 2 * _POOL))
    ]
    seed_hi, seed_lo, seq_hi, seq_lo = (
        out[2 * i] | (out[2 * i + 1] << _S32) for i in range(_POOL)
    )
    # srandom: inc = (seq << 1) | 1; state = 0; step (-> inc); += seed; step.
    inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < inc_lo)
    return (*_lcg_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)


def seed_states(table: np.ndarray) -> List[Tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(SeedSequence(row))`` for every key row."""
    lanes = (lane.tolist() for lane in _seed_lanes(table))
    return [((h << 64) | l, (ih << 64) | il) for h, l, ih, il in zip(*lanes)]


def uniforms(table: np.ndarray) -> np.ndarray:
    """``default_rng(row).random()`` per row: step, XSL-RR, top 53 bits."""
    hi, lo, inc_hi, inc_lo = _seed_lanes(table)
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    folded, turn = hi ^ lo, hi >> np.uint64(58)
    out = (folded >> turn) | (folded << ((np.uint64(64) - turn) & np.uint64(63)))
    return (out >> np.uint64(11)) * (1.0 / 9007199254740992.0)


class _Memo:
    """Prefetched values of one keyed pure function: the newest batch whole
    (a sync cohort), plus older entries (streaming blocks) up to ``_KEEP``."""

    def __init__(self) -> None:
        self._values: dict = {}

    def prefetch(self, *components) -> None:
        """Evaluate one batch of keys (see :func:`words`) in a kernel call."""
        table = words(*components)
        if table is None:
            return
        self._values.update(zip(map(tuple, table.tolist()), self._evaluate(table)))
        excess = len(self._values) - max(len(table), _KEEP)
        for key in list(islice(self._values, max(0, excess))):
            del self._values[key]

    def __len__(self) -> int:
        return len(self._values)


class Uniforms(_Memo):
    """``default_rng(key).random()``, prefetchable."""

    _evaluate = staticmethod(lambda table: uniforms(table).tolist())

    def draw(self, key: tuple) -> float:
        value = self._values.get(key)
        return generator(key).random() if value is None else value


class Generators(_Memo):
    """``default_rng(key)``, prefetchable: a hit is one shared generator
    seated on the key's state — draw from it before the next :meth:`at`."""

    _evaluate = staticmethod(seed_states)

    def __init__(self) -> None:
        super().__init__()
        self._shared = np.random.Generator(np.random.PCG64(0))

    def at(self, key: tuple) -> np.random.Generator:
        found = self._values.get(key)
        if found is None:
            return generator(key)
        state = {"state": found[0], "inc": found[1]}
        self._shared.bit_generator.state = {
            "bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0
        }
        return self._shared


class Lookahead:
    """The per-dispatch draws of a streaming fleet, a block at a time.

    Dispatch ``d`` goes to ``default_rng((*select, d)).integers(num_clients)``
    — a function of ``d`` alone, so a block computed ahead is exact.  For that
    client the block also primes ``plan``'s fault draws and ``noise``'s
    ``(*update, d, client)`` states; probing past a busy client just misses.
    """

    def __init__(self, select: tuple, update: tuple, num_clients: int, plan, noise):
        self._select, self._update, self._num_clients = select, update, num_clients
        self._plan, self._noise, self._starts = plan, noise, {}

    def start(self, dispatch: int) -> int:
        """The client dispatch ``dispatch`` is drawn for."""
        if dispatch not in self._starts:
            dispatches = range(dispatch, dispatch + BLOCK)
            rngs = Generators()
            rngs.prefetch(*self._select, dispatches)
            self._starts = {
                d: int(rngs.at((*self._select, d)).integers(self._num_clients))
                for d in dispatches
            }
            self._plan.prefetch(dispatches, list(self._starts.values()))
            self._noise.prefetch(*self._update, dispatches, list(self._starts.values()))
        return self._starts[dispatch]
