"""Deterministic named random-number streams for simulations.

Every stochastic element of the simulated cluster (device jitter, Lustre
cross-traffic, service-time variation) draws from its own named stream so
that adding a new source of randomness never perturbs existing ones — a
standard variance-reduction practice in simulation studies. Stream
``name`` of a family seeded ``seed`` is seeded exactly as
``default_rng(SeedSequence(entropy=seed, spawn_key=(_stable_hash(name),)))``
would seed it, so runs are reproducible across platforms. The derivation
is done here in closed form: SeedSequence mixes the seed's words before
the spawn word, so that part is computed once per family and each new
name costs only the spawn word's four mix steps and an eight-word
``generate_state`` (see docs/performance.md §1).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["RngStreams"]

# numpy.random.SeedSequence's mixing constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _schedule(const: int, mult: int, steps: int) -> List[Tuple[int, int]]:
    """``steps`` hash-constant pairs (xor with the first, multiply by the
    second) of a SeedSequence hash chain starting at ``const``."""
    pairs = []
    for _ in range(steps):
        nxt = (const * mult) & _MASK32
        pairs.append((const, nxt))
        const = nxt
    return pairs


#: ``generate_state(4, uint64)`` reads the pool twice round: 8 words
_STATE_SCHEDULE = tuple(
    (i % _POOL_SIZE, xor, mul)
    for i, (xor, mul) in enumerate(_schedule(_INIT_B, _MULT_B, 2 * _POOL_SIZE)))


def _hashmix(value: int, xor: int, mul: int) -> int:
    value = ((value ^ xor) * mul) & _MASK32
    return value ^ (value >> 16)


def _pool_mix(x: int, y: int) -> int:
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ (value >> 16)


def _entropy_words(seed: int) -> List[int]:
    """The seed as SeedSequence reads it: little-endian 32-bit words."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    return words


def _spawn_steps(seed: int) -> Tuple[Tuple[int, int, int], ...]:
    """The seed's part of ``SeedSequence(entropy=seed, spawn_key=(h,))``.

    The seed, padded to the pool size, is hashed into the pool and
    cross-mixed, then any words past the pool are mixed in; only the
    spawn word ``h`` is left. Returns, per pool word, ``L * word`` (mod
    2**32) and the hash-constant pair ``h`` is mixed in with there.
    """
    entropy = _entropy_words(seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))
    # one hash step per word hashed in: the pool's, the cross-mix's
    # pool * (pool - 1), pool per word past it and pool for ``h``
    hashes = iter(_schedule(_INIT_A, _MULT_A, _POOL_SIZE * (len(entropy) + 1)))
    pool = [_hashmix(word, *next(hashes)) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _pool_mix(pool[dst],
                                      _hashmix(pool[src], *next(hashes)))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _pool_mix(pool[dst], _hashmix(word, *next(hashes)))
    return tuple(((_MIX_MULT_L * word) & _MASK32, xor, mul)
                 for word, (xor, mul) in zip(pool, hashes))


class _SeedWords(ISeedSequence):
    """The four uint64 words that seed one stream's PCG64."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("holds exactly PCG64's four uint64 seed words")
        return self.words


class RngStreams:
    """A family of independent, named :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        #: per pool word: the hoisted seed part (see _spawn_steps)
        self._spawn_steps = _spawn_steps(self.seed)
        self._streams: Dict[str, np.random.Generator] = {}
        # jitter hot path: each stream's bound ``lognormal`` (one per
        # stream) and the lognormal parameters per ``(mean, cv)`` (callers
        # pass config constants, so a handful); both live as long as
        # this family, i.e. one run
        self._lognormal: Dict[str, Callable[..., float]] = {}
        self._params: Dict[Tuple[float, float], Tuple[float, float]] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for ``name``.

        The same (seed, name) pair always yields the same sequence,
        regardless of creation order of other streams.
        """
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.Generator(np.random.PCG64(
                _SeedWords(self._seed_words(_stable_hash(name)))))
            self._streams[name] = gen
        return gen

    def _seed_words(self, spawn: int) -> np.ndarray:
        """``SeedSequence(entropy=seed, spawn_key=(spawn,))
        .generate_state(4, np.uint64)``, from the hoisted prefix.

        ``_hashmix`` and ``_pool_mix`` written out: this runs once per
        stream, i.e. per simulated frame.
        """
        pool = []
        for left, xor, mul in self._spawn_steps:
            value = ((spawn ^ xor) * mul) & _MASK32
            value = (left - _MIX_MULT_R * (value ^ (value >> 16))) & _MASK32
            pool.append(value ^ (value >> 16))
        state = []
        for src, xor, mul in _STATE_SCHEDULE:
            value = ((pool[src] ^ xor) * mul) & _MASK32
            state.append(value ^ (value >> 16))
        return np.array([state[0] | state[1] << 32, state[2] | state[3] << 32,
                         state[4] | state[5] << 32, state[6] | state[7] << 32],
                        dtype=np.uint64)

    def jitter(self, name: str, mean: float, cv: float) -> float:
        """One positive sample around ``mean`` with coefficient of variation ``cv``.

        Uses a lognormal so samples are strictly positive; ``cv = 0``
        returns ``mean`` exactly (deterministic mode). NaN is rejected
        like a negative value.
        """
        if not (mean >= 0):
            raise ValueError(f"mean must be non-negative, got {mean}")
        if not (cv >= 0):
            raise ValueError(f"cv must be non-negative, got {cv}")
        if mean == 0.0 or cv == 0.0:
            return mean
        params = self._params.get((mean, cv))
        if params is None:
            # numpy, not ``math``: these exact float64 results are what
            # every recorded fingerprint was drawn with
            sigma2 = np.log1p(cv * cv)
            params = (np.log(mean) - 0.5 * sigma2, np.sqrt(sigma2))
            self._params[(mean, cv)] = params
        draw = self._lognormal.get(name)
        if draw is None:
            # bound to the stream's generator, so ``stream(name)`` draws
            # and these advance the same state in program order
            draw = self._lognormal[name] = self.stream(name).lognormal
        return float(draw(*params))

    def spawn(self, index: int) -> "RngStreams":
        """Derive an independent child family (one per repetition run)."""
        return RngStreams(seed=_mix(self.seed, index))

    def names(self) -> Iterator[str]:
        """Iterate over stream names created so far."""
        return iter(self._streams)


def _stable_hash(name: str) -> int:
    """Platform-stable 32-bit hash of a stream name (FNV-1a)."""
    acc = 2166136261
    for byte in name.encode("utf-8"):
        acc = ((acc ^ byte) * 16777619) & 0xFFFFFFFF
    return acc


def _mix(seed: int, index: int) -> int:
    """Mix a run index into a root seed (splitmix64 finalizer)."""
    z = (seed * 0x9E3779B97F4A7C15 + index + 1) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) & 0x7FFFFFFF
