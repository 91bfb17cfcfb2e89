"""Deterministic named random-number streams for simulations.

Every stochastic element of the simulated cluster (device jitter, Lustre
cross-traffic, service-time variation) draws from its own named stream so
that adding a new source of randomness never perturbs existing ones — a
standard variance-reduction practice in simulation studies. Streams are
derived from a root seed with :class:`numpy.random.SeedSequence`, so runs
are reproducible across platforms.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Tuple

import numpy as np

__all__ = ["RngStreams"]


class RngStreams:
    """A family of independent, named :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._root = np.random.SeedSequence(self.seed)
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
            child = np.random.SeedSequence(
                entropy=self._root.entropy,
                spawn_key=(_stable_hash(name),),
            )
            gen = np.random.default_rng(child)
            self._streams[name] = gen
        return gen

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
