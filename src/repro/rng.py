"""Seedable RNG substrate: NumPy-backed when available, pure Python otherwise.

NumPy is an *optional* dependency of this package (``pip install
repro[fast]``), and this module is its only user: the samplers draw from
``numpy.random`` when it is installed, which keeps seeded streams identical
to earlier releases.  Everything must keep working — same APIs,
deterministic seeded streams — when NumPy is absent, falling back to the
standard library.

This module is the single place that decides which backend is in use.
NumPy is imported on first use — the first seeded draw or the first read of
one of the names below — not when this module is imported, so commands that
never sample never load it:

* :data:`HAVE_NUMPY` — whether ``import numpy`` succeeds;
* :class:`SeedSequence` / :class:`Generator` — ``numpy.random``'s classes
  when available, or the pure-Python stand-ins below;
* :func:`default_rng` — ``numpy.random.default_rng`` or its stand-in;
* :func:`generate_uint64` — one 64-bit word of seed material from a
  :class:`SeedSequence` (used to derive trigger seeds for forked workers).

The first three resolve through the module's ``__getattr__`` (PEP 562).

The fallback :class:`SeedSequence` mirrors the *shape* of NumPy's API
(``spawn`` producing statistically independent children, ``generate_state``
producing seed words) via SHA-256 over the ``(entropy, spawn_key)`` pair.  It
does **not** reproduce NumPy's bit streams — with NumPy absent there is no
NumPy stream to be compatible with; what matters is that seeded runs are
deterministic and spawned streams are decorrelated, which the hash
construction gives unconditionally.  The fallback :class:`Generator` wraps
:class:`random.Random` and implements exactly the drawing methods the
library uses (``random``, ``geometric``, ``poisson``).
"""

from __future__ import annotations

import functools
import hashlib
import math
import secrets

__all__ = [
    "HAVE_NUMPY",
    "SeedSequence",
    "Generator",
    "default_rng",
    "generate_uint64",
    "seeded_random",
    "sqrt",
]


@functools.cache
def _numpy():
    """The ``numpy`` module, or ``None`` when it is not installed (imported once)."""
    try:
        import numpy
    except ImportError:  # pragma: no cover - exercised via the no-NumPy CI job
        return None
    return numpy


#: Mask selecting one 64-bit word.
_UINT64_MASK = (1 << 64) - 1


def sqrt(value: float) -> float:
    """Correctly-rounded square root (identical to ``numpy.sqrt`` on floats)."""
    return math.sqrt(value)


def seeded_random(seed: int | None = None) -> "random.Random":
    """A fresh :class:`random.Random` stream (the library's only sanctioned one).

    Every stdlib-random consumer — chase trigger ordering, workload
    generators — builds its stream here, so randomness stays auditable:
    ``tools/lint_invariants.py`` forbids ``import random`` anywhere else in
    the library, which is what makes "seeded runs are reproducible" a
    checkable property rather than a convention.
    """
    import random

    return random.Random(seed)


class _FallbackSeedSequence:
    """Pure-Python stand-in for ``numpy.random.SeedSequence``.

    Children are keyed by ``(entropy, spawn_key)``; seed words come from
    SHA-256 over that pair, so distinct children produce decorrelated,
    deterministic streams.
    """

    __slots__ = ("entropy", "spawn_key", "_spawned")

    def __init__(self, entropy: int | None = None, spawn_key: tuple[int, ...] = ()):
        if entropy is None:
            entropy = secrets.randbits(64)
        self.entropy = int(entropy)
        self.spawn_key = tuple(int(k) for k in spawn_key)
        self._spawned = 0

    def spawn(self, n_children: int) -> list["_FallbackSeedSequence"]:
        children = [
            _FallbackSeedSequence(self.entropy, self.spawn_key + (self._spawned + i,))
            for i in range(n_children)
        ]
        self._spawned += n_children
        return children

    def generate_state(self, n_words: int, dtype: object = None) -> list[int]:
        words = []
        for index in range(n_words):
            digest = hashlib.sha256(
                repr((self.entropy, self.spawn_key, index)).encode("ascii")
            ).digest()
            words.append(int.from_bytes(digest[:8], "little") & _UINT64_MASK)
        return words

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeedSequence(entropy={self.entropy}, spawn_key={self.spawn_key})"


class _FallbackGenerator:
    """Pure-Python stand-in for ``numpy.random.Generator``.

    Implements the drawing methods the library actually uses.  ``random``
    accepts the optional NumPy-style *size* argument (returning a list); the
    discrete draws use inverse-CDF / counting constructions, which are exact
    (if not the fastest) and need no external dependency.
    """

    __slots__ = ("_random",)

    def __init__(self, seed_material: int):
        import random as _random_module

        self._random = _random_module.Random(seed_material)

    def random(self, size: int | None = None):
        if size is None:
            return self._random.random()
        return [self._random.random() for _ in range(size)]

    def geometric(self, p: float) -> int:
        """Number of trials to the first success, support ``{1, 2, ...}``."""
        if not 0.0 < p <= 1.0:
            raise ValueError(f"geometric probability must be in (0, 1], got {p}")
        if p == 1.0:
            return 1
        u = self._random.random()
        # Inverse CDF: smallest k with 1 - (1-p)^k >= u.
        return max(1, math.ceil(math.log1p(-u) / math.log1p(-p)))

    def poisson(self, lam: float) -> int:
        """Poisson draw via Knuth's product-of-uniforms method."""
        if lam < 0.0:
            raise ValueError(f"poisson rate must be non-negative, got {lam}")
        if lam == 0.0:
            return 0
        if lam > 700.0:  # pragma: no cover - guard against exp underflow
            # Normal approximation for extreme rates (far outside the
            # library's workloads, but never silently wrong by underflow).
            return max(0, round(self._random.gauss(lam, math.sqrt(lam))))
        threshold = math.exp(-lam)
        k = 0
        product = self._random.random()
        while product > threshold:
            k += 1
            product *= self._random.random()
        return k

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Generator(PurePython)"


def _fallback_default_rng(seed: object = None) -> _FallbackGenerator:
    if isinstance(seed, _FallbackSeedSequence):
        material = seed.generate_state(1)[0]
    elif seed is None:
        material = secrets.randbits(64)
    else:
        material = int(seed)
    return _FallbackGenerator(material)


def default_rng(seed: object = None):
    """A seeded generator: ``numpy.random.default_rng(seed)`` or its stand-in."""
    numpy = _numpy()
    if numpy is None:
        return _fallback_default_rng(seed)
    return numpy.random.default_rng(seed)


def generate_uint64(sequence) -> int:
    """One deterministic 64-bit word of seed material from *sequence*."""
    numpy = _numpy()
    if numpy is None:
        return int(sequence.generate_state(1)[0])
    return int(sequence.generate_state(1, dtype=numpy.uint64)[0])


def __getattr__(name: str):
    # Any other name — including the import system's probes such as
    # ``__path__`` — must fail before NumPy is touched.
    if name not in ("HAVE_NUMPY", "SeedSequence", "Generator"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    numpy = _numpy()
    if name == "HAVE_NUMPY":
        return numpy is not None
    if name == "SeedSequence":
        return _FallbackSeedSequence if numpy is None else numpy.random.SeedSequence
    return _FallbackGenerator if numpy is None else numpy.random.Generator
