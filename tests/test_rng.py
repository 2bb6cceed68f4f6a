"""Unit tests of the seedable RNG substrate: the backend-neutral API and the
pure-Python stand-ins used when NumPy is uninstalled.

The stand-ins are exercised directly, so these tests run in both the NumPy
and the no-NumPy configuration.
"""

from __future__ import annotations

import pytest


class TestRngFallback:
    """The pure-Python RNG substrate used when NumPy is uninstalled."""

    def test_fallback_seed_sequence_is_deterministic(self):
        from repro.rng import _FallbackSeedSequence

        a = _FallbackSeedSequence(42)
        b = _FallbackSeedSequence(42)
        assert a.generate_state(4) == b.generate_state(4)
        assert all(0 <= w < 2**64 for w in a.generate_state(4))

    def test_fallback_spawn_decorrelates_children(self):
        from repro.rng import _FallbackSeedSequence

        parent = _FallbackSeedSequence(7)
        first, second = parent.spawn(2)
        third = parent.spawn(1)[0]
        states = {
            tuple(child.generate_state(2)) for child in (first, second, third)
        }
        assert len(states) == 3  # all distinct, including across spawn calls

    def test_fallback_generator_draws(self):
        from repro.rng import _FallbackGenerator

        rng = _FallbackGenerator(123)
        assert 0.0 <= rng.random() < 1.0
        batch = rng.random(5)
        assert len(batch) == 5 and all(0.0 <= u < 1.0 for u in batch)
        assert rng.geometric(1.0) == 1
        assert rng.geometric(0.5) >= 1
        assert rng.poisson(0.0) == 0
        assert rng.poisson(3.0) >= 0
        with pytest.raises(ValueError):
            rng.geometric(0.0)
        with pytest.raises(ValueError):
            rng.poisson(-1.0)

    def test_fallback_default_rng_accepts_seed_material(self):
        from repro.rng import _fallback_default_rng, _FallbackSeedSequence

        seq = _FallbackSeedSequence(5)
        a = _fallback_default_rng(seq).random()
        b = _fallback_default_rng(_FallbackSeedSequence(5)).random()
        assert a == b
        assert _fallback_default_rng(17).random() == _fallback_default_rng(17).random()


class TestBackend:
    """The backend-neutral API every sampler draws through."""

    def test_default_rng_uses_the_selected_backend(self):
        from repro import rng

        generator = rng.default_rng(1)
        if rng.HAVE_NUMPY:
            import numpy

            assert isinstance(generator, numpy.random.Generator)
            assert rng.SeedSequence is numpy.random.SeedSequence
        else:
            assert isinstance(generator, rng._FallbackGenerator)
            assert rng.SeedSequence is rng._FallbackSeedSequence

    def test_generate_uint64_is_a_deterministic_word(self):
        from repro.rng import SeedSequence, generate_uint64

        word = generate_uint64(SeedSequence(9))
        assert word == generate_uint64(SeedSequence(9))
        assert 0 <= word < 2**64
        assert word != generate_uint64(SeedSequence(10))

    def test_spawn_trees_are_reproducible(self):
        from repro.rng import SeedSequence, generate_uint64

        first = [generate_uint64(child) for child in SeedSequence(3).spawn(4)]
        second = [generate_uint64(child) for child in SeedSequence(3).spawn(4)]
        assert first == second
        assert len(set(first)) == 4

    def test_seeded_random_is_reproducible(self):
        from repro.rng import seeded_random

        a, b, c = seeded_random(5), seeded_random(5), seeded_random(6)
        draws = [a.random() for _ in range(4)]
        assert draws == [b.random() for _ in range(4)]
        assert draws != [c.random() for _ in range(4)]


class TestFallbackDistributions:
    """Seeded sample moments of the pure-Python draws (4,000 draws each,
    checked to within five standard errors)."""

    DRAWS = 4000

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_geometric_mean_is_one_over_p(self, p):
        from repro.rng import _FallbackGenerator

        rng = _FallbackGenerator(2024)
        draws = [rng.geometric(p) for _ in range(self.DRAWS)]
        assert min(draws) >= 1
        mean = sum(draws) / self.DRAWS
        standard_error = ((1 - p) / p**2 / self.DRAWS) ** 0.5
        assert abs(mean - 1 / p) < 5 * standard_error

    @pytest.mark.parametrize("lam", [0.5, 3.0, 12.0])
    def test_poisson_mean_is_the_rate(self, lam):
        from repro.rng import _FallbackGenerator

        rng = _FallbackGenerator(2024)
        draws = [rng.poisson(lam) for _ in range(self.DRAWS)]
        assert min(draws) >= 0
        mean = sum(draws) / self.DRAWS
        assert abs(mean - lam) < 5 * (lam / self.DRAWS) ** 0.5

    def test_sized_draws_continue_the_scalar_stream(self):
        from repro.rng import _FallbackGenerator

        batched, scalar = _FallbackGenerator(8), _FallbackGenerator(8)
        assert batched.random(3) == [scalar.random() for _ in range(3)]
        assert batched.random() == scalar.random()

    def test_streams_differ_by_seed(self):
        from repro.rng import _FallbackGenerator

        assert _FallbackGenerator(1).random(8) != _FallbackGenerator(2).random(8)
