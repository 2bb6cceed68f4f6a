"""Monte-Carlo (forward-sampling) inference for GDatalog¬[Δ] programs.

Exhaustive chase enumeration is exponential in the number of probabilistic
choices; the sampler instead follows single chase paths, resolving each
trigger by drawing from the corresponding distribution.  Every sampled path
ends at a possible outcome with exactly its semantic probability (or in the
error event if the depth limit is hit), so empirical frequencies of outcome
properties are unbiased estimators of the exact event probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.exceptions import ValidationError
from repro.rng import default_rng, sqrt

from repro.gdatalog.chase import ChaseConfig, ChaseEngine, ChaseRecord
from repro.gdatalog.grounders import Grounder
from repro.gdatalog.outcomes import PossibleOutcome

__all__ = ["Estimate", "SampleStats", "MonteCarloSampler"]


@dataclass(frozen=True)
class Estimate:
    """A Monte-Carlo estimate with its standard error and sample size."""

    value: float
    standard_error: float
    samples: int

    def confidence_interval(self, z: float = 1.96, method: str = "normal") -> tuple[float, float]:
        """A confidence interval (95% by default).

        ``method="normal"`` is the classic Wald interval ``p̂ ± z·SE``.
        At an empirical proportion of exactly 0 or 1 (every Bernoulli
        sample agreed) the Wald interval collapses to a zero-width point,
        which badly understates the uncertainty of small runs — in that
        degenerate case the Wilson-score interval is returned instead
        (matching :meth:`half_width`'s default).  ``method="wilson"``
        always returns the Wilson-score interval, which stays strictly
        inside ``(0, 1)`` and keeps a positive width at the boundaries —
        the adaptive driver in :mod:`repro.runtime.adaptive` stops on its
        half-width for exactly this reason.
        """
        if method == "normal":
            if self.value <= 0.0 or self.value >= 1.0:
                return self.wilson_interval(z)
            return (self.value - z * self.standard_error, self.value + z * self.standard_error)
        if method == "wilson":
            return self.wilson_interval(z)
        raise ValidationError(f"confidence interval method must be 'normal' or 'wilson', got {method!r}")

    def wilson_interval(self, z: float = 1.96) -> tuple[float, float]:
        """The Wilson-score interval for a Bernoulli proportion.

        Non-degenerate at ``p̂ ∈ {0, 1}``: with *n* samples and zero
        successes the upper bound is ``z²/(n+z²)`` rather than 0.
        """
        n = self.samples
        if n <= 0:
            return (0.0, 1.0)
        p = min(max(self.value, 0.0), 1.0)
        z2 = z * z
        denominator = 1.0 + z2 / n
        center = (p + z2 / (2.0 * n)) / denominator
        spread = (z / denominator) * float(sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)))
        return (max(center - spread, 0.0), min(center + spread, 1.0))

    def half_width(self, z: float = 1.96, method: str = "wilson") -> float:
        """Half the width of the confidence interval (Wilson by default)."""
        low, high = self.confidence_interval(z, method=method)
        return (high - low) / 2.0

    def __str__(self) -> str:
        return f"{self.value:.6f} ± {self.standard_error:.6f} (n={self.samples})"


@dataclass
class SampleStats:
    """Aggregate statistics of one sampling run."""

    samples: int
    error_samples: int
    has_stable_model: int
    mean_depth: float

    @property
    def error_rate(self) -> float:
        return self.error_samples / self.samples if self.samples else 0.0


class MonteCarloSampler:
    """Forward sampler over the chase of a fixed grounder.

    *record* is the :class:`~repro.gdatalog.chase.ChaseRecord` of the
    grounder's exhaustive chase, when one is at hand: paths then descend the
    recorded tree (see :meth:`~repro.gdatalog.chase.ChaseEngine.sample_path`)
    and draw exactly what they draw without it.
    """

    def __init__(
        self,
        grounder: Grounder,
        config: ChaseConfig | None = None,
        seed: int | None = None,
        record: ChaseRecord | None = None,
    ):
        self._engine = ChaseEngine(grounder, config or ChaseConfig(), record=record)
        self._rng = default_rng(seed)

    # -- sampling --------------------------------------------------------------

    def sample_outcome(self) -> PossibleOutcome | None:
        """Draw one possible outcome; ``None`` signals the error event (depth limit)."""
        outcome, _depth = self._engine.sample_path(self._rng)
        return outcome

    def sample_outcomes(self, n: int) -> list[PossibleOutcome | None]:
        """Draw *n* independent outcomes."""
        return [self.sample_outcome() for _ in range(n)]

    # -- estimation ---------------------------------------------------------------

    def estimate(
        self, predicate: Callable[[PossibleOutcome], bool], n: int = 1000
    ) -> Estimate:
        """Estimate the probability of the event defined by *predicate*.

        Error-event samples count as *not* satisfying the predicate, matching
        the exact semantics where events are subsets of the finite outcomes.
        """
        successes = 0
        for _ in range(n):
            outcome = self.sample_outcome()
            if outcome is not None and predicate(outcome):
                successes += 1
        p_hat = successes / n
        standard_error = float(sqrt(max(p_hat * (1.0 - p_hat), 1e-300) / n))
        return Estimate(p_hat, standard_error, n)

    def estimate_has_stable_model(self, n: int = 1000) -> Estimate:
        """Estimate P("the program has some stable model")."""
        return self.estimate(lambda outcome: outcome.has_stable_model, n=n)

    def estimate_marginal(self, atom, mode: str = "brave", n: int = 1000) -> Estimate:
        """Estimate the brave/cautious marginal probability of an atom."""

        def satisfied(outcome: PossibleOutcome) -> bool:
            models = outcome.stable_models
            if not models:
                return False
            if mode == "brave":
                return any(atom in model for model in models)
            return all(atom in model for model in models)

        return self.estimate(satisfied, n=n)

    def run_stats(self, n: int = 1000) -> SampleStats:
        """Draw *n* samples and return aggregate statistics."""
        error_samples = 0
        stable = 0
        depths: list[int] = []
        for _ in range(n):
            outcome, depth = self._engine.sample_path(self._rng)
            depths.append(depth)
            if outcome is None:
                error_samples += 1
            elif outcome.has_stable_model:
                stable += 1
        return SampleStats(
            samples=n,
            error_samples=error_samples,
            has_stable_model=stable,
            mean_depth=(sum(depths) / len(depths)) if depths else 0.0,
        )
