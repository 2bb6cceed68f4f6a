"""Adaptive Monte-Carlo estimation with confidence-driven stopping.

Fixed-budget sampling either wastes samples (easy queries converge early)
or under-delivers (hard queries stay noisy).  :class:`AdaptiveSampler`
draws samples in *chunks* and stops as soon as the confidence interval of
the running estimate is narrower than a requested half-width — using the
**Wilson-score** interval, which (unlike the Wald/normal interval) keeps a
positive width when the empirical proportion sits at 0 or 1, so the driver
cannot stop after one lucky chunk of unanimous samples.

Optionally the sampler *stratifies* over the branches of the first chase
trigger: each first-choice outcome ``o`` (mass ``p_o``) becomes a stratum
sampled conditionally from its child node, and the estimates combine as
``p̂ = Σ p_o q̂_o`` with half-width ``sqrt(Σ p_o² hw_o²)``.  Branch masses
are then exact rather than estimated, which removes the first choice's
variance entirely — on strongly skewed first choices this reaches a target
half-width with far fewer samples.  Every stratum gets at least one draw
per chunk, so stratification is declined (``stratified=False``) when the
first trigger has more branches than ``max_samples``, and a stratified run
stops unconverged when the remaining budget cannot give every stratum a
draw: ``max_samples`` is never exceeded.

Usage::

    driver = AdaptiveSampler(grounder, target_half_width=0.02, seed=7)
    result = driver.estimate(HasStableModelQuery())
    result.value, result.half_width, result.samples, result.converged
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rng import default_rng, sqrt

from repro.gdatalog.chase import ChaseConfig, ChaseEngine, ChaseRecord
from repro.gdatalog.grounders import Grounder
from repro.gdatalog.sampler import Estimate
from repro.ppdl.queries import Query

__all__ = ["AdaptiveEstimate", "AdaptiveSampler"]


@dataclass(frozen=True)
class AdaptiveEstimate:
    """The result of one adaptive run: estimate, achieved precision, effort."""

    value: float
    half_width: float
    samples: int
    chunks: int
    converged: bool
    stratified: bool

    def as_estimate(self) -> Estimate:
        """A plain :class:`Estimate` view (half-width recast as z·SE)."""
        standard_error = self.half_width / 1.96 if self.half_width else 0.0
        return Estimate(self.value, standard_error, self.samples)

    def __str__(self) -> str:
        marker = "converged" if self.converged else "budget exhausted"
        return f"{self.value:.6f} ± {self.half_width:.6f} (n={self.samples}, {marker})"


class _Stratum:
    """One first-trigger branch: its exact mass and running success counts."""

    __slots__ = ("node", "mass", "samples", "successes")

    def __init__(self, node, mass: float):
        self.node = node
        self.mass = mass
        self.samples = 0
        self.successes = 0

    def half_width(self, z: float) -> float:
        if self.samples == 0:
            return 0.5  # maximally uncertain before the first draw
        return Estimate(
            self.successes / self.samples, 0.0, self.samples
        ).half_width(z, method="wilson")


class AdaptiveSampler:
    """Chunked Monte-Carlo driver that stops at a target Wilson half-width.

    Parameters
    ----------
    grounder / config / record:
        As for :class:`~repro.gdatalog.chase.ChaseEngine`: with the record
        of the grounder's exhaustive chase, plain paths descend the
        recorded tree instead of grounding every node again.
    target_half_width:
        Stop once the (combined) Wilson half-width is at most this.
    z:
        Critical value of the interval (1.96 ≈ 95%).
    chunk_size:
        Samples drawn between convergence checks.
    max_samples:
        Hard budget, never exceeded; the result reports ``converged=False``
        when it binds.
    stratify:
        Split on the first trigger's branches (see module docstring).
    """

    def __init__(
        self,
        grounder: Grounder,
        config: ChaseConfig | None = None,
        target_half_width: float = 0.01,
        z: float = 1.96,
        chunk_size: int = 256,
        max_samples: int = 200_000,
        stratify: bool = False,
        seed: int | None = None,
        record: ChaseRecord | None = None,
    ):
        if target_half_width <= 0.0:
            raise ValueError(f"target_half_width must be positive, got {target_half_width}")
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if max_samples <= 0:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
        self._engine = ChaseEngine(grounder, config or ChaseConfig(), record=record)
        self._rng = default_rng(seed)
        self.target_half_width = float(target_half_width)
        self.z = float(z)
        self.chunk_size = int(chunk_size)
        self.max_samples = int(max_samples)
        self.stratify = stratify

    # -- public API -------------------------------------------------------------

    def estimate(self, query: Query) -> AdaptiveEstimate:
        """Estimate ``P(query)`` to the target precision."""
        if self.stratify:
            strata = self._first_branch_strata()
            # Each stratum takes a draw per chunk: more strata than the
            # whole budget would overrun it in the first chunk.
            if strata is not None and len(strata) <= self.max_samples:
                return self._estimate_stratified(query, strata)
        return self._estimate_plain(query)

    # -- plain chunked loop --------------------------------------------------------

    def _estimate_plain(self, query: Query) -> AdaptiveEstimate:
        successes = 0
        samples = 0
        chunks = 0
        while samples < self.max_samples:
            budget = min(self.chunk_size, self.max_samples - samples)
            for _ in range(budget):
                outcome, _depth = self._engine.sample_path(self._rng)
                if outcome is not None and query.outcome_predicate(outcome):
                    successes += 1
            samples += budget
            chunks += 1
            half_width = Estimate(successes / samples, 0.0, samples).half_width(
                self.z, method="wilson"
            )
            if half_width <= self.target_half_width:
                return AdaptiveEstimate(
                    successes / samples, half_width, samples, chunks, True, False
                )
        half_width = Estimate(successes / samples, 0.0, samples).half_width(self.z, method="wilson")
        return AdaptiveEstimate(successes / samples, half_width, samples, chunks, False, False)

    # -- stratified loop ------------------------------------------------------------

    def _first_branch_strata(self) -> list[_Stratum] | None:
        """The first trigger's children as strata, or ``None`` when degenerate."""
        root = self._engine.root()
        triggers = root.triggers(self._engine.grounder)
        if not triggers:
            return None
        trigger = self._engine.select_trigger(triggers)
        children = self._engine.expand(root, trigger)
        if len(children) < 2:
            return None
        return [_Stratum(child, child.probability) for child in children]

    def _estimate_stratified(self, query: Query, strata: list[_Stratum]) -> AdaptiveEstimate:
        samples = 0
        chunks = 0
        while samples < self.max_samples:
            if self.max_samples - samples < len(strata):
                break  # too little budget left to give every stratum a draw
            budget = min(self.chunk_size, self.max_samples - samples)
            allocations = self._allocate(strata, budget)
            for stratum, allocation in zip(strata, allocations):
                for _ in range(allocation):
                    outcome, _depth = self._engine.sample_path(self._rng, start=stratum.node)
                    stratum.samples += 1
                    if outcome is not None and query.outcome_predicate(outcome):
                        stratum.successes += 1
            samples += sum(allocations)
            chunks += 1
            value, half_width = self._combine(strata)
            if half_width <= self.target_half_width:
                return AdaptiveEstimate(value, half_width, samples, chunks, True, True)
        value, half_width = self._combine(strata)
        return AdaptiveEstimate(value, half_width, samples, chunks, False, True)

    def _allocate(self, strata: list[_Stratum], budget: int) -> list[int]:
        """Proportional-to-mass allocation, at least one sample per stratum.

        The total is at most ``max(budget, len(strata))``.
        """
        raw = [max(1, int(round(budget * stratum.mass))) for stratum in strata]
        # Trim overshoot deterministically from the largest allocations.
        while sum(raw) > budget and max(raw) > 1:
            raw[raw.index(max(raw))] -= 1
        return raw

    def _combine(self, strata: list[_Stratum]) -> tuple[float, float]:
        """Combined estimate ``Σ p_o q̂_o`` and half-width ``sqrt(Σ p_o² hw_o²)``.

        The mass gap of truncated first-choice supports counts as failure
        (it belongs to the error event), matching the exact semantics.
        """
        value = sum(
            stratum.mass * (stratum.successes / stratum.samples)
            for stratum in strata
            if stratum.samples
        )
        variance_like = sum((stratum.mass * stratum.half_width(self.z)) ** 2 for stratum in strata)
        return value, float(sqrt(variance_like))
