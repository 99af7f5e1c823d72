"""Scalar differential evolution with the best/1/exp strategy.

Classic generational DE (Storn & Price, J. Global Optim. 1997) on a bounded scalar:
each trial mutates the best member at the generation's start with a scaled difference
of two random members, with exponential crossover (in one dimension always the mutant
gene). A generation is scored in one objective call, then each trial replaces its
parent if no worse, so runs are reproducible for a given seed. Every point is counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidShape
from .matrices import checked_count

MUTATION = 0.8  # scale of the difference vector added to the best member
SPREAD_RTOL = 1e-8  # converged: objective spread below this fraction of |best|


@dataclass
class DeResult:
    x: float
    fun: float
    n_evals: int
    n_generations: int
    converged: bool


def differential_evolution(objective, bounds, popsize=40, max_generations=200,
                           seed=0) -> DeResult:
    """Minimize a scalar function over [bounds[0], bounds[1]].

    ``objective`` maps an array of points to an array of their values.
    Stops when the population's objective standard deviation drops below
    ``SPREAD_RTOL`` times the best value's magnitude, or after ``max_generations``
    (the best-so-far point is returned either way, flagged via
    ``converged``).
    """
    lo, hi = float(bounds[0]), float(bounds[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise InvalidShape(f"bounds must be finite with lo < hi, got {lo!r}, {hi!r}")
    if (popsize := checked_count("popsize", popsize)) < 4:
        raise InvalidShape("popsize must be >= 4")
    if not (float(max_generations).is_integer() and max_generations >= 0):
        raise InvalidShape(f"max_generations must be >= 0 and whole, got {max_generations!r}")

    def scores(xs):
        if (values := np.asarray(objective(xs), dtype=float)).shape != xs.shape:
            raise InvalidShape(f"objective gave {values.shape} values for {xs.size} points")
        return values

    rng = np.random.default_rng(seed)
    pop = rng.uniform(lo, hi, size=popsize)
    fitness = scores(pop.copy())  # the objective may keep what it is given
    best, generation = int(np.argmin(fitness)), 0
    while True:
        spread = float(np.std(fitness))
        converged = bool(spread == 0.0 or spread < SPREAD_RTOL * abs(fitness[best]))
        if converged or generation == max_generations:
            break
        generation += 1
        trials = np.empty(popsize)
        for i in range(popsize):
            r1 = r2 = i
            while r1 == i:
                r1 = int(rng.integers(popsize))
            while r2 == i or r2 == r1:
                r2 = int(rng.integers(popsize))
            trials[i] = pop[best] + MUTATION * (pop[r1] - pop[r2])
        np.clip(trials, lo, hi, out=trials)
        f_trials = scores(trials)
        better = f_trials <= fitness
        pop[better], fitness[better] = trials[better], f_trials[better]
        best = int(np.argmin(fitness))

    return DeResult(x=float(pop[best]), fun=float(fitness[best]),
                    n_evals=popsize * (generation + 1), n_generations=generation,
                    converged=converged)
