"""Scalar differential evolution with the best/1/exp strategy.

Classic DE on a bounded scalar variable: each trial point mutates the
current best with a scaled difference of two random population members,
exponential crossover (which in one dimension always takes the mutant
gene), and greedy selection applied in fixed index order so runs are
reproducible for a given seed. Every objective call is counted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidShape

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

    Stops when the population's objective standard deviation drops below
    ``SPREAD_RTOL`` times the best value's magnitude, or after ``max_generations``
    (the best-so-far point is returned either way, flagged via
    ``converged``).
    """
    lo, hi = float(bounds[0]), float(bounds[1])
    if not lo < hi:
        raise InvalidShape("bounds must satisfy lo < hi")
    popsize = int(popsize)
    if popsize < 4:
        raise InvalidShape("popsize must be >= 4")

    rng = np.random.default_rng(seed)
    pop = rng.uniform(lo, hi, size=popsize)
    fitness = np.empty(popsize)
    for i in range(popsize):
        fitness[i] = objective(pop[i])
    n_evals = popsize
    best = int(np.argmin(fitness))

    converged = False
    generation = 0
    for generation in range(1, max_generations + 1):
        spread = float(np.std(fitness))
        if spread == 0.0 or spread < SPREAD_RTOL * abs(fitness[best]):
            converged = True
            generation -= 1
            break
        for i in range(popsize):
            r1 = r2 = i
            while r1 == i:
                r1 = int(rng.integers(popsize))
            while r2 == i or r2 == r1:
                r2 = int(rng.integers(popsize))
            trial = pop[best] + MUTATION * (pop[r1] - pop[r2])
            trial = min(max(trial, lo), hi)
            f_trial = objective(trial)
            n_evals += 1
            if f_trial <= fitness[i]:
                pop[i] = trial
                fitness[i] = f_trial
                if f_trial < fitness[best]:
                    best = i
    else:
        spread = float(np.std(fitness))
        converged = bool(spread == 0.0 or spread < SPREAD_RTOL * abs(fitness[best]))

    return DeResult(x=float(pop[best]), fun=float(fitness[best]),
                    n_evals=n_evals, n_generations=generation, converged=converged)
