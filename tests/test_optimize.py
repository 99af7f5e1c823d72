import numpy as np
import pytest

from traceinv import InvalidShape, differential_evolution


def test_convex_quadratic():
    result = differential_evolution(lambda x: (x - 2.0) ** 2, (0.0, 5.0), seed=1)
    assert result.x == pytest.approx(2.0, abs=1e-6)
    assert result.n_evals == 40 * (result.n_generations + 1)


def bimodal(x):
    # deeper basin at x = -3.8, shallower at x = +2.5
    return -1.5 * np.exp(-((x + 3.8) ** 2)) - np.exp(-((x - 2.5) ** 2) / 0.5)


@pytest.mark.parametrize("seed", range(20))
def test_bimodal_finds_deeper_basin(seed):
    result = differential_evolution(bimodal, (-6.0, 6.0), seed=seed)
    assert result.x == pytest.approx(-3.8, abs=1e-3)


def test_same_seed_is_deterministic():
    a = differential_evolution(bimodal, (-6.0, 6.0), seed=11)
    b = differential_evolution(bimodal, (-6.0, 6.0), seed=11)
    assert a.x == b.x and a.fun == b.fun and a.n_evals == b.n_evals


def test_every_call_is_counted():
    calls = []

    def objective(xs):
        calls.append(xs.copy())
        return (xs - 1.0) ** 2

    result = differential_evolution(objective, (0.0, 2.0), popsize=8,
                                    max_generations=10, seed=0)
    assert result.n_evals == sum(xs.size for xs in calls)
    assert [xs.size for xs in calls] == [8] * (result.n_generations + 1)


def test_stays_within_bounds():
    seen = []

    def objective(xs):
        seen.extend(xs)
        return np.cos(3 * xs)

    differential_evolution(objective, (-1.0, 1.0), popsize=10,
                           max_generations=20, seed=3)
    assert min(seen) >= -1.0 and max(seen) <= 1.0


def test_unconverged_flagged():
    rng = np.random.default_rng(0)

    def noisy(xs):
        return rng.standard_normal(xs.size)  # one value per point, never settles

    result = differential_evolution(noisy, (0.0, 1.0), popsize=6,
                                    max_generations=5, seed=2)
    assert result.converged is False
    assert result.n_generations == 5


def test_generation_draws_from_population_at_its_start():
    # Generational selection: a generation's trials are all scored before any
    # replaces its parent, so the trials of one call never see each other. The
    # objective keeps the arrays it is given; selection must not change them.
    calls = []

    def objective(xs):
        calls.append(xs)
        return (xs - 0.3) ** 2

    result = differential_evolution(objective, (-1.0, 1.0), popsize=5,
                                    max_generations=1, seed=4)
    (pop, trials) = calls
    rng = np.random.default_rng(4)
    rng.uniform(-1.0, 1.0, size=5)
    best = int(np.argmin((pop - 0.3) ** 2))
    expected = []
    for i in range(5):
        r1 = r2 = i
        while r1 == i:
            r1 = int(rng.integers(5))
        while r2 == i or r2 == r1:
            r2 = int(rng.integers(5))
        expected.append(min(max(pop[best] + 0.8 * (pop[r1] - pop[r2]), -1.0), 1.0))
    assert trials.tolist() == expected
    kept = np.where((trials - 0.3) ** 2 <= (pop - 0.3) ** 2, trials, pop)
    assert result.x == kept[np.argmin((kept - 0.3) ** 2)]


def test_objective_must_give_one_value_per_point():
    with pytest.raises(InvalidShape, match="values for 6 points"):
        differential_evolution(lambda xs: float(xs[0]), (0.0, 1.0), popsize=6)


def test_bad_bounds_rejected():
    with pytest.raises(InvalidShape):
        differential_evolution(lambda x: x, (1.0, 1.0))
    with pytest.raises(InvalidShape):
        differential_evolution(lambda x: x, (0.0, 1.0), popsize=3)


@pytest.mark.parametrize("bounds", [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)])
def test_non_finite_bounds_refused(bounds):
    with pytest.raises(InvalidShape, match="finite"):
        differential_evolution(lambda xs: xs, bounds)


@pytest.mark.parametrize("popsize", [6.7, 3, 0, -5, np.nan])
def test_popsize_must_be_whole_and_at_least_four(popsize):
    with pytest.raises(InvalidShape, match="popsize"):
        differential_evolution(lambda xs: xs, (0.0, 1.0), popsize=popsize)


@pytest.mark.parametrize("max_generations", [2.5, -3, -1, np.inf, np.nan])
def test_max_generations_must_be_whole_and_nonnegative(max_generations):
    with pytest.raises(InvalidShape, match="max_generations"):
        differential_evolution(lambda xs: xs, (0.0, 1.0), max_generations=max_generations)


@pytest.mark.parametrize("popsize, max_generations", [(4, 0), (8.0, 2.0), (np.int64(5), 1)])
def test_whole_counts_accepted(popsize, max_generations):
    result = differential_evolution(lambda xs: xs**2, (-1.0, 1.0), popsize=popsize,
                                    max_generations=max_generations)
    assert result.n_evals == int(popsize) * (result.n_generations + 1)
    assert result.n_generations <= max_generations
