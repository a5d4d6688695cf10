import random
from fractions import Fraction

import pytest

from schreier.families import LazySet
from schreier.spaces import Vector

# stages at which the membership cursor and its weights are checked
CURSOR_STAGES = ("0", "1", "2", "3", "w", "w+1", "w*2", "w^2", "w^2+w+3")


def sample_lazy_sets(count: int = 20):
    """A deterministic battery of strictly increasing streams."""
    rng = random.Random(20240917)
    sets = [
        LazySet.naturals(),
        LazySet.arithmetic(2, 2),
        LazySet.arithmetic(1, 2),
        LazySet.arithmetic(3, 2),
        LazySet.arithmetic(2, 1),
        LazySet.arithmetic(3, 1),
        LazySet.arithmetic(5, 5),
        LazySet.arithmetic(10, 10),
        LazySet.geometric(2),
        LazySet.geometric(4),
        LazySet.from_function(lambda i: i * i, "squares"),
        LazySet.from_function(lambda i: i * (i + 1) // 2 + 1, "triangular+1"),
        LazySet.from_prefix([1, 4, 9, 16], 5),
        LazySet.from_prefix([2, 3, 5, 7, 11], 10),
        LazySet.from_prefix([1, 2, 3, 10], 1),
    ]
    while len(sets) < count:
        start = rng.randint(1, 6)
        vals = [start]
        while len(vals) < 64:
            vals.append(vals[-1] + rng.randint(1, 4))
        sets.append(LazySet.from_prefix(vals, rng.randint(1, 3)))
    return sets[:count]


def random_vector(rng: random.Random, indices, max_support: int,
                  denom: int = 6) -> Vector:
    support = rng.sample(list(indices), k=rng.randint(1, max_support))
    coords = {}
    for k in support:
        num = rng.randint(-denom, denom)
        if num == 0:
            num = 1
        coords[k] = Fraction(num, rng.randint(1, denom))
    return Vector.from_dict(coords)


@pytest.fixture
def rng():
    return random.Random(987654321)
