"""Small construction helpers shared by the test modules."""

import numpy as np

from tourbench.core import Instance, Metric, Point


def make_instance(coords, metric=None, name="test"):
    points = tuple(Point(float(x), float(y)) for x, y in coords)
    return Instance(name=name, points=points, metric=metric)


def random_instance(rng, n, lo=0.0, hi=100.0, name="rand"):
    return make_instance(rng.uniform(lo, hi, size=(n, 2)), name=name)


# Unit square in perimeter order: the optimal tour is (0, 1, 2, 3), length 4.
SQUARE = ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0))


def square_instance(metric=None):
    return make_instance(SQUARE, metric=metric, name="square")
