"""Small construction helpers shared by the test modules."""

import numpy as np

from tourbench.core import Instance, Metric, Point, Tour
from tourbench.ga import _offspring


def make_instance(coords, metric=None, name="test"):
    points = tuple(Point(float(x), float(y)) for x, y in coords)
    return Instance(name=name, points=points, metric=metric)


def reversal_invariant_child(instance, p1, p2, split):
    """run_ga's reversal-invariant offspring of one parent pair, both candidates at ``split``."""
    children, _ = _offspring(instance, p1.order[None], p2.order[None], np.array([[split, split]]))
    return Tour(children[0])


def random_instance(rng, n, lo=0.0, hi=100.0, name="rand"):
    return make_instance(rng.uniform(lo, hi, size=(n, 2)), name=name)


# Unit square in perimeter order: the optimal tour is (0, 1, 2, 3), length 4.
SQUARE = ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0))


def square_instance(metric=None):
    return make_instance(SQUARE, metric=metric, name="square")
