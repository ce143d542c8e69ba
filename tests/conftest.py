import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fairmatch import core


def subprocess_env():
    """os.environ with the tested fairmatch's source directory first on
    PYTHONPATH, for tests that run Python in a fresh interpreter."""
    src = str(Path(core.__file__).resolve().parents[1])
    path = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src] + path)}


@pytest.fixture
def one_queue_instance():
    return core.MCMSInstance(("q0",), ("r0", "r1"),
                             (Fraction(1),),
                             (Fraction(303, 500), Fraction(101, 250)), 0.99)


@pytest.fixture
def symmetric_instance():
    return core.MCMSInstance(("q0", "q1"), ("r0", "r1"),
                             (Fraction(1), Fraction(1)),
                             (Fraction(101, 100), Fraction(101, 100)), 0.99)


def make_instance(lam, mu, rho=0.99):
    lam = tuple(Fraction(x) if not isinstance(x, Fraction) else x for x in lam)
    mu = tuple(Fraction(x) if not isinstance(x, Fraction) else x for x in mu)
    queues = tuple(f"q{i}" for i in range(len(lam)))
    resources = tuple(f"r{i}" for i in range(len(mu)))
    return core.MCMSInstance(queues, resources, lam, mu, rho)


def make_dataset(scores, treatments, outcomes, resources=("a", "b"),
                 groups=None, arrival=None, po=None):
    scores = np.asarray(scores, dtype=float)
    n = len(scores)
    return core.Dataset(scores[:, None], scores, groups or {},
                        np.array(treatments, dtype=object),
                        np.asarray(outcomes, dtype=int),
                        np.arange(1, n + 1, dtype=float) if arrival is None
                        else np.asarray(arrival, dtype=float),
                        list(resources), ["score"], potential_outcomes=po)
