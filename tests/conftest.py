import random

import pytest

from monocover.graphs import EdgeColouring, HostGraph


def random_colouring(n, k, seed, host=None):
    rng = random.Random(seed)
    if host is None:
        host = HostGraph.complete(n)
    return EdgeColouring.build(host, k, lambda u, v: rng.randint(1, k))


def constant_colouring(n, c, k=None):
    host = HostGraph.complete(n)
    return EdgeColouring.build(host, k or c, lambda u, v: c)


def rejects(parse, text):
    """True iff ``parse(text)`` raises ValueError."""
    try:
        parse(text)
    except ValueError:
        return True
    return False


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
