import random

import numpy as np
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


def blocks_colouring(n, seed):
    """Four equal blocks of the n vertices, in order, with the cross-block
    colours of ``generators.four_blocks`` and uniform colours inside the
    blocks: no colour spans, and colour 1 inside block 0 leaves it by no
    edge."""
    block = np.repeat(np.arange(4), n // 4)
    table = np.zeros((4, 4), dtype=np.uint8)
    for (a, b), c in {(0, 1): 3, (0, 2): 4, (1, 2): 1, (1, 3): 1,
                      (0, 3): 2, (2, 3): 2}.items():
        table[a, b] = table[b, a] = c
    inside = block[:, None] == block[None, :]
    within = np.random.default_rng(seed).integers(1, 5, size=(n, n), dtype=np.uint8)
    mat = np.triu(np.where(inside, within, table[block[:, None], block[None, :]]), 1)
    return EdgeColouring.from_matrix(HostGraph.complete(n), 4, mat + mat.T)


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
