"""Seed plumbing.

Every randomized operation in the package accepts either an int seed or a
live ``random.Random``; one master generator threaded through a scenario
makes the whole run a pure function of the configured seed.
"""

import random


def as_rng(seed: int | random.Random) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)
