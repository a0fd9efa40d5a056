"""A fixed family of small Gorenstein descriptors, for the tests that sweep one."""

from itertools import combinations_with_replacement, product

from lagflag import flags
from lagflag.errors import DescriptorError


def _gorenstein_descriptors(n: int):
    """Valid half-rank-n descriptors with k <= 2, t in {1,2}, d - e in {0,1}, in a fixed order."""
    for k in range(0, 3):
        for d in combinations_with_replacement(range(n + 1), k + 1):
            for t in product((1, 2), repeat=k):
                for gaps in product((0, 1), repeat=k):
                    e = tuple(d[i] - gaps[i] for i in range(k))
                    try:
                        desc = flags.FlagDescriptor(n, d, e, t)
                    except DescriptorError:
                        continue
                    yield desc
