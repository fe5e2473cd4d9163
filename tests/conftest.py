"""Shared test helpers."""

from hypothesis import strategies as st

from cntbands.honeycomb import is_site
from cntbands.tube import MAX_COORD

# c0 > c1 >= c2 = -c0 - c1, every |coordinate| at most MAX_COORD
chiralities = st.integers(1, MAX_COORD).flatmap(
    lambda c0: st.integers(-(c0 // 2), min(c0 - 1, MAX_COORD - c0)).map(
        lambda c1: (c0, c1, -c0 - c1)))


def ball(radius, center=(0, 0, 0)):
    """All sites within graph distance `radius` of `center`."""
    c0, c1, c2 = center
    out = []
    for d0 in range(-radius, radius + 1):
        for d1 in range(-radius + abs(d0), radius - abs(d0) + 1):
            for d2 in range(-radius + abs(d0) + abs(d1), radius - abs(d0) - abs(d1) + 1):
                v = (c0 + d0, c1 + d1, c2 + d2)
                if is_site(v):
                    out.append(v)
    return out
