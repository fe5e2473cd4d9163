"""Shared test helpers."""

from cntbands.honeycomb import is_site


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
