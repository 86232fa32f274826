"""Reading a planned sweep shard in tests."""

from __future__ import annotations

from zerosum import verify


def planned_pairs(factory):
    """Every (key, instance) pair a shard's factory stands for, in check
    order: each item's pair and the members its orbit record stands for
    (verify._orbit_members), which a sweep checks only where their
    representative's verdict does not stand for them."""
    for key, inst, orbit in factory():
        yield key, inst
        if orbit.size:
            yield from verify._orbit_members(key, inst, orbit)
