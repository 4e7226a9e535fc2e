"""Seeded input patterns, built with numpy and scipy only.

Random patterns of a few thousand states almost always have partially
overlapping rank classes, which obspart refuses.  The large systems are
therefore chains of small blocks that are each inside the partition
domain, joined by forward arcs whose tails lie outside every rank class
of their block: such an arc is never reached by an alternating path from
an unmatched node, so the chain's rank classes are exactly its blocks'.
"""

import ref


def random_pattern(rng, n_lo, n_hi, density_lo=1.5, density_hi=3.0):
    """(n, A entries) with about density * n arcs, self-loops allowed."""
    n = int(rng.integers(n_lo, n_hi + 1))
    density = float(rng.uniform(density_lo, density_hi))
    m = min(n * n, max(1, round(density * n)))
    flat = sorted(int(f) for f in rng.choice(n * n, size=m, replace=False))
    return n, [(f // n + 1, f % n + 1) for f in flat]


def in_domain_block(rng, n_lo, n_hi, need_free_state=False, density=(1.5, 3.0)):
    """A pattern whose rank classes are disjoint or equal.

    With ``need_free_state`` the block also has a state outside every
    rank class, to carry the tail of a forward arc.  Returns
    (n, A entries, states outside every rank class).
    """
    while True:
        n, a = random_pattern(rng, n_lo, n_hi, *density)
        classes = ref.rank_classes(n, a)
        if classes is None:
            continue
        in_class = {s for cls in classes for s in cls}
        free = [s for s in range(1, n + 1) if s not in in_class]
        if free or not need_free_state:
            return n, a, free


def sensors(rng, n, count):
    """One single-state measurement row per distinct random state."""
    states = rng.choice(n, size=count, replace=False)
    return [(row + 1, int(s) + 1) for row, s in enumerate(states)]


def chain_system(rng, n, sensor_share=0.05):
    """Exactly n states in blocks of 3-10 joined by 1-2 forward arcs each;
    returns (n, a, h)."""
    a = []
    done = 0
    prev_free = None  # global state numbers usable as forward-arc tails
    while done < n:
        left = n - done
        # Never leave fewer than 3 states for the last block.
        lo, hi = (left, left) if left <= 10 else (3, min(10, left - 3))
        bn, ba, free = in_domain_block(rng, lo, hi, need_free_state=True)
        a += [(i + done, j + done) for i, j in ba]
        if prev_free is not None:
            heads = rng.choice(bn, size=min(bn, int(rng.integers(1, 3))), replace=False)
            for head in heads:
                tail = prev_free[int(rng.integers(len(prev_free)))]
                a.append((int(head) + 1 + done, tail))
        prev_free = [s + done for s in free]
        done += bn
    return n, sorted(a), sensors(rng, n, max(1, round(sensor_share * n)))


def small_system(rng, n, sensor_count, density):
    """An in-domain pattern of n states, about density * n arcs, and
    single-state sensors."""
    n, a, _ = in_domain_block(rng, n, n, density=(density, density))
    return n, a, sensors(rng, n, sensor_count)
