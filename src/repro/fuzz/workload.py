"""Seeded random scenario generation.

Every scenario is a pure function of ``(seed, profile)``: the generator draws
the overlay size, the destination-set shape, the submission timing pattern and
the conflict structure from one ``random.Random(seed)`` stream, so a sweep is
reproducible from its seed list alone.

Shapes covered (the knobs the lost-delivery class of bugs is sensitive to):

* **destination sets** — pairs, mixed small sets, wide fan-out, and a skewed
  mode where a few "hot" groups appear in most destination sets (maximal
  conflict overlap, like the inventory example's warehouses);
* **submission timing** — uniform spread, bursts (many submissions inside a
  short window force concurrent ordering decisions), and a trickle tail;
* **garbage collection** — some scenarios run periodic flush multicasts so
  the GC-vs-in-flight-delta edges get exercised;
* **crashes / restarts** — scripted events are attached by the
  profile (see :mod:`repro.fuzz.profiles`);
* **batching** — a minority of scenarios route submissions through the
  client-side batching window (:mod:`repro.core.batching`), so coalesced
  ordering units are explored against every fault profile.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from .scenario import FuzzScenario, Submission

#: Destination-shape modes with relative weights.
_SHAPES = (
    ("pairs", 4),        # |dst| == 2, like cross-warehouse transfers
    ("mixed", 3),        # |dst| in 2..4
    ("wide", 1),         # |dst| up to all groups
    ("hotspot", 3),      # one hot group in most destination sets
)

_TIMINGS = (
    ("spread", 3),       # uniform over the horizon
    ("bursts", 3),       # clustered bursts
    ("front", 1),        # everything almost at once
)


def _weighted_choice(rng: random.Random, options) -> str:
    total = sum(w for _, w in options)
    pick = rng.uniform(0, total)
    acc = 0.0
    for name, weight in options:
        acc += weight
        if pick <= acc:
            return name
    return options[-1][0]


def generate_scenario(seed: int, profile: str = "none") -> FuzzScenario:
    """Build the deterministic scenario for ``(seed, profile)``.

    The profile is attached afterwards by
    :func:`repro.fuzz.profiles.apply_profile`, which may add scripted events
    and relax the delivery expectation; this function only shapes workload.
    """
    rng = random.Random(seed)
    num_groups = rng.randint(3, 8)
    order = tuple(range(num_groups))
    shape = _weighted_choice(rng, _SHAPES)
    timing = _weighted_choice(rng, _TIMINGS)
    num_messages = rng.randint(30, 120)
    horizon_ms = rng.uniform(600.0, 2_000.0)
    jitter_ms = rng.choice([0.0, 1.0, 2.0, 5.0])
    uniform_ms = rng.choice([5.0, 20.0, 40.0, 80.0])
    gc_interval = rng.choice([None, None, None, 400.0, 800.0])

    hot = rng.randrange(num_groups)

    def draw_dst() -> Tuple[int, ...]:
        if shape == "pairs":
            return tuple(rng.sample(range(num_groups), 2))
        if shape == "mixed":
            k = rng.randint(2, min(4, num_groups))
            return tuple(rng.sample(range(num_groups), k))
        if shape == "wide":
            k = rng.randint(2, num_groups)
            return tuple(rng.sample(range(num_groups), k))
        # hotspot: the hot group joins most sets, maximizing conflicts.
        k = rng.randint(1, min(3, num_groups - 1))
        others = rng.sample([g for g in range(num_groups) if g != hot], k)
        if rng.random() < 0.8:
            return tuple([hot] + others)
        return tuple(others) if len(others) >= 2 else tuple(others + [hot])

    def draw_time(index: int) -> float:
        if timing == "spread":
            return rng.uniform(0.0, horizon_ms)
        if timing == "front":
            return rng.uniform(0.0, horizon_ms * 0.05)
        # bursts: 3-6 windows of 40 ms each
        num_bursts = rng.randint(3, 6)
        burst = rng.randrange(num_bursts)
        start = burst * (horizon_ms / num_bursts)
        return start + rng.uniform(0.0, 40.0)

    submissions: List[Submission] = []
    for i in range(num_messages):
        submissions.append(
            Submission(
                at_ms=round(draw_time(i), 3),
                msg_id=f"s{seed}m{i}",
                dst=draw_dst(),
                payload_bytes=rng.choice([32, 64, 96]),
            )
        )
    submissions.sort(key=lambda s: (s.at_ms, s.msg_id))

    # Batch axis, drawn *last* so every earlier field of a given seed is
    # unchanged from pre-batching sweeps: most runs stay unbatched, the rest
    # coalesce under a small/medium/large window (bursty timings make these
    # windows actually fill).
    batch_window = rng.choice([1, 1, 1, 1, 4, 8, 16])
    batch_delay_ms = rng.choice([2.0, 5.0, 10.0]) if batch_window > 1 else 5.0

    return FuzzScenario(
        name=f"fuzz-seed{seed}-{profile}",
        order=order,
        submissions=tuple(submissions),
        latency="uniform",
        uniform_ms=uniform_ms,
        jitter_ms=jitter_ms,
        net_seed=seed * 31 + 7,
        profile="none",
        profile_seed=seed * 17 + 3,
        gc_interval_ms=gc_interval,
        batch_window=batch_window,
        batch_delay_ms=batch_delay_ms,
    )
