"""``BernoulliSource.arrivals_at`` against the per-source loop it replaced.

The source compares all of a step's coins at once and draws one scalar
destination per hit.  The reference below is the former loop, kept
verbatim: for any rate, seed and horizon both must give the same arrivals
and leave the generator in the same state, since a stream's later draws
(and every pinned stream digest) depend on it.
"""

from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import butterfly, random_leveled
from repro.traffic import Arrival, BernoulliSource


def reference_arrivals_at(source: BernoulliSource, t: int) -> List[Arrival]:
    if source.horizon is not None and t >= source.horizon:
        return []
    rng = source._rng
    rate = source.rate
    out: List[Arrival] = []
    coins = rng.random(len(source._sources))
    for idx, v in enumerate(source._sources):
        if coins[idx] < rate:
            options = source._reach[v]
            dest = options[int(rng.integers(0, len(options)))]
            out.append(Arrival(time=t, source=v, destination=dest))
    return out


NETWORKS = {
    "butterfly3": lambda: butterfly(3),
    "random_leveled": lambda: random_leveled(
        [5, 7, 7, 6, 4], edge_probability=0.35, seed=3
    ),
}

rates = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@given(
    network=st.sampled_from(sorted(NETWORKS)),
    rate=rates,
    seed=st.integers(0, 2**31 - 1),
    horizon=st.one_of(st.none(), st.integers(1, 12)),
    min_hops=st.integers(1, 2),
    steps=st.integers(1, 16),
)
@settings(max_examples=120, deadline=None)
def test_arrivals_match_reference_loop(
    network, rate, seed, horizon, min_hops, steps
):
    net = NETWORKS[network]()
    fast = BernoulliSource(
        net, rate, seed=seed, horizon=horizon, min_hops=min_hops
    )
    slow = BernoulliSource(
        net, rate, seed=seed, horizon=horizon, min_hops=min_hops
    )
    for t in range(steps):
        assert fast.arrivals_at(t) == reference_arrivals_at(slow, t)
    assert fast._rng.bit_generator.state == slow._rng.bit_generator.state

