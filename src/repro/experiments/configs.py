"""The experiment catalog: canonical instances as named, serializable specs.

Every canonical instance used by the benches and docs is defined here as a
:class:`~repro.scenarios.RunSpec` factory — materialize one with
:func:`~repro.scenarios.build_problem` or run it with
:func:`~repro.scenarios.run` — so EXPERIMENTS.md's "workload and
parameters" column, the benches, ``repro list``, and ``repro run --spec``
all share one source of truth.

Spec factories pin explicit component seeds where the historical builders
used them, which keeps every materialized instance byte-identical to the
pre-catalog code (asserted by the golden regression tests).
"""

from __future__ import annotations

from typing import Dict, List

from ..paths import RoutingProblem
from ..rng import stable_hash_seed
from ..scenarios import RunSpec
from ..scenarios.registry import UnknownNameError

# ------------------------------------------------------------ spec factories


def butterfly_random_spec(
    dim: int = 4, seed: int = 0, backend: str = "frontier", **backend_params
) -> RunSpec:
    """Random end-to-end butterfly traffic (unique bit-fixing paths)."""
    return RunSpec(
        name=f"butterfly_random(dim={dim})",
        topology="butterfly",
        topology_params={"dim": dim},
        workload="bf_random_end_to_end",
        workload_params={"seed": seed},
        selector="bit_fixing",
        backend=backend,
        backend_params=backend_params,
        seed=seed,
    )


def butterfly_hotrow_spec(
    dim: int = 4,
    num_packets: int = 8,
    seed: int = 0,
    backend: str = "frontier",
    **backend_params,
) -> RunSpec:
    """Hot-row butterfly traffic: congestion ``C = Θ(num_packets)``."""
    return RunSpec(
        name=f"butterfly_hotrow(dim={dim}, N={num_packets})",
        topology="butterfly",
        topology_params={"dim": dim},
        workload="bf_hot_row",
        workload_params={"num_packets": num_packets, "seed": seed},
        selector="bit_fixing",
        backend=backend,
        backend_params=backend_params,
        seed=seed,
    )


def deep_random_spec(
    depth: int = 20,
    width: int = 6,
    num_packets: int = 12,
    seed: int = 0,
    low_congestion: bool = True,
    backend: str = "frontier",
    **backend_params,
) -> RunSpec:
    """Random many-to-one on a random leveled network (the L-sweep axis).

    Component seeds use the default spec derivation — ``(seed, 11/12/13)``
    for topology/workload/selector — which is exactly the historical
    builder's scheme.
    """
    return RunSpec(
        name=f"deep_random(L={depth}, w={width}, N={num_packets})",
        topology="random_leveled",
        topology_params={"width": width, "depth": depth},
        workload="random_many_to_one",
        workload_params={
            "num_packets": num_packets,
            "source_levels": list(range(0, max(1, depth // 4))),
            "min_dest_level": max(1, (3 * depth) // 4),
        },
        selector="bottleneck" if low_congestion else "random",
        backend=backend,
        backend_params=backend_params,
        seed=seed,
    )


def mesh_monotone_spec(
    n: int = 8,
    num_packets: int = 16,
    seed: int = 0,
    backend: str = "frontier",
    **backend_params,
) -> RunSpec:
    """Section 5's application: monotone traffic + dimension-order paths."""
    return RunSpec(
        name=f"mesh_monotone(n={n}, N={num_packets})",
        topology="mesh",
        topology_params={"rows": n},
        workload="mesh_monotone",
        workload_params={"num_packets": num_packets, "seed": seed},
        selector="dimension_order",
        backend=backend,
        backend_params=backend_params,
        seed=seed,
    )


def mesh_corner_shift_spec(
    n: int = 8,
    block: int | None = None,
    backend: str = "frontier",
    **backend_params,
) -> RunSpec:
    """Deterministic high-congestion monotone mesh instance."""
    params = {} if block is None else {"block": block}
    return RunSpec(
        name=f"mesh_corner_shift(n={n})",
        topology="mesh",
        topology_params={"rows": n},
        workload="mesh_corner_shift",
        workload_params=params,
        selector="dimension_order",
        backend=backend,
        backend_params=backend_params,
        seed=0,
    )


def funnel_spec(
    dim: int = 4,
    num_packets: int = 8,
    seed: int = 0,
    backend: str = "frontier",
    **backend_params,
) -> RunSpec:
    """Adversarial butterfly instance: every path crosses one edge (C = N)."""
    return RunSpec(
        name=f"funnel(dim={dim}, N={num_packets})",
        topology="butterfly",
        topology_params={"dim": dim},
        workload="funnel_through_edge",
        workload_params={
            "num_packets": num_packets,
            "seed": stable_hash_seed(seed, 17),
        },
        selector="none",
        backend=backend,
        backend_params=backend_params,
        seed=seed,
    )


def dynamic_spec(
    dim: int = 4,
    rate: float = 0.3,
    horizon: int = 200,
    seed: int = 0,
    greedy: bool = True,
) -> RunSpec:
    """Continuous Bernoulli injection on a butterfly (experiment T9).

    The arrivals carry no explicit seed, so re-seeding the spec re-rolls
    them.  ``repro run`` materializes them up front; ``repro serve``
    admits them step by step.
    """
    router = "greedy" if greedy else "naive"
    return RunSpec(
        name=f"dynamic_{router}(dim={dim}, rate={rate})",
        topology="butterfly",
        topology_params={"dim": dim},
        arrival="bernoulli",
        arrival_params={"rate": rate, "horizon": horizon},
        selector="random",
        backend=router,
        seed=seed,
    )


#: Frontier catalog families that get a ``<name>_<preset>`` variant per
#: entry in :data:`repro.core.PRESETS`.
PRESET_FAMILIES = (
    "butterfly_random",
    "butterfly_hotrow",
    "deep_random",
    "mesh_monotone",
    "funnel",
)


def _catalog() -> Dict[str, RunSpec]:
    entries = {
        "butterfly_random": butterfly_random_spec(4, seed=0),
        "butterfly_hotrow": butterfly_hotrow_spec(4, 8, seed=0),
        "deep_random": deep_random_spec(20, 6, 12, seed=0),
        "mesh_monotone": mesh_monotone_spec(8, 16, seed=0),
        "mesh_corner_shift": mesh_corner_shift_spec(8),
        "funnel": funnel_spec(4, 8, seed=0),
        "butterfly_naive": butterfly_random_spec(4, seed=0, backend="naive"),
        "butterfly_greedy": butterfly_random_spec(4, seed=0, backend="greedy"),
        "butterfly_randgreedy": butterfly_random_spec(
            4, seed=0, backend="randgreedy"
        ),
        "butterfly_storeforward": butterfly_random_spec(
            4, seed=0, backend="storeforward"
        ),
        "butterfly_random_delay": butterfly_random_spec(
            4, seed=0, backend="random_delay"
        ),
        "butterfly_bounded_buffer": butterfly_random_spec(
            4, seed=0, backend="bounded_buffer", buffer_size=2
        ),
        "dynamic_naive": dynamic_spec(4, seed=0, greedy=False),
        "dynamic_greedy": dynamic_spec(4, seed=0, greedy=True),
    }
    # Explicit parameter-preset variants of the frontier families: the
    # same pinned scenarios run under each named family in
    # repro.core.PRESETS (selected via backend_params={"preset": ...}).
    # "paper-faithful" matches the bare entries' defaults — it exists so
    # both sides of the docs/tuning.md comparison are addressable specs;
    # "practical" is the tuned family (see docs/tuning.md).
    from ..core import PRESETS

    for base_name in PRESET_FAMILIES:
        for preset in PRESETS:
            slug = preset.replace("-", "_")
            entries[f"{base_name}_{slug}"] = entries[base_name].with_params(
                preset=preset
            )
    import dataclasses

    return {
        key: dataclasses.replace(spec, name=key)
        for key, spec in entries.items()
    }


#: Named ready-to-run specs (``repro list`` / ``repro spec <name>``), one
#: per backend family plus the canonical frontier instances.
CATALOG: Dict[str, RunSpec] = _catalog()


def catalog_spec(name: str, seed: int | None = None) -> RunSpec:
    """Look up a catalog spec by name (optionally re-seeded)."""
    try:
        spec = CATALOG[name]
    except KeyError:
        raise UnknownNameError("catalog spec", name, CATALOG) from None
    return spec if seed is None else spec.with_seed(seed)


def derive_sweep_seeds(base_seed: int, count: int) -> List[int]:
    """Deterministic, well-separated per-trial seeds for a sweep."""
    return [stable_hash_seed(base_seed, index) for index in range(count)]


def sweep_specs(
    base: RunSpec, num_trials: int, base_seed: int | None = None
) -> List[RunSpec]:
    """A fixed-problem Monte Carlo sweep: one spec per trial seed.

    The paper's guarantees (Theorem 4.26) are probabilistic over the
    *algorithm's* coins for a fixed instance, so the canonical sweep holds
    the problem constant and re-rolls only the routing randomness: the
    base spec's component seeds are pinned to their resolved values
    (:meth:`~repro.scenarios.RunSpec.with_pinned_scenario`), then the
    master seed — which only the backend consumes once components are
    pinned — is varied per trial via :func:`derive_sweep_seeds`.

    Every returned spec shares the base's scenario hash, so batched
    execution (:func:`~repro.experiments.run_spec_trials`) builds the
    ``(network, geometry, paths)`` triple once per worker and reuses it
    across the whole sweep.
    """
    pinned = base.with_pinned_scenario()
    seeds = derive_sweep_seeds(
        base.seed if base_seed is None else base_seed, num_trials
    )
    return [pinned.with_seed(seed) for seed in seeds]


#: Baseline step budget multiplier: bufferless baselines may thrash, so give
#: them a generous multiple of the trivial bound before declaring livelock.
BASELINE_BUDGET_FACTOR = 400


def baseline_budget(problem: RoutingProblem) -> int:
    """Step budget for baseline routers on one problem."""
    scale = max(problem.congestion + problem.dilation, 1)
    return BASELINE_BUDGET_FACTOR * scale + 2000
