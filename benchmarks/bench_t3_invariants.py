"""T3 — the Section 4 invariants hold during routing.

The analysis proves invariants I_a..I_f hold through every phase w.h.p.
This bench runs fully audited trials across the topology battery:

* with frontier-set assignments conditioned on Lemma 2.2's good event
  (``C_i <= bound``), every invariant must hold *deterministically* — that
  is the content of Sections 4.1–4.2 given I_e;
* with unconditioned (paper-faithful, uniformly random) assignments, the
  only expected violations are I_e itself on unlucky draws; the frame
  machinery (I_a–I_d, I_f) must still hold whenever I_e does.
"""

from repro.analysis import format_table
from repro.experiments import (
    butterfly_hotrow_spec,
    butterfly_random_spec,
    deep_random_spec,
    mesh_monotone_spec,
)
from repro.rng import stable_hash_seed

from _common import emit, once, reset, run_pinned

INVARIANTS = ("I_a", "I_b", "I_c", "I_d", "I_e", "I_e_conservation", "I_f")
SEEDS = [0, 1, 2]

#: The audited battery (varied topologies); the instance seeds are the
#: first four draws of ``make_rng(77).integers(1 << 30)``.
SUITE = [
    ("butterfly(4) random", butterfly_random_spec(4, seed=64198558)),
    ("butterfly(4) hot-row", butterfly_hotrow_spec(4, 8, seed=843888390)),
    ("random L=20 w=6", deep_random_spec(20, 6, 12, seed=681516250)),
    ("mesh 8x8 monotone", mesh_monotone_spec(8, 16, seed=591816381)),
]


def audit_battery(condition_sets):
    rows = []
    clean = 0
    total = 0
    for index, (name, spec) in enumerate(SUITE):
        counts = {inv: 0 for inv in INVARIANTS}
        delivered = 0
        max_ci = 0
        _, records = run_pinned(
            spec.with_params(
                audit=True,
                condition_sets=condition_sets,
                audit_congestion_bound=3.0,
                m=8,
                w_factor=8.0,
                set_congestion_target=3.0,
            ),
            [stable_hash_seed(seed, index) for seed in SEEDS],
        )
        for record in records:
            total += 1
            if record.ok:
                clean += 1
            delivered += record.result.delivered
            max_ci = max(max_ci, record.audit.max_set_congestion_seen)
            for inv in INVARIANTS:
                counts[inv] += record.audit.count(inv)
        rows.append(
            (
                name,
                delivered,
                max_ci,
                *(counts[inv] for inv in INVARIANTS),
            )
        )
    return rows, clean, total


def test_t3_invariants_conditioned(benchmark):
    reset("t3_invariants")
    rows, clean, total = audit_battery(condition_sets=True)
    emit(
        "t3_invariants",
        format_table(
            ["instance", "delivered", "max C_i^t"] + list(INVARIANTS),
            rows,
            title="T3a: invariant audit, conditioned on Lemma 2.2's good event",
            note=f"{clean}/{total} trials fully clean — given I_e, the "
            "analysis' invariants hold deterministically, as proved in "
            "Sections 4.1-4.2",
        ),
    )
    # Conditioned runs must be spotless.
    for row in rows:
        assert all(v == 0 for v in row[3:]), row

    spec = SUITE[0][1].with_params(audit=True, condition_sets=True)
    once(benchmark, run_pinned, spec, [1])


def test_t3_invariants_unconditioned(benchmark):
    rows, clean, total = audit_battery(condition_sets=False)
    emit(
        "t3_invariants",
        format_table(
            ["instance", "delivered", "max C_i^t"] + list(INVARIANTS),
            rows,
            title="T3b: invariant audit, uniform random frontier-sets "
            "(paper-faithful)",
            note="only I_e (the probabilistic Lemma 2.2 event) may fail on "
            "unlucky draws; the structural invariants and congestion "
            "conservation (I_e_conservation, Lemma 4.10) never do",
        ),
    )
    for row in rows:
        name, delivered, max_ci, ia, ib, ic, id_, ie, ie_cons, if_ = row
        assert ia == 0 and ib == 0 and ie_cons == 0, row

    spec = SUITE[1][1].with_params(audit=True, condition_sets=False)
    once(benchmark, run_pinned, spec, [1])
