"""Cache-management policies under million-flow churn (§3.2 extension).

The paper's §3.2 profiling drives the OVS caches with *static* flow
populations; this experiment asks what the EMC/megaflow hierarchy does
when flows churn.  Each cell streams one :class:`~repro.workloads.churn.ChurnSpec`
scenario (steady / high-churn MMPP bursts under Zipf skew / duty-cycled
SYN-flood waves) through an engine-free :class:`~repro.classifier.datapath.OvsDatapath`
whose EMC runs one :class:`~repro.classifier.cache_policy.CachePolicy`
(``random`` — the historical default — ``lru``, ``second-chance``,
``correlator``), and measures the steady-state EMC miss rate after a
warm-up fifth of the stream.

The Flow Correlator observation this reproduces: under one-hit-wonder
pressure the miss rate is decided by *admission*, not capacity — every
SYN-flood packet is a unique key that evicts a resident elephant for
zero future hits, so policies that gate admission (``second-chance``
lottery, ``correlator`` proven-reuse) beat plain LRU replacement in the
flood scenario, while pure churn without attack traffic still favours
recency (pollution there is self-limiting).  A vendored
copy of the seed EMC's install loop also runs against the default policy
on the same stream, pinning the refactor bit-identical (the rel=1e-12
parity the fig09/fig11 pins enforce for the full vswitch path).
"""

from __future__ import annotations

import random as _random_mod
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ...classifier.cache_policy import POLICY_NAMES, make_policy
from ...classifier.datapath import OvsDatapath
from ...classifier.emc import ExactMatchCache
from ...classifier.flow import FlowMask, make_flow
from ...classifier.rules import Action, Rule
from ...hashtable.cuckoo import CuckooHashTable
from ...workloads import ChurnEngine, ChurnSpec
from ..reporting import PaperCheck, format_table, render_checks

SCENARIOS = ("steady", "churn", "flood")

_SPEC_BUILDERS = {
    "steady": ChurnSpec.steady,
    "churn": ChurnSpec.high_churn,
    "flood": ChurnSpec.syn_flood,
}


@dataclass
class ChurnCell:
    """One (scenario, policy) measurement."""

    scenario: str
    policy: str
    packets: int
    emc_entries: int
    emc_miss_rate: float          # steady-state (post-warm-up)
    emc_evictions: int
    emc_admission_rejects: int
    emc_occupancy: int
    megaflow_share: float
    syn_fraction: float
    live_flows: int
    arrivals: int
    default_parity: bool          # random policy only: matches seed EMC


def _build_rules(groups: int) -> List[Rule]:
    """One dst-/16 rule per service group plus a catch-all, so churn
    traffic exercises the caches rather than punting to the controller."""
    mask = FlowMask.prefixes(src_prefix=0, dst_prefix=16,
                             src_port=False, dst_port=True, proto=False)
    rules = [Rule(mask=mask, match=mask.apply(make_flow(0, group=group)),
                  action=Action.output(group % 8), priority=groups - group)
             for group in range(groups)]
    catch_all = FlowMask.prefixes(src_prefix=0, dst_prefix=0,
                                  src_port=False, dst_port=False,
                                  proto=False)
    rules.append(Rule(mask=catch_all, match=catch_all.apply(make_flow(0)),
                      action=Action.output(0), priority=0))
    return rules


class _SeedReferenceEmc:
    """The pre-policy EMC install loop, vendored verbatim as the parity
    oracle for the default ``random`` policy."""

    def __init__(self, capacity: int, seed: int = 0xE3C) -> None:
        self.table = CuckooHashTable(capacity, key_bytes=16, name="seedref")
        self._random = _random_mod.Random(seed)
        self.evictions = 0
        self.installs = 0

    def install(self, key: bytes, rule: Rule) -> None:
        plan = self.table.probe(key)
        if plan.found:
            self.table.insert(key, rule)
            return
        candidates = (plan.primary_index, plan.secondary_index)
        if all(len(self.table.bucket_keys(index)) >= self.table.assoc
               for index in candidates):
            bucket = self._random.choice(candidates)
            victims = self.table.bucket_keys(bucket)
            if victims:
                self.table.delete(self._random.choice(victims))
                self.evictions += 1
        if self.table.insert(key, rule):
            self.installs += 1


def _default_policy_parity(scenario: str, packets: int, emc_entries: int,
                           seed: int) -> bool:
    """Replay the cell's stream through the policy-driven EMC and the
    vendored seed loop; True iff contents and stats stay identical."""
    spec = _SPEC_BUILDERS[scenario](seed=seed)
    engine = ChurnEngine(spec)
    emc = ExactMatchCache(emc_entries)   # default RandomEvictionPolicy
    reference = _SeedReferenceEmc(emc_entries)
    rule = Rule(mask=FlowMask.exact(),
                match=make_flow(0), action=Action.output(0))
    for flow in engine.packets(packets):
        key = flow.pack()
        if emc.lookup(flow) is None:
            emc.install(flow, rule)
        if reference.table.lookup(key) is None:
            reference.install(key, rule)
    same_contents = (sorted(key for key, _ in emc.table.items())
                     == sorted(key for key, _ in reference.table.items()))
    return (same_contents
            and emc.stats.evictions == reference.evictions
            and emc.stats.installs == reference.installs)


def run_cell(scenario: str, policy: str, packets: int = 40_000,
             emc_entries: int = 512, seed: int = 1009) -> ChurnCell:
    spec = _SPEC_BUILDERS[scenario](seed=seed)
    engine = ChurnEngine(spec)
    datapath = OvsDatapath(emc_entries=emc_entries,
                           megaflow_tuple_capacity=65_536,
                           emc_policy=make_policy(policy))
    for rule in _build_rules(spec.groups):
        datapath.install_rule(rule)

    warmup = packets // 5
    for flow in engine.packets(warmup):
        datapath.classify(flow)
    warm_lookups = datapath.emc.stats.lookups
    warm_hits = datapath.emc.stats.hits
    for flow in engine.packets(packets - warmup):
        datapath.classify(flow)

    lookups = datapath.emc.stats.lookups - warm_lookups
    hits = datapath.emc.stats.hits - warm_hits
    miss_rate = 1.0 - hits / lookups if lookups else 0.0
    parity = (policy == "random"
              and _default_policy_parity(scenario, packets, emc_entries,
                                         seed))
    return ChurnCell(
        scenario=scenario,
        policy=policy,
        packets=packets,
        emc_entries=emc_entries,
        emc_miss_rate=miss_rate,
        emc_evictions=datapath.emc.stats.evictions,
        emc_admission_rejects=datapath.emc.stats.admission_rejects,
        emc_occupancy=len(datapath.emc),
        megaflow_share=datapath.stats.layer_fractions()["megaflow"],
        syn_fraction=engine.stats.syn_fraction,
        live_flows=engine.live_flows,
        arrivals=engine.stats.arrivals,
        default_parity=parity,
    )


def run(scenarios: Sequence[str] = SCENARIOS,
        policies: Sequence[str] = POLICY_NAMES,
        packets: int = 40_000, emc_entries: int = 512,
        seed: int = 1009) -> List[ChurnCell]:
    return [run_cell(scenario, policy, packets=packets,
                     emc_entries=emc_entries, seed=seed)
            for scenario in scenarios for policy in policies]


def report(cells: List[ChurnCell]) -> str:
    by_key: Dict[tuple, ChurnCell] = {
        (cell.scenario, cell.policy): cell for cell in cells}
    scenarios = [s for s in SCENARIOS
                 if any(cell.scenario == s for cell in cells)]
    policies = [p for p in POLICY_NAMES
                if any(cell.policy == p for cell in cells)]
    rows = []
    for scenario in scenarios:
        for policy in policies:
            cell = by_key[(scenario, policy)]
            rows.append((
                scenario, policy,
                f"{cell.emc_miss_rate * 100:.1f}%",
                cell.emc_evictions,
                cell.emc_admission_rejects,
                f"{cell.megaflow_share * 100:.1f}%",
                f"{cell.syn_fraction * 100:.0f}%",
                cell.arrivals,
            ))
    table = format_table(
        ["scenario", "policy", "EMC miss", "evictions", "adm. rejects",
         "megaflow", "SYN", "flows"],
        rows,
        title="EMC policy x churn scenario (steady-state miss rate, "
              "post-warm-up)")

    checks = []
    admission = [p for p in ("second-chance", "correlator") if p in policies]
    if "flood" in scenarios and "lru" in policies and admission:
        flood_lru = by_key[("flood", "lru")]
        lru = flood_lru.emc_miss_rate
        best_name = min(admission,
                        key=lambda p: by_key[("flood", p)].emc_miss_rate)
        best = by_key[("flood", best_name)].emc_miss_rate
        # The comparison means something only if the scenario floods.
        checks.append(PaperCheck(
            "admission beats LRU under Zipf + high-churn SYN-flood phases",
            "Flow Correlator: one-hit wonders are an admission problem",
            f"{best_name} {best * 100:.1f}% vs lru {lru * 100:.1f}% miss",
            holds=best < lru and flood_lru.syn_fraction > 0.3))
    if "churn" in scenarios and {"lru", "random"} <= set(policies):
        lru = by_key[("churn", "lru")].emc_miss_rate
        rnd = by_key[("churn", "random")].emc_miss_rate
        checks.append(PaperCheck(
            "recency beats random replacement under pure churn",
            "no attack traffic: pollution is self-limiting, recency wins",
            f"lru {lru * 100:.1f}% vs random {rnd * 100:.1f}% miss",
            holds=lru < rnd))
    parity_cells = [cell for cell in cells if cell.policy == "random"]
    if parity_cells:
        checks.append(PaperCheck(
            "default policy bit-identical to seed EMC",
            "refactor must not move the baseline (rel=1e-12 pins)",
            f"{sum(cell.default_parity for cell in parity_cells)}"
            f"/{len(parity_cells)} scenarios identical",
            holds=all(cell.default_parity for cell in parity_cells)))
    checks.append(PaperCheck(
        "EMC occupancy bounded by capacity",
        "policies evict in place, never grow the table",
        f"max {max(cell.emc_occupancy for cell in cells)} of "
        f"{cells[0].emc_entries} entries",
        holds=all(cell.emc_occupancy <= cell.emc_entries
                  for cell in cells)))
    return table + "\n\n" + render_checks("cache churn", checks)


# -- repro.runner registration (see docs/EXPERIMENTS.md) ----------------------

BENCH = {
    "name": "cache_churn",
    "artifact": "§3.2 extension (cache churn)",
    "slug": "cache_churn",
    "title": "EMC/megaflow policy x churn scenario miss rates",
    "grid": [
        (f"{scenario}/{policy}",
         {"scenario": scenario, "policy": policy, "packets": 40_000,
          "emc_entries": 512, "seed": 1009},
         {"scenario": scenario, "policy": policy, "packets": 8_000,
          "emc_entries": 256, "seed": 1009})
        for scenario in SCENARIOS
        for policy in POLICY_NAMES
    ],
}


def bench_run(label, params, seed):
    """Runner hook: one grid point = one (scenario, policy) cell."""
    del label, seed
    return run_cell(params["scenario"], params["policy"],
                    packets=params["packets"],
                    emc_entries=params["emc_entries"],
                    seed=params["seed"])


def bench_report(payloads):
    return report(list(payloads.values()))
