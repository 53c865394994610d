"""Protocol-fingerprint regression suite: HVDB and the DSM, SPBM and SGM baselines.

Locks the HVDB control plane and the baselines down against the golden
capture in ``tests/data/hvdb_fingerprints.json``: one small seeded
60-node run per case below, and every metric of its
``MetricsReport.flat_row()`` must match the golden value exactly.

The HVDB cases reach what E2's reference point does not: a single route
per destination, logical-hop bounds of 2 and 6, a route expiry short
enough that prunes drop routes, delay and bandwidth QoS bounds that
reject logical hops (non-zero ``qos_rejections``), and E5's mid-run
cluster-head failure.  The ``dsm``, ``spbm`` and ``sgm`` cases run the
same scenario with only ``protocol`` switched: DSM's position floods
and SPBM's membership floods are the broadcast-heavy traffic of E3, and
SGM's overlay tree is E2's third protocol (the phy fingerprints pin
flooding).  The ``sinr_csma`` and ``sinr_csma_ca`` cases run HVDB over
the SINR radio: its tunnel unicasts retry, so the order and pruning of
the radio's interferer ledger decide receptions there (the phy
fingerprints pin the SINR radio under flooding only).  A change to
route-table order, beacon contents, rng-draw order, a baseline's
forwarding or the transmit path shows up here.

Regenerate deliberately (after an intended protocol change) with::

    PYTHONPATH=src python tests/test_hvdb_fingerprint.py

and review the golden diff like source code.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.core.protocol import HVDBConfig, HVDBParameters
from repro.core.qos import QoSRequirement
from repro.core.route_maintenance import LogicalRouteTable
from repro.experiments.orchestrator import SweepSpec, execute_run, expand_spec
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.specs import e5_failure_hook_name

GOLDEN_PATH = Path(__file__).parent / "data" / "hvdb_fingerprints.json"

#: simulated seconds of every fingerprint run
FINGERPRINT_DURATION = 45.0

#: the route expiry of the ``short_expiry`` case (seconds); beacons come
#: every 3 s, so routes lapse between refreshes
SHORT_EXPIRY = 2.5


def fingerprint_config(params=None, qos=None) -> ScenarioConfig:
    """The 60-node HVDB scenario every case varies (E2's density).

    The baseline cases switch only ``protocol``; the ``hvdb`` section is
    then unused.
    """
    return ScenarioConfig(
        protocol="hvdb",
        n_nodes=60,
        area_size=1200.0,
        radio_range=250.0,
        max_speed=4.0,
        group_size=8,
        traffic_interval=1.0,
        traffic_start=15.0,
        seed=11,
        hvdb=HVDBConfig(
            vc_cols=8,
            vc_rows=8,
            dimension=4,
            params=params,
            qos_requirements=qos or {},
        ),
    )


def _plain(config: ScenarioConfig) -> Callable[[], Dict]:
    def run() -> Dict:
        return run_scenario(config, duration=FINGERPRINT_DURATION).report.flat_row()

    return run


def _ch_failure() -> Dict:
    # through the orchestrator, so the registered E5 hook is what fires
    spec = SweepSpec(
        name="hvdb_fingerprint_ch_failure",
        base=fingerprint_config(),
        seeds=(11,),
        duration=FINGERPRINT_DURATION,
        during_run=e5_failure_hook_name(0.4),
    )
    (run,) = expand_spec(spec)
    return execute_run(run).metrics


#: case name -> the run producing its metric row
CASES: Dict[str, Callable[[], Dict]] = {
    "one_route_per_destination": _plain(
        fingerprint_config(HVDBParameters(routes_per_destination=1))
    ),
    "max_logical_hops_2": _plain(fingerprint_config(HVDBParameters(max_logical_hops=2))),
    "max_logical_hops_6": _plain(fingerprint_config(HVDBParameters(max_logical_hops=6))),
    "short_expiry": _plain(fingerprint_config(HVDBParameters(route_expiry=SHORT_EXPIRY))),
    "qos_delay_bound": _plain(fingerprint_config(qos={1: QoSRequirement(max_delay=0.01)})),
    "qos_bandwidth_bound": _plain(
        fingerprint_config(qos={1: QoSRequirement(min_bandwidth=3e5)})
    ),
    "ch_failure_40pct": _ch_failure,
    "dsm": _plain(replace(fingerprint_config(), protocol="dsm")),
    "spbm": _plain(replace(fingerprint_config(), protocol="spbm")),
    "sgm": _plain(replace(fingerprint_config(), protocol="sgm")),
    "sinr_csma": _plain(replace(fingerprint_config(), radio="sinr", mac="csma")),
    "sinr_csma_ca": _plain(replace(fingerprint_config(), radio="sinr", mac="csma_ca")),
}


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


GOLDEN = load_golden()


def test_golden_covers_every_case():
    assert GOLDEN["duration"] == FINGERPRINT_DURATION
    assert set(GOLDEN["cases"]) == set(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_case_metrics_match_golden(case):
    row = CASES[case]()
    golden_row = GOLDEN["cases"][case]
    assert set(row) == set(golden_row), "metric column set drifted"
    mismatches = {
        key: (row[key], golden_row[key])
        for key in golden_row
        if row[key] != golden_row[key]
    }
    assert not mismatches, (
        f"HVDB fingerprint drifted for {case}: {mismatches} -- if the "
        "change is intentional, regenerate the golden (see module docstring)"
    )


@pytest.mark.parametrize("case", ["qos_delay_bound", "qos_bandwidth_bound"])
def test_qos_cases_reject_logical_hops(case):
    assert GOLDEN["cases"][case]["qos_rejections"] > 0


def test_short_expiry_case_prunes_routes(monkeypatch):
    dropped = []
    prune = LogicalRouteTable.prune_expired

    def counting_prune(self, now):
        count = prune(self, now)
        dropped.append(count)
        return count

    monkeypatch.setattr(LogicalRouteTable, "prune_expired", counting_prune)
    CASES["short_expiry"]()
    assert sum(dropped) > 0


def regenerate() -> None:
    """Recompute every case and rewrite the golden JSON."""
    doc = {
        "duration": FINGERPRINT_DURATION,
        "cases": {case: run() for case, run in CASES.items()},
    }
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"regenerated {GOLDEN_PATH} ({len(doc['cases'])} cases)")


if __name__ == "__main__":
    regenerate()
