"""Physics-fingerprint regression suite.

Locks the physical layer down three ways against the golden capture in
``tests/data/phy_fingerprints.json`` (recorded before the transmit path
became interference-aware, then extended with the new ``sinr`` /
``csma_ca`` components):

* **Metric fingerprints** -- one small seeded scenario per registered
  (radio, MAC) combination; every metric in ``MetricsReport.flat_row()``
  must match the golden value exactly.  Any change to propagation, MAC
  arithmetic, rng-draw order or the transmit path shows up here.
* **Cache keys** -- for every registered spec, the full sequence of
  run cache keys must hash to the recorded digest.  Adding the phy
  config sections must not re-key (and therefore re-run) any
  pre-existing sweep, and the specs whose keys carry an active
  ``sinr``/``csma_ca`` section are pinned like every other.
* **Artifact bytes** -- a tiny sweep's exported CSV and JSON documents
  and its canonical config blob must hash to the recorded values,
  proving artifacts stay byte-identical, not merely numerically equal.

Regenerate deliberately (after an intended physics change) with::

    PYTHONPATH=src python tests/test_phy_fingerprint.py

and review the golden diff like source code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path

import pytest

from repro.experiments.orchestrator import (
    SweepSpec,
    canonical_config,
    expand_spec,
    export_csv,
    export_json,
    run_sweep,
)
from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.specs import available_specs, get_spec
from repro.registry import MACS, RADIOS

GOLDEN_PATH = Path(__file__).parent / "data" / "phy_fingerprints.json"

#: duration of the per-combination fingerprint scenario (simulated s)
FINGERPRINT_DURATION = 15.0


def fingerprint_config(radio: str, mac: str) -> ScenarioConfig:
    """The one small seeded scenario fingerprinting a (radio, MAC) pair."""
    return ScenarioConfig(
        protocol="flooding",
        radio=radio,
        mac=mac,
        n_nodes=20,
        area_size=600.0,
        radio_range=250.0,
        max_speed=2.0,
        group_size=6,
        traffic_interval=0.5,
        traffic_start=5.0,
        seed=7,
    )


def artifact_spec() -> SweepSpec:
    """The tiny sweep whose exported CSV bytes the golden pins down."""
    return SweepSpec(
        name="phy_fingerprint_artifact",
        base=ScenarioConfig(
            protocol="flooding",
            n_nodes=16,
            area_size=500.0,
            group_size=5,
            traffic_start=5.0,
            max_speed=2.0,
        ),
        grid={"n_nodes": [12, 16]},
        seeds=(3,),
        duration=10.0,
    )


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


GOLDEN = load_golden()


def combo_fingerprint(radio: str, mac: str) -> dict:
    result = run_scenario(
        fingerprint_config(radio, mac), duration=GOLDEN["duration"]
    )
    return result.report.flat_row()


def spec_key_digest(name: str) -> dict:
    runs = expand_spec(get_spec(name))
    joined = "\n".join(run.cache_key() for run in runs)
    return {
        "n_runs": len(runs),
        "sha256": hashlib.sha256(joined.encode()).hexdigest(),
        "first": runs[0].cache_key(),
    }


def artifact_results() -> list:
    """The artifact sweep's results, ``wall_time`` zeroed.

    ``wall_time`` is the one measured (not simulated) value in a record,
    and the JSON document carries it.
    """
    results = run_sweep(artifact_spec(), workers=1, executor="serial")
    for result in results:
        result.wall_time = 0.0
    return results


def file_sha256(write) -> str:
    """sha256 of the file ``write(path)`` creates."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "artifact")
        write(path)
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()


def artifact_csv_sha256() -> str:
    return file_sha256(lambda path: export_csv(artifact_results(), path))


def artifact_json_sha256() -> str:
    """The JSON document, spec block included."""
    return file_sha256(
        lambda path: export_json(artifact_results(), path, spec=artifact_spec())
    )


def base_canonical_sha256() -> str:
    blob = json.dumps(
        canonical_config(artifact_spec().base),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def test_golden_covers_every_registered_combo():
    """Every registered (radio, MAC) pair must have a golden fingerprint.

    Registering a new component without recording its fingerprint fails
    here, so the suite's coverage cannot silently rot.
    """
    expected = {f"{r}+{m}" for r in RADIOS.names() for m in MACS.names()}
    assert set(GOLDEN["combos"]) == expected


def test_golden_covers_every_registered_spec():
    """Every registered spec must have a golden cache-key digest.

    Registering a spec without recording its keys fails here, so a
    canonicaliser change cannot re-key an unpinned sweep unnoticed.
    """
    expected = {spec.name for spec in available_specs()}
    assert set(GOLDEN["cache_keys"]) == expected


@pytest.mark.parametrize("combo", sorted(GOLDEN["combos"]))
def test_combo_metrics_match_golden(combo):
    radio, mac = combo.split("+")
    row = combo_fingerprint(radio, mac)
    golden_row = GOLDEN["combos"][combo]
    assert set(row) == set(golden_row), "metric column set drifted"
    mismatches = {
        key: (row[key], golden_row[key])
        for key in golden_row
        if row[key] != golden_row[key]
    }
    assert not mismatches, (
        f"physics fingerprint drifted for {combo}: {mismatches} -- if the "
        "change is intentional, regenerate the golden (see module docstring)"
    )


@pytest.mark.parametrize("spec_name", sorted(GOLDEN["cache_keys"]))
def test_spec_cache_keys_match_golden(spec_name):
    """Every captured spec's full run-key sequence hashes identically.

    This is the "existing specs must not change cache keys" guarantee:
    a drifted digest means previously cached results would all re-run.
    """
    assert spec_key_digest(spec_name) == GOLDEN["cache_keys"][spec_name]


def test_artifact_csv_bytes_match_golden():
    assert artifact_csv_sha256() == GOLDEN["artifact_csv_sha256"]


def test_artifact_json_bytes_match_golden():
    assert artifact_json_sha256() == GOLDEN["artifact_json_sha256"]


def test_base_canonicalisation_matches_golden():
    """The canonical config blob for a classic scenario is byte-stable.

    ``canonical_config`` must keep dropping the inactive phy sections;
    if one leaks in, this hash (and every cache key built on it) moves.
    """
    assert base_canonical_sha256() == GOLDEN["base_canonical_sha256"]


def test_inactive_phy_sections_dropped_from_canonical_config():
    classic = canonical_config(artifact_spec().base)
    assert "sinr" not in classic and "csma_ca" not in classic
    active = canonical_config(
        dataclasses.replace(artifact_spec().base, radio="sinr", mac="csma_ca")
    )
    assert "sinr" in active and "csma_ca" in active


def regenerate() -> None:
    """Recompute every fingerprint and rewrite the golden JSON."""
    doc = {"duration": FINGERPRINT_DURATION, "combos": {}, "cache_keys": {}}
    for radio in RADIOS.names():
        for mac in MACS.names():
            doc["combos"][f"{radio}+{mac}"] = combo_fingerprint(radio, mac)
    for spec in available_specs():
        doc["cache_keys"][spec.name] = spec_key_digest(spec.name)
    doc["artifact_csv_sha256"] = artifact_csv_sha256()
    doc["artifact_json_sha256"] = artifact_json_sha256()
    doc["base_canonical_sha256"] = base_canonical_sha256()
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"regenerated {GOLDEN_PATH} ({len(doc['combos'])} combos)")


if __name__ == "__main__":
    regenerate()
