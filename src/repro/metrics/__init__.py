"""Evaluation metrics (System S9).

* :mod:`repro.metrics.delivery` -- packet delivery ratio and end-to-end
  delay statistics from the network's delivery ledger.
* :mod:`repro.metrics.overhead` -- control overhead in packets/bytes,
  absolute and normalised per delivered data packet.
* :mod:`repro.metrics.fairness` -- load-balancing indices (Jain fairness,
  coefficient of variation, peak-to-mean) over per-node forwarding loads.
* :mod:`repro.metrics.availability` -- windowed delivery ratio, service
  availability during failures and recovery time.
* :mod:`repro.metrics.collectors` -- :class:`MetricsReport`, a single
  structure experiments fill and benchmark tables print; its
  ``flat_row()`` is the scalar form orchestrator workers ship across
  process boundaries.
"""

from repro.metrics.delivery import DeliveryMetrics, compute_delivery_metrics
from repro.metrics.overhead import OverheadMetrics, compute_overhead_metrics
from repro.metrics.fairness import (
    jain_index,
    coefficient_of_variation,
    peak_to_mean,
    LoadBalanceMetrics,
    compute_load_balance,
)
from repro.metrics.availability import (
    AvailabilityMetrics,
    windowed_delivery_ratio,
    compute_availability,
)
from repro.metrics.collectors import MetricsReport, collect_metrics

__all__ = [
    "DeliveryMetrics",
    "compute_delivery_metrics",
    "OverheadMetrics",
    "compute_overhead_metrics",
    "jain_index",
    "coefficient_of_variation",
    "peak_to_mean",
    "LoadBalanceMetrics",
    "compute_load_balance",
    "AvailabilityMetrics",
    "windowed_delivery_ratio",
    "compute_availability",
    "MetricsReport",
    "collect_metrics",
]
