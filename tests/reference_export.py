"""Training export as a plain per-pair loop, used as an independent reference
in tests.

Checks each record's dimensions and rebuilds the mode pool and its weights
for every record, draws each mode with ``random.choices`` over the weights,
and formats every prompt field by field, the way export ran before records
cached their texts.  Shares no sampling or prompt code with
``deepa2.chains.export_training``.
"""

from __future__ import annotations

import random

from deepa2.errors import GenerationError
from deepa2.modes import TRAINING_MODES, mode
from deepa2.records import serialize_dimension


def _prompt(m, record) -> str:
    prefix = "formalize" if m == mode("P", "F") else m.output.keyword
    parts = [f"{prefix}:"]
    for dim in m.inputs:
        parts.append(f"{dim.keyword}: {serialize_dimension(record, dim)}")
    return " ".join(parts).rstrip()


def reference_export_training(records, weights="aaac", n_per_record=14, seed=0):
    """What ``export_training`` must return."""
    rng = random.Random(seed)
    pairs = []
    for record in records:
        column = [m.weight_aaac if weights == "aaac" else m.weight_eb for m in TRAINING_MODES]
        pool = [(m, w) for m, w in zip(TRAINING_MODES, column) if w is not None]
        usable = {
            i
            for i, (m, _w) in enumerate(pool)
            if record.has(m.output) and all(record.has(d) for d in m.inputs)
        }
        if not usable:
            raise GenerationError(
                f"record {record.meta.record_id!r} supports no training mode"
            )
        for _ in range(n_per_record):
            for _attempt in range(1000):
                (idx,) = rng.choices(range(len(pool)), weights=[w for _m, w in pool])
                if idx in usable:
                    break
            else:
                raise GenerationError("mode resampling did not terminate")
            m = pool[idx][0]
            pairs.append((_prompt(m, record), serialize_dimension(record, m.output)))
    return pairs
