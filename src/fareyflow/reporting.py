"""Run records and the append-only JSON-lines journal.

Every run serializes its fully resolved parameters; the config hash covers
exactly those parameters (never timestamps or timings), so identical seeded
runs produce identical records up to the volatile fields.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass

SCHEMA_VERSION = 1
VOLATILE_KEYS = ("timestamp", "elapsed_s", "trace", "timings")


def _plain(value):
    """JSON-friendly rendering with deterministic formatting; a non-finite
    float, numpy's too, becomes None (null), as JSON.stringify writes it."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return _plain(value.item())
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def config_hash(op: str, params: dict) -> str:
    blob = json.dumps({"op": op, "params": _plain(params)}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class ReportRecord:
    op: str
    params: dict
    outputs: dict
    residuals: dict
    verdict: str                   # "pass" | "fail" | "error"
    identity: str                  # plain-language statement of what was checked
    elapsed_s: float = 0.0
    trace: dict | None = None      # per-iteration trajectories (volatile)
    timings: dict | None = None    # phase -> seconds (volatile)

    def to_dict(self) -> dict:
        volatile = {k: _plain(v) for k, v in (("trace", self.trace),
                                             ("timings", self.timings)) if v is not None}
        return {
            "schema": SCHEMA_VERSION,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "elapsed_s": round(self.elapsed_s, 4),
            "op": self.op,
            "config_hash": config_hash(self.op, self.params),
            "config": _plain(self.params),
            "outputs": _plain(self.outputs),
            "residuals": _plain(self.residuals),
            "verdict": self.verdict,
            "identity": self.identity,
            **volatile,
        }


def write_report(record: ReportRecord, sink) -> dict:
    """Append one JSON line; returns the written dict."""
    data = record.to_dict()
    line = json.dumps(data, sort_keys=True, allow_nan=False)
    try:
        with open(sink, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
    except OSError as exc:
        raise OSError("cannot append journal record to %s: %s" % (sink, exc)) from exc
    return data


def read_journal(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def stable_view(record: dict) -> dict:
    """Record minus volatile fields, for bit-identical comparisons."""
    return {k: v for k, v in record.items() if k not in VOLATILE_KEYS}
