"""Prometheus text exposition for a :class:`MetricsRegistry`.

Renders every counter, gauge, and histogram the registry holds in the
text-based exposition format (version 0.0.4) that Prometheus and its
ecosystem scrape, so ``GET /metrics`` on a running ``repro serve``
process works with an off-the-shelf scrape config.

Only the subset of the format the registry needs is produced:

* metric names are sanitized (dots become underscores — the registry's
  ``service.cache.hits`` exports as ``service_cache_hits``);
* one ``# TYPE`` line per family (``counter`` / ``gauge`` /
  ``histogram``);
* histograms render the standard cumulative ``_bucket{le="..."}``
  series plus ``_sum`` and ``_count``, and additionally export
  server-side quantile gauges ``<name>_p50/_p90/_p99`` computed from
  the fixed log buckets — scrape-friendly SLO numbers without PromQL;
* label values are escaped per the spec (backslash, double quote,
  newline).

Pure rendering; no HTTP here. :mod:`repro.service.httpd` serves it.
"""

from __future__ import annotations

import math
import re
from itertools import groupby
from typing import Dict, List, Mapping, Optional, Tuple

from .metrics import HistogramSummary, MetricsRegistry

__all__ = ["CONTENT_TYPE", "render_prometheus", "parse_prometheus", "sanitize_name"]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
"""The Content-Type a compliant ``/metrics`` response must carry."""

PROMETHEUS_CONTENT_TYPE = CONTENT_TYPE
"""The same, under the name :mod:`repro.obs` exports it as."""

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_name(name: str) -> str:
    """Map a registry metric name onto the Prometheus grammar.

    Dots (the registry's namespacing convention) and any other
    out-of-alphabet character become underscores; a leading digit gets
    an underscore prefix.
    """
    out = _NAME_OK.sub("_", name.replace(".", "_"))
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_str(labels: Mapping[str, str] | Tuple[Tuple[str, str], ...]) -> str:
    items = labels.items() if isinstance(labels, Mapping) else labels
    parts = [
        f'{sanitize_name(k)}="{_escape_label_value(str(v))}"' for k, v in items
    ]
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - registries never store bools
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):  # pragma: no cover - defensive
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_bound(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    return repr(float(bound))


def _render_histogram(
    lines: List[str],
    name: str,
    hist: HistogramSummary,
    labels: Tuple[Tuple[str, str], ...] = (),
) -> None:
    base = dict(labels)
    for bound, cumulative in hist.bucket_counts():
        le = _labels_str(tuple(base.items()) + (("le", _format_bound(bound)),))
        lines.append(f"{name}_bucket{le} {cumulative}")
    suffix = _labels_str(labels)
    lines.append(f"{name}_sum{suffix} {_format_value(hist.total)}")
    lines.append(f"{name}_count{suffix} {hist.count}")


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry as one exposition document (ends with a newline)."""
    lines: List[str] = []
    kinds = (("counters", "counter"), ("gauges", "gauge"), ("histograms", "histogram"))
    for kind, type_ in kinds:
        # sorted by (name, label key): a name's unlabeled series first
        series = sorted(registry.table(kind), key=lambda s: s[0])
        for raw, family in groupby(series, key=lambda s: s[0][0]):
            name = sanitize_name(raw)
            lines.append(f"# TYPE {name} {type_}")
            quantiles: Dict[str, float] = {}
            for (_, key), value in family:
                if kind != "histograms":
                    lines.append(f"{name}{_labels_str(key)} {_format_value(value)}")
                    continue
                _render_histogram(lines, name, value, key)
                if not key and value.count:
                    quantiles = value.percentiles()
            # server-side quantiles of the unlabeled series as companion gauges
            for pname, pvalue in quantiles.items():
                qname = f"{name}_{pname}"
                lines.append(f"# TYPE {qname} gauge")
                lines.append(f"{qname} {_format_value(pvalue)}")

    return "\n".join(lines) + "\n" if lines else ""


# -- strict re-parser ---------------------------------------------------------
#
# Used by tests to prove the renderer's output stays inside the grammar;
# kept here (not in tests/) so the CLI and benchmarks can also verify a
# scrape if needed.

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$')


def _unescape_label_value(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    if text == "NaN":
        return float("nan")
    return float(text)


def parse_prometheus(text: str) -> List[Dict]:
    """Strictly parse exposition text back into samples.

    Returns one dict per sample line: ``{"name", "labels", "value",
    "type"}`` where ``type`` is carried from the preceding ``# TYPE``
    line (or None). Raises :class:`ValueError` on any line that does
    not match the grammar — the point is to *fail* on sloppy output.
    """
    samples: List[Dict] = []
    types: Dict[str, str] = {}
    current_type: Optional[str] = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE line: {line!r}")
            types[parts[2]] = parts[3]
            current_type = parts[3]
            continue
        if line.startswith("#"):
            continue  # HELP / comments
        m = _SAMPLE.match(line)
        if m is None:
            raise ValueError(f"line {lineno}: not a valid sample: {line!r}")
        labels: Dict[str, str] = {}
        raw_labels = m.group("labels")
        if raw_labels:
            for part in raw_labels.split(","):
                lm = _LABEL.match(part)
                if lm is None:
                    raise ValueError(
                        f"line {lineno}: malformed label {part!r} in {line!r}"
                    )
                labels[lm.group("key")] = _unescape_label_value(lm.group("value"))
        name = m.group("name")
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                family = name[: -len(suffix)]
                break
        samples.append(
            {
                "name": name,
                "labels": labels,
                "value": _parse_value(m.group("value")),
                "type": types.get(family, current_type),
            }
        )
    return samples
