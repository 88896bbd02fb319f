"""Forecast-outcome archives and empirical scores.

An archive is a sequence of records, each pairing one realized outcome
with the forecast densities that several named systems issued for it.
The canonical storage format is JSON lines, one record per line:

    {"forecasts": {"A": {"type": "gaussian_mixture", ...},
                   "B": {...}},
     "outcome": 1.23}

A flat CSV format (columns ``outcome`` plus ``<system>_mu`` and
``<system>_sigma`` per system) is accepted for the common
single-Gaussian-per-system case.

Empirical scores are plain means over records (pairwise numpy summation,
so results do not depend on accumulation order tricks).  Infinite
ignorance contributions are never dropped: the aggregate is flagged and
the offending record count reported, and any density floor must be
requested explicitly.

``relative_empirical_ignorance`` is the archive-level comparison that
needs no truth distribution at all: the mean of -log2 of the density
ratio between two systems at the realized outcomes.  Its
``probability_ratio`` reading is 2 to the minus bits: -1 bit means the
first system assigned twice the probability on average.

Scoring is columnar, one system at a time.  The system's Gaussian
mixtures are stacked into padded (n, K) weight/mean/sd arrays and its
histograms into padded (n, B+1) break and (n, B) mass arrays, and each
stack is scored in one pass of the broadcasting kernels in
``distributions`` and ``scores``.  A system's log densities are computed
once and serve its ignorance score and every relative-ignorance pair
it is part of.  Each family's columnar kernel is its entry in
``scores.RULES``.  Records that no kernel covers keep the per-record
``score`` path: pushforward densities, the Monte-Carlo energy family
(with its per-record child streams), and power or pseudospherical
exponents other than 2 on multi-component mixtures, whose norm needs
quadrature.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .distributions import (GaussianMixture, PiecewiseUniform,
                            density_from_json, density_to_json, gaussian,
                            histogram_lp_integral, histogram_pdf,
                            mixture_log_pdf, mixture_lp_integral, mixture_pdf,
                            mixture_rows, pad_rows)
from .scores import ScoreSpec, histogram_crps, mixture_crps, round9, score

__all__ = [
    "ForecastRecord", "EmpiricalScore", "RelativeIgnorance", "EvalReport",
    "load_archive", "load_archive_csv",
    "empirical_score", "relative_empirical_ignorance", "evaluate_archive",
]

_INV_LN2 = 1.0 / math.log(2.0)


@dataclass(frozen=True)
class ForecastRecord:
    """One archive entry: named forecast densities and the outcome."""

    forecasts: dict
    outcome: float
    line: Optional[int] = None

    def __post_init__(self):
        if not self.forecasts:
            raise ValueError("record needs at least one forecast system")
        if not math.isfinite(self.outcome):
            raise ValueError("outcome must be a finite number")

    def to_json(self) -> dict:
        return {
            "forecasts": {name: density_to_json(d)
                          for name, d in self.forecasts.items()},
            "outcome": self.outcome,
        }


def _iter_lines(source) -> Iterable[str]:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            yield from fh
        return
    if isinstance(source, bytes):
        yield from io.StringIO(source.decode("utf-8"))
        return
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        yield from io.StringIO(data)
        return
    yield from source


def load_archive(source) -> list:
    """Parse a JSON-lines archive from a path, stream, or line iterable.

    Every error message names the offending 1-based line, so a broken
    record in a large archive can be found directly.  Blank lines are
    skipped; an empty stream yields an empty archive (scoring one is the
    caller's error, not parsing's).
    """
    records = []
    for k, line in enumerate(_iter_lines(source), start=1):
        text = line.strip()
        if not text:
            continue
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON ({exc.msg}), line {k}") from None
        if not isinstance(obj, dict):
            raise ValueError(f"record must be a JSON object, line {k}")
        try:
            records.append(_record_from_json(obj, k))
        except ValueError as exc:
            raise ValueError(f"{exc}, line {k}") from None
    return records


def _record_from_json(obj: dict, line: int) -> ForecastRecord:
    unknown = set(obj) - {"forecasts", "outcome"}
    if unknown:
        raise ValueError(f"unknown record field {sorted(unknown)[0]!r}")
    fc = obj.get("forecasts")
    if not isinstance(fc, dict) or not fc:
        raise ValueError("forecasts must be a non-empty object")
    outcome = obj.get("outcome")
    if not isinstance(outcome, (int, float)) or isinstance(outcome, bool) \
            or not math.isfinite(float(outcome)):
        raise ValueError("outcome must be a finite number")
    densities = {}
    for name, spec in fc.items():
        densities[str(name)] = density_from_json(spec)
    return ForecastRecord(forecasts=densities, outcome=float(outcome),
                          line=line)


def load_archive_csv(source) -> list:
    """Parse the flat CSV archive format.

    The header must contain ``outcome`` and a ``<system>_mu`` /
    ``<system>_sigma`` column pair per system; each row becomes a record
    of single-Gaussian forecasts.
    """
    rows = list(csv.reader(_iter_lines(source)))
    rows = [r for r in rows if any(cell.strip() for cell in r)]
    if not rows:
        return []
    header = [h.strip() for h in rows[0]]
    if "outcome" not in header:
        raise ValueError("CSV archive header needs an 'outcome' column")
    systems = []
    for h in header:
        if h.endswith("_mu"):
            name = h[:-3]
            if f"{name}_sigma" not in header:
                raise ValueError(f"CSV archive column {h!r} has no "
                                 f"matching {name}_sigma column")
            systems.append(name)
    if not systems:
        raise ValueError("CSV archive header names no forecast systems")
    idx = {h: i for i, h in enumerate(header)}

    records = []
    for k, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ValueError(f"expected {len(header)} columns, got "
                             f"{len(row)}, line {k}")
        try:
            outcome = float(row[idx["outcome"]])
            forecasts = {
                name: gaussian(float(row[idx[f"{name}_mu"]]),
                               float(row[idx[f"{name}_sigma"]]))
                for name in systems
            }
            records.append(ForecastRecord(forecasts=forecasts,
                                          outcome=outcome, line=k))
        except ValueError as exc:
            msg = str(exc)
            if msg.endswith(f"line {k}"):
                raise
            raise ValueError(f"{msg}, line {k}") from None
    return records


@dataclass(frozen=True)
class EmpiricalScore:
    """Mean score over an archive, with infinite contributions flagged.

    ``stderr`` is the sample standard error of the mean, std(ddof=1) /
    sqrt(count) over the per-record scores; nan for fewer than two
    records or when any record scores infinite.
    """

    value: float
    count: int
    infinite_count: int = 0
    stderr: float = math.nan

    @property
    def infinite(self) -> bool:
        return self.infinite_count > 0


def _standard_error(vals: np.ndarray) -> float:
    """std(vals, ddof=1) / sqrt(n), with the deviations scaled by the
    largest so that squaring them cannot overflow on far-tail scores;
    nan for fewer than two values or an infinite one."""
    n = len(vals)
    if n < 2 or np.isinf(vals).any():
        return math.nan
    dev = vals - np.mean(vals)
    top = float(np.max(np.abs(dev)))
    if not top > 0.0:
        return top  # 0 for equal values, nan for a nan value
    return top * math.sqrt(float(np.sum((dev / top) ** 2)) / ((n - 1) * n))


def _require_system(records: Sequence[ForecastRecord], system: str):
    if not records:
        raise ValueError("archive is empty")
    for rec in records:
        if system not in rec.forecasts:
            where = f"line {rec.line}" if rec.line is not None else "a record"
            raise ValueError(f"system {system!r} is missing from {where}")


class _Stack(NamedTuple):
    """Same-type densities of one system as padded parameter rows, with
    the type's broadcasting pdf, log-pdf, CRPS and power-integral
    kernels, evaluated at the stack's outcomes ``y``."""

    idx: np.ndarray
    y: np.ndarray
    params: tuple
    kernels: tuple

    def pdf(self, rows=slice(None)) -> np.ndarray:
        return self.kernels[0](self.y[rows], *(a[rows] for a in self.params))

    def log_pdf(self) -> np.ndarray:
        return self.kernels[1](self.y, *self.params)

    def crps(self) -> np.ndarray:
        return self.kernels[2](self.y, *self.params)

    def lp_integral(self, k: float) -> np.ndarray:
        return self.kernels[3](*self.params, k)


def _histogram_log_pdf(y, breaks, masses):
    with np.errstate(divide="ignore"):
        return np.log(histogram_pdf(y, breaks, masses))


class _SystemColumns:
    """One system's forecasts, stacked by density type for batch scoring."""

    def __init__(self, records: Sequence[ForecastRecord], system: str):
        _require_system(records, system)
        self.records = records
        self.system = system
        self.y = np.array([rec.outcome for rec in records])
        groups = {GaussianMixture: [], PiecewiseUniform: []}
        other = []
        for i, rec in enumerate(records):
            groups.get(type(rec.forecasts[system]), other).append(i)
        self.other = other
        self.stacks = []
        mix, hist = groups[GaussianMixture], groups[PiecewiseUniform]
        if mix:
            self.stacks.append(_Stack(
                np.array(mix), self.y[mix],
                mixture_rows([records[i].forecasts[system] for i in mix]),
                (mixture_pdf, mixture_log_pdf, mixture_crps,
                 mixture_lp_integral)))
        if hist:
            ds = [records[i].forecasts[system] for i in hist]
            self.stacks.append(_Stack(
                np.array(hist), self.y[hist],
                (pad_rows([d.breaks for d in ds]),
                 pad_rows([d.masses for d in ds], 0.0)),
                (histogram_pdf, _histogram_log_pdf, histogram_crps,
                 histogram_lp_integral)))
        self._log_pdf = None

    def density(self, i: int):
        return self.records[i].forecasts[self.system]

    def log_pdf(self) -> np.ndarray:
        """Natural log of each record's forecast density at its outcome."""
        if self._log_pdf is None:
            out = np.empty(len(self.y))
            for st in self.stacks:
                out[st.idx] = st.log_pdf()
            for i in self.other:
                out[i] = float(self.density(i).log_pdf(self.y[i]))
            self._log_pdf = out
        return self._log_pdf

    def stacked(self, kernel) -> np.ndarray:
        """kernel(stack) for every stack, in record order; nan for the
        records no stack holds."""
        out = np.full(len(self.y), np.nan)
        for st in self.stacks:
            out[st.idx] = kernel(st)
        return out

    def score(self, spec: ScoreSpec, *, seed: Optional[int], n: int,
              density_floor: Optional[float]) -> EmpiricalScore:
        """Mean score: the family's columnar kernel, then ``score`` one
        record at a time for the records it leaves as nan."""
        rule = spec.rule
        vals = np.full(len(self.y), np.nan)
        streams = None
        if rule.monte_carlo:
            if seed is None:
                raise ValueError(f"{spec.family} score requires an explicit "
                                 "seed")
            streams = np.random.SeedSequence(seed).spawn(len(self.y))
        elif rule.columnar is not None:
            vals = rule.columnar(spec, self, density_floor)
        infinite_count = int(np.sum(np.isinf(vals)))
        for i in np.flatnonzero(np.isnan(vals)):
            sv = score(spec, self.density(i), self.y[i],
                       seed=None if streams is None else streams[i], n=n,
                       density_floor=density_floor)
            infinite_count += sv.infinite
            vals[i] = sv.value
        return EmpiricalScore(value=float(np.mean(vals)), count=len(vals),
                              infinite_count=infinite_count,
                              stderr=_standard_error(vals))


def empirical_score(spec: ScoreSpec, records: Sequence[ForecastRecord],
                    system: str, *, seed: Optional[int] = None,
                    n: int = 1_000_000,
                    density_floor: Optional[float] = None) -> EmpiricalScore:
    """Arithmetic mean of the per-record scores for one system.

    Monte-Carlo families draw an independent child stream per record
    from ``seed``.   An infinite ignorance contribution makes the mean
    infinite and is counted, never silently dropped.
    """
    return _SystemColumns(records, system).score(
        spec, seed=seed, n=n, density_floor=density_floor)


class RelativeIgnorance(NamedTuple):
    """Mean ignorance difference in bits and its probability-mass reading."""

    bits: float
    probability_ratio: float


def _relative(c1: _SystemColumns, c2: _SystemColumns) -> RelativeIgnorance:
    lp1, lp2 = c1.log_pdf(), c2.log_pdf()
    both = (lp1 == -math.inf) & (lp2 == -math.inf)
    if both.any():
        i = int(np.argmax(both))
        line = c1.records[i].line
        where = f"line {line}" if line is not None else f"record {i + 1}"
        raise ValueError("both forecasts assign zero density to the "
                         f"outcome ({where}); the ratio is undefined")
    mean_bits = float(np.mean(-(lp1 - lp2) * _INV_LN2))
    return RelativeIgnorance(bits=mean_bits,
                             probability_ratio=2.0 ** (-mean_bits))


def relative_empirical_ignorance(records: Sequence[ForecastRecord],
                                 system1: str, system2: str,
                                 ) -> RelativeIgnorance:
    """Mean of -log2(p1(Y)/p2(Y)) over the archive.

    Needs no truth distribution.  A value of -1 bit means ``system1``
    assigned on average twice the probability density to what happened
    (``probability_ratio`` 2).  A record where both densities vanish has
    no defined ratio and raises, naming the record.
    """
    return _relative(_SystemColumns(records, system1),
                     _SystemColumns(records, system2))


@dataclass(frozen=True)
class EvalReport:
    """Archive evaluation: per-system means and pairwise relative bits."""

    systems: tuple
    count: int
    scores: dict
    relative: tuple

    def to_json(self) -> dict:
        return {
            "records": self.count,
            "systems": {
                name: {
                    label: {
                        "mean": round9(es.value),
                        "infinite_records": es.infinite_count,
                    }
                    for label, es in per_family.items()
                }
                for name, per_family in self.scores.items()
            },
            "relative_ignorance": [
                {
                    "system1": s1,
                    "system2": s2,
                    "bits": round9(ri.bits),
                    "probability_ratio": round9(ri.probability_ratio),
                }
                for s1, s2, ri in self.relative
            ],
        }


def evaluate_archive(records: Sequence[ForecastRecord],
                     specs: Sequence[ScoreSpec], *,
                     systems: Optional[Sequence[str]] = None,
                     seed: Optional[int] = None, n: int = 1_000_000,
                     density_floor: Optional[float] = None) -> EvalReport:
    """Score every system under every spec and compare all system pairs.

    ``systems`` defaults to the first record's, sorted.  Relative
    ignorance is reported for each unordered pair in that order.  Each
    system is stacked once, and its log densities serve both its
    ignorance score and its relative-ignorance pairs.
    """
    if not records:
        raise ValueError("archive is empty")
    if systems is None:
        systems = sorted(records[0].forecasts)
    systems = tuple(systems)
    columns = {}
    scores = {}
    for name in systems:
        columns[name] = _SystemColumns(records, name)
        scores[name] = {
            spec.label(): columns[name].score(spec, seed=seed, n=n,
                                              density_floor=density_floor)
            for spec in specs
        }
    relative = tuple(
        (s1, s2, _relative(columns[s1], columns[s2]))
        for i, s1 in enumerate(systems)
        for s2 in systems[i + 1:]
    )
    return EvalReport(systems=systems, count=len(records), scores=scores,
                      relative=relative)
