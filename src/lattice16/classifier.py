"""Decision pipeline and full-census sweep for lattice states."""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import lattice, seplp, symmetry, tables, witness
from .lattice import ConsistencyError, UsageError

__all__ = [
    "Label",
    "Justification",
    "Classification",
    "CensusRecord",
    "ConsistencyError",
    "classify",
    "census",
    "summary_table",
    "explain",
    "census_to_jsonl",
    "summary_to_csv",
]


class Label(str, Enum):
    NPT_ENTANGLED = "NPT_ENTANGLED"
    PPT_ENTANGLED = "PPT_ENTANGLED"
    SEPARABLE = "SEPARABLE"
    UNKNOWN = "UNKNOWN"


class Justification(str, Enum):
    PROP1A_VIOLATION = "PROP1A_VIOLATION"
    PROP3_WITNESS = "PROP3_WITNESS"
    LP_CERTIFICATE = "LP_CERTIFICATE"
    MAXIMALLY_MIXED = "MAXIMALLY_MIXED"
    ISOTROPIC_N15 = "ISOTROPIC_N15"
    NONE = "NONE"


_LABEL_OF = {  # each justification implies exactly one label
    Justification.PROP1A_VIOLATION: Label.NPT_ENTANGLED,
    Justification.PROP3_WITNESS: Label.PPT_ENTANGLED,
    Justification.LP_CERTIFICATE: Label.SEPARABLE,
    Justification.MAXIMALLY_MIXED: Label.SEPARABLE,
    Justification.ISOTROPIC_N15: Label.SEPARABLE,
    Justification.NONE: Label.UNKNOWN,
}


@dataclass(frozen=True)
class Classification:
    label: Label
    justification: Justification
    evidence: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "label": self.label.value,
            "justification": self.justification.value,
            "evidence": self.evidence,
        }

    @classmethod
    def from_json(cls, payload: dict) -> Classification:
        """The inverse of :meth:`to_json`; ValueError on a payload that is
        not a JSON object, a missing key, an unknown label or justification,
        or a label the justification does not imply.  The evidence is taken
        as it is, unchecked."""
        if not isinstance(payload, dict):
            raise ValueError(f"classification {payload!r} is not a JSON object")
        missing = sorted({"label", "justification", "evidence"} - payload.keys())
        if missing:
            raise ValueError(f"classification has no {', '.join(map(repr, missing))}")
        label = Label(payload["label"])
        justification = Justification(payload["justification"])
        implied = _LABEL_OF[justification]
        if label is not implied:
            raise ValueError(
                f"{justification.value} implies {implied.value}, not {label.value}"
            )
        return cls(label, justification, payload["evidence"])


@dataclass(frozen=True)
class CensusRecord:
    canonical: int
    cardinality: int
    orbit_size: int
    kappa: int
    label: Label
    justification: Justification
    evidence: dict

    def to_json(self) -> dict:
        return {
            "canonical": f"0x{self.canonical:04X}",
            "N": self.cardinality,
            "orbit_size": self.orbit_size,
            "kappa": self.kappa,
            "label": self.label.value,
            "justification": self.justification.value,
            "evidence": self.evidence,
        }


def _npt_site(mask: int, n: int, cross: tuple[int, ...]) -> dict | None:
    if 2 * max(cross) <= n:  # PPT: every cross holds at most N/2 points of I
        return None
    pos = next(pos for pos, c in enumerate(cross) if 2 * c > n)
    return {"violating_site": list(divmod(pos, 4))}


def _k1_witness(mask: int, n: int, cross: tuple[int, ...]) -> dict | None:
    reports = witness._scan(mask, n, cross)
    if not reports:
        return None
    evidence = {"witness": reports[0].to_json(), "witness_count": len(reports)}
    prop1b = lattice._prop1b_site(mask, cross)
    if prop1b is not None:
        evidence["prop1b_site"] = list(prop1b)
    return evidence


def _lp_certificate(mask: int, n: int, cross: tuple[int, ...]) -> dict | None:
    cert = seplp.decompose(mask)
    return None if cert is None else {"certificate": cert.to_json()}


# (justification, decide(mask, n, cross) -> evidence or None).  Rows call
# other modules through their attributes, so a rebound function runs.
_STAGES = (
    (Justification.MAXIMALLY_MIXED, lambda mask, n, cross: {} if n == 16 else None),
    (Justification.PROP1A_VIOLATION, _npt_site),
    (Justification.ISOTROPIC_N15, lambda mask, n, cross: {} if n == 15 else None),
    (Justification.PROP3_WITNESS, _k1_witness),
    (Justification.LP_CERTIFICATE, _lp_certificate),
)


def classify(mask: int) -> Classification:
    """Assign a label with machine-checkable evidence.

    N and the 16 cross counts are computed once and handed to the rows of
    ``_STAGES``, in order: N=16 (maximally mixed), NPT (a cross holding
    more than N/2 points of I), N=15 (isotropic), the k=1 reduction-map
    witness, and the exact LP certificate.  The first row with evidence
    decides, and its justification implies the label.  No verdict is
    UNKNOWN: a mask that no row decides is a ConsistencyError."""
    mask = lattice._in_range(mask)
    n = lattice.state_cardinality(mask)
    cross = lattice._cross_counts(mask)
    for justification, decide in _STAGES:
        evidence = decide(mask, n, cross)
        if evidence is not None:
            return Classification(_LABEL_OF[justification], justification, evidence)
    raise ConsistencyError(f"mask 0x{mask:04X} decided by no stage")


def _classify_record(canonical: int, orbit_size: int) -> CensusRecord:
    cls = classify(canonical)
    if cls.label is Label.PPT_ENTANGLED:
        # Consistency triangle: a witnessed state must never also admit
        # a separability certificate.
        if seplp.decompose(canonical) is not None:
            raise ConsistencyError(
                f"mask 0x{canonical:04X} witnessed entangled and LP-certified"
            )
    return CensusRecord(
        canonical=canonical,
        cardinality=lattice.cardinality(canonical),
        orbit_size=orbit_size,
        kappa=lattice.kappa(canonical),
        label=cls.label,
        justification=cls.justification,
        evidence=cls.evidence,
    )


def census(min_n: int = 1, max_n: int = 16) -> list[CensusRecord]:
    """Classify one representative per symmetry orbit, deterministically
    ordered by (cardinality, canonical mask), for min_n <= N <= max_n;
    TypeError unless both bounds are integers and neither is a bool."""
    if isinstance(min_n, bool) or isinstance(max_n, bool):
        raise TypeError("a bool is not a census bound")
    min_n, max_n = operator.index(min_n), operator.index(max_n)
    if not 1 <= min_n <= max_n <= 16:
        raise UsageError(f"census range {min_n}..{max_n}: need 1 <= min <= max <= 16")
    n = tables.cardinality()
    chosen = np.flatnonzero(
        (symmetry.canonical_table() == tables.masks()) & (n >= min_n) & (n <= max_n)
    )
    chosen = chosen[np.argsort(n[chosen], kind="stable")]
    sizes = symmetry.orbit_size_table()[chosen].tolist()
    return [_classify_record(c, s) for c, s in zip(chosen.tolist(), sizes)]


def summary_table(records: list[CensusRecord]) -> dict[int, dict[str, int]]:
    """Subset counts (orbit-size weighted) per (cardinality, label)."""
    table = {n: {label.value: 0 for label in Label} for n in range(1, 17)}
    for r in records:
        table[r.cardinality][r.label.value] += r.orbit_size
    return table


def census_to_jsonl(records: list[CensusRecord]) -> str:
    return "".join(json.dumps(r.to_json(), sort_keys=True) + "\n" for r in records)


def summary_to_csv(records: list[CensusRecord]) -> str:
    table = summary_table(records)
    labels = [label.value for label in Label]
    lines = ["N," + ",".join(labels)]
    lines += [f"{n}," + ",".join(str(table[n][l]) for l in labels) for n in range(1, 17)]
    return "\n".join(lines) + "\n"


def explain(mask: int) -> str:
    """Human-readable report: grid, k-matrix, kappa, decision trace."""
    n = lattice.state_cardinality(mask)
    lines = [
        f"subset {lattice.render_subset(mask, 'hex')}  N={n}",
        lattice.render_subset(mask, "table"),
        "",
    ]
    lines.append("k-matrix (rows mu=0..3, columns nu=0..3):")
    lines += ["  " + " ".join(map(str, row)) for row in lattice.k_matrix(mask)]
    lines.append(f"kappa = {lattice.kappa(mask)}")
    cls = classify(mask)
    lines.append(f"label = {cls.label.value} ({cls.justification.value})")
    if cls.justification is Justification.PROP3_WITNESS:
        w = cls.evidence["witness"]
        lines.append(
            f"witness at (mu,nu)={tuple(w['site'])} value {w['value']:.6f} "
            f"via {w['v']} (center in I: {w['center_in_subset']})"
        )
        if "prop1b_site" in cls.evidence:
            lines.append(f"prop1b site: {tuple(cls.evidence['prop1b_site'])}")
    elif cls.justification is Justification.PROP1A_VIOLATION:
        lines.append(f"PPT violated at site {tuple(cls.evidence['violating_site'])}")
    elif cls.justification is Justification.LP_CERTIFICATE:
        cert = cls.evidence["certificate"]
        terms = ", ".join(f"{w} * {m}" for m, w in cert["weights"])
        lines.append(f"certificate: {terms}")
    return "\n".join(lines)
