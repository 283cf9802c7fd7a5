"""Machine-readable catalogue of the services built on the metering channel.

The dataset lives in `data/usecases.csv` (18 rows: 16 operational use cases
plus the two installation entries) and classifies each use case on four
service levels: information, interaction, mediation, automation.  The CSV
header documents the column semantics and the controlled vocabularies; this
module loads it once and serves lookups.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from typing import Iterable

DATASET_RESOURCE = "usecases.csv"

EXPECTED_IDS = (
    "A.1a",
    "A.1b",
    *[f"A.{n}" for n in range(2, 9)],
    "A.9a",
    "A.9b",
    *[f"A.{n}" for n in range(10, 17)],
)

INSTALLATION_IDS = ("A.1a", "A.1b")

BENEFIT_TAGS = frozenset(
    {
        "energy_awareness",
        "cost_saving",
        "grid_support",
        "comfort",
        "supply_quality",
        "overload_protection",
    }
)

PROVIDER_TAGS = frozenset(
    {
        "energy_retailer",
        "esco",
        "home_appliance_retailer",
        "balancing_service_provider",
        "smart_home_solution_provider",
        "ev_charging_station_supplier",
    }
)


class ServiceLevel(Enum):
    INFORMATION = "information"
    INTERACTION = "interaction"
    MEDIATION = "mediation"
    AUTOMATION = "automation"


class Maturity(Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class Enabler(Enum):
    YES = "yes"
    NO = "no"
    POTENTIALLY = "potentially"
    NOT_APPLICABLE = "NA"


class UnknownUseCaseError(LookupError):
    pass


@dataclass(frozen=True)
class UseCaseRecord:
    """One catalogue entry; `maturity`/`providers` are None for the two
    installation entries, whose assessment columns are not applicable."""

    id: str
    name: str
    level: ServiceLevel
    maturity: frozenset[Maturity] | None
    providers: frozenset[str] | None
    smart_home_enabler: Enabler
    benefits: frozenset[str]


def _id_sort_key(uc_id: str) -> tuple[int, str]:
    m = re.fullmatch(r"A\.(\d+)([a-z]?)", uc_id)
    if not m:
        return (10**6, uc_id)
    return (int(m.group(1)), m.group(2))


def _parse_row(row: dict[str, str]) -> UseCaseRecord:
    uc_id = row["id"].strip()
    maturity_raw = row["maturity"].strip()
    if maturity_raw == "NA":
        maturity = None
    else:
        maturity = frozenset(Maturity(v) for v in maturity_raw.split("|") if v)
    providers_raw = row["providers"].strip()
    providers = (
        None
        if providers_raw == "NA"
        else frozenset(v for v in providers_raw.split("|") if v)
    )
    benefits_raw = row["benefits"].strip()
    benefits = frozenset(v for v in benefits_raw.split("|") if v)
    return UseCaseRecord(
        id=uc_id,
        name=row["name"].strip(),
        level=ServiceLevel(row["level"].strip()),
        maturity=maturity,
        providers=providers,
        smart_home_enabler=Enabler(row["smart_home_enabler"].strip()),
        benefits=benefits,
    )


@lru_cache(maxsize=1)
def load_dataset() -> dict[str, UseCaseRecord]:
    """Parse the embedded CSV once; returns records keyed by use-case id."""
    text = (
        resources.files("chain2sim.data").joinpath(DATASET_RESOURCE).read_text()
    )
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    records: dict[str, UseCaseRecord] = {}
    for row in csv.DictReader(lines):
        record = _parse_row(row)
        if record.id in records:
            raise ValueError(f"duplicate use-case id {record.id} in dataset")
        records[record.id] = record
    return records


def classify(uc_id: str) -> UseCaseRecord:
    """Look up one use case by id.

    Raises:
        UnknownUseCaseError: id not in the dataset.
    """
    records = load_dataset()
    try:
        return records[uc_id]
    except KeyError:
        raise UnknownUseCaseError(
            f"unknown use case {uc_id!r}; known ids: {', '.join(sorted(records, key=_id_sort_key))}"
        ) from None


def list_by(
    level: ServiceLevel | None = None,
    maturity: Maturity | None = None,
    provider: str | None = None,
    enabler: Enabler | None = None,
) -> list[str]:
    """Ids matching every given filter, in catalogue order; every id when
    no filter is given."""
    out = []
    for uc_id in sorted(load_dataset(), key=_id_sort_key):
        record = load_dataset()[uc_id]
        if level is not None and record.level is not level:
            continue
        if maturity is not None and (
            record.maturity is None or maturity not in record.maturity
        ):
            continue
        if provider is not None and (
            record.providers is None or provider not in record.providers
        ):
            continue
        if enabler is not None and record.smart_home_enabler is not enabler:
            continue
        out.append(uc_id)
    return out


def validate_dataset(records: dict[str, UseCaseRecord] | None = None) -> list[str]:
    """Check dataset invariants; returns violation strings, empty when clean.

    Checks: exactly the expected 18 ids; installation entries carry NA in
    all assessment columns; operational entries have a non-empty maturity
    subset, at least one provider and a real enabler flag; every
    automation-level case is an enabler at least potentially; all tags come
    from the controlled vocabularies.
    """
    if records is None:
        records = load_dataset()
    violations: list[str] = []
    expected = set(EXPECTED_IDS)
    have = set(records)
    for missing in sorted(expected - have, key=_id_sort_key):
        violations.append(f"{missing}: missing from dataset")
    for extra in sorted(have - expected, key=_id_sort_key):
        violations.append(f"{extra}: unexpected id")
    for uc_id in sorted(have & expected, key=_id_sort_key):
        record = records[uc_id]
        if uc_id in INSTALLATION_IDS:
            if record.maturity is not None:
                violations.append(f"{uc_id}: installation entry must have NA maturity")
            if record.providers is not None:
                violations.append(f"{uc_id}: installation entry must have NA providers")
            if record.smart_home_enabler is not Enabler.NOT_APPLICABLE:
                violations.append(f"{uc_id}: installation entry must have NA enabler")
            continue
        if not record.maturity:
            violations.append(f"{uc_id}: maturity must be a non-empty subset")
        if not record.providers:
            violations.append(f"{uc_id}: providers must be non-empty")
        elif not record.providers <= PROVIDER_TAGS:
            violations.append(
                f"{uc_id}: unknown providers {sorted(record.providers - PROVIDER_TAGS)}"
            )
        if record.smart_home_enabler is Enabler.NOT_APPLICABLE:
            violations.append(f"{uc_id}: operational entry cannot have NA enabler")
        if record.level is ServiceLevel.AUTOMATION and record.smart_home_enabler not in (
            Enabler.YES,
            Enabler.POTENTIALLY,
        ):
            violations.append(
                f"{uc_id}: automation-level case must enable the smart home "
                f"at least potentially, got {record.smart_home_enabler.value}"
            )
        if not record.benefits <= BENEFIT_TAGS:
            violations.append(
                f"{uc_id}: unknown benefit tags {sorted(record.benefits - BENEFIT_TAGS)}"
            )
    return violations


def maturity_text(record: UseCaseRecord, sep: str) -> str:
    """The record's maturity levels, low to high, joined by `sep`; NA for none."""
    if record.maturity is None:
        return "NA"
    return sep.join(m.value for m in Maturity if m in record.maturity)


def format_record(record: UseCaseRecord) -> str:
    """Multi-line human-readable rendering for the CLI."""

    def tags(values: Iterable[str] | None) -> str:
        if values is None:
            return "NA"
        return ", ".join(sorted(values)) or "-"

    return "\n".join(
        [
            f"{record.id}  {record.name}",
            f"  level:              {record.level.value}",
            f"  maturity:           {maturity_text(record, ', ')}",
            f"  providers:          {tags(record.providers)}",
            f"  smart home enabler: {record.smart_home_enabler.value}",
            f"  benefits:           {tags(record.benefits)}",
        ]
    )
