"""The embedded service catalogue and its invariants."""

from dataclasses import replace

import pytest

from chain2sim.taxonomy import (
    EXPECTED_IDS,
    INSTALLATION_IDS,
    Enabler,
    Maturity,
    ServiceLevel,
    UnknownUseCaseError,
    classify,
    format_record,
    list_by,
    load_dataset,
    maturity_text,
    validate_dataset,
)


def test_dataset_is_clean():
    assert validate_dataset() == []


def test_dataset_has_all_18_entries():
    records = load_dataset()
    assert len(records) == 18
    assert set(records) == set(EXPECTED_IDS)


def test_every_service_level_is_populated():
    for level in ServiceLevel:
        assert list_by(level=level), f"no use case at level {level.value}"


def test_installation_entries_carry_na_assessment():
    for uc_id in INSTALLATION_IDS:
        record = classify(uc_id)
        assert record.maturity is None
        assert record.providers is None
        assert record.smart_home_enabler is Enabler.NOT_APPLICABLE
        assert record.benefits == frozenset()


def test_automation_cases_enable_the_smart_home():
    for uc_id in list_by(level=ServiceLevel.AUTOMATION):
        record = classify(uc_id)
        assert record.smart_home_enabler in (Enabler.YES, Enabler.POTENTIALLY)


def test_spot_checks_on_known_entries():
    consumption_feedback = classify("A.2")
    assert consumption_feedback.level is ServiceLevel.INFORMATION
    assert consumption_feedback.maturity == frozenset({Maturity.LOW})
    assert consumption_feedback.smart_home_enabler is Enabler.NO

    tariff_advice = classify("A.3")
    assert tariff_advice.maturity == frozenset({Maturity.MEDIUM, Maturity.HIGH})

    storage_control = classify("A.9b")
    assert storage_control.smart_home_enabler is Enabler.YES


def test_classify_unknown_id():
    with pytest.raises(UnknownUseCaseError, match="A.99"):
        classify("A.99")


def test_list_by_filters_compose():
    auto = set(list_by(level=ServiceLevel.AUTOMATION))
    enabled = set(list_by(enabler=Enabler.YES))
    both = list_by(level=ServiceLevel.AUTOMATION, enabler=Enabler.YES)
    assert set(both) == auto & enabled
    assert both == sorted(both, key=lambda i: EXPECTED_IDS.index(i))


def test_list_by_without_a_filter_lists_every_id_in_catalogue_order():
    assert list_by() == list(EXPECTED_IDS)


def test_maturity_text_orders_levels_low_to_high():
    record = replace(classify("A.2"), maturity=frozenset(Maturity))
    assert maturity_text(record, "/") == "low/medium/high"
    assert maturity_text(classify("A.1a"), ", ") == "NA"


def test_list_by_ids_are_in_catalogue_order():
    ids = list_by(enabler=Enabler.NO)
    assert ids == [i for i in EXPECTED_IDS if i in set(ids)]


def test_validate_flags_broken_records():
    records = dict(load_dataset())
    # An automation-level entry claiming it does not enable the smart home.
    bad = replace(records["A.10"], smart_home_enabler=Enabler.NO)
    records["A.10"] = bad
    violations = validate_dataset(records)
    assert any("A.10" in v and "potentially" in v for v in violations)

    del records["A.2"]
    violations = validate_dataset(records)
    assert any(v.startswith("A.2: missing") for v in violations)

    records["A.99"] = records["A.3"]
    assert any("unexpected id" in v for v in validate_dataset(records))


def test_validate_flags_unknown_tags():
    records = dict(load_dataset())
    records["A.4"] = replace(records["A.4"], benefits=frozenset({"teleportation"}))
    assert any("teleportation" in v for v in validate_dataset(records))
    records = dict(load_dataset())
    records["A.4"] = replace(records["A.4"], providers=frozenset({"nobody"}))
    assert any("nobody" in v for v in validate_dataset(records))


def test_format_record_is_readable():
    text = format_record(classify("A.2"))
    assert "A.2" in text
    assert "information" in text
    text_na = format_record(classify("A.1a"))
    assert "NA" in text_na
