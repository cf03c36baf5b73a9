import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import whole_space
from lattice16 import classifier, lattice, seplp, symmetry, tables, witness
from lattice16.classifier import Justification, Label


@pytest.fixture(scope="module")
def n6_records():
    return classifier.census(min_n=6, max_n=6)


@pytest.fixture(scope="module")
def full_census():
    return classifier.census()


def test_classify_empty_raises():
    with pytest.raises(lattice.EmptySubsetError):
        classifier.classify(0)


def test_full_and_n15():
    cls = classifier.classify(lattice.FULL_MASK)
    assert cls.label is Label.SEPARABLE
    assert cls.justification is Justification.MAXIMALLY_MIXED
    cls = classifier.classify(lattice.FULL_MASK & ~1)
    assert cls.label is Label.SEPARABLE
    assert cls.justification is Justification.ISOTROPIC_N15


def test_examples_are_ppt_entangled(grids):
    for name in ("ex1_left_n8", "ex2_left_n8", "ex3_left_n10",
                 "ex1_right_n10", "ex2_right_n10", "ex3_right_n11"):
        cls = classifier.classify(grids[name])
        assert cls.label is Label.PPT_ENTANGLED, name
        assert cls.justification is Justification.PROP3_WITNESS


def test_prop1b_evidence_present_only_on_left(grids):
    for name in ("ex1_left_n8", "ex2_left_n8", "ex3_left_n10"):
        assert "prop1b_site" in classifier.classify(grids[name]).evidence
    for name in ("ex1_right_n10", "ex2_right_n10", "ex3_right_n11"):
        assert "prop1b_site" not in classifier.classify(grids[name]).evidence


def test_separable_reference_states(grids):
    for name in ("rho9", "rho8", "rho6"):
        cls = classifier.classify(grids[name])
        assert cls.label is Label.SEPARABLE, name
        assert cls.justification is Justification.LP_CERTIFICATE
        assert cls.evidence["certificate"]["target"] == f"0x{grids[name]:04X}"


# Uniform masks are mostly NPT; about half the draws are PPT so that the
# witness and LP branches are exercised too.
MASKS = st.one_of(
    st.integers(1, lattice.FULL_MASK),
    st.sampled_from(np.flatnonzero(tables.ppt()).tolist()),
)


@settings(max_examples=200, deadline=None)
@given(MASKS, st.sampled_from(symmetry.group()))
def test_label_invariant_under_symmetry(mask, g):
    image = symmetry.act(g, mask)
    a = classifier.classify(mask)
    b = classifier.classify(image)
    assert a.label == b.label
    assert a.justification == b.justification
    if a.justification is Justification.LP_CERTIFICATE:
        # Both certificates are mapped back from the canonical orbit member.
        assert seplp.verify_certificate(seplp.decompose(mask))
        assert seplp.verify_certificate(seplp.decompose(image))


def test_undecided_mask_is_a_consistency_error(grids, monkeypatch):
    # Every PPT mask below N=15 without a k=1 entry is LP-certified, so a
    # mask that no stage decides means a stage is wrong: classify names it
    # rather than returning an UNKNOWN verdict.
    mask = grids["rho9"]
    monkeypatch.setattr(seplp, "decompose", lambda m: None)
    with pytest.raises(lattice.ConsistencyError, match=f"0x{mask:04X}"):
        classifier.classify(mask)


def test_npt_evidence():
    cls = classifier.classify(0xF)
    assert cls.label is Label.NPT_ENTANGLED
    assert cls.justification is Justification.PROP1A_VIOLATION
    a, b = cls.evidence["violating_site"]
    assert 2 * lattice.cross_count(0xF, a, b) > 4


def test_census_invariant_over_tables(full_census):
    # The census decides one mask per orbit; the rule below decides every
    # mask from the integer tables alone, with no symmetry reduction.
    n = tables.cardinality()
    ppt = tables.ppt()
    witnessed = ppt & (n < 15) & (whole_space.k_table() == 1).any(axis=1)
    assert int(witnessed.sum()) == 2688
    codes = [Label.NPT_ENTANGLED, Label.PPT_ENTANGLED, Label.SEPARABLE, Label.UNKNOWN]
    expected = np.where(~ppt, 0, np.where(witnessed, 1, 2))[1:]
    records = full_census
    summary = classifier.summary_table(records)
    for size in range(1, 17):
        counts = np.bincount(expected[n[1:] == size], minlength=4)
        assert summary[size] == {
            label.value: int(c) for label, c in zip(codes, counts)
        }, size
    by_canonical = np.full(lattice.FULL_MASK + 1, -1)
    for r in records:
        by_canonical[r.canonical] = codes.index(r.label)
    assert np.array_equal(by_canonical[symmetry.canonical_table()][1:], expected)


def test_lattice_rule_decides_ppt_masks_below_15(full_census):
    # A finding of this finite search: among the PPT masks with N <= 14,
    # the census labels a mask PPT entangled (by the k=1 witness of
    # Phi_V) exactly when some k_mn = 1, and every other one separable by
    # an exact LP certificate.  Each mask takes its orbit's verdict.
    n = tables.cardinality()
    chosen = tables.ppt() & (n <= 14)
    has_k1 = (whole_space.k_table()[chosen] == 1).any(axis=1).tolist()
    verdict = {r.canonical: (r.label, r.justification) for r in full_census}
    verdicts = [verdict[c] for c in symmetry.canonical_table()[chosen].tolist()]
    assert len(verdicts) == 11406 and sum(has_k1) == 2688
    witnessed = (Label.PPT_ENTANGLED, Justification.PROP3_WITNESS)
    certified = (Label.SEPARABLE, Justification.LP_CERTIFICATE)
    assert [v == witnessed for v in verdicts] == has_k1
    assert [v == certified for v in verdicts] == [not k1 for k1 in has_k1]


def test_census_n6(n6_records):
    table = classifier.summary_table(n6_records)[6]
    assert table[Label.UNKNOWN.value] == 0
    assert table[Label.NPT_ENTANGLED.value] == 7696
    assert table[Label.PPT_ENTANGLED.value] == 192
    assert table[Label.SEPARABLE.value] == 120
    assert sum(table.values()) == 8008


def test_census_records_are_canonical_and_sorted(n6_records):
    keys = [(r.cardinality, r.canonical) for r in n6_records]
    assert keys == sorted(keys)
    for r in n6_records:
        assert symmetry.canonical_form(r.canonical).canonical == r.canonical
        assert r.orbit_size * symmetry.canonical_form(r.canonical).stabilizer_order == 1152


@pytest.mark.parametrize("min_n, max_n", [(3, 2), (0, 4), (17, 17), (1, 0), (5, 17)])
def test_census_rejects_range_outside_1_to_16(min_n, max_n):
    with pytest.raises(ValueError, match="census range"):
        classifier.census(min_n=min_n, max_n=max_n)


@pytest.mark.parametrize("min_n, max_n", [(15.5, 16), (1, 16.0)])
def test_census_rejects_float_bounds(min_n, max_n):
    # As every mask entry point does: 15.5 is no cardinality.
    with pytest.raises(TypeError):
        classifier.census(min_n=min_n, max_n=max_n)


@pytest.mark.parametrize("min_n, max_n", [(True, 1), (1, True), (False, 16)])
def test_census_rejects_bool_bounds(min_n, max_n):
    # As lattice._in_range refuses a bool mask: census(True, 1) is not the
    # range 1..1.
    with pytest.raises(TypeError, match="bool"):
        classifier.census(min_n=min_n, max_n=max_n)


def test_empty_census_is_empty_jsonl():
    assert classifier.census_to_jsonl([]) == ""


def test_jsonl_and_csv_serialization(n6_records):
    lines = classifier.census_to_jsonl(n6_records).strip().split("\n")
    assert len(lines) == len(n6_records)
    first = json.loads(lines[0])
    assert set(first) == {
        "canonical", "N", "orbit_size", "kappa", "label", "justification",
        "evidence",
    }
    csv = classifier.summary_to_csv(n6_records)
    header, *rows = csv.strip().split("\n")
    assert header.startswith("N,")
    assert len(rows) == 16


def test_explain_outputs(grids):
    text = classifier.explain(grids["ex2_right_n10"])
    assert "kappa = 1" in text
    assert "PPT_ENTANGLED" in text
    text = classifier.explain(0xF)
    assert "NPT_ENTANGLED" in text
    assert "PPT violated" in text
    text = classifier.explain(grids["rho6"])
    assert "SEPARABLE" in text
    assert "certificate" in text
    with pytest.raises(lattice.EmptySubsetError):
        classifier.explain(0)


# The census output is fixed: the benchmark pins the same digest.
CENSUS_SHA256 = "c67b3bd90041241a2f8c4946e2de55acbdd9e6208f4d3cd5a9bce8d6cdcab302"
# The sha256 of every mask's classification, one JSON line each, masks
# 1..0xFFFF in order: it pins every verdict and every piece of evidence,
# not only those of the census's 191 representatives.
CLASSIFY_ALL_SHA256 = "21ad1f036ab740fd71b00e9d30ebe097e038db03587f659f1f7da34712d5c828"


def test_census_jsonl_golden():
    text = classifier.census_to_jsonl(classifier.census())
    assert hashlib.sha256(text.encode()).hexdigest() == CENSUS_SHA256


def test_classify_every_mask_golden():
    digest = hashlib.sha256()
    for mask in range(1, lattice.FULL_MASK + 1):
        line = json.dumps(classifier.classify(mask).to_json(), sort_keys=True) + "\n"
        digest.update(line.encode())
    assert digest.hexdigest() == CLASSIFY_ALL_SHA256


def test_classify_computes_cross_counts_once_for_its_stages(grids, monkeypatch):
    # classify hands one set of cross counts to every stage, the witness
    # row's prop1b site included; only the LP's PPT test counts again.
    counts = lattice._cross_counts
    calls = []
    monkeypatch.setattr(
        lattice, "_cross_counts", lambda m: calls.append(m) or counts(m)
    )
    rho9 = grids["rho9"]  # separable by the LP, no k=1 entry
    for mask, justification, expected in (
        (0x0003, Justification.PROP1A_VIOLATION, 1),
        (grids["ex1_right_n10"], Justification.PROP3_WITNESS, 1),
        (rho9, Justification.LP_CERTIFICATE, 2),
    ):
        calls.clear()
        assert classifier.classify(mask).justification is justification
        assert len(calls) == expected, hex(mask)
    # The scan reads each k=1 contributor off the cross's bitmask, so it
    # never lists the sites, with or without a k=1 entry.
    sites = lattice.sites
    listed = []
    monkeypatch.setattr(lattice, "sites", lambda m: listed.append(m) or sites(m))
    assert 1 not in counts(rho9)
    assert witness.witness_scan(rho9) == []
    assert 1 in counts(grids["ex1_right_n10"])
    assert witness.witness_scan(grids["ex1_right_n10"])
    assert listed == []
    # The counts are plain ints whichever integer type the mask was, and a
    # float mask is refused.
    assert counts(np.uint16(0x0F0F)) == counts(0x0F0F)
    assert {type(c) for c in counts(np.uint16(0x0F0F))} == {int}
    for entry in (lattice.kappa, lattice.k_matrix):
        with pytest.raises(TypeError):
            entry(3.0)


@pytest.mark.parametrize("key", ["label", "justification", "evidence"])
def test_classification_from_json_names_a_missing_key(key):
    payload = classifier.classify(0x0003).to_json()
    del payload[key]
    with pytest.raises(ValueError, match=f"no '{key}'"):
        classifier.Classification.from_json(payload)


@pytest.mark.parametrize("payload", [[], "x", None, 5], ids=repr)
def test_json_readers_refuse_a_payload_that_is_not_an_object(payload):
    # payload.keys() used to raise AttributeError on [] and "x".
    for reader in (
        classifier.Classification.from_json,
        seplp.DecompositionCertificate.from_json,
    ):
        with pytest.raises(ValueError, match="not a JSON object"):
            reader(payload)


def test_classification_from_json_round_trip(grids, full_census):
    found = [classifier.classify(mask) for mask in grids.values()]
    found += [
        classifier.Classification(r.label, r.justification, r.evidence)
        for r in full_census
    ]
    assert len(found) == 14 + 191
    for cls in found:
        text = json.dumps(cls.to_json(), sort_keys=True)
        back = classifier.Classification.from_json(json.loads(text))
        assert back == cls
        assert json.dumps(back.to_json(), sort_keys=True) == text
    payload = found[0].to_json()
    for key in ("label", "justification"):
        with pytest.raises(ValueError):
            classifier.Classification.from_json({**payload, key: "NO_SUCH_NAME"})
    # Each justification implies one label: one mismatched pair per label.
    for label, just in (
        (Label.NPT_ENTANGLED, Justification.LP_CERTIFICATE),
        (Label.PPT_ENTANGLED, Justification.PROP1A_VIOLATION),
        (Label.SEPARABLE, Justification.PROP3_WITNESS),
        (Label.UNKNOWN, Justification.MAXIMALLY_MIXED),
    ):
        mismatched = {**payload, "label": label.value, "justification": just.value}
        with pytest.raises(ValueError, match="implies"):
            classifier.Classification.from_json(mismatched)


def test_masks_outside_16_bits_are_rejected():
    # Bits above 15 and negative masks name no subset: every entry point
    # refuses them rather than truncating to 16 bits (0x1EEE0 is PPT
    # after truncation, -1 the full mask and 0x10000 the empty one).
    g = symmetry.generators()[0]
    for mask in (0x1EEE0, -1, 0x10000, 0x10001):
        for check in (
            lattice.cardinality,
            lattice.state_cardinality,
            lattice.sites,
            lambda m: lattice.cross_count(m, 1, 2),
            lattice.k_matrix,
            lattice.kappa,
            lattice.is_ppt,
            classifier.classify,
            witness.witness_scan,
            seplp.decompose,
            symmetry.canonical_form,
            lambda m: symmetry.act(g, m),
        ):
            with pytest.raises(ValueError, match="outside 0..0xFFFF"):
                check(mask)
    # Likewise coordinates outside 0..3 name no site: site_bit(4, 0) would
    # be bit 16 and cross_count(m, -1, 0) a negative shift.  Nor do
    # non-integers: site_index(1.5, 2) would be the bit position 8.0.
    outside = (ValueError, "outside 0..3")
    not_int = (TypeError, "cannot be interpreted as an integer")
    for site, (error, match) in (
        ((4, 0), outside), ((0, 4), outside), ((-1, 0), outside),
        ((0, -1), outside), ((1.5, 2), not_int), ((1, 2.0), not_int),
    ):
        for check in (
            lattice.site_index,
            lattice.site_bit,
            lambda a, b: lattice.cross_count(lattice.FULL_MASK, a, b),
        ):
            with pytest.raises(error, match=match):
                check(*site)
