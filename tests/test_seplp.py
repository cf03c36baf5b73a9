import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from lattice16 import classifier, dense, lattice, seplp, symmetry, tables
from lp_oracles import brute_force_decomposable
from separable_basis import is_exact_product_ensemble, product_ensemble

random.seed(13)


def test_basis_size_and_structure():
    basis = seplp.build_basis()
    assert len(basis) == 60
    for m in basis:
        assert lattice.cardinality(m) == 4
        assert lattice.is_ppt(m)
    # Closed under the symmetry action.
    s = set(basis)
    for m in basis:
        g = random.choice(symmetry.group())
        assert symmetry.act(g, m) in s


def test_basis_equals_table_derivation():
    # The closed form names exactly the four-site PPT subsets, in the
    # order that fixes the LP's columns, pivots and certificates.
    members = np.flatnonzero((tables.cardinality() == 4) & tables.ppt())
    assert seplp.build_basis() == sorted(members.tolist(), key=lattice.sites)


def test_basis_shapes():
    # Every member is either a bijection graph (one site per column and
    # row) or a 2x2 combinatorial block.
    bijection = block = 0
    for m in seplp.build_basis():
        cols = [sum(a == c for a, _ in lattice.sites(m)) for c in range(4)]
        rows = [sum(b == r for _, b in lattice.sites(m)) for r in range(4)]
        if cols == [1, 1, 1, 1] and rows == [1, 1, 1, 1]:
            bijection += 1
        else:
            assert sorted(cols, reverse=True) == [2, 2, 0, 0]
            assert sorted(rows, reverse=True) == [2, 2, 0, 0]
            block += 1
    assert bijection == 24
    assert block == 36


def test_basis_members_are_separable():
    # Every LP certificate rests on this: each of the 60 members equals
    # an explicit mixture of pure product states, checked exactly.
    basis = seplp.build_basis()
    assert len(basis) == 60
    for m in basis:
        ensemble = product_ensemble(m)
        assert len(ensemble) == 4
        assert is_exact_product_ensemble(m, ensemble), f"0x{m:04X}"


def test_product_ensemble_check_rejects_tampering():
    smolin = 0x1248
    ens = product_ensemble(smolin)
    assert not is_exact_product_ensemble(0x0033, ens)  # wrong target
    swapped = [(p, a, ens[(i + 1) % 4][2]) for i, (p, a, _) in enumerate(ens)]
    assert not is_exact_product_ensemble(smolin, swapped)
    p, a, _ = ens[0]
    mixed = [(p, a, np.eye(4) / 4)] + ens[1:]  # trace one but not pure
    assert not is_exact_product_ensemble(smolin, mixed)
    reweighted = [(w, x, y) for w, (_, x, y) in zip((0.5, 0.25, 0.125, 0.125), ens)]
    assert not is_exact_product_ensemble(smolin, reweighted)
    with pytest.raises(ValueError):
        product_ensemble(0x000F)  # one full column: not a basis member


def test_decompose_requires_ppt():
    with pytest.raises(ValueError):
        seplp.decompose(0xF)


def test_decompose_basis_members_trivially():
    for m in random.sample(seplp.build_basis(), 10):
        cert = seplp.decompose(m)
        assert cert is not None
        assert cert.weights == {m: Fraction(1)}
        assert seplp.verify_certificate(cert)


def test_decompose_reference_states(grids):
    for name, n in (("rho9", 9), ("rho8", 8), ("rho6", 6)):
        cert = seplp.decompose(grids[name])
        assert cert is not None, name
        assert seplp.verify_certificate(cert)
        assert sum(cert.weights.values()) == 1
        for m in cert.weights:
            assert m & ~grids[name] == 0


def test_manual_nine_block_decomposition(grids):
    # The 3x3 square mixes its nine 2x2 sub-blocks with weight 1/9 each.
    weights = {}
    for c1, c2 in itertools.combinations((1, 2, 3), 2):
        for r1, r2 in itertools.combinations((1, 2, 3), 2):
            m = (lattice.site_bit(c1, r1) | lattice.site_bit(c1, r2)
                 | lattice.site_bit(c2, r1) | lattice.site_bit(c2, r2))
            weights[m] = Fraction(1, 9)
    cert = seplp.DecompositionCertificate(target=grids["rho9"], weights=weights)
    assert len(weights) == 9
    assert seplp.verify_certificate(cert)


def test_verify_rejects_tampered_certificates(grids):
    cert = seplp.decompose(grids["rho9"])
    assert cert is not None and seplp.verify_certificate(cert)
    ws = dict(cert.weights)
    first = next(iter(ws))
    bad = dict(ws)
    bad[first] += Fraction(1, 100)  # weights no longer sum to 1
    assert not seplp.verify_certificate(
        seplp.DecompositionCertificate(grids["rho9"], bad)
    )
    assert not seplp.verify_certificate(  # wrong target
        seplp.DecompositionCertificate(grids["rho8"], ws)
    )
    bad = dict(ws)
    w = bad.pop(first)
    outside = next(m for m in seplp.build_basis() if m & ~grids["rho9"])
    bad[outside] = w  # member not inside the target
    assert not seplp.verify_certificate(
        seplp.DecompositionCertificate(grids["rho9"], bad)
    )
    assert not seplp.verify_certificate(
        seplp.DecompositionCertificate(grids["rho9"], {})
    )


def test_verify_refuses_float_weights():
    # Each site of 0x00FF gets 0.1 + 0.2 + 0.2 and the total reads 1.0 in
    # floats, but the exact sum of these doubles is 1 + 2^-54.
    floats = {0x0033: 0.1, 0x00CC: 0.1, 0x0055: 0.2, 0x00AA: 0.2,
              0x0099: 0.2, 0x0066: 0.2}
    assert sum(map(Fraction, floats.values())) == 1 + Fraction(1, 2**54)
    with pytest.raises(TypeError):
        seplp.verify_certificate(seplp.DecompositionCertificate(0x00FF, floats))
    exact = {m: Fraction(w).limit_denominator(10) for m, w in floats.items()}
    assert seplp.verify_certificate(seplp.DecompositionCertificate(0x00FF, exact))


def test_verify_refuses_bool_weights():
    # True == 1, so the weight True used to verify as the rectangle 0x0033.
    assert seplp.verify_certificate(seplp.DecompositionCertificate(0x0033, {0x0033: 1}))
    with pytest.raises(TypeError):
        seplp.verify_certificate(seplp.DecompositionCertificate(0x0033, {0x0033: True}))


def test_census_certificates_reconstruct_their_states():
    # verify_certificate checks the per-site identities only, which is a
    # proof because the P_s are orthonormal.  Here every LP certificate
    # the census emits is also expanded densely: sum_j w_j rho_j must
    # equal rho_I.  Scaled by L N, with L clearing every denominator of
    # N w_j, both sides are integer sums of dyadic matrices: exact.
    certs = [
        seplp.decompose(r.canonical)
        for r in classifier.census()
        if r.justification is classifier.Justification.LP_CERTIFICATE
    ]
    assert len(certs) == 44
    for cert in certs:
        n = lattice.cardinality(cert.target)
        scale = math.lcm(*((n * w).denominator for w in cert.weights.values()))
        mix = sum(
            int(scale * n * w) * dense.build_lattice_state(m)
            for m, w in cert.weights.items()
        )
        sites = [4 * a + b for a, b in lattice.sites(cert.target)]
        state = scale * dense.projector_stack()[sites].sum(axis=0)
        assert seplp.verify_certificate(cert)
        assert np.array_equal(mix, state), f"0x{cert.target:04X}"


def test_verify_rejects_non_basis_member():
    cert = seplp.DecompositionCertificate(0x000F, {0x000F: Fraction(1)})
    assert not seplp.verify_certificate(cert)


def test_decompose_respects_orbit_mapping():
    # The cached canonical certificate must map back to each orbit member.
    base = seplp.build_basis()[7]
    for _ in range(10):
        g = random.choice(symmetry.group())
        image = symmetry.act(g, base)
        cert = seplp.decompose(image)
        assert cert is not None
        assert cert.target == image
        assert seplp.verify_certificate(cert)


def test_decompose_carries_every_certified_mask_like_act():
    # The reference maps each canonical certificate member by member
    # through find_mapping and act; decompose reads the carried members
    # from cached images instead, and must print the same certificate.
    checked = 0
    for mask in np.flatnonzero(tables.ppt()).tolist():
        canon = symmetry.canonical_form(mask).canonical
        cert = seplp.decompose(canon)
        if cert is None:
            continue
        g = symmetry.find_mapping(canon, mask)
        reference = seplp.DecompositionCertificate(
            target=mask,
            weights={symmetry.act(g, j): w for j, w in cert.weights.items()},
        )
        assert seplp.decompose(mask).to_json() == reference.to_json(), f"0x{mask:04X}"
        checked += 1
    assert checked == 8735


def test_decompose_of_a_non_canonical_mask_calls_no_act(monkeypatch, grids):
    def refuse(*args):
        raise AssertionError("decompose called the per-element symmetry path")

    mask = grids["rho9"]
    canon = symmetry.canonical_form(mask).canonical
    assert canon != mask
    expected = seplp.decompose(mask)
    monkeypatch.setattr(symmetry, "act", refuse)
    monkeypatch.setattr(symmetry, "find_mapping", refuse)
    symmetry._carried_images.cache_clear()  # the cold path too
    assert seplp.decompose(mask) == expected
    assert seplp.decompose(mask) == expected


def test_brute_force_agrees_with_simplex_small():
    # Complete cross-validation of the two feasibility routes on every
    # PPT subset with at most six sites.
    checked = 0
    for mask in range(1, lattice.FULL_MASK + 1):
        n = lattice.cardinality(mask)
        if n > 6 or not lattice.is_ppt(mask):
            continue
        lp = seplp.decompose(mask) is not None
        brute = brute_force_decomposable(mask)
        assert lp == brute, f"0x{mask:04X}"
        checked += 1
    assert checked == 372


def test_certificate_json_round_trip(grids):
    cert = seplp.decompose(grids["rho6"])
    payload = cert.to_json()
    assert payload["target"] == f"0x{grids['rho6']:04X}"
    total = Fraction(0)
    for m_hex, w_str in payload["weights"]:
        num, den = w_str.split("/")
        total += Fraction(int(num), int(den))
        assert int(m_hex, 16) in cert.weights
    assert total == 1


def test_census_certificates_read_back():
    # Every certificate the census writes parses back, through the JSONL
    # text, to the certificate decompose returns, and still verifies.
    records = classifier.census()
    lines = classifier.census_to_jsonl(records).splitlines()
    read = 0
    for record, line in zip(records, lines):
        payload = json.loads(line)["evidence"].get("certificate")
        if payload is None:
            continue
        cert = seplp.DecompositionCertificate.from_json(payload)
        assert cert == seplp.decompose(record.canonical)
        assert cert.to_json() == payload
        assert seplp.verify_certificate(cert)
        read += 1
    assert read == 44


def test_from_json_rejects_a_repeated_member():
    payload = {"target": "0x0033", "weights": [["0x0033", "1/2"], ["0x0033", "1/2"]]}
    with pytest.raises(ValueError):
        seplp.DecompositionCertificate.from_json(payload)


def test_from_json_rejects_a_zero_denominator():
    payload = {"target": "0x0033", "weights": [["0x0033", "1/0"]]}
    with pytest.raises(ValueError, match="zero denominator"):
        seplp.DecompositionCertificate.from_json(payload)


@pytest.mark.parametrize(
    "weight",
    [1, 1.0, True, "1e0", "1.0", " 1/1 ", "+1", "1", "+1/1",
     "2/2", "2/4", "01/2", "1/01", "-0/1"],
    ids=repr,
)
def test_from_json_reads_weights_in_the_n_over_d_form_only(weight):
    # Fraction() takes each of these.  The last five are n/d, but not the
    # text to_json writes for their value: "2/2" would read back as 1 and
    # write out as "1/1".
    good = {"target": "0x0033", "weights": [["0x0033", "1/1"]]}
    assert seplp.verify_certificate(seplp.DecompositionCertificate.from_json(good))
    payload = {**good, "weights": [["0x0033", weight]]}
    with pytest.raises(ValueError, match="bad weight"):
        seplp.DecompositionCertificate.from_json(payload)


@pytest.mark.parametrize(
    "text", ["0x_F0F", "F0F", " 0x0F0F ", "+0xF", "0x00000F0F", "-0x1", "0x_0033", 51]
)
def test_from_json_reads_masks_in_the_hex_form_only(text):
    # parse_subset's hex grammar: 0x and 1 to 4 hex digits.  int(text, 16)
    # takes each of these strings, reads -0x1 as the target -1, and lets
    # the member 0x_0033 verify as the rectangle 0x0033; the JSON number
    # 51 is a ValueError too, not the regex's TypeError.
    good = {"target": "0x0033", "weights": [["0x0033", "1/1"]]}
    assert seplp.verify_certificate(seplp.DecompositionCertificate.from_json(good))
    for payload in ({**good, "target": text}, {**good, "weights": [[text, "1/1"]]}):
        with pytest.raises(ValueError, match="bad hex mask"):
            seplp.DecompositionCertificate.from_json(payload)


@pytest.mark.parametrize(
    "payload, match",
    [
        ({"weights": [["0x0033", "1/1"]]}, "no 'target'"),
        ({"target": "0x0033"}, "no 'weights'"),
        ({"target": "0x0033", "weights": 5}, "bad weights 5"),
        ({"target": "0x0033", "weights": [["0x0033"]]}, r"bad weight entry \['0x0033'\]"),
        ({"target": "0x0033", "weights": ["0x0033"]}, "bad weight entry '0x0033'"),
        ({"target": "0x0033", "weights": [["0x0033", "1/1", "0"]]}, "bad weight entry"),
    ],
    ids=["no target", "no weights", "weights not a list", "short entry",
         "entry not a list", "long entry"],
)
def test_from_json_names_a_missing_key_or_bad_entry(payload, match):
    # A malformed certificate is a ValueError that says what is wrong, not
    # a KeyError, a TypeError or an unpacking error.
    with pytest.raises(ValueError, match=match):
        seplp.DecompositionCertificate.from_json(payload)
