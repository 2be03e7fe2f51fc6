import pytest

from hankelforge import Family, SequenceId, domb, franel, prefix, term
from hankelforge.exact import InexactDivisionError
from hankelforge.sequences import APERY_A, APERY_B, CENTRAL_BINOM, CLF, G_SUM, RECURRENCES, Recurrence

from oracle_helpers import CATALOG, brute_prefix, brute_term

# Frozen by brute-force summation of the defining formulas.
FRANEL3 = (1, 2, 10, 56, 346, 2252, 15184, 104960, 739162)
FRANEL4 = (1, 2, 18, 164, 1810, 21252, 263844)
DOMB2 = (1, 4, 28, 256, 2716, 31504, 387136, 4951552, 65218204)
DOMB1 = (1, 4, 20, 112, 676, 4304, 28496, 194240, 1353508)
CLF_TERMS = (1, 8, 80, 896, 10816, 137728, 1823744, 24862720, 346498048)
B_TERMS = (1, 3, 19, 147, 1251, 11253, 104959, 1004307, 9793891)
A_TERMS = (1, 5, 73, 1445, 33001, 819005, 21460825, 584307365, 16367912425)
G_TERMS = (1, 3, 15, 93, 639, 4653, 35169, 272835, 2157759)
CENTRAL = (1, 2, 6, 20, 70, 252, 924, 3432, 12870)


@pytest.mark.parametrize(
    "seq,expected",
    [
        (franel(3), FRANEL3),
        (franel(4), FRANEL4),
        (domb(2), DOMB2),
        (domb(1), DOMB1),
        (CLF, CLF_TERMS),
        (APERY_B, B_TERMS),
        (APERY_A, A_TERMS),
        (G_SUM, G_TERMS),
        (CENTRAL_BINOM, CENTRAL),
    ],
)
def test_frozen_prefixes(seq, expected):
    assert prefix(seq, len(expected) - 1).terms == expected


def test_term_examples():
    assert term(franel(3), 2) == 10
    assert term(franel(3), 0) == 1
    assert term(domb(2), 1) == 4
    assert term(APERY_B, 1) == 3
    assert term(CLF, 2) == 80
    assert term(CLF, 2) == 4 * term(domb(1), 2)


def test_prefix_examples():
    assert prefix(APERY_A, 2).terms == (1, 5, 73)
    assert prefix(CLF, 1).terms == (1, 8)
    assert prefix(CENTRAL_BINOM, 3).terms == (1, 2, 6, 20)
    # A named tuple of (id, terms): equal to the plain tuple of its fields.
    f = prefix(franel(3), 4)
    assert f == (franel(3), (1, 2, 10, 56, 346))
    assert f.id == franel(3) and f.terms == (1, 2, 10, 56, 346)


def test_prefix_matches_term():
    for seq in (franel(7), domb(4)):
        terms = prefix(seq, 12).terms
        assert terms == tuple(term(seq, i) for i in range(13))


@pytest.mark.parametrize("seq", CATALOG)
def test_terms_match_independent_oracle(seq):
    assert list(prefix(seq, 25).terms) == brute_prefix(seq, 25)


@pytest.mark.parametrize("seq", list(RECURRENCES), ids=lambda s: s.label())
def test_recurrence_prefix_matches_summation(seq):
    terms = prefix(seq, 150).terms
    assert len(terms) == 151
    for n, t in enumerate(terms):
        assert t == term(seq, n) == brute_term(seq, n)
    # n_max below, at and just past the seeds of an order-3 row
    for n_max in range(4):
        assert prefix(seq, n_max).terms == terms[:n_max + 1]


# One row per recurrence order.  lead + 2 leaves a remainder in each; lead + 1
# would not on franel(1), where 2 divides 2 x(n) at every n.
@pytest.mark.parametrize("seq,order", [(franel(1), 1), (franel(3), 2), (franel(5), 3)],
                         ids=("order-1", "order-2", "order-3"))
def test_recurrence_loop_checks_every_division(monkeypatch, seq, order):
    lead, coeffs = RECURRENCES[seq]
    assert len(coeffs) == order
    monkeypatch.setitem(RECURRENCES, seq, Recurrence(lambda n: lead(n) + 2, coeffs))
    with pytest.raises(InexactDivisionError) as info:
        prefix(seq, 20)
    assert str(info.value).endswith(f" in {seq.label()} recurrence")


ORDER_3 = (franel(5), franel(6), domb(3))


@pytest.mark.parametrize("seq", ORDER_3, ids=lambda s: s.label())
def test_order_3_recurrence_matches_summation_at_1000(seq):
    assert prefix(seq, 1000).terms[1000] == term(seq, 1000)


def test_recurrence_table_covers_unparametrised_families():
    # prefix sums only the parametrised families outside the table.
    for fam in Family:
        if fam not in (Family.FRANEL_R, Family.DOMB_M):
            assert SequenceId(fam) in RECURRENCES
    assert all(seq in RECURRENCES for seq in ORDER_3)
    assert franel(7) not in RECURRENCES and domb(4) not in RECURRENCES


@pytest.mark.parametrize("seq", (franel(7), domb(4)), ids=lambda s: s.label())
def test_summation_prefix_matches_oracle(seq):
    assert list(prefix(seq, 60).terms) == brute_prefix(seq, 60)
    assert prefix(seq, 0).terms == (1,)
    assert list(prefix(seq, 1).terms) == brute_prefix(seq, 1)


@pytest.mark.parametrize("seq", (domb(3), CLF), ids=lambda s: s.label())
def test_term_above_old_cache_cap(seq):
    assert term(seq, 1030) == brute_term(seq, 1030)


def test_recurrence_agrees_with_summation():
    # Every row holds for the summed terms themselves, without prefix:
    # lead(n) x(n+k) = sum_i c_i(n) x(n+i).  Its leading polynomial has no
    # zero where prefix divides by it.
    for seq, (lead, coeffs) in RECURRENCES.items():
        k = len(coeffs)
        x = [term(seq, n) for n in range(60)]
        for n in range(60 - k):
            assert lead(n) * x[n + k] == sum(c(n) * x[n + i] for i, c in enumerate(coeffs)), seq
        assert all(lead(n) != 0 for n in range(10**4 + 1)), seq


def test_closed_form_anchors():
    # r=1 is the binomial theorem, r=2 is Vandermonde.
    for n in range(50):
        assert term(franel(1), n) == 2**n
        assert term(franel(2), n) == term(CENTRAL_BINOM, n)


def test_clf_doubling_identity():
    p = prefix(CLF, 50).terms
    d1 = prefix(domb(1), 50).terms
    for m in range(51):
        assert p[m] == 2**m * d1[m]


@pytest.mark.parametrize("seq", CATALOG)
def test_unit_start_and_strictly_increasing(seq):
    terms = prefix(seq, 40).terms
    assert terms[0] == 1
    for n in range(1, 40):
        assert terms[n + 1] > terms[n] > 0


def test_invalid_ids_rejected():
    with pytest.raises(ValueError):
        SequenceId(Family.FRANEL_R, 0)
    with pytest.raises(ValueError):
        SequenceId(Family.DOMB_M, -1)
    with pytest.raises(ValueError):
        SequenceId(Family.CLF, 3)
    # unchecked, these gave d(0)'s terms, f(2.5) float terms and the label
    # domb[m=True]
    for family, param in [("foo", 0), (Family.FRANEL_R, 2.5), (Family.DOMB_M, True)]:
        with pytest.raises(ValueError):
            SequenceId(family, param)


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        term(franel(3), -1)
    with pytest.raises(ValueError):
        prefix(franel(3), -2)


def test_index_that_is_not_an_int_rejected():
    # unchecked, True gave the terms (1, 2) and the term 2, and a float
    # raised a bare TypeError from range or comb
    for n in (True, 2.5, 3.0):
        with pytest.raises(ValueError, match="must be an exact integer"):
            prefix(franel(3), n)
        with pytest.raises(ValueError, match="must be an exact integer"):
            term(franel(3), n)


def test_labels():
    assert franel(3).label() == "franel[r=3]"
    assert domb(2).label() == "domb[m=2]"
    assert CLF.label() == "clf"


def test_exact_division_guard():
    from hankelforge.exact import InexactDivisionError, exact_div

    assert exact_div(10, 5) == 2
    assert exact_div(-12, 4) == -3
    with pytest.raises(InexactDivisionError):
        exact_div(10, 4, "unit test")


def test_exact_division_error_names_dividend_above_str_digit_limit():
    from hankelforge.exact import InexactDivisionError, exact_div

    with pytest.raises(InexactDivisionError) as info:
        exact_div(10**5000 + 1, 10)
    assert str(info.value) == "1" + "0" * 4999 + "1 is not divisible by 10"
