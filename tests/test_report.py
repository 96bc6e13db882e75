import pytest

from lsaforge.report import (Certificate, InternalInconsistency, certify,
                             failing, passing)


def test_certify_returns_passing_certificate():
    reports = [passing("first", "a == a"), passing("second", "b == b")]
    cert = certify("demo", reports)
    assert cert == Certificate("demo", tuple(reports))


def test_certify_names_construction_and_first_failure():
    reports = [passing("first", "a == a"),
               failing("second", "b == c", witness=(0, 1)),
               failing("third", "d == e")]
    with pytest.raises(InternalInconsistency) as exc:
        certify("demo", reports)
    assert str(exc.value) == (
        "demo construction failed its own certificate: "
        "FAIL second  witness=(0, 1)  violated: b == c")
