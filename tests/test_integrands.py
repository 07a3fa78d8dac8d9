from conftest import analyses
from renormforest.integrands import chaos_classes


def test_chaos_classes_211(kpz):
    classes = chaos_classes(analyses(kpz)(kpz.t211))
    assert len(classes) == 10
    by_wick = {}
    for c in classes:
        by_wick.setdefault(len(c.wick), []).append(len(c.forests))
    assert sorted(by_wick[0]) == [4, 4, 8]
    assert sorted(by_wick[2]) == [1, 1, 2, 2, 2, 2]
    assert by_wick[4] == [1]
