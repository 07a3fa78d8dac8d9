from renormforest.integrands import chaos_classes
from renormforest.powercount import TreeAnalysis


def test_chaos_classes_211(kpz):
    classes = chaos_classes(TreeAnalysis(kpz.t211, kpz.table, kpz.cum))
    assert len(classes) == 10
    by_wick = {}
    for c in classes:
        by_wick.setdefault(len(c.wick), []).append(len(c.forests))
    assert sorted(by_wick[0]) == [4, 4, 8]
    assert sorted(by_wick[2]) == [1, 1, 2, 2, 2, 2]
    assert by_wick[4] == [1]
