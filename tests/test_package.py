import cornerindex
from cornerindex import build, corner, oracle, persist, pnf, rle, textgen


def test_exports_are_the_submodules_exports():
    names = [*build.__all__, *corner.__all__, *oracle.__all__, *persist.__all__,
             *pnf.__all__, *rle.__all__, *textgen.__all__, "__version__"]
    assert sorted(cornerindex.__all__) == sorted(names)
    assert len(set(names)) == len(names)
    for module in (build, corner, oracle, persist, pnf, rle, textgen):
        for name in module.__all__:
            assert getattr(cornerindex, name) is getattr(module, name)
    assert cornerindex.__version__ == "0.1.0"
