import raagspine


def test_all_names_resolve_once():
    names = raagspine.__all__
    assert len(set(names)) == len(names)
    for name in names:
        assert getattr(raagspine, name) is not None


def test_star_import():
    # runs under the suite's filterwarnings = error
    namespace = {}
    exec("from raagspine import *", namespace)
    assert set(raagspine.__all__) <= set(namespace)
