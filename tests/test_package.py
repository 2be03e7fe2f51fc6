import hankelforge


def test_all_names_resolve():
    for name in hankelforge.__all__:
        getattr(hankelforge, name)  # AttributeError on a stale entry
    exec("from hankelforge import *", {})
