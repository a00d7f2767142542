import types

import kp5


def test_public_names_resolve():
    assert len(set(kp5.__all__)) == len(kp5.__all__)
    for name in kp5.__all__:
        assert getattr(kp5, name) is not None, name
    # every public object the package imports is listed
    listed = set(kp5.__all__)
    for name, obj in vars(kp5).items():
        if not name.startswith("_") and not isinstance(obj, types.ModuleType):
            assert name in listed, name
