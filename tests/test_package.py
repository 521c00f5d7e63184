import types

import jordanmaps


def test_all_matches_the_package_namespace():
    # every listed name resolves, every public name bound in the package
    # (submodules aside) is listed, and removed helpers stay removed
    listed = set(jordanmaps.__all__)
    assert len(listed) == len(jordanmaps.__all__)
    for name in listed:
        assert hasattr(jordanmaps, name), name
    public = {
        name for name, value in vars(jordanmaps).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public <= listed, sorted(public - listed)
    for gone in ("forms_equivalent", "is_proportional"):
        assert gone not in listed
        assert not hasattr(jordanmaps, gone)
