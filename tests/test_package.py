import types

import resonet as rn


def test_all_is_the_public_namespace():
    # every exported name resolves, once, and nothing public is left out
    assert len(rn.__all__) == len(set(rn.__all__))
    assert [name for name in rn.__all__ if not hasattr(rn, name)] == []
    public = {
        name
        for name, value in vars(rn).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(rn.__all__)) == []
