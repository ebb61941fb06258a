import os
import shutil
import subprocess
import sys
import types

import pytest

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


def test_lazy_names_are_listed_and_bound_by_star_import():
    # in a fresh interpreter no name has been resolved yet: dir lists them
    # all, `from resonet import *` imports each one's submodule, and a
    # submodule is an attribute of the package
    src = os.path.dirname(os.path.dirname(os.path.abspath(rn.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import resonet; listed = set(resonet.__all__) <= set(dir(resonet)); "
        "names = {}; exec('from resonet import *', names); "
        "print(listed, sorted(set(names) - {'__builtins__'}) == sorted(resonet.__all__), "
        "resonet.touchstone.read_csv is resonet.read_csv)"
    )
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "True True True"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rn.no_such_name
    assert not hasattr(rn, "no_such_name")


def test_a_copy_under_another_name_reads_its_own_data(tmp_path):
    # the bundled tables are found through the package's own name; with
    # `resonet` blocked, a copy imported as `resonet_a` must not reach for it
    src = os.path.dirname(os.path.abspath(rn.__file__))
    shutil.copytree(src, tmp_path / "resonet_a", ignore=shutil.ignore_patterns("__pycache__"))
    probe = (
        "import sys; sys.modules['resonet'] = None; "
        "import resonet_a, resonet_a.cli, resonet_a.waveguide; "
        "print(resonet_a.bundled_filter_spec('xband-4pole').order, resonet_a.waveguide.band_preset('WR3').name, "
        "resonet_a.cli.build_parser().prog)"
    )
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "4 WR3 resonet"
