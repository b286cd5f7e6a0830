import importlib

import pytest

import twindisc
from twindisc import cli, lti, sysid


def test_every_public_name_is_its_submodules_object():
    for name in twindisc.__all__:
        home = importlib.import_module(f"twindisc.{twindisc._SUBMODULE_OF[name]}")
        want = home if home.__name__ == f"twindisc.{name}" else getattr(home, name)
        # __getattr__ itself, since earlier accesses cache names in the package
        assert twindisc.__getattr__(name) is want
        assert getattr(twindisc, name) is want


def test_dir_and_star_import_cover_the_public_names():
    assert set(twindisc.__all__) <= set(dir(twindisc))
    namespace = {}
    exec("from twindisc import *", namespace)
    assert set(twindisc.__all__) <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        twindisc.no_such_name  # noqa: B018
    assert not hasattr(twindisc, "no_such_name")


def test_fit_failure_is_one_class_and_exits_1(tmp_path, monkeypatch):
    assert sysid.FitFailureError is lti.FitFailureError is twindisc.FitFailureError
    assert sysid.OrderSpec is lti.OrderSpec
    assert sysid.DEFAULT_ORDER_LABELS is lti.DEFAULT_ORDER_LABELS

    def fail(*args):
        raise sysid.FitFailureError("synthetic")

    monkeypatch.setattr(cli, "discriminate_datasets", fail)
    data = tmp_path / "d.csv"
    data.write_text("t,r,u,y\n0,0,0,0\n1,1,0.5,0.25\n")
    assert cli.main(["discriminate", str(data), "--out", str(tmp_path / "r")]) == 1
