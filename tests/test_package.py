import importlib
import pkgutil

import ordstat

# the command-line front end is not part of the library namespace
LIBRARY_MODULES = sorted(
    info.name for info in pkgutil.iter_modules(ordstat.__path__) if info.name != "cli"
)


def test_every_public_name_is_listed_once_in_its_own_module():
    owners = {}
    for module_name in LIBRARY_MODULES:
        module = importlib.import_module(f"ordstat.{module_name}")
        for name in module.__all__:
            owners.setdefault(name, []).append(module)
    assert {name: len(mods) for name, mods in owners.items() if len(mods) > 1} == {}
    assert sorted(ordstat.__all__) == sorted(["__version__", *owners])
    for name, (module,) in owners.items():
        assert getattr(ordstat, name) is getattr(module, name)
    for name in ("LAWS", "first_observation_leq", "observation_leq", "order_stat_leq",
                 "order_stat_in_window"):
        assert name in ordstat.__all__


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from ordstat import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(ordstat.__all__)


def test_removed_aliases_are_gone():
    for name in ("Rational", "RngSeed"):
        assert not hasattr(ordstat, name)
