"""Lazy loading: ``import pbprop`` resolves its names on first use, and each
``pb`` verb loads only the modules it runs."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pbprop
from pbprop import axioms, cli, errors, pricing
from pbprop.model import Instance, emit_json

RUN_MODULES = {"pbprop", "pbprop.cli", "pbprop.errors", "pbprop.maxflow",
               "pbprop.model", "pbprop.rules", "pbprop.satisfaction"}


@pytest.mark.parametrize("argv, loaded", [
    (["run", "--rule", "mes"], RUN_MODULES),
    (["audit", "--sat", "card"], RUN_MODULES | {"pbprop.axioms"}),
    (["price", "extract", "--rule", "mes", "--sat", "card"],
     RUN_MODULES | {"pbprop.pricing", "pbprop.lp"}),
])
def test_a_fresh_verb_loads_only_the_modules_it_runs(tmp_path, argv, loaded):
    path = tmp_path / "inst.json"
    path.write_text(emit_json(
        Instance.create({"p1": 3, "p2": 1, "p3": 1}, [{"p1", "p2"}, {"p1", "p3"}], 3)))
    argv = argv + [str(path)] + (["p2,p3"] if argv[0] == "audit" else [])
    script = ("import sys\nfrom pbprop.cli import main\ncode = main(sys.argv[1:])\n"
              "print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'pbprop'),"
              " file=sys.stderr)")
    src = str(Path(pbprop.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script, *argv],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    code, *modules = proc.stderr.splitlines()[-1].split()
    assert code == "0", proc.stderr
    assert set(modules) == loaded


def test_every_export_resolves_to_its_submodule_object():
    assert sorted(pbprop.__all__) == sorted(pbprop._MODULE_OF)
    for name, mod in pbprop._MODULE_OF.items():
        submodule = importlib.import_module(f"pbprop.{mod}")
        assert getattr(pbprop, name) is getattr(submodule, name), name
    namespace: dict = {}
    exec("from pbprop import *", namespace)
    assert set(pbprop.__all__) <= set(namespace)
    assert set(pbprop.__all__) <= set(dir(pbprop))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        pbprop.no_such_name


def test_extraction_error_is_one_class():
    assert pricing.ExtractionUnavailableError is errors.ExtractionUnavailableError


def test_cli_axiom_names_are_the_checkers():
    assert cli.AXIOM_NAMES == tuple(axioms.AXIOM_CHECKERS)
