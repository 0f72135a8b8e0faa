"""The README's "Library use" example runs as printed, and the library
names it spells out exist."""
import importlib
import pkgutil
import re
from pathlib import Path

import modeqaoa
from modeqaoa import final_mode_accuracy, index_to_bits

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names = {}
    exec(compile(code, str(README), "exec"), names)
    inst, result = names["inst"], names["result"]
    first, ledger = capsys.readouterr().out.splitlines()
    assert first == (f"{index_to_bits(result.best_index, 8)} "
                     f"{final_mode_accuracy(inst, result.final_eval)}")
    assert ledger == str(result.ledger.to_dict())


def test_readme_dotted_names_resolve():
    # a backticked a.b.c whose head is the package, one of its modules or a
    # name it exports must name something that exists
    modules = {m.name for m in pkgutil.iter_modules(modeqaoa.__path__)
               if not m.name.startswith("_")}
    for name in modules:  # bench is not imported by the package itself
        importlib.import_module(f"modeqaoa.{name}")
    heads = {"modeqaoa", *modules, *(n for n in dir(modeqaoa) if not n.startswith("_"))}
    spans = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`", README.read_text())
    checked = [span for span in spans if span.split(".")[0] in heads]
    missing = []
    for span in checked:
        obj = modeqaoa
        for part in span.removeprefix("modeqaoa.").split("."):
            if not hasattr(obj, part):
                missing.append(span)
                break
            obj = getattr(obj, part)
    assert len(checked) >= 10
    assert missing == []
