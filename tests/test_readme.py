"""The README's "Library use" example runs as printed."""
import re
from pathlib import Path

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
