import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    # the python block of the Library section, run as written, so the
    # documented API cannot drift from the code
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    [code] = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(code, f"{README}:Library", "exec"), {})
    assert "e_cons=" in capsys.readouterr().out
