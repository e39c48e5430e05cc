"""The README's Library example runs and prints what its comments say."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_prints_its_comments(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    library = readme[readme.index("## Library"):]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    monkeypatch.chdir(ROOT)  # the example opens fixtures/ by a relative path
    exec(compile(code, "README.md", "exec"), {})
    expected = [line.split("# ", 1)[1] for line in code.splitlines() if "# " in line]
    assert capsys.readouterr().out.splitlines() == expected
