"""The README's examples hold: the library example runs as written and
every configuration block parses."""

import json
import re
from pathlib import Path

from hjcomplete.scenarios import parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    library = README.read_text(encoding="utf-8").split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    residual, _ = map(float, capsys.readouterr().out.split())
    assert residual < 1e-5


def test_readme_configurations_parse():
    section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```json\n(.*?)```", section, re.S)
    assert blocks
    for block in blocks:
        parse_config(json.loads(block))
