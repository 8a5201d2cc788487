"""The README's library example runs as written."""

import re
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    with redirect_stdout(StringIO()) as out:
        exec(compile(block, f"{README.name}: ## Library", "exec"), {})
    # the packet line's comment gives its output
    assert out.getvalue().splitlines()[-1] == "(2, 3) (2,)"
