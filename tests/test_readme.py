"""The README's library example runs as written, and it states the CLI's budgets."""

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


def test_cli_budgets_named_with_their_values():
    # every budget constant of the CLI is stated with its value, and every
    # radiant.cli constant the README names exists
    import radiant.cli

    text = README.read_text()
    budgets = {name: value for name, value in vars(radiant.cli).items()
               if re.fullmatch(r"MAX_[A-Z_]+|[A-Z_]+_BYTES", name)}
    assert budgets
    for name, value in budgets.items():
        shown = f"2^{value.bit_length() - 1}" if value & (value - 1) == 0 else str(value)
        assert f"`radiant.cli.{name}` = {shown}" in text, name
    for name in re.findall(r"radiant\.cli\.([A-Z][A-Z_]*)\b", text):
        assert hasattr(radiant.cli, name), name
