"""The README's Quickstart block runs as written."""
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_block_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    namespace = {}
    exec(compile(block, "README.md Quickstart", "exec"), namespace)
    printed = float(capsys.readouterr().out.split()[-1])
    assert 0.0 < printed < namespace["beta_w"]
