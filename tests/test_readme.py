"""The README's Quickstart block runs as written, and its config schema
example is a valid config."""
import json
import pathlib
import re

from frameavg.experiments import config_from_mapping

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_block_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quickstart", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    namespace = {}
    exec(compile(block, "README.md Quickstart", "exec"), namespace)
    printed = float(capsys.readouterr().out.split()[-1])
    assert 0.0 < printed < namespace["beta_w"]


def test_config_schema_block_loads():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Config schema", 1)[1].split("\n### ", 1)[0]
    (block,) = re.findall(r"```json\n(.*?)```", section, flags=re.S)
    cfg = config_from_mapping(json.loads(block))
    assert cfg.sizes == (4, 6, 8)
    assert cfg.tolerance("bs-equality") == 1e-7
