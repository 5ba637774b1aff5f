import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs():
    # the README's "Library use" example is the documented public surface
    block = re.search(r"## Library use\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert block is not None
    exec(compile(block.group(1), str(README), "exec"), {})
