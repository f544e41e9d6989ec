import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    # the tour's blocks build on each other, so they share one namespace
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for index, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {index}", "exec"), namespace)
