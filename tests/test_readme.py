import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs(capsys):
    # the first python block of the README runs unchanged, so a renamed or
    # deleted name, or a changed default it leans on, fails here
    block = re.search(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S).group(1)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.startswith("snr_db,frames,")
