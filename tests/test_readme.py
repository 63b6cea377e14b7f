import re
import shlex
from pathlib import Path

from fastpolar.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_tour_runs(capsys):
    # the first python block of the README runs unchanged, so a renamed or
    # deleted name, or a changed default it leans on, fails here
    block = re.search(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S).group(1)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.startswith("snr_db,frames,")


def _command_lines(tmp_path):
    """The `fastpolar ...` lines of the *Command line* block as argv lists,
    with every file name moved into ``tmp_path``."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, re.M | re.S).group(1)
    return [[str(tmp_path / tok) if re.fullmatch(r"\w+\.(json|csv|dat)", tok) else tok
             for tok in shlex.split(line.split("fastpolar ", 1)[1])]
            for line in block.splitlines() if "fastpolar " in line]


def test_command_line_examples(tmp_path, capsys):
    # a stale option or choice in the sh block is a usage error here
    lines = _command_lines(tmp_path)
    assert [argv[0] for argv in lines] == ["construct", "encode", "decode", "classify",
                                           "latency", "simulate"]
    for argv in lines:
        build_parser().parse_args(argv)
    for argv in lines:  # the ones that need no stdin or config file
        if argv[0] in ("construct", "classify", "latency"):
            try:
                main(argv)
            except SystemExit as exc:
                assert exc.code in (0, None), (argv, capsys.readouterr().err)
    assert "stats:" in capsys.readouterr().out
