import io
import json

import numpy as np
import pytest

from fastpolar.cli import main
from fastpolar.codec import encode
from fastpolar.construction import construct_code, load_descriptor, save_descriptor


@pytest.fixture
def code_file(tmp_path):
    path = tmp_path / "code.json"
    main(["construct", "-n", "5", "-K", "16", "--sigma", "0.5", "--out", str(path)])
    return path


def feed(monkeypatch, text):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))


def test_construct_writes_descriptor(code_file):
    code = load_descriptor(code_file)
    assert code.N == 32 and code.K == 16
    assert np.array_equal(code.flags, construct_code(5, 16, 0.5).flags)


def test_encode_round_trip(code_file, monkeypatch, capsys):
    code = load_descriptor(code_file)
    u = np.zeros(32, np.uint8)
    u[code.info_indices] = np.random.default_rng(0).integers(0, 2, 16, dtype=np.uint8)
    feed(monkeypatch, " ".join(map(str, u)))
    main(["encode", "--code", str(code_file)])
    out = np.array(capsys.readouterr().out.split(), np.uint8)
    assert np.array_equal(out, encode(u, code))


@pytest.mark.parametrize("algo,extra", [
    ("sc", []),
    ("fastssc", ["--nodes", "gpc"]),
    ("scl", ["--list", "4"]),
    ("ssclspc", ["--list", "4", "--nodes", "rgpc", "--max-af", "2"]),
])
def test_decode_noiseless(code_file, monkeypatch, capsys, algo, extra):
    code = load_descriptor(code_file)
    u = np.zeros(32, np.uint8)
    u[code.info_indices] = np.random.default_rng(1).integers(0, 2, 16, dtype=np.uint8)
    llrs = (1.0 - 2.0 * encode(u.copy(), code)) * 6.0
    feed(monkeypatch, " ".join("%g" % v for v in llrs))
    main(["decode", "--code", str(code_file), "--algo", algo, "--minsum"] + extra)
    out = np.array(capsys.readouterr().out.split(), np.uint8)
    assert np.array_equal(out, u)


def test_classify_text_and_json(code_file, capsys):
    main(["classify", "--code", str(code_file)])
    text = capsys.readouterr().out
    assert "stats:" in text
    main(["classify", "--code", str(code_file), "--json"])
    tree = json.loads(capsys.readouterr().out)
    assert tree["stage"] == 5 and tree["offset"] == 0


@pytest.mark.parametrize("command", ["classify", "decode"])
@pytest.mark.parametrize("nodes", ["base", "grep", "gpc"])
def test_max_af_needs_rgpc_nodes(code_file, capsys, command, nodes):
    with pytest.raises(SystemExit) as exc:
        main([command, "--code", str(code_file), "--nodes", nodes, "--max-af", "3"])
    assert exc.value.code == 2
    assert "--max-af" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["classify", "--nodes", "rgpc", "--max-af", "4"],
    ["classify", "--nodes", "rgpc", "--max-af", "-1"],
    ["decode", "--nodes", "rgpc", "--max-af", "4"],
    ["decode", "--algo", "scl", "--list", "0"],
    ["decode", "--algo", "ssclspc", "--list", "-2"],
])
def test_out_of_range_options_are_usage_errors(code_file, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--code", str(code_file)] + argv[1:])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and argv[-2] in err


def test_latency_table_and_csv(code_file, capsys):
    main(["latency", "--code", str(code_file)])
    text = capsys.readouterr().out
    assert "base" in text and "+rgpc3" in text
    main(["latency", "--code", str(code_file), "--csv"])
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "decoder,node_set,steps"
    assert len(lines) == 1 + 12  # two decoders, six node sets


def test_simulate_writes_csv(tmp_path, capsys):
    save_descriptor(construct_code(4, 8, 0.5), tmp_path / "code.json")
    cfg = {"code": "code.json", "decoder": "fastssc", "enable_grep": True,
           "snr_db": [3.0], "min_errors": 3, "max_frames": 200, "seed": 1,
           "batch": 32}
    (tmp_path / "sim.json").write_text(json.dumps(cfg))
    out = tmp_path / "bler.csv"
    plot = tmp_path / "bler.dat"
    main(["simulate", "--config", str(tmp_path / "sim.json"), "--out", str(out),
          "--emit-plotdata", str(plot)])
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("snr_db,") and len(lines) == 2
    assert plot.read_text().startswith("#")


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
