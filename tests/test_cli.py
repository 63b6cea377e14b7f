import io
import json

import numpy as np
import pytest

from fastpolar.classify import classify, option_sweep, plan_stats
from fastpolar.cli import NODE_SETS, main
from fastpolar.codec import encode, sc_decode
from fastpolar.construction import construct_code, load_descriptor, save_descriptor
from fastpolar.crc import CRC8, crc_attach, crc_by_name
from fastpolar.fastsc import fast_ssc_decode
from fastpolar.fastscl import fast_scl_decode
from fastpolar.listdec import scl_decode


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
    ("ssclspc", ["--list", "4", "--nodes", "rgpc2"]),
])
def test_decode_noiseless(code_file, monkeypatch, capsys, algo, extra):
    code = load_descriptor(code_file)
    u = np.zeros(32, np.uint8)
    u[code.info_indices] = np.random.default_rng(1).integers(0, 2, 16, dtype=np.uint8)
    llrs = (1.0 - 2.0 * encode(u.copy(), code)) * 6.0
    feed(monkeypatch, " ".join("%g" % v for v in llrs))
    main(["decode", "--code", str(code_file), "--algo", algo] + extra)
    out = np.array(capsys.readouterr().out.split(), np.uint8)
    assert np.array_equal(out, u)


@pytest.mark.parametrize("algo", ["sc", "fastssc", "scl", "ssclspc"])
@pytest.mark.parametrize("family", ["base", "grep", "gpc", "rgpc"])
def test_decode_matches_library(code_file, monkeypatch, capsys, algo, family):
    # noisy frames, where the decoders and node sets disagree with each other;
    # the rgpc family runs each of its AF budgets
    code = load_descriptor(code_file)
    listed = algo in ("scl", "ssclspc")
    crcs = ["none", "crc8"] if listed else ["none"]
    rng = np.random.default_rng(7)
    for nodes in [rung for rung in NODE_SETS if rung.rstrip("123") == family]:
        plan = classify(code, NODE_SETS[nodes])
        for crc in crcs:
            u = np.zeros(32, np.uint8)
            u[code.info_indices] = rng.integers(0, 2, 16, dtype=np.uint8)
            llrs = 2.0 * ((1.0 - 2.0 * encode(u, code)) + 1.2 * rng.normal(size=32)) / 1.44
            spec = crc_by_name(crc)
            ref = {"sc": lambda: sc_decode(llrs, code),
                   "fastssc": lambda: fast_ssc_decode(llrs, plan),
                   "scl": lambda: scl_decode(llrs, code, 4, spec),
                   "ssclspc": lambda: fast_scl_decode(llrs, code, plan, 4, spec)}
            feed(monkeypatch, " ".join(repr(float(v)) for v in llrs))
            # an explicit --crc none is accepted by the SC decoders, a --list is not
            main(["decode", "--code", str(code_file), "--algo", algo, "--nodes", nodes,
                  "--crc", crc] + ["--list", "4"] * listed)
            out = np.array(capsys.readouterr().out.split(), np.uint8)
            assert np.array_equal(out, ref[algo]()[0]), (nodes, crc)


def test_plain_and_fast_decoders_agree_by_default(tmp_path, monkeypatch, capsys):
    # with no f-rule option, each fast decoder gives its plain twin's bits on
    # noisy frames: sc/fastssc, and scl/ssclspc at L=4 with CRC8
    path = tmp_path / "code.json"
    main(["construct", "-n", "8", "-K", "128", "--sigma", "0.9", "--out", str(path)])
    code = load_descriptor(path)
    rng = np.random.default_rng(15)
    for frame in range(30):
        u = np.zeros(256, np.uint8)
        u[code.info_indices] = crc_attach(rng.integers(0, 2, 120, dtype=np.uint8), CRC8)
        llrs = 2.0 * ((1.0 - 2.0 * encode(u, code)) + 0.9 * rng.normal(size=256)) / 0.81
        capsys.readouterr()
        out = {}
        for algo, extra in (("sc", []), ("fastssc", []),
                            *((a, ["--list", "4", "--crc", "crc8"]) for a in ("scl", "ssclspc"))):
            feed(monkeypatch, " ".join(repr(float(v)) for v in llrs))
            main(["decode", "--code", str(path), "--algo", algo, "--nodes", "gpc", *extra])
            out[algo] = capsys.readouterr().out
        assert out["sc"] == out["fastssc"], frame
        assert out["scl"] == out["ssclspc"], frame


def _bad_inputs(tmp_path):
    """Inputs that are not usable, each as (argv, stdin, message)."""
    code = construct_code(4, 8, 0.5)
    save_descriptor(code, tmp_path / "k8.json")
    save_descriptor(construct_code(4, 0, 0.5), tmp_path / "k0.json")
    desc = json.loads((tmp_path / "k8.json").read_text())
    desc["frozen_indices"][1] = desc["frozen_indices"][0]
    (tmp_path / "dup.json").write_text(json.dumps(desc))
    k8 = ["--code", str(tmp_path / "k8.json")]
    frozen = np.zeros(16, np.uint8)
    frozen[code.frozen_indices[0]] = 1
    llrs = " ".join(["1.5"] * 16)

    def simulate(name, **cfg):
        (tmp_path / f"{name}.json").write_text(json.dumps({"code": "k8.json", **cfg}))
        return ["simulate", "--config", str(tmp_path / f"{name}.json"),
                "--out", str(tmp_path / "out.csv")]

    def decode_with(name, desc):  # a malformed code descriptor
        (tmp_path / f"{name}.json").write_text(json.dumps(desc))
        return ["decode", "--code", str(tmp_path / f"{name}.json")], llrs

    def encode_with(value):  # at an information index
        u = ["0"] * 16
        u[code.info_indices[0]] = value
        return ["encode", *k8], " ".join(u), "only the bits 0 and 1"

    return {
        "crc-wider-than-K": (["decode", *k8, "--algo", "scl", "--crc", "crc16"], llrs,
                             "shorter than the CRC width"),
        "nan-llrs": (["decode", *k8], "nan " + " ".join(["1.5"] * 15), "not finite"),
        "short-frame": (["decode", *k8], "1 2 3", "expected 16 LLRs per frame, got 3"),
        "repeated-frozen-index": (["decode", "--code", str(tmp_path / "dup.json")], llrs,
                                  "frozen_indices repeats"),
        "sim-crc-wider-than-K": (simulate("sim", crc="crc16"), "",
                                 "CRC wider than the unfrozen budget"),
        "encode-frozen-one": (["encode", *k8], " ".join(map(str, frozen)),
                              "nonzero value at a frozen index"),
        "missing-code-file": (["classify", "--code", str(tmp_path / "missing.json")], "",
                              "No such file or directory"),
        "sim-list-size-2.5": (simulate("ls", list_size=2.5), "", "list_size must be an integer"),
        "sim-scalar-snr": (simulate("snr", snr_db=2.0), "", "snr_db must be a list of numbers"),
        "sim-batch-string": (simulate("batch", batch="16"), "", "batch must be an integer"),
        "sim-grep-no": (simulate("grep", enable_grep="no"), "",
                        "enable_grep must be true or false"),
        "sim-no-code-path": (simulate("nocode", code=None), "", "a 'code' descriptor path"),
        "sim-ebn0-without-payload": (simulate("ebn0", code="k0.json"), "",
                                     "'ebn0' needs payload bits"),
        "sim-minsum-false": (simulate("minsum", minsum=False), "",
                             "the exact f-update was removed"),
        "decode-minsum-flag": (["decode", *k8, "--minsum"], llrs,
                               "unrecognized arguments: --minsum"),
        **{f"{algo}-with-{name}": (["decode", *k8, "--algo", algo, *opts], llrs,
                                   "--list and --crc apply only with --algo scl or ssclspc")
           for algo in ("sc", "fastssc")
           for name, opts in (("crc", ["--crc", "crc16"]), ("list", ["--list", "4"]),
                              ("crc-and-list", ["--crc", "crc16", "--list", "7"]))},
        "overflowing-llrs": (["decode", *k8], " ".join(["2e307"] * 16),
                             "N * max|LLR| must stay below the float maximum"),
        **{f"encode-{v}": encode_with(v) for v in ("2", "-1", "256", "0.5")},
        "desc-no-n": (*decode_with("non", {"K": 4, "frozen_indices": [0, 1, 2, 4]}),
                      "a JSON object with 'n' and 'frozen_indices'"),
        "desc-list": (*decode_with("list", [1, 2]), "a JSON object with 'n'"),
        "desc-no-frozen": (*decode_with("nofrozen", {"n": 3}), "a JSON object with 'n'"),
        "desc-frozen-int": (*decode_with("frozenint", {"n": 3, "frozen_indices": 5}),
                            "frozen_indices must be a list"),
        "desc-sigma-null": (*decode_with("sigma", {"n": 4, "frozen_indices": code.frozen_indices
                                                   .tolist(), "design_sigma": None}),
                            "design_sigma must be a number"),
        "sim-crc-bogus": (simulate("crcbogus", crc={"bogus": 1}), "",
                          "a CRC spec object has the fields ['width', 'polynomial', 'init', "
                          "'reflect', 'final_xor']"),
        "sim-crc-width-x": (simulate("crcwx", crc={"width": "x", "polynomial": 7}), "",
                            "width must be an integer"),
        "sim-crc-width-0": (simulate("crcw0", crc={"width": 0, "polynomial": 7}), "",
                            "CRC width must be >= 1"),
        "sim-crc-reflect-yes": (simulate("crcref", crc={"width": 4, "polynomial": 7,
                                                         "reflect": "yes"}), "",
                                "reflect must be true or false"),
        **{f"sim-crc-poly-{p}": (simulate(f"crcpoly{p}", crc={"width": 4, "polynomial": p}), "",
                                 "CRC polynomial must be in [0, 2**width)") for p in (-3, 0x1F)},
    }


@pytest.mark.parametrize("case", ["crc-wider-than-K", "nan-llrs", "short-frame",
                                  "repeated-frozen-index", "sim-crc-wider-than-K",
                                  "encode-frozen-one", "missing-code-file",
                                  "sim-list-size-2.5", "sim-scalar-snr", "sim-batch-string",
                                  "sim-grep-no", "sim-no-code-path", "sim-ebn0-without-payload",
                                  "sim-minsum-false", "decode-minsum-flag",
                                  "sc-with-crc", "sc-with-list", "sc-with-crc-and-list",
                                  "fastssc-with-crc", "fastssc-with-list",
                                  "fastssc-with-crc-and-list", "overflowing-llrs",
                                  "encode-2", "encode--1", "encode-256", "encode-0.5",
                                  "desc-no-n", "desc-list", "desc-no-frozen", "desc-frozen-int",
                                  "desc-sigma-null", "sim-crc-bogus", "sim-crc-width-x",
                                  "sim-crc-width-0", "sim-crc-reflect-yes", "sim-crc-poly--3",
                                  "sim-crc-poly-31"])
def test_bad_inputs_are_usage_errors(tmp_path, monkeypatch, capsys, case):
    argv, stdin, message = _bad_inputs(tmp_path)[case]
    feed(monkeypatch, stdin)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_classify_text_and_json(code_file, capsys):
    main(["classify", "--code", str(code_file)])
    text = capsys.readouterr().out
    assert "stats:" in text
    main(["classify", "--code", str(code_file), "--json"])
    tree = json.loads(capsys.readouterr().out)
    assert tree["stage"] == 5 and tree["offset"] == 0


@pytest.mark.parametrize("n,K", [(5, 16), (6, 32)])
def test_every_rung_is_reachable(tmp_path, capsys, n, K):
    # --nodes <rung> prints the library's plan for that rung of option_sweep()
    path = tmp_path / "code.json"
    code = construct_code(n, K, 0.5)
    save_descriptor(code, path)
    rgpc_counts = []
    for label, opts in option_sweep():
        plan = classify(code, opts)
        args = ["classify", "--code", str(path), "--nodes", label.lstrip("+")]
        main(args + ["--json"])
        assert capsys.readouterr().out == json.dumps(plan.to_dict(), indent=2) + "\n", label
        main(args)
        stats = capsys.readouterr().out.splitlines()[-1]
        assert stats == "stats: " + json.dumps(plan_stats(plan), sort_keys=True), label
        rgpc_counts.append(plan_stats(plan).get("rgpc", 0))
    if (n, K) == (6, 32):  # this code has RG-PC nodes at every AF budget
        assert all(rgpc_counts[3:]), rgpc_counts


@pytest.mark.parametrize("command", ["classify", "decode"])
@pytest.mark.parametrize("nodes", list(NODE_SETS))
def test_max_af_is_a_usage_error(code_file, capsys, command, nodes):
    # the AF budget is part of the rung's name; there is no --max-af option
    with pytest.raises(SystemExit) as exc:
        main([command, "--code", str(code_file), "--nodes", nodes, "--max-af", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-af 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["classify", "--nodes", "rgpc"],  # a bare rgpc names no AF budget
    ["classify", "--nodes", "rgpc4"],
    ["decode", "--nodes", "rgpc0"],
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
