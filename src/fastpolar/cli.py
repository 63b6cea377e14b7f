"""Command-line interface.

Subcommands: construct, encode, decode, classify, latency, simulate.
Bit and LLR vectors travel as whitespace-separated text on the standard
streams; codes travel as JSON descriptor files.
"""

import argparse
import json
import sys

import numpy as np

from .classify import classify, option_sweep, plan_stats
from .codec import encode
from .construction import construct_code, load_descriptor, save_descriptor
from .crc import CRC_NAMES, check_integer, crc_by_name
from .latency import latency_table
from .sim import DECODERS, LIST_DECODERS, batch_decoder, load_sim_config, run_bler

# --nodes names a rung of the node-set ladder, as the latency columns do
NODE_SETS = {label.lstrip("+"): opts for label, opts in option_sweep()}
LIST_ALGOS = " and ".join(sorted(LIST_DECODERS))  # for decode's --list and --crc help


def _read_vector(stream):
    return np.array([float(tok) for tok in stream.read().split()])


def _write_vector(stream, vec, fmt):
    stream.write(" ".join(fmt % v for v in vec) + "\n")


def cmd_construct(args):
    code = construct_code(args.n, args.K, args.sigma)
    save_descriptor(code, args.out)
    print(f"wrote N={code.N} K={code.K} sigma={code.design_sigma} -> {args.out}")


def cmd_encode(args):
    code = load_descriptor(args.code)
    _write_vector(sys.stdout, encode(_read_vector(sys.stdin), code), "%d")


def cmd_decode(args):
    if args.list is not None:
        check_integer(args.list, "--list", 1)
    if args.algo not in LIST_DECODERS and (args.list or args.crc != "none"):
        raise ValueError(f"--list and --crc apply only with --algo "
                         f"{' or '.join(sorted(LIST_DECODERS))}")
    code = load_descriptor(args.code)
    llrs = _read_vector(sys.stdin)
    L = args.list or (4 if args.algo in LIST_DECODERS else 1)
    decode = batch_decoder(args.algo, code, NODE_SETS[args.nodes], L, crc_by_name(args.crc))
    _write_vector(sys.stdout, decode(llrs[None, :])[0], "%d")


def cmd_classify(args):
    code = load_descriptor(args.code)
    plan = classify(code, NODE_SETS[args.nodes])
    if args.json:
        json.dump(plan.to_dict(), sys.stdout, indent=2)
        print()
    else:
        print("\n".join(plan.pretty()))
        print("stats:", json.dumps(plan_stats(plan), sort_keys=True))


def cmd_latency(args):
    code = load_descriptor(args.code)
    table = latency_table(code)
    labels = [label for label, _ in option_sweep()]  # latency_table's column order
    if args.csv:
        print("decoder,node_set,steps")
        for dec in ("sc", "scl"):
            for label, rep in zip(labels, table[dec]):
                print(f"{dec},{label},{rep.total_steps}")
    else:
        width = max(len(s) for s in labels) + 2
        print(" " * 6 + "".join(s.rjust(width) for s in labels))
        for dec in ("sc", "scl"):
            cells = "".join(str(r.total_steps).rjust(width) for r in table[dec])
            print(dec.ljust(6) + cells)


def cmd_simulate(args):
    cfg = load_sim_config(args.config)
    result = run_bler(cfg)
    with open(args.out, "w") as fh:
        fh.write(result.to_csv())
    if args.emit_plotdata:
        with open(args.emit_plotdata, "w") as fh:
            fh.write(f"# {cfg.decoder}\n")
            for p in result.points:
                fh.write(f"{p.snr_db:g} {p.bler:.8e}\n")
    print(f"wrote {args.out}")


def build_parser():
    ap = argparse.ArgumentParser(prog="fastpolar",
                                 description="polar coding with generalized fast decoding")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a frozen set and write a code descriptor")
    p.add_argument("-n", type=int, required=True, help="log2 of the block length")
    p.add_argument("-K", type=int, required=True, help="number of unfrozen bit-channels")
    p.add_argument("--sigma", type=float, default=0.5, help="design noise std dev")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("encode", help="encode a bit vector from stdin")
    p.add_argument("--code", required=True)
    p.set_defaults(func=cmd_encode)

    nodes = argparse.ArgumentParser(add_help=False)  # node-set options of decode and classify
    nodes.add_argument("--nodes", choices=list(NODE_SETS), default="gpc",
                       help="node-set rung; rgpc1-rgpc3 set the RG-PC AF budget (default gpc)")

    p = sub.add_parser("decode", parents=[nodes], help="decode an LLR vector from stdin")
    p.add_argument("--code", required=True)
    p.add_argument("--algo", choices=list(DECODERS), default="sc")
    p.add_argument("--list", type=int, help=f"list size of {LIST_ALGOS} (default 4)")
    p.add_argument("--crc", choices=list(CRC_NAMES), default="none", help=f"{LIST_ALGOS} only")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("classify", parents=[nodes], help="print the pruned decode tree")
    p.add_argument("--code", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("latency", help="emit the node-set sweep of time-step costs")
    p.add_argument("--code", required=True)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=cmd_latency)

    p = sub.add_parser("simulate", help="run a Monte-Carlo BLER sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--emit-plotdata", dest="emit_plotdata")
    p.set_defaults(func=cmd_simulate)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input data, codes or configs
        ap.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
