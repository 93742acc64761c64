"""Batch command line for reproduction runs and scripting.

Results go to standard output (text or JSON); progress goes to standard
error.  Exit codes: 0 success/verified, 1 refuted or not verified, 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import algebra, atlas, codec, codes, equivalence, search
from .errors import NotNonsingular, SpreadRankError


def _progress(event):
    print(json.dumps(event), file=sys.stderr, flush=True)


def _load_spread(args):
    """Spread set from --atlas NAME or --spreadset PATH."""
    if getattr(args, "atlas", None):
        return atlas.atlas_get(args.atlas).spread_set()
    if getattr(args, "spreadset", None):
        q, n, mats = codec.read_spreadset_file(args.spreadset)
        return algebra.SpreadSet(q, mats)
    raise SystemExit2("need --atlas NAME or --spreadset PATH")


def _load_decomposition(args, spread):
    """The matrices of the --decomp file, whose q and n must be the spread set's."""
    q, n, _, mats = codec.read_decomposition_file(args.decomp)
    if (q, n) != (spread.q, spread.n):
        raise SystemExit2(f"decomposition has q={q} n={n}, spread set q={spread.q} n={spread.n}")
    return mats


class SystemExit2(Exception):
    pass


def cmd_decode(args):
    M = codec.decode(args.value, args.q, args.n)
    if args.json:
        print(json.dumps(M.tolist()))
    else:
        for row in M:
            print(" ".join(str(int(v)) for v in row))
    return 0


def cmd_encode(args):
    n = len(args.rows)
    if any(len(row) != n or not row.isdecimal() for row in args.rows):
        raise SystemExit2(f"need {n} rows of {n} digits each")
    rows = [[int(c) for c in row] for row in args.rows]
    if max(map(max, rows)) >= args.q:
        raise SystemExit2(f"digits must be below q = {args.q}")
    print(codec.encode(np.array(rows, dtype=np.uint8), args.q))
    return 0


def cmd_verify(args):
    if args.decomp:
        spread = _load_spread(args)
        mats = _load_decomposition(args, spread)
        ok, reason = search.verify_decomposition(spread, mats)
        out = {"verified": bool(ok), "reason": reason, "R": len(mats)}
    else:
        try:
            _load_spread(args)  # a dependent basis stays a usage error
            ok = True
        except NotNonsingular:
            ok = False
        out = {"verified": ok, "reason": "nonsingular" if ok else "singular"}
    print(json.dumps(out) if args.json else out["reason"])
    return 0 if ok else 1


def cmd_rank(args):
    from .errors import RankExceedsCap

    spread = _load_spread(args)
    progress = _progress if args.verbose else None
    try:
        rank, witness, reports = search.tensor_rank(
            spread, max_R=args.max, progress=progress
        )
    except RankExceedsCap as exc:
        print(f"not determined: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({
            "rank": rank,
            "witness": witness,
            "levels": [r.levels for r in reports],
        }))
    else:
        print(rank)
    return 0


def cmd_search(args):
    prune = None
    if args.prune:
        try:
            prune = {int(d): int(k) for d, k in
                     (item.split(":") for item in args.prune.split(","))}
        except ValueError:
            raise SystemExit2(f"--prune wants dim:k,dim:k, got {args.prune!r}") from None
    report, classes = search.spread_sets_by_rank(
        args.q, args.n, args.max, prune=prune,
        progress=_progress if args.verbose else None,
    )
    if args.json:
        print(report.to_json())
    else:
        for entry in report.levels:
            print(entry)
        for flag in report.flags:
            print("flag:", flag)
        print("spread-set classes:", report.extra["spread_set_classes"])
    return 0


def cmd_disprove(args):
    spread = _load_spread(args)
    report = search.disprove_rank(
        spread,
        args.rank,
        checkpoint=args.checkpoint,
        progress=_progress if args.verbose else None,
    )
    print(report.to_json() if args.json else report.levels)
    if not args.json:
        print("outcome:", report.outcome)
    return 0 if report.outcome == "exhausted" else 1


def cmd_codes(args):
    if args.g1_paper:
        mats = {"G1": atlas.G1, "G2": atlas.G2, "G3": atlas.G3}
    else:
        if not args.decomp:
            raise SystemExit2("need --decomp PATH (or --g1-paper)")
        spread = _load_spread(args)
        D = codes.decomposition_from_rank_ones(spread, _load_decomposition(args, spread))
        gs = codes.codes_from_decomposition(D)
        mats = {f"G{i + 1}": G for i, G in enumerate(gs)}
    out = {}
    q = 3 if args.g1_paper else spread.q
    for name, G in mats.items():
        out[name] = {
            "generator": G.tolist(),
            "min_distance": codes.min_distance(G, q),
            "weight_distribution": codes.weight_distribution(G, q),
        }
    names = sorted(mats)
    for a in range(len(names)):
        for b in range(a + 1, len(names)):
            key = f"{names[a]}~{names[b]}"
            out[key] = codes.code_equivalent(mats[names[a]], mats[names[b]], q)
    print(json.dumps(out, indent=None if args.json else 2))
    return 0


def cmd_knuth(args):
    spread = _load_spread(args)
    orbit = algebra.knuth_orbit(spread)
    out = [sorted(member.space.encodings()) for member in orbit]
    print(json.dumps({"orbit_size": len(orbit), "members": out}))
    return 0


def cmd_equiv(args):
    if args.atlas:
        s1 = atlas.atlas_get(args.atlas[0]).spread_set().space
        s2 = atlas.atlas_get(args.atlas[1]).spread_set().space
    elif len(args.files) != 2:
        raise SystemExit2("need --atlas NAME NAME or two spread-set files")
    else:
        q1, n1, m1 = codec.read_spreadset_file(args.files[0])
        q2, n2, m2 = codec.read_spreadset_file(args.files[1])
        s1 = algebra.MatSpace.from_matrices(q1, n1, m1)
        s2 = algebra.MatSpace.from_matrices(q2, n2, m2)
    witness = equivalence.are_equivalent(s1, s2)
    if witness is None:
        print(json.dumps({"equivalent": False}))
        return 1
    print(json.dumps({
        "equivalent": True,
        "A": witness.A.tolist(),
        "B": witness.B.tolist(),
    }))
    return 0


def cmd_atlas(args):
    if args.action == "list":
        for name in atlas.atlas_list():
            entry = atlas.atlas_get(name)
            print(f"{name}\tq={entry.q} n={entry.n} rank={entry.expected_rank}")
        return 0
    if args.action == "selfcheck":
        results = atlas.atlas_selfcheck()
        bad = 0
        for label, ok, detail in results:
            status = "ok" if ok else "FAIL"
            print(f"{status:4s} {label}" + (f" ({detail})" if detail and not ok else ""))
            bad += not ok
        print(f"{len(results) - bad}/{len(results)} checks passed")
        return 0 if bad == 0 else 1
    if args.action == "export":
        if not args.output:
            raise SystemExit2("atlas export needs --output PATH")
        entry = atlas.atlas_get(args.name)
        codec.write_spreadset_file(args.output, entry.q, entry.n,
                                   entry.basis_matrices())
        if entry.decomposition and args.decomp_output:
            codec.write_decomposition_file(
                args.decomp_output, entry.q, entry.n,
                entry.decomposition_matrices(),
            )
        return 0
    raise SystemExit2(f"unknown atlas action {args.action!r}")


def build_parser():
    p = argparse.ArgumentParser(prog="spreadrank")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, spread=False):
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--verbose", action="store_true")
        if spread:
            sp.add_argument("--atlas")
            sp.add_argument("--spreadset")

    sp = sub.add_parser("decode", help="print the matrix of an encoding")
    sp.add_argument("value", type=int)
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_decode)

    sp = sub.add_parser("encode", help="encode digit rows, e.g. 0100 0010 0001 1100")
    sp.add_argument("rows", nargs="+")
    sp.add_argument("--q", type=int, required=True)
    common(sp)
    sp.set_defaults(func=cmd_encode)

    sp = sub.add_parser("verify", help="verify a spread set or decomposition file")
    common(sp, spread=True)
    sp.add_argument("--decomp")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("rank", help="tensor rank of a spread set")
    common(sp, spread=True)
    sp.add_argument("--max", type=int, default=None)
    sp.set_defaults(func=cmd_rank)

    sp = sub.add_parser("search", help="classify semifields of tensor rank <= R")
    sp.add_argument("--q", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--max", type=int, required=True)
    sp.add_argument("--prune", help="dim:k,dim:k partial-spread schedule")
    common(sp)
    sp.set_defaults(func=cmd_search)

    sp = sub.add_parser("disprove", help="exhaust rank-R decompositions")
    common(sp, spread=True)
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--checkpoint")
    sp.set_defaults(func=cmd_disprove)

    sp = sub.add_parser("codes", help="codes attached to a decomposition")
    common(sp, spread=True)
    sp.add_argument("--decomp")
    sp.add_argument("--g1-paper", action="store_true",
                    help="use the published generator matrices")
    sp.set_defaults(func=cmd_codes)

    sp = sub.add_parser("knuth", help="Knuth orbit of a spread set")
    common(sp, spread=True)
    sp.set_defaults(func=cmd_knuth)

    sp = sub.add_parser("equiv", help="test equivalence of two spread sets")
    common(sp)
    sp.add_argument("--atlas", nargs=2)
    sp.add_argument("files", nargs="*")
    sp.set_defaults(func=cmd_equiv)

    sp = sub.add_parser("atlas", help="list, selfcheck, or export atlas data")
    sp.add_argument("action", choices=["list", "selfcheck", "export"])
    sp.add_argument("name", nargs="?")
    sp.add_argument("--output")
    sp.add_argument("--decomp-output")
    common(sp)
    sp.set_defaults(func=cmd_atlas)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (SystemExit2, SpreadRankError, OSError) as exc:
        # OSError: a named file that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
