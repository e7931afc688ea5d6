"""Command-line surface: reproducible runs over the package's stable file formats.

Exit codes: 0 success, 1 a verification reported a failure, 2 input error,
3 precondition or budget error, 4 internal error: a broken invariant, or any
other exception that escapes a command.  All generated artifacts are plain
UTF-8 text; CSV files carry a header row.  Given identical flags (including
--seed), every command writes byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import random
import sys

from .analysis import density_threshold_experiment, random_vt_instance, vt_construction
from .bits import BitString, Dyadic
from .clopen import (
    ClopenClass,
    load_class,
    prune,
    random_class,
    save_class,
    verify_density_property,
    verify_extension_property,
    write_class_text,
)
from .coder import decode, end_to_end
from .errors import InputError, InternalError, PreconditionError
from .fixtures import fixture_trees
from .labeltree import (
    BRUTE_FORCE_HEIGHT_CAP,
    is_fully_labelable_bruteforce,
    load_tree,
    measure_condition_check,
    random_utree,
    render_labelling_text,
    render_tree_text,
    splice_reduce,
)
from .schedules import parse_schedule_spec, redundancy_report

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3
EXIT_INTERNAL = 4


def _load_class_spec(spec: str) -> ClopenClass:
    """A class file path, or 'full:<depth>', or 'seeded:<depth>:<seed>[:<removals>]'."""
    if not spec.startswith(("full:", "seeded:")):
        return load_class(spec)
    kind, *fields = spec.split(":")
    try:
        numbers = [int(f) for f in fields]
    except ValueError:
        numbers = []
    if kind == "full" and len(numbers) == 1 and numbers[0] >= 0:
        return ClopenClass.full(numbers[0])
    if kind == "seeded" and len(numbers) in (2, 3):
        depth, seed, removals = (numbers + [24])[:3]
        if depth >= 1 and removals >= 0:
            return random_class(depth, seed, Dyadic(1, 1), removals)
    raise InputError(f"bad class spec {spec!r}: want full:<depth> with depth >= 0, or "
                     f"seeded:<depth>:<seed>[:<removals>] with depth >= 1 and removals >= 0")


def _read_source(path: str) -> BitString:
    """Source bits: lines of 0/1, or a single 'hex <digits> <bitcount>' line."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.strip()
    if stripped.startswith("hex "):
        try:
            _, digits, count = stripped.split()
            value, bits = int(digits, 16), int(count)
        except ValueError:
            raise InputError("hex source must be 'hex <digits> <bitcount>'") from None
        if value < 0 or bits < 0:
            raise InputError(f"hex value and bit count must be non-negative, got {digits} {count}")
        if value >> bits:
            raise InputError(f"hex value needs more than {bits} bits")
        return BitString.from_int(value, bits)
    bits = "".join(stripped.split())
    if any(c not in "01" for c in bits):
        raise InputError("source file must contain only 0/1 and whitespace")
    return BitString(bits)


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# -- subcommands ----------------------------------------------------------------


def cmd_encode(args) -> int:
    P = _load_class_spec(args.class_spec)
    sched = parse_schedule_spec(args.schedule)
    source = _read_source(args.source)
    bits = len(source)
    n = sched.block_index(bits)
    if sched.M(n) > bits:  # pad a partial final block, keeping the true bit count
        source = source + BitString.from_int(0, sched.M(n) - bits)
    result = end_to_end(source, P, sched)
    out = [
        f"bits={bits}",
        f"levels={n}",
        f"schedule={args.schedule}",
        f"code={result.path.code}",
        "slots=" + ",".join(str(t) for t in result.path.slots),
        "use=" + ",".join(str(u) for u in result.use),
    ]
    _write(args.out, "\n".join(out) + "\n")
    if args.out is not None:
        profile = ["bit,use"] + [f"{k},{u}" for k, u in enumerate(result.use)]
        _write(args.out + ".use.csv", "\n".join(profile) + "\n")
    print(f"encoded {bits} bits into {len(result.path.code)} code bits "
          f"(margin {result.margin} < {P.measure()})")
    return EXIT_OK


def cmd_decode(args) -> int:
    P = _load_class_spec(args.class_spec)
    sched = parse_schedule_spec(args.schedule)
    with open(args.code, "r", encoding="utf-8") as fh:
        fields = dict(
            line.strip().split("=", 1) for line in fh if "=" in line
        )
    try:
        bits = int(fields["bits"])
        levels = int(fields["levels"])
        code = BitString(fields["code"])
    except (KeyError, ValueError):
        raise InputError("code file needs bits=, levels= and code= lines") from None
    if levels < 0:
        raise InputError(f"code file levels must be non-negative, got {levels}")
    sched.check_depth(levels, P.depth)  # before M(levels), which grows with levels
    if not 0 <= bits <= sched.M(levels):
        raise InputError(f"code file bits must lie in [0, M({levels})] = "
                         f"[0, {sched.M(levels)}], got {bits}")
    pruned = prune(P, sched, levels)
    result = decode(code, pruned.pstar, sched, levels)
    recovered = result.source.prefix(bits)
    _write(args.out, str(recovered) + "\n")
    print(f"decoded {bits} bits; per-bit use "
          f"{','.join(str(u) for u in result.use) or '(none)'}")
    return EXIT_OK


def cmd_prune(args) -> int:
    P = _load_class_spec(args.class_spec)
    sched = parse_schedule_spec(args.schedule)
    result = prune(P, sched, args.levels)
    if args.out is None:
        write_class_text(result.pstar, sys.stdout)
    else:
        save_class(result.pstar, args.out)
    print(f"pruned: removed measure {result.q.measure()} in {len(result.trace)} acts; "
          f"survivor measure {result.pstar.measure()}")
    for act in result.trace:
        print(f"  act {act.stage}: level {act.level} string {act.sigma or '-'} "
              f"removed {act.removed}")
    return EXIT_OK


def cmd_verify(args) -> int:
    failures = 0
    if args.tree:
        tree = load_tree(args.tree)
        mc = measure_condition_check(tree)
        verdict = "PASS" if mc.satisfied else "FAIL"
        print(f"measure-condition {verdict}: sum {mc.series_sum} vs measure {mc.measure}")
        failures += 0 if mc.satisfied else 1
    if args.class_spec:
        if not args.schedule or args.levels is None:
            raise InputError("verify on a class needs --schedule and --levels")
        C = _load_class_spec(args.class_spec)
        sched = parse_schedule_spec(args.schedule)
        checks = {
            "extension": verify_extension_property,
            "density": verify_density_property,
        }
        wanted = checks if args.check == "both" else {args.check: checks[args.check]}
        for name, fn in wanted.items():
            verdict = fn(C, sched, args.levels)
            if verdict.ok:
                print(f"{name}-property PASS")
            else:
                failures += 1
                print(f"{name}-property FAIL at level {verdict.level}, "
                      f"string {verdict.sigma or '-'}: "
                      f"{verdict.observed} vs required {verdict.required}")
    if not args.tree and not args.class_spec:
        raise InputError("verify needs --class or --tree")
    return EXIT_VERIFY_FAILED if failures else EXIT_OK


def cmd_label(args) -> int:
    tree = load_tree(args.tree)
    ok, lab = is_fully_labelable_bruteforce(tree)
    if not ok:
        print("not fully labelable")
        return EXIT_VERIFY_FAILED
    assert lab is not None
    _write(args.out, render_labelling_text(lab))
    print(f"fully labelable: witness with {len(lab)} labelled nodes")
    return EXIT_OK


def cmd_splice_check(args) -> int:
    tree = load_tree(args.tree)
    result = splice_reduce(tree)
    if not result.ok:
        print("not splice-reducible to a full binary copy")
        return EXIT_VERIFY_FAILED
    lines = ["level,left,right,survivor"]
    lines += [f"{s.level},{s.left},{s.right},{s.survivor}" for s in result.steps]
    _write(args.out, "\n".join(lines) + "\n")
    print(f"splice-reducible in {len(result.steps)} steps")
    return EXIT_OK


def _sweep_rows(count: int, seed: int, max_height: int, max_per_level: int):
    rng = random.Random(seed)
    for index in range(count):
        tree = random_utree(rng, max_height, max_per_level)
        text = render_tree_text(tree)
        digest = hashlib.sha256(text.encode()).hexdigest()[:16]
        labelable, _ = is_fully_labelable_bruteforce(tree)
        reducible = splice_reduce(tree).ok
        condition = measure_condition_check(tree).satisfied
        yield index, tree, digest, labelable, reducible, condition


def cmd_sweep(args) -> int:
    if args.max_height > BRUTE_FORCE_HEIGHT_CAP:
        raise PreconditionError("instance too large for oracle")
    lines = ["index,hash,labelable,reducible,condition_satisfied"]
    disagreements = []
    condition_violations = []
    for index, tree, digest, lab, red, cond in _sweep_rows(
        args.count, args.seed, args.max_height, args.max_per_level
    ):
        lines.append(f"{index},{digest},{int(lab)},{int(red)},{int(cond)}")
        if lab != red:
            disagreements.append((index, digest))
        if cond and not lab:
            condition_violations.append((index, digest))
    _write(args.out, "\n".join(lines) + "\n")
    if disagreements or condition_violations:
        for index, digest in disagreements:
            print(f"DISAGREEMENT at instance {index} ({digest})", file=sys.stderr)
        for index, digest in condition_violations:
            print(f"MEASURE-CONDITION counterexample at instance {index} ({digest})",
                  file=sys.stderr)
        raise InternalError("equivalence sweep found disagreeing instances")
    print(f"swept {args.count} instances: deciders agree on all")
    return EXIT_OK


def cmd_report(args) -> int:
    sched = parse_schedule_spec(args.schedule)
    rep = redundancy_report(sched, args.n_max)
    _write(args.out, rep.to_csv())
    last = rep.rows[-1]
    print(f"schedule {rep.schedule}: use({last[0]}) = {last[1]}, redundancy {last[2]}; "
          f"comparison columns are informational floats "
          f"(density thresholds elsewhere stay one exact ulp apart)")
    return EXIT_OK


def cmd_vt_run(args) -> int:
    if args.mode == "density":
        if not args.class_spec or not args.schedule or args.levels is None:
            raise InputError("vt-run --mode density needs --class, --schedule, --levels")
        P = _load_class_spec(args.class_spec)
        sched = parse_schedule_spec(args.schedule)
        if args.levels:  # the lengths run to L(levels - 1)
            sched.check_depth(args.levels - 1, P.depth)
        lengths = [sched.L(i) for i in range(args.levels)]
        rows = density_threshold_experiment(P, sched.g, lengths)
        lines = ["level,min_density,threshold,result"]
        lines += [
            f"{r.level},{r.min_density},{r.threshold},{'pass' if r.ok else 'fail'}"
            for r in rows
        ]
        _write(args.out, "\n".join(lines) + "\n")
        print(f"density floor over {len(rows)} levels written")
        return EXIT_OK
    P, u_sets, g, n = random_vt_instance(args.seed, args.t_max)
    result = vt_construction(P, u_sets, lambda t: g[t], n, args.t_max)
    lines = ["t,length,count,measure,decay_bound"]
    for lv in result.levels:
        lines.append(f"{lv.t},{lv.length},{lv.cover.member_count},"
                     f"{lv.cover.measure()},{lv.decay_bound}")
    _write(args.out, "\n".join(lines) + "\n")
    if result.witness is not None:
        print(f"witness at t={result.witness_t}: {result.witness} has density "
              f"{result.witness_density} <= {result.witness_threshold}")
    else:
        print("no witness: the leftmost path stayed inside the chain")
    return EXIT_OK


def cmd_fixtures(args) -> int:
    import os

    os.makedirs(args.out_dir, exist_ok=True)
    trees = fixture_trees()
    for name, tree in sorted(trees.items()):
        path = os.path.join(args.out_dir, f"{name}.txt")
        _write(path, render_tree_text(tree))
    print(f"wrote {len(trees)} fixture trees to {args.out_dir}")
    return EXIT_OK


def _int_at_least(low: int):
    """argparse type for an integer flag no smaller than `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantorcode",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_class(p, required=True):
        p.add_argument("--class", dest="class_spec", required=required,
                       help="class file, full:<depth>, or seeded:<depth>:<seed>[:<removals>]")

    p = sub.add_parser("encode", help="prune then encode a source file")
    add_class(p)
    p.add_argument("--schedule", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", help="recover a source from an encode artifact")
    add_class(p)
    p.add_argument("--schedule", required=True)
    p.add_argument("--code", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("prune", help="run the budgeted pruning construction")
    add_class(p)
    p.add_argument("--schedule", required=True)
    p.add_argument("--levels", type=_int_at_least(0), required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_prune)

    p = sub.add_parser("verify", help="check extension/density properties or the tree measure condition")
    add_class(p, required=False)
    p.add_argument("--schedule")
    p.add_argument("--levels", type=_int_at_least(0))
    p.add_argument("--check", choices=("extension", "density", "both"), default="both")
    p.add_argument("--tree")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("label", help="exhaustive full-labelling search on a tree file")
    p.add_argument("--tree", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_label)

    p = sub.add_parser("splice-check", help="search for a splice reduction to a binary copy")
    p.add_argument("--tree", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_splice_check)

    p = sub.add_parser("sweep", help="labelability vs splice-reducibility agreement sweep")
    p.add_argument("--count", type=_int_at_least(0), default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-height", type=_int_at_least(1), default=3)
    p.add_argument("--max-per-level", type=_int_at_least(1), default=10)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("report", help="redundancy table for a schedule")
    p.add_argument("--schedule", required=True)
    p.add_argument("--n-max", type=_int_at_least(1), default=4096)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("vt-run", help="truncated-cover chain or density-floor experiment")
    p.add_argument("--mode", choices=("chain", "density"), default="chain")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-max", type=_int_at_least(1), default=3)
    add_class(p, required=False)
    p.add_argument("--schedule")
    p.add_argument("--levels", type=_int_at_least(0))
    p.add_argument("--out")
    p.set_defaults(fn=cmd_vt_run)

    p = sub.add_parser("fixtures", help="write the canonical fixture trees")
    p.add_argument("--out-dir", default="fixtures/trees")
    p.set_defaults(fn=cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, OSError, UnicodeDecodeError) as e:  # inputs are read as UTF-8
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PRECONDITION
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as e:  # anything else escaping a command is a bug
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
