"""The four benchmark workloads: seeded inputs, one job each, and its checks.

Every workload draws job `index` of run `seed` from its own random stream, so
the same seed gives the same inputs.  Where a job's cost depends on a size
parameter, the parameter walks a fixed cycle (`mix`) and only the contents are
random, and a timed run ends on a whole cycle, so every run holds each size
equally often.  Each mix has 5 or 15 classes of equal weight: p50 and p90
then fall in the middle of a class, not on the gap between two, which keeps
run-to-run spread low.  A job returns a fingerprint of its outputs for the
determinism digest and raises `CheckFailed` when an output is wrong.

Jobs call the package only through module attributes (`api.coder.encode`,
never a name bound at import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


class Workload:
    """One workload: `make_input(api, seed, index)` builds job `index`'s input,
    and `run(api, input)` runs the job, checks it and returns its fingerprint.

    `warmup` is the untimed jobs of each set-up, one per mix class or more,
    and `trace_jobs` the jobs a traced run covers and the digest spans, a
    multiple of len(mix).
    """

    mix: tuple = (None,)  # one entry per size class; jobs walk it in turn

    def prepare(self, api):
        """Build the inputs every job shares, once per import of the package."""


class CheckFailed(Exception):
    """A job's output failed its correctness check; `reason` names the check."""

    def __init__(self, reason: str, detail: str):
        super().__init__(f"{reason}: {detail}")
        self.reason = reason


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# -- coding -------------------------------------------------------------------


@dataclass(frozen=True)
class CodingInput:
    sched: object
    levels: int
    cls: object
    source: object


class Coding(Workload):
    name = "coding"
    why = ("end_to_end (prune, encode, verification decode) plus a fresh-session decode on "
           "gacs 12-14 and kucera 40-50 levels: word-table building and trie reads")
    mix = (("gacs", 12), ("kucera", 40), ("gacs", 13), ("kucera", 50), ("gacs", 14))
    warmup = 2
    trace_jobs = 35

    def make_input(self, api, seed, index):
        name, levels = self.mix[index % len(self.mix)]
        rng = _rng(self.name, seed, index)
        sched = api.schedules.preset(name)
        # measure > 1/2 keeps either preset's coding budget (about 0.44) affordable
        cls = api.clopen.random_class(sched.L(levels) + rng.randint(0, 3), rng.getrandbits(32),
                                      api.bits.Dyadic(1, 1), removals=26)
        bits = sched.M(levels)
        return CodingInput(sched, levels, cls, api.bits.BitString.from_int(rng.getrandbits(bits), bits))

    def run(self, api, inp):
        res = api.coder.end_to_end(inp.source, inp.cls, inp.sched)
        back = api.coder.decode(res.path.code, res.pruned.pstar, inp.sched, inp.levels)
        if back.source != inp.source or back.slots != res.path.slots:
            raise CheckFailed("roundtrip", f"{inp.sched.name} at {inp.levels} levels")
        report = api.schedules.redundancy_report(inp.sched, len(inp.source))
        want = tuple(row[1] for row in report.rows)
        if back.use != want or res.use != want:
            raise CheckFailed("use", f"measured use differs from the redundancy report at "
                                     f"{inp.sched.name} {inp.levels} levels")
        code = res.path.code
        acts = tuple((a.level, a.sigma.as_int) for a in res.pruned.trace)
        return ("coding", inp.sched.name, inp.levels, acts, code.length, code.as_int, res.path.slots)


# -- pruning ------------------------------------------------------------------


@dataclass(frozen=True)
class PruningInput:
    sched: object
    cls: object
    thinned: int


class Pruning(Workload):
    name = "pruning"
    why = ("prune under kucera at 4 levels on classes with 0.3-1.5% of level-3 cylinders thinned, "
           "then both verifiers: trie writes and restart scans, never the coder")
    levels = 4
    mix = tuple((depth, frac) for frac in (0.003, 0.006, 0.009, 0.012, 0.015) for depth in (19, 20, 21))
    warmup = 1
    trace_jobs = 60

    def make_input(self, api, seed, index):
        depth, frac = self.mix[index % len(self.mix)]
        rng = _rng(self.name, seed, index)
        sched = api.schedules.preset("kucera")
        width = sched.L(self.levels - 1)
        # a thinned cylinder keeps at most 2^(m - l) of its mass: density at or
        # below the level's threshold, so prune must remove it in one act
        keep_max = 1 << (depth - width + sched.m(self.levels - 1) - sched.l(self.levels - 1))
        Bits = api.bits.BitString
        cls = api.clopen.ClopenClass.full(depth)
        kept = []
        thinned = sorted(rng.sample(range(1 << width), max(1, round(frac * (1 << width)))))
        for v in thinned:
            prefix = Bits.from_int(v, width)
            cls = cls.minus_cylinder(prefix)
            for tail in rng.sample(range(1 << (depth - width)), rng.randint(1, keep_max)):
                kept.append(prefix + Bits.from_int(tail, depth - width))
        cls = cls.union(api.clopen.ClopenClass.from_members(depth, kept))
        return PruningInput(sched, cls, len(thinned))

    def run(self, api, inp):
        clopen = api.clopen
        res = clopen.prune(inp.cls, inp.sched, self.levels)
        for verify in (clopen.verify_extension_property, clopen.verify_density_property):
            verdict = verify(res.pstar, inp.sched, self.levels)
            if not verdict.ok:
                raise CheckFailed("verify", f"{verify.__name__} failed at level {verdict.level}")
        margin, _ = api.schedules.convergence_margin(inp.sched, self.levels, inp.cls.measure())
        if not res.q.measure() <= margin:
            raise CheckFailed("budget", f"removed {res.q.measure()} > margin {margin}")
        if len(res.trace) != inp.thinned:
            raise CheckFailed("acts", f"{len(res.trace)} acts for {inp.thinned} thinned cylinders")
        acts = tuple((a.stage, a.level, a.sigma.as_int, a.removed.num, a.removed.exp) for a in res.trace)
        return ("pruning", inp.cls.depth, acts, res.pstar.member_count)


# -- chain --------------------------------------------------------------------


class Chain(Workload):
    name = "chain"
    why = ("random_vt_instance then vt_construction at t_max 3: bulk cylinder ops "
           "(part_below, keep_leftmost, union) and the analysis layer")
    t_max = 3
    warmup = 20
    trace_jobs = 3000

    def make_input(self, api, seed, index):
        return _rng(self.name, seed, index).getrandbits(32)

    def run(self, api, instance_seed):
        analysis = api.analysis
        stages, u_sets, g, n = analysis.random_vt_instance(instance_seed, t_max=self.t_max)
        res = analysis.vt_construction(stages, u_sets, lambda t: g[t], n, self.t_max)
        if res.witness is None:
            raise CheckFailed("witness", f"instance {instance_seed} kept its leftmost path")
        if not res.witness_density <= res.witness_threshold:
            raise CheckFailed("witness", f"density {res.witness_density} above {res.witness_threshold}")
        covers = tuple(level.cover.member_count for level in res.levels)
        return ("chain", instance_seed, covers, res.witness_t, res.witness.as_int,
                res.witness_density.num, res.witness_density.exp)


# -- deciders -----------------------------------------------------------------


class Deciders(Workload):
    name = "deciders"
    why = ("both labelability deciders plus the measure condition on sweep, bushy and fixture "
           "trees: labeltree only, the bypass workload for trie and coder changes")
    mix = ("sweep", "bushy3", "sweep", "bushy4", "fixture")
    warmup = 5
    trace_jobs = 6000

    def prepare(self, api):
        self.fixtures = api.fixtures.fixture_trees()

    def make_input(self, api, seed, index):
        kind = self.mix[index % len(self.mix)]
        rng = _rng(self.name, seed, index)
        if kind == "sweep":
            return kind, api.labeltree.random_utree(rng, max_height=4, max_per_level=10), None
        if kind == "fixture":
            names = sorted(self.fixtures)
            name = names[(seed + index // len(self.mix)) % len(names)]
            return name, self.fixtures[name], name.startswith("labelable_")
        return kind, self._bushy_tree(api, rng, int(kind[-1])), None

    @staticmethod
    def _bushy_tree(api, rng, height):
        """Up to 7 children per node at 3-bit level widths; level i holds at most
        2^(i+1) + 2 nodes, which bounds the brute-force bipartition search."""
        Bits = api.bits.BitString
        nodes = []
        current = [api.bits.EMPTY]
        for i in range(height):
            cap = (2 << i) + 2
            nxt = []
            for node in current:
                k = min(rng.randint(1, 7), cap - len(nxt))
                if k <= 0:
                    break
                nxt.extend(node + Bits.from_int(s, 3) for s in sorted(rng.sample(range(8), k)))
            nodes.extend(nxt)
            current = nxt
        return api.labeltree.UTree(tuple(3 * (i + 1) for i in range(height)), nodes)

    def run(self, api, inp):
        kind, tree, expected = inp
        lt = api.labeltree
        brute, witness = lt.is_fully_labelable_bruteforce(tree)
        reduced = lt.splice_reduce(tree)
        cond = lt.measure_condition_check(tree)
        if brute != reduced.ok:
            raise CheckFailed("disagreement", f"{kind}: bruteforce {brute}, splice {reduced.ok}")
        if expected is not None and brute != expected:
            raise CheckFailed("fixture", f"{kind} decided {brute}")
        if cond.satisfied and not brute:
            raise CheckFailed("measure_condition", f"{kind} satisfies it but is not labelable")
        pairs = 0
        if brute:
            derived = lt.labelling_from_reduction(tree, reduced.steps)
            full = (2 << tree.height) - 2  # subjects of every length 1..height
            for lab in (witness, derived):
                if not lt.validate_labelling(tree, lab).ok or len(lab.subjects()) != full:
                    raise CheckFailed("labelling", f"{kind}: derived labelling is not full")
            pairs = len(derived)
        return ("deciders", kind, len(tree.nodes), brute, len(reduced.steps), cond.satisfied, pairs)


WORKLOADS = {w.name: w for w in (Coding(), Pruning(), Chain(), Deciders())}
