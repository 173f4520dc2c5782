"""Randomized law checking with deterministic sampling.

This module turns the algebraic laws of the chain construction into
executable pass/fail reports: the residuated-monoid axioms, a registry
of named order and stabilizer laws, the four product tables describing
multiplication around the least strictly positive idempotent, and
homomorphism checks for the decomposition maps.

Sampling is deterministic: a 64-bit seed fixes the element stream, so
the report for a given (algebra, law, budget, seed) is reproducible.
The stream itself is part of that contract (see the sampling notes in
plexalg.chains): a faster sampler or probe must leave every draw where
it was.  Element kinds that an algebra simply does not contain
(pseudo-top gaps in a dense chain, say) make the affected cells vacuous;
vacuous cells are counted and reported rather than silently passed.

Special kinds are found by rejection: a probe of 400 draws that finds
none declares the kind absent.  The laws that need pseudo-tops return
before drawing where the structure rules them out
(chains.ChainView.lacks_pseudo_tops, Prop 8.2).  Every other probe makes
its draws and reads each candidate's kind with ChainView.upper_kind (and
lifts_to for prop7.2.eqs' same-component draw): off its slots on an
algebra, by lifting and classifying on a peel level.

Every check routes the arithmetic under test through a chain view
(plexalg.chains), so every suite runs on an algebra or on any peel level
of one.  Sampling predicates, classification and windows read the view's
`clean` view, which is the view itself except under `Mutant`, a view that
corrupts one operation on a deterministic subset of calls: a mutation
corrupts only the arithmetic under test, and a mutated run must produce
violations.

Every entry point starts its report the same way: the view, a
SampleStream over it and a run that accumulates the report.  A named law
or product table is a function (view, stream, run, budget) that hands
each instance to `run.check`; the run prints its own witness, the first
violation, with print_elem on the algebra below the view, so no law
carries a printer.  A law at the least strictly positive idempotent u,
and every product table, reads one peel step (decompose.peel of the
clean view): u, its complement, the invertibility test, the classifier
and, where the branch fits, the quotient or restriction itself.
"""

from __future__ import annotations

import random
import time
import zlib
from dataclasses import dataclass, field
from functools import cached_property, cmp_to_key, partial
from itertools import groupby, product

from . import decompose as dec
from . import kernel as kn
from .chains import (
    BOT,
    TOP,
    BaseChain,
    ChainView,
    _as_view,
    comp,
    mid,
    mid_capable,
    mul,
    slice_member,
    zset_member,
)
from .errors import UnknownLaw, WrongBranch
from .parsing import print_elem

_SEED_MASK = (1 << 64) - 1


# ---------------------------------------------------------------------------
# sampling


class SampleStream:
    """Deterministic element source for one report, over an algebra or a
    chain view."""

    def __init__(self, a, seed):
        self.view = _as_view(a)
        self.seed = seed & _SEED_MASK
        self._rng = random.Random(self.seed)
        self._draw = self.view.sampler(self._rng)

    def draw(self):
        return self._draw()

    def draw_where(self, pred, tries=64):
        for _ in range(tries):
            x = self.draw()
            if pred(x):
                return x
        return None

    def randint(self, lo, hi):
        return self._rng.randint(lo, hi)


# ---------------------------------------------------------------------------
# mutation hooks


class Mutant(BaseChain):
    """View of an algebra whose target primitive, "mul" or "comp",
    returns the unit on a deterministic subset of calls (one in three,
    by a CRC of the arguments).  res, tau and the invertibility,
    absorption and upper-kind tests derive from the corrupted primitives,
    so every law that should notice does, reproducibly.
    """

    def __init__(self, base, target):
        super().__init__(base)
        self.target = target

    def mul(self, x, y):
        p = mul(self.a, x, y)
        if self.target == "mul" and _tick((x, y)):
            return self.unit()
        return p

    def comp(self, x):
        c = comp(self.a, x)
        if self.target == "comp" and _tick((x,)):
            return self.unit()
        return c

    # a mutated chain classifies through its corrupted primitives as well
    invertible = ChainView.invertible
    absorber = ChainView.absorber
    upper_kind = ChainView.upper_kind
    lifts_to = ChainView.lifts_to

    @cached_property
    def clean(self):
        return BaseChain(self.a)


def _tick(args):
    return zlib.crc32(repr(args).encode()) % 3 == 0


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class Report:
    """Outcome of one law check.

    `counts` holds per-cell instantiation counts; a cell that was never
    instantiated is vacuous.  `elapsed` is excluded from comparison so
    that identical inputs compare equal.
    """

    law: str
    samples: int
    violations: tuple
    counts: tuple = ()
    witness: str = ""
    elapsed: float = field(default=0.0, compare=False)

    @property
    def passed(self):
        return not self.violations

    @property
    def vacuous(self):
        return tuple(lab for lab, n in self.counts if n == 0)

    @property
    def verdict(self):
        """FAIL on any violation, VACUOUS when nothing was instantiated,
        else PASS."""
        if self.violations:
            return "FAIL"
        return "VACUOUS" if self.samples == 0 else "PASS"

    @property
    def tally(self):
        """samples=... vacuous=..., as render and check --stats print it."""
        vac = ",".join(self.vacuous) if self.vacuous else "none"
        return f"samples={self.samples} vacuous={vac}"

    def render(self):
        line = f"LAW {self.law} {self.verdict} {self.tally}"
        if not self.passed and self.witness:
            line += "\n  witness " + self.witness
        return line


class _Run:
    """Mutable accumulator behind one Report.  The run prints its own
    witness, its first violation: the inputs through the printer of its
    view, the two sides through the printer of target, the view they
    live in (the target of a homomorphism; by default the view)."""

    def __init__(self, law, view, target=None):
        self.law = law
        self._print = _printer(view)
        self._print_side = _printer(view if target is None else target)
        self.t0 = time.perf_counter()
        self.samples = 0
        self.violations = []
        self.witness = ""
        self.counts = {}

    def cell(self, *labels):
        for lab in labels:
            self.counts.setdefault(lab, 0)

    def hit(self, label=None):
        self.samples += 1
        if label is not None:
            self.counts[label] = self.counts.get(label, 0) + 1

    def check(self, ok, inputs, lhs, rhs, label=None):
        if label is not None:  # hit(label), inline on this hot path
            self.samples += 1
            self.counts[label] = self.counts.get(label, 0) + 1
        if not ok:
            self.violations.append((inputs, lhs, rhs))
            if not self.witness:
                ins = "; ".join(_shown(self._print, v) for v in inputs)
                side = self._print_side
                self.witness = (f"inputs=({ins}) lhs={_shown(side, lhs)} "
                                f"rhs={_shown(side, rhs)}")

    def equal(self, label, inputs, lhs, rhs):
        """A cell whose two sides are the same element."""
        self.check(lhs == rhs, inputs, lhs, rhs, label=label)

    def report(self):
        return Report(
            law=self.law,
            samples=self.samples,
            violations=tuple(self.violations),
            counts=tuple(sorted(self.counts.items())),
            witness=self.witness,
            elapsed=time.perf_counter() - self.t0,
        )


def _shown(printer, v):
    # a value the printer cannot print shows by its repr
    try:
        return printer(v)
    except Exception:
        return repr(v)


def _printer(view):
    """Element printer of a view: print_elem on the algebra below its
    peel levels, whose elements are elements of that algebra."""
    while not hasattr(view, "a"):
        view = getattr(view, "base", None)
        if view is None:
            return repr
    return partial(print_elem, view.a)


def _start(a, law, seed, target=None):
    """(view, stream, run) of one report on an algebra or a view; the
    run prints the sides of a violation as values of target, if given."""
    ops = _as_view(a)
    return ops, SampleStream(ops, seed), _Run(law, ops, target)


# ---------------------------------------------------------------------------
# core residuated-chain laws


def check_fle_laws(a, budget=1000, seed=0):
    """Check the residuated-monoid axioms on random samples.

    Covers commutativity, associativity, the unit law, adjointness (on
    probe triples around each residual), involution of the complement,
    and the unit/falsum coincidence.
    """
    ops, st, run = _start(a, "fle", seed)
    run.cell("comm", "assoc", "unit", "adjoint", "involution", "oddness")
    t = ops.unit()
    ct = ops.comp(t)
    run.check(ct == t and ops.fconst() == t, (t,), ct, t, label="oddness")
    for _ in range(budget):
        x = st.draw()
        y = st.draw()
        z = st.draw()
        xy, yx = ops.mul(x, y), ops.mul(y, x)
        run.check(xy == yx, (x, y), xy, yx, label="comm")
        l = ops.mul(xy, z)
        r = ops.mul(x, ops.mul(y, z))
        run.check(l == r, (x, y, z), l, r, label="assoc")
        xt = ops.mul(x, t)
        run.check(xt == x, (x,), xt, x, label="unit")
        cc = ops.comp(ops.comp(x))
        run.check(cc == x, (x,), cc, x, label="involution")
        r0 = ops.res(x, z)
        probes = [r0, ops.x_up(r0), ops.x_down(r0)]
        probes.extend(st.draw() for _ in range(8))
        run.hit("adjoint")
        for p in probes:
            below = ops.le(ops.mul(x, p), z)
            under = ops.le(p, r0)
            run.check(below == under, (x, z, p), below, under)
    return run.report()


# ---------------------------------------------------------------------------
# named laws


_NAMED = {}


def _named(law_id):
    def deco(fn):
        _NAMED[law_id] = fn
        return fn

    return deco


def named_law_ids():
    return tuple(_NAMED)


def check_named(a, law, budget=1000, seed=0):
    """Check one named law by its identifier string."""
    try:
        fn = _NAMED[law]
    except KeyError:
        raise UnknownLaw(f"unknown law id {law!r}") from None
    ops, st, run = _start(a, law, seed)
    fn(ops, st, run, budget)
    return run.report()


@_named("eq2.2")
def _law_reflect_upper(ops, st, run, budget):
    # the product is below the complement of the product of complements
    run.cell("eq2.2")
    for _ in range(budget):
        x, y = st.draw(), st.draw()
        l = ops.mul(x, y)
        r = ops.comp(ops.mul(ops.comp(x), ops.comp(y)))
        run.check(ops.le(l, r), (x, y), l, r, label="eq2.2")


@_named("eq2.3")
def _law_reflect_strict(ops, st, run, budget):
    # strictly enlarging one factor jumps over the reflected product
    run.cell("eq2.3")
    for _ in range(budget):
        x = st.draw()
        pair = _strict_pair(ops, st)
        if pair is None:
            continue
        y, y1 = pair
        l = ops.comp(ops.mul(ops.comp(x), ops.comp(y)))
        r = ops.mul(x, y1)
        run.check(ops.le(l, r), (x, y, y1), l, r, label="eq2.3")


def _strict_pair(ops, st):
    """Two draws in strict order; a repeated draw is paired with its cover
    above, and None when it has none."""
    p, q = st.draw(), st.draw()
    if p == q:
        q = ops.x_up(p)
        if q == p:
            return None
    return (p, q) if ops.lt(p, q) else (q, p)


@_named("prop2.3.1")
def _law_tau_comp(ops, st, run, budget):
    run.cell("prop2.3.1")
    for _ in range(budget):
        x = st.draw()
        l, r = ops.tau(ops.comp(x)), ops.tau(x)
        run.check(l == r, (x,), l, r, label="prop2.3.1")


@_named("prop2.3.2")
def _law_tau_idem(ops, st, run, budget):
    run.cell("prop2.3.2")
    for _ in range(budget):
        x = st.draw()
        l, r = ops.tau(ops.tau(x)), ops.tau(x)
        run.check(l == r, (x,), l, r, label="prop2.3.2")


@_named("prop2.3.3")
def _law_tau_monotone(ops, st, run, budget):
    # stabilizers only grow under multiplication
    run.cell("prop2.3.3")
    for _ in range(budget):
        x, y = st.draw(), st.draw()
        l, r = ops.tau(ops.mul(x, y)), ops.tau(x)
        run.check(ops.le(r, l), (x, y), l, r, label="prop2.3.3")


@_named("prop2.3.4")
def _law_tau_fixes_idems(ops, st, run, budget):
    # a positive element is idempotent exactly when tau fixes it
    run.cell("prop2.3.4")
    t = ops.unit()
    for _ in range(budget):
        x = st.draw()
        if ops.lt(x, t):
            x = ops.comp(x)
        xx, tx = ops.mul(x, x), ops.tau(x)
        run.check((xx == x) == (tx == x), (x,), xx, tx, label="prop2.3.4")


@_named("prop2.3.5")
def _law_tau_range(ops, st, run, budget):
    # tau lands on positive idempotents, and every listed positive
    # idempotent is a tau-value
    run.cell("lands-on-idems", "idems-in-range")
    t = ops.unit()
    for p in ops.pos_idems():
        tp = ops.tau(p)
        run.check(tp == p, (p,), tp, p, label="idems-in-range")
    for _ in range(budget):
        x = st.draw()
        v = ops.tau(x)
        vv = ops.mul(v, v)
        run.check(ops.le(t, v) and vv == v, (x,), vv, v,
                  label="lands-on-idems")


@_named("prop2.3.6")
def _law_tau_below(ops, st, run, budget):
    run.cell("prop2.3.6")
    t = ops.unit()
    for _ in range(budget):
        x = st.draw()
        if ops.lt(x, t):
            x = ops.comp(x)
        tx = ops.tau(x)
        run.check(ops.le(tx, x), (x,), tx, x, label="prop2.3.6")


@_named("prop4.3")
def _law_dualizing(ops, st, run, budget):
    # the falsum constant is dualizing: double residuation by it is the
    # identity, and residuals reduce to it
    run.cell("double-res", "reduce")
    c = ops.fconst()
    for _ in range(budget):
        x, y = st.draw(), st.draw()
        d = ops.res(ops.res(x, c), c)
        run.check(d == x, (x,), d, x, label="double-res")
        l = ops.res(x, y)
        r = ops.res(ops.mul(x, ops.res(y, c)), c)
        run.check(l == r, (x, y), l, r, label="reduce")


@_named("prop5.3")
def _law_diag_strict(ops, st, run, budget):
    # strictly increasing both factors strictly increases the product
    run.cell("prop5.3")
    for _ in range(budget):
        xs = _strict_pair(ops, st)
        if xs is None:
            continue
        ys = _strict_pair(ops, st)
        if ys is None:
            continue
        (x, x1), (y, y1) = xs, ys
        l, r = ops.mul(x1, y1), ops.mul(x, y)
        run.check(ops.lt(r, l), (x, x1, y, y1), l, r, label="prop5.3")


@_named("lemma5.4")
def _law_tau_of_terms(ops, st, run, budget):
    # tau of any term built from mul, res and comp equals the largest
    # tau-value among its leaves
    run.cell("lemma5.4")
    for _ in range(budget):
        leaves = [st.draw() for _ in range(st.randint(2, 4))]
        val = _random_term(ops, st, leaves)
        mx = ops.tau(leaves[0])
        for e in leaves[1:]:
            te = ops.tau(e)
            if ops.lt(mx, te):
                mx = te
        l = ops.tau(val)
        run.check(l == mx, tuple(leaves), l, mx, label="lemma5.4")


def _random_term(ops, st, leaves):
    vals = list(leaves)
    while len(vals) > 1:
        x = vals.pop(st.randint(0, len(vals) - 1))
        y = vals.pop(st.randint(0, len(vals) - 1))
        v = ops.mul(x, y) if st.randint(0, 1) else ops.res(x, y)
        if st.randint(0, 3) == 0:
            v = ops.comp(v)
        vals.append(v)
    return vals[0]


@_named("thm2.4")
def _law_group_part(ops, st, run, budget):
    # an element is invertible exactly when its stabilizer is the unit,
    # and multiplication by invertibles is cancellative
    run.cell("inverse-vs-tau", "cancel")
    t = ops.unit()
    for _ in range(budget):
        x, y, z = st.draw(), st.draw(), st.draw()
        xc, tx = ops.mul(x, ops.comp(x)), ops.tau(x)
        inv = xc == t
        run.check(inv == (tx == t), (x,), xc, tx, label="inverse-vs-tau")
        if inv and y != z:
            l, r = ops.mul(x, y), ops.mul(x, z)
            run.check(l != r, (x, y, z), l, r, label="cancel")


def _at_u(ops):
    """The peel step of the clean view at its least strictly positive
    idempotent u: its base is the clean view, and it holds u, the
    complement nu, the invertibility test grp and the classifier kind."""
    return dec.peel(ops.clean)


@_named("prop7.2.eqs")
def _law_extremals(ops, st, run, budget):
    # v*u and v*comp(u) are the top and bottom extremals of v's
    # component: they sandwich it, mirror each other through comp, and
    # separate it from the upper stabilizer part on the right sides
    step = _at_u(ops)
    c, u, nu = step.base, step.u, step.nu
    run.cell("order", "mirror", "least-above", "greatest-below",
             "same-component")
    grp, lifts = step.grp, c.lifts_to(u)
    for _ in range(budget):
        v = st.draw_where(grp)
        if v is None:
            continue
        top = ops.mul(v, u)
        bot = ops.mul(v, nu)
        m = ops.comp(ops.mul(ops.comp(v), u))
        run.check(bot == m, (v,), bot, m, label="mirror")
        ok = ops.le(bot, v) and ops.le(v, top) and \
            ops.le(u, c.tau(top)) and ops.le(u, c.tau(bot))
        run.check(ok, (v,), bot, top, label="order")
        # multiplying by u projects onto the upper stabilizer part
        s = c.mul(st.draw(), u)
        if ops.le(v, s):
            run.check(ops.le(top, s), (v, s), top, s,
                      label="least-above")
        else:
            run.check(ops.le(s, bot), (v, s), s, bot,
                      label="greatest-below")
        w = st.draw_where(lambda e: grp(e) and lifts(e, top))
        if w is not None:
            l = ops.mul(w, nu)
            run.check(l == bot, (v, w), l, bot, label="same-component")


@_named("prop8.2.1")
def _law_gap_disjoint(ops, st, run, budget):
    # gap kinds do not overlap: pseudo-bottoms stay in the upper part,
    # pseudo-extremals are not component extremals, and second-kind gap
    # elements are not component tops
    step = _at_u(ops)
    c, u, nu = step.base, step.u, step.nu
    run.cell("bps-in-restriction", "tps-not-tc", "bps-not-bc", "g2-not-tc")
    for _ in range(budget):
        x = c.mul(st.draw(), u)
        k = step.kind(x)
        v = st.draw_where(step.grp)
        if k == dec.TOP_PS:
            td = c.tau(c.x_down(x))
            run.check(ops.le(u, td), (x,), td, u, label="bps-in-restriction")
            if v is not None:
                l = ops.mul(v, u)
                run.check(l != x, (x, v), l, x, label="tps-not-tc")
        elif k == dec.BOT_PS and v is not None:
            l = ops.mul(v, nu)
            run.check(l != x, (x, v), l, x, label="bps-not-bc")
        elif k == dec.G2 and v is not None:
            l = ops.mul(v, u)
            run.check(l != x and c.mul(x, u) == x, (x, v), l, x,
                      label="g2-not-tc")


@_named("prop8.2.2")
def _law_gap_partition(ops, st, run, budget):
    # upper ends of gaps in the upper stabilizer part are exactly the
    # component tops, pseudo-tops and second-kind gap elements, plus the
    # component bottoms where adjacent components touch (over a discrete
    # group part): there the cover below is again in the upper part
    step = _at_u(ops)
    c, u = step.base, step.u
    run.cell("gap-kinds", "no-gap")
    for _ in range(budget):
        x = c.mul(st.draw(), u)
        d = c.x_down(x)
        k = step.kind(x)
        if d == x:
            run.check(k not in (dec.TOP_PS, dec.G2), (x,), k, "no-gap",
                      label="no-gap")
        elif k == dec.BOT_C:
            l = ops.mul(d, u)
            run.check(l == d, (x, d), l, d, label="gap-kinds")
        elif k != dec.TOP_C:
            run.check(k in (dec.TOP_PS, dec.G2), (x,), k, "gap-kind",
                      label="gap-kinds")


@_named("prop8.2.3")
def _law_bottom_absorption(ops, st, run, budget):
    # multiplying by a bottom extremal lands on the floor of the
    # product's component, or on the gap floor for pseudo-tops, and is
    # plain multiplication for everything below the tops
    step = _at_u(ops)
    c, u, nu = step.base, step.u, step.nu
    kind = step.kind
    run.cell("tc-case", "tps-case", "other-case")
    for _ in range(budget):
        v = st.draw_where(step.grp)
        if v is None:
            continue
        x = c.mul(st.draw(), u)
        k = kind(x)
        bot = ops.mul(v, nu)
        p = ops.mul(x, bot)
        q = ops.mul(x, v)
        if k == dec.TOP_C:
            ok = p == ops.mul(q, nu) and ops.lt(p, q) and \
                kind(q) == dec.TOP_C
            run.check(ok, (x, v), p, q, label="tc-case")
        elif k == dec.TOP_PS:
            d = c.x_down(q)
            ok = p == d and ops.lt(p, q) and \
                kind(q) == dec.TOP_PS
            run.check(ok, (x, v), p, d, label="tps-case")
        else:
            run.check(p == q, (x, v), p, q, label="other-case")


def _pseudo_top_source(st, c, u):
    """Sampler for pseudo-tops, or None when the kind is absent: ruled out
    by the structure before any draw, or not found in 400 draws."""
    if c.lacks_pseudo_tops(u):
        return None
    upper = c.upper_kind(u)
    pred = lambda e: upper(e) == dec.TOP_PS
    if st.draw_where(pred, tries=400) is None:
        return None

    def draw():
        e = st.draw_where(pred, tries=64)
        return None if e is None else c.mul(e, u)

    return draw


@_named("prop8.2.4")
def _law_pseudo_mirror(ops, st, run, budget):
    # the complement of a pseudo-top's gap floor is again a pseudo-top
    step = _at_u(ops)
    c, u = step.base, step.u
    run.cell("prop8.2.4")
    src = _pseudo_top_source(st, c, u)
    if src is None:
        return
    for _ in range(budget):
        x = src()
        if x is None:
            continue
        m = ops.comp(c.x_down(x))
        k = step.kind(m)
        run.check(k == dec.TOP_PS, (x,), k, dec.TOP_PS,
                  label="prop8.2.4")


@_named("prop8.2.5")
def _law_pseudo_product_drops(ops, st, run, budget):
    # products of pseudo-tops are moved by the complement of u
    step = _at_u(ops)
    c, u, nu = step.base, step.u, step.nu
    run.cell("prop8.2.5")
    src = _pseudo_top_source(st, c, u)
    if src is None:
        return
    for _ in range(budget):
        x, y = src(), src()
        if x is None or y is None:
            continue
        p = ops.mul(x, y)
        l = ops.mul(p, nu)
        run.check(l != p, (x, y), l, p, label="prop8.2.5")


@_named("prop8.2.6")
def _law_pseudo_tau(ops, st, run, budget):
    # pseudo-tops have stabilizer exactly u
    step = _at_u(ops)
    c, u = step.base, step.u
    run.cell("prop8.2.6")
    src = _pseudo_top_source(st, c, u)
    if src is None:
        return
    for _ in range(budget):
        x = src()
        if x is None:
            continue
        l = ops.tau(x)
        run.check(l == u, (x,), l, u, label="prop8.2.6")


@_named("prop9.2")
def _law_class_disjoint(ops, st, run, budget):
    # the collapse classes of the component-and-gap quotient partition
    # an exhaustive window: intervals are disjoint and cover their own
    # members (budget is ignored; the window is enumerated)
    q = _at_u(ops)
    if q.branch != dec.IDEM_BRANCH:
        raise WrongBranch("class collapse needs the idempotent branch")
    run.cell("member-in-interval", "intervals-disjoint")
    spans = {}
    for x in window_elems(q.base):
        k = q.to_class(x)
        if k not in spans:
            spans[k] = (q.class_min(k), q.class_max(k))
        lo, hi = spans[k]
        run.check(ops.le(lo, x) and ops.le(x, hi), (x,), lo, hi,
                  label="member-in-interval")
    order = sorted(spans.values(),
                   key=cmp_to_key(lambda p, r: q.cmp(p[0], r[0])))
    for (lo1, hi1), (lo2, hi2) in zip(order, order[1:]):
        run.check(ops.lt(hi1, lo2), (hi1, lo2), hi1, lo2,
                  label="intervals-disjoint")


@_named("prop10.1.3")
def _law_tops_discrete(ops, st, run, budget):
    # in the non-idempotent branch the tops sit discretely inside the
    # upper stabilizer part: strict covers exist on both sides and no
    # sampled member falls in between
    rc = _at_u(ops)
    if rc.branch != dec.NONIDEM_BRANCH:
        raise WrongBranch("top discreteness needs the non-idempotent branch")
    c, u = rc.base, rc.u
    run.cell("covers", "nothing-between")
    for _ in range(budget):
        x = c.mul(st.draw(), u)
        if rc.kind(x) not in (dec.TOP_C, dec.TOP_PS):
            continue
        d, e = rc.x_down(x), rc.x_up(x)
        run.check(ops.lt(d, x) and ops.lt(x, e), (x,), d, e,
                  label="covers")
        s = c.mul(st.draw(), u)
        between = (ops.lt(d, s) and ops.lt(s, x)) or \
                  (ops.lt(x, s) and ops.lt(s, e))
        run.check(not between, (x, s), d, e, label="nothing-between")


@_named("remark11.4")
def _law_nucleus(ops, st, run, budget):
    # the double-reflection retraction is a nucleus whose image is the
    # branch codomain: class ceilings in the idempotent branch, the
    # upper stabilizer part otherwise
    step = _at_u(ops)
    c, u, nu = step.base, step.u, step.nu
    idem = step.branch == dec.IDEM_BRANCH
    run.cell("extensive", "monotone", "idempotent", "nucleus", "retract")

    def phi(e):
        return ops.comp(ops.mul(ops.comp(ops.mul(e, nu)), nu))

    for _ in range(budget):
        x, y = st.draw(), st.draw()
        px, py = phi(x), phi(y)
        run.check(ops.le(x, px), (x,), x, px, label="extensive")
        if ops.le(x, y):
            run.check(ops.le(px, py), (x, y), px, py, label="monotone")
        else:
            run.check(ops.le(py, px), (x, y), py, px, label="monotone")
        ppx = phi(px)
        run.check(ppx == px, (x,), ppx, px, label="idempotent")
        l = phi(ops.mul(px, py))
        r = phi(ops.mul(x, y))
        run.check(l == r, (x, y), l, r, label="nucleus")
        if idem:
            want = step.class_max(step.to_class(x))
            run.check(px == want, (x,), px, want, label="retract")
        else:
            ok = ops.le(u, c.tau(px)) and \
                (not ops.le(u, c.tau(x)) or px == x)
            run.check(ok, (x,), px, x, label="retract")


# ---------------------------------------------------------------------------
# exhaustive windows


def _window_rats(bound, max_den):
    out = {kn.rmake(k, d)
           for d in range(1, max_den + 1)
           for k in range(-bound * d, bound * d + 1)}
    return sorted(out, key=cmp_to_key(kn.rcmp))


def window_elems(a, bound=3, max_den=4):
    """Enumerate every element of an algebra or view with coordinates in
    [-bound, bound] and denominators at most max_den, in ascending order.
    A peel level reads the window of its base: a quotient maps it onto
    classes, which are intervals, and a restriction keeps the elements it
    contains."""
    view = _as_view(a)
    if isinstance(view, BaseChain):
        return _window(view.a, _window_rats(bound, max_den),
                       [kn.rmake(k, 1) for k in range(-bound, bound + 1)])
    base = window_elems(view.base, bound, max_den)
    if isinstance(view, dec.RestrictionChain):
        return [x for x in base if view.contains(x)]
    return [k for k, _ in groupby(map(view.to_class, base))]


def _window(a, rats, ints):
    """The window of a, built valid and ascending: heads ascend, and over
    each head the order is B, then the middle columns by the second
    window, then T."""
    if a.is_leaf:
        return list(product(*[ints if k == "Z" else rats
                              for k in a.group.kinds]))
    ys = _window(a.y, rats, ints)
    mids = [mid(y) for y in ys]
    tb = a.family == "tb"
    out = []
    for h in _window(a.x, rats, ints):
        if tb:
            out.append((h, BOT))
        if mid_capable(a, h):
            if a.is_sublex:
                out.extend((h, m) for y, m in zip(ys, mids)
                           if slice_member(a, h, y))
            else:
                out.extend((h, m) for m in mids)
        if not tb or zset_member(a, h):
            out.append((h, TOP))
    return out


# ---------------------------------------------------------------------------
# product tables


class _Kinds:
    """Samplers for the element kinds used by the product tables.

    A kind that cannot be found within a probing budget is marked dead,
    so the affected cells go vacuous instead of burning draws.  A
    candidate's kind is the view's upper_kind of it.  Every kind but the
    group elements is returned lifted into the upper stabilizer part.
    The constants around u are those of the peel step."""

    def __init__(self, step, st):
        self.st = st
        self.clean, self.u, self.nu = step.base, step.u, step.nu
        self.kind = step.kind
        self.upper = step.base.upper_kind(step.u)
        self._grp = step.grp
        self._dead = set()

    def _find(self, name, pred, tries):
        if name in self._dead:
            return None
        x = self.st.draw_where(pred, tries)
        if x is None:
            self._dead.add(name)
        return x

    def _find_lifted(self, name, pred):
        x = self._find(name, pred, tries=400)
        return None if x is None else self.lift(x)

    def group(self):
        return self._find("group", self._grp, tries=400)

    def restriction(self):
        return self.lift(self.st.draw())

    def pseudo_top(self):
        return self._find_lifted("tps", lambda e: self.upper(e) == dec.TOP_PS)

    def non_top(self):
        return self._find_lifted("nontop",
                                 lambda e: self.upper(e) == dec.NON_TOP)

    def dense_below(self):
        def pred(e):
            if self.upper(e) == dec.TOP_C:
                return False
            s = self.lift(e)
            return self.clean.x_down(s) == s
        return self._find_lifted("dense", pred)

    def lift(self, e):
        # multiplying by u projects onto the upper stabilizer part
        return self.clean.mul(e, self.u)


def check_table(a, table, budget=200, seed=0):
    """Check one of the four product tables around the least strictly
    positive idempotent.  Tables 1 and 3 require the idempotent branch,
    tables 2 and 4 the non-idempotent one."""
    if table not in (1, 2, 3, 4):
        raise UnknownLaw(f"no table {table!r}")
    ops, st, run = _start(a, f"table{table}", seed)
    step = _at_u(ops)
    need = dec.IDEM_BRANCH if table in (1, 3) else dec.NONIDEM_BRANCH
    if step.branch != need:
        raise WrongBranch(f"table {table} needs {need}, "
                          f"algebra is {step.branch}")
    fn = (_table1, _table2, _table3, _table4)[table - 1]
    fn(ops, _Kinds(step, st), run, budget)
    return run.report()


def _component_cells(ops, kinds, run, v, w):
    """The seven cells multiplying two group elements v, w and their
    component extremes; returns (bot[v], top[v], bot[w], top[w],
    bot[vw])."""
    u, nu = kinds.u, kinds.nu
    bv, tv = ops.mul(v, nu), ops.mul(v, u)
    bw, tw = ops.mul(w, nu), ops.mul(w, u)
    vw = ops.mul(v, w)
    bvw, tvw = ops.mul(vw, nu), ops.mul(vw, u)
    run.equal("bot[v]*w", (v, w), ops.mul(bv, w), bvw)
    run.equal("bot[v]*top[w]", (v, w), ops.mul(bv, tw), bvw)
    run.equal("v*bot[w]", (v, w), ops.mul(v, bw), bvw)
    run.equal("v*top[w]", (v, w), ops.mul(v, tw), tvw)
    run.equal("top[v]*bot[w]", (v, w), ops.mul(tv, bw), bvw)
    run.equal("top[v]*w", (v, w), ops.mul(tv, w), tvw)
    run.equal("top[v]*top[w]", (v, w), ops.mul(tv, tw), tvw)
    return bv, tv, bw, tw, bvw


def _table1(ops, kinds, run, budget):
    run.cell("bot[v]*w", "bot[v]*top[w]", "v*bot[w]", "v*top[w]",
             "top[v]*bot[w]", "top[v]*w", "top[v]*top[w]", "top[v]*y",
             "a*bot[w]", "a*top[w]")
    for _ in range(budget):
        v, w = kinds.group(), kinds.group()
        if v is None or w is None:
            return
        _, tv, bw, tw, _ = _component_cells(ops, kinds, run, v, w)
        y = kinds.restriction()
        run.equal("top[v]*y", (v, y), ops.mul(tv, y), ops.mul(v, y))
        aa = kinds.dense_below()
        if aa is not None:
            aw = ops.mul(aa, w)
            run.equal("a*bot[w]", (aa, w), ops.mul(aa, bw), aw)
            run.equal("a*top[w]", (aa, w), ops.mul(aa, tw), aw)


def _non_top_cell(kinds, run, label, inputs, p):
    """Cell label: the product p of the inputs is a non-top of the upper
    stabilizer part."""
    c = kinds.clean
    ok = c.le(kinds.u, c.tau(p)) and \
        kinds.kind(p) not in (dec.TOP_C, dec.TOP_PS)
    run.check(ok, inputs, p, dec.NON_TOP, label=label)


def _gap_rows(ops, kinds, run):
    """Cells shared by the two six-by-six tables (rows bot,v,top,z);
    returns v, w, the extremes of _component_cells, the pseudo-top y and
    the covers below y and v*y (None without a pseudo-top)."""
    c = kinds.clean
    v, w = kinds.group(), kinds.group()
    if v is None or w is None:
        return None
    bv, tv, bw, tw, bvw = _component_cells(ops, kinds, run, v, w)
    s = kinds.non_top()
    if s is not None:
        vs = ops.mul(v, s)
        run.equal("bot[v]*s", (v, s), ops.mul(bv, s), vs)
        _non_top_cell(kinds, run, "v*s", (v, s), vs)
        _non_top_cell(kinds, run, "top[v]*s", (tv, s), ops.mul(tv, s))
        z = kinds.non_top()
        if z is not None:
            zw = ops.mul(z, w)
            run.equal("z*bot[w]", (z, w), ops.mul(z, bw), zw)
            run.equal("z*top[w]", (z, w), ops.mul(z, tw), zw)
            _non_top_cell(kinds, run, "z*s", (z, s), ops.mul(z, s))
    yd = d = None
    y = kinds.pseudo_top()
    if y is not None:
        yd = c.x_down(y)
        q = ops.mul(v, y)
        d = c.x_down(q)
        bvy, tps = ops.mul(bv, y), kinds.kind(q) == dec.TOP_PS
        run.check(bvy == d and ops.lt(d, q) and tps, (v, y), bvy, d,
                  label="bot[v]*y")
        run.check(tps, (v, y), q, dec.TOP_PS, label="v*y")
        run.equal("top[v]*y", (v, y), ops.mul(tv, y), q)
        z = kinds.non_top()
        if z is not None:
            run.equal("z*ydown", (z, y), ops.mul(z, yd), ops.mul(z, y))
    return v, w, bv, tv, bw, tw, bvw, y, yd, d


def _pseudo_top_rows(ops, kinds, run, x, w, bw, tw, xd=None):
    """Cells of the pseudo-top x shared by the two six-by-six tables:
    x times w's component, then x and its cover below times a drawn
    non-top.  Table 3 passes xd, the cover below x, for its rows of xd
    times w's component."""
    c = kinds.clean
    q = ops.mul(x, w)
    d = c.x_down(q)
    if xd is not None:
        for lab, e in (("xdown*bot[w]", bw), ("xdown*w", w),
                       ("xdown*top[w]", tw)):
            run.equal(lab, (x, w), ops.mul(xd, e), d)
    xbw = ops.mul(x, bw)
    run.check(xbw == d and ops.lt(d, q), (x, w), xbw, d, label="x*bot[w]")
    run.check(kinds.kind(q) == dec.TOP_PS, (x, w), q, dec.TOP_PS,
              label="x*w")
    run.equal("x*top[w]", (x, w), ops.mul(x, tw), q)
    s = kinds.non_top()
    if s is not None:
        xs = ops.mul(x, s)
        xd = c.x_down(x) if xd is None else xd
        run.equal("xdown*s", (x, s), ops.mul(xd, s), xs)
        _non_top_cell(kinds, run, "x*s", (x, s), xs)


def _table2(ops, kinds, run, budget):
    run.cell("bot[v]*w", "bot[v]*top[w]", "bot[v]*s", "bot[v]*y",
             "v*bot[w]", "v*top[w]", "v*s", "v*y",
             "top[v]*bot[w]", "top[v]*w", "top[v]*top[w]", "top[v]*s",
             "top[v]*y", "z*bot[w]", "z*top[w]", "z*s", "z*ydown",
             "xdown*s", "x*bot[w]", "x*w", "x*top[w]", "x*s")
    for _ in range(budget):
        got = _gap_rows(ops, kinds, run)
        if got is None:
            return
        _, w, _, _, bw, tw = got[:6]
        x = kinds.pseudo_top()
        if x is not None:
            _pseudo_top_rows(ops, kinds, run, x, w, bw, tw)


def _split_sides(kinds, q):
    d = kinds.clean.x_down(q)
    left = d != q and not kinds._grp(d)
    return d, left


def _table3(ops, kinds, run, budget):
    run.cell("bot[v]*bot[w]", "bot[v]*w", "bot[v]*top[w]", "bot[v]*s",
             "bot[v]*ydown", "bot[v]*y",
             "v*bot[w]", "v*top[w]", "v*s", "v*ydown", "v*y",
             "top[v]*bot[w]", "top[v]*w", "top[v]*top[w]", "top[v]*s",
             "top[v]*ydown", "top[v]*y",
             "z*bot[w]", "z*top[w]", "z*s", "z*ydown",
             "xdown*bot[w]", "xdown*w", "xdown*top[w]", "xdown*s",
             "x*bot[w]", "x*w", "x*top[w]", "x*s",
             "xy-left", "xy-right")
    c, nu = kinds.clean, kinds.nu
    for _ in range(budget):
        got = _gap_rows(ops, kinds, run)
        if got is None:
            return
        v, w, bv, tv, bw, tw, bvw, y, yd, d = got
        run.equal("bot[v]*bot[w]", (v, w), ops.mul(bv, bw), bvw)
        if y is not None:
            run.equal("bot[v]*ydown", (v, y), ops.mul(bv, yd), d)
            run.equal("v*ydown", (v, y), ops.mul(v, yd), d)
            run.equal("top[v]*ydown", (v, y), ops.mul(tv, yd), d)
        x = kinds.pseudo_top()
        if x is None:
            continue
        xd = c.x_down(x)
        _pseudo_top_rows(ops, kinds, run, x, w, bw, tw, xd)
        if y is None:
            continue
        q = ops.mul(x, y)
        d, left = _split_sides(kinds, q)
        drops = (ops.mul(xd, yd), ops.mul(xd, y), ops.mul(x, yd))
        if left:
            ok = all(p == d for p in drops) and \
                kinds.kind(q) == dec.TOP_PS
            run.check(ok, (x, y), drops[0], d, label="xy-left")
        else:
            floor = ops.mul(q, nu)
            ok = all(p == floor for p in drops) and \
                kinds.kind(q) == dec.TOP_C and \
                kinds.kind(floor) == dec.BOT_C
            run.check(ok, (x, y), drops[0], floor, label="xy-right")


def _table4(ops, kinds, run, budget):
    run.cell("top[v]*top[w]", "top[v]*y", "x*top[w]", "xy-left", "xy-right")
    u = kinds.u
    for _ in range(budget):
        v, w = kinds.group(), kinds.group()
        if v is None or w is None:
            return
        tv, tw = ops.mul(v, u), ops.mul(w, u)
        run.equal("top[v]*top[w]", (v, w), ops.mul(tv, tw),
                  ops.mul(ops.mul(v, w), u))
        y = kinds.pseudo_top()
        if y is None:
            continue
        q, tvy = ops.mul(v, y), ops.mul(tv, y)
        run.check(tvy == q and kinds.kind(q) == dec.TOP_PS, (v, y), tvy, q,
                  label="top[v]*y")
        x = kinds.pseudo_top()
        if x is None:
            continue
        q, xtw = ops.mul(x, w), ops.mul(x, tw)
        run.check(xtw == q and kinds.kind(q) == dec.TOP_PS, (x, w), xtw, q,
                  label="x*top[w]")
        q = ops.mul(x, y)
        _, left = _split_sides(kinds, q)
        k = kinds.kind(q)
        if left:
            run.check(k == dec.TOP_PS, (x, y), k, dec.TOP_PS,
                      label="xy-left")
        else:
            run.check(k == dec.TOP_C, (x, y), k, dec.TOP_C,
                      label="xy-right")


# ---------------------------------------------------------------------------
# homomorphism checks


def check_hom(fn, a, b, budget=1000, seed=0, with_comp=True, injective=True,
              law="hom"):
    """Check that fn maps a into b as an order-preserving monoid
    homomorphism; complement preservation and injectivity (with strict
    order reflection) are checked when claimed.  Quotient maps pass
    with injective=False.  b is an algebra or a view; a target without a
    complement (a LexMonoid) skips the comp cell."""
    tgt = _as_view(b)
    ops, st, run = _start(a, law, seed, tgt)
    bunit = tgt.unit()
    with_comp = with_comp and hasattr(tgt, "comp")
    run.cell("unit", "mul", "order")
    if injective:
        run.cell("injective")
    if with_comp:
        run.cell("comp")
    t = ops.unit()
    ft = fn(t)
    run.check(ft == bunit, (t,), ft, bunit, label="unit")
    for _ in range(budget):
        x, y = st.draw(), st.draw()
        l = fn(ops.mul(x, y))
        fx, fy = fn(x), fn(y)
        r = tgt.mul(fx, fy)
        run.check(l == r, (x, y), l, r, label="mul")
        if with_comp:
            l = fn(ops.comp(x))
            r = tgt.comp(fx)
            run.check(l == r, (x,), l, r, label="comp")
        sa = ops.cmp(x, y)
        sb = tgt.cmp(fx, fy)
        if injective:
            ok = (sa > 0) == (sb > 0) and (sa < 0) == (sb < 0)
        else:
            ok = not (sa < 0 and sb > 0) and not (sa > 0 and sb < 0)
        run.check(ok, (x, y), sa, sb, label="order")
        if injective and x != y:
            run.check(fx != fy, (x, y), fx, fy, label="injective")
    return run.report()
