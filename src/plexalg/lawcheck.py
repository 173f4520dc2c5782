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
none declares the kind absent.  On an algebra the structure decides two
kinds first (chains.ChainView.lacks, Prop 8.2): where pseudo-tops cannot
exist, the laws that need them return before drawing; where pseudo-tops
or non-tops cannot exist, the product tables' probe still makes its
draws but classifies none.  Group elements and dense-below elements,
pseudo-tops and non-tops the structure leaves possible, and every kind
on a peel level are still probed; each answer equals the probe's, so
every report is the same as by probing alone.

Every check routes the arithmetic under test through a chain view
(plexalg.chains), so every suite runs on an algebra or on any peel level
of one.  Sampling predicates, classification and windows read the view's
`clean` view, which is the view itself except under `Mutant`, a view that
corrupts one operation on a deterministic subset of calls: a mutation
corrupts only the arithmetic under test, and a mutated run must produce
violations.
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
    NON_TOP,
    PSEUDO_TOP,
    TOP,
    BaseChain,
    ChainView,
    _as_view,
    _never,
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

    def draw(self):
        return self.view.sample(self._rng)

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
    returns the unit on a deterministic subset of calls (one in stride,
    by a CRC of the arguments).  res, tau and the invertibility and
    absorption tests derive from the corrupted primitives, so every law
    that should notice does, reproducibly.
    """

    def __init__(self, base, target, stride=3):
        super().__init__(base)
        self.target = target
        self.stride = stride

    def mul(self, x, y):
        p = mul(self.a, x, y)
        if self.target == "mul" and _tick((x, y), self.stride):
            return self.unit()
        return p

    def comp(self, x):
        c = comp(self.a, x)
        if self.target == "comp" and _tick((x,), self.stride):
            return self.unit()
        return c

    # a mutated chain classifies through its corrupted primitives as well
    invertible = ChainView.invertible
    absorber = ChainView.absorber

    @cached_property
    def clean(self):
        return BaseChain(self.a)


def _tick(args, stride):
    return zlib.crc32(repr(args).encode()) % stride == 0


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

    def render(self):
        vac = ",".join(self.vacuous) if self.vacuous else "none"
        line = (f"LAW {self.law} {self.verdict} samples={self.samples} "
                f"vacuous={vac}")
        if not self.passed and self.witness:
            line += "\n  witness " + self.witness
        return line


def merge_reports(r1, r2):
    """Associative merge of two reports for the same law."""
    if r1.law != r2.law:
        raise ValueError("cannot merge reports for different laws")
    counts = dict(r1.counts)
    for lab, n in r2.counts:
        counts[lab] = counts.get(lab, 0) + n
    return Report(
        law=r1.law,
        samples=r1.samples + r2.samples,
        violations=r1.violations + r2.violations,
        counts=tuple(sorted(counts.items())),
        witness=r1.witness or r2.witness,
        elapsed=r1.elapsed + r2.elapsed,
    )


class _Run:
    """Mutable accumulator behind one Report."""

    def __init__(self, law):
        self.law = law
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

    def check(self, ok, inputs, lhs, rhs, fmt, label=None):
        if label is not None:
            self.hit(label)
        if not ok:
            self.violations.append((inputs, lhs, rhs))
            if not self.witness:
                self.witness = fmt(inputs, lhs, rhs)

    def report(self):
        return Report(
            law=self.law,
            samples=self.samples,
            violations=tuple(self.violations),
            counts=tuple(sorted(self.counts.items())),
            witness=self.witness,
            elapsed=time.perf_counter() - self.t0,
        )


def _printer(view):
    """Element printer of a view: print_elem on the algebra below its
    peel levels, whose elements are elements of that algebra."""
    while not hasattr(view, "a"):
        view = getattr(view, "base", None)
        if view is None:
            return repr
    return partial(print_elem, view.a)


def _fmt_for(view):
    """Witness formatter: print through _printer, and show a value it
    cannot print by its repr."""
    shown = _printer(view)

    def one(v):
        try:
            return shown(v)
        except Exception:
            return repr(v)

    def fmt(inputs, lhs, rhs):
        ins = "; ".join(one(v) for v in inputs)
        return f"inputs=({ins}) lhs={one(lhs)} rhs={one(rhs)}"

    return fmt


# ---------------------------------------------------------------------------
# core residuated-chain laws


def check_fle_laws(a, budget=1000, seed=0):
    """Check the residuated-monoid axioms on random samples.

    Covers commutativity, associativity, the unit law, adjointness (on
    probe triples around each residual), involution of the complement,
    and the unit/falsum coincidence.
    """
    ops = _as_view(a)
    st = SampleStream(ops, seed)
    run = _Run("fle")
    fmt = _fmt_for(ops)
    run.cell("comm", "assoc", "unit", "adjoint", "involution", "oddness")
    t = ops.unit()
    run.check(ops.comp(t) == t and ops.fconst() == t, (t,), ops.comp(t), t,
              fmt, label="oddness")
    for _ in range(budget):
        x = st.draw()
        y = st.draw()
        z = st.draw()
        xy = ops.mul(x, y)
        run.check(xy == ops.mul(y, x), (x, y), xy, ops.mul(y, x), fmt,
                  label="comm")
        l = ops.mul(xy, z)
        r = ops.mul(x, ops.mul(y, z))
        run.check(l == r, (x, y, z), l, r, fmt, label="assoc")
        run.check(ops.mul(x, t) == x, (x,), ops.mul(x, t), x, fmt,
                  label="unit")
        cc = ops.comp(ops.comp(x))
        run.check(cc == x, (x,), cc, x, fmt, label="involution")
        r0 = ops.res(x, z)
        probes = [r0, ops.x_up(r0), ops.x_down(r0)]
        probes.extend(st.draw() for _ in range(8))
        run.hit("adjoint")
        for p in probes:
            below = ops.le(ops.mul(x, p), z)
            under = ops.le(p, r0)
            run.check(below == under, (x, z, p), below, under, fmt)
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
    ops = _as_view(a)
    st = SampleStream(ops, seed)
    run = _Run(law)
    fn(ops, st, run, budget, _fmt_for(ops))
    return run.report()


@_named("eq2.2")
def _law_reflect_upper(ops, st, run, budget, fmt):
    # the product is below the complement of the product of complements
    run.cell("eq2.2")
    for _ in range(budget):
        x, y = st.draw(), st.draw()
        l = ops.mul(x, y)
        r = ops.comp(ops.mul(ops.comp(x), ops.comp(y)))
        run.check(ops.le(l, r), (x, y), l, r, fmt, label="eq2.2")


@_named("eq2.3")
def _law_reflect_strict(ops, st, run, budget, fmt):
    # strictly enlarging one factor jumps over the reflected product
    run.cell("eq2.3")
    for _ in range(budget):
        x = st.draw()
        p, q = st.draw(), st.draw()
        if p == q:
            q = ops.x_up(p)
            if q == p:
                continue
        y, y1 = (p, q) if ops.lt(p, q) else (q, p)
        l = ops.comp(ops.mul(ops.comp(x), ops.comp(y)))
        r = ops.mul(x, y1)
        run.check(ops.le(l, r), (x, y, y1), l, r, fmt, label="eq2.3")


@_named("prop2.3.1")
def _law_tau_comp(ops, st, run, budget, fmt):
    run.cell("prop2.3.1")
    for _ in range(budget):
        x = st.draw()
        l, r = ops.tau(ops.comp(x)), ops.tau(x)
        run.check(l == r, (x,), l, r, fmt, label="prop2.3.1")


@_named("prop2.3.2")
def _law_tau_idem(ops, st, run, budget, fmt):
    run.cell("prop2.3.2")
    for _ in range(budget):
        x = st.draw()
        l, r = ops.tau(ops.tau(x)), ops.tau(x)
        run.check(l == r, (x,), l, r, fmt, label="prop2.3.2")


@_named("prop2.3.3")
def _law_tau_monotone(ops, st, run, budget, fmt):
    # stabilizers only grow under multiplication
    run.cell("prop2.3.3")
    for _ in range(budget):
        x, y = st.draw(), st.draw()
        l, r = ops.tau(ops.mul(x, y)), ops.tau(x)
        run.check(ops.le(r, l), (x, y), l, r, fmt, label="prop2.3.3")


@_named("prop2.3.4")
def _law_tau_fixes_idems(ops, st, run, budget, fmt):
    # a positive element is idempotent exactly when tau fixes it
    run.cell("prop2.3.4")
    t = ops.unit()
    for _ in range(budget):
        x = st.draw()
        if ops.lt(x, t):
            x = ops.comp(x)
        idem = ops.mul(x, x) == x
        fixed = ops.tau(x) == x
        run.check(idem == fixed, (x,), ops.mul(x, x), ops.tau(x), fmt,
                  label="prop2.3.4")


@_named("prop2.3.5")
def _law_tau_range(ops, st, run, budget, fmt):
    # tau lands on positive idempotents, and every listed positive
    # idempotent is a tau-value
    run.cell("lands-on-idems", "idems-in-range")
    t = ops.unit()
    fmt_ = fmt
    for p in ops.pos_idems():
        run.check(ops.tau(p) == p, (p,), ops.tau(p), p, fmt_,
                  label="idems-in-range")
    for _ in range(budget):
        x = st.draw()
        v = ops.tau(x)
        ok = ops.le(t, v) and ops.mul(v, v) == v
        run.check(ok, (x,), ops.mul(v, v), v, fmt_, label="lands-on-idems")


@_named("prop2.3.6")
def _law_tau_below(ops, st, run, budget, fmt):
    run.cell("prop2.3.6")
    t = ops.unit()
    for _ in range(budget):
        x = st.draw()
        if ops.lt(x, t):
            x = ops.comp(x)
        run.check(ops.le(ops.tau(x), x), (x,), ops.tau(x), x, fmt,
                  label="prop2.3.6")


@_named("prop4.3")
def _law_dualizing(ops, st, run, budget, fmt):
    # the falsum constant is dualizing: double residuation by it is the
    # identity, and residuals reduce to it
    run.cell("double-res", "reduce")
    c = ops.fconst()
    for _ in range(budget):
        x, y = st.draw(), st.draw()
        d = ops.res(ops.res(x, c), c)
        run.check(d == x, (x,), d, x, fmt, label="double-res")
        l = ops.res(x, y)
        r = ops.res(ops.mul(x, ops.res(y, c)), c)
        run.check(l == r, (x, y), l, r, fmt, label="reduce")


@_named("prop5.3")
def _law_diag_strict(ops, st, run, budget, fmt):
    # strictly increasing both factors strictly increases the product
    run.cell("prop5.3")
    for _ in range(budget):
        p, q = st.draw(), st.draw()
        if p == q:
            q = ops.x_up(p)
            if q == p:
                continue
        x, x1 = (p, q) if ops.lt(p, q) else (q, p)
        p, q = st.draw(), st.draw()
        if p == q:
            q = ops.x_up(p)
            if q == p:
                continue
        y, y1 = (p, q) if ops.lt(p, q) else (q, p)
        l, r = ops.mul(x1, y1), ops.mul(x, y)
        run.check(ops.lt(r, l), (x, x1, y, y1), l, r, fmt, label="prop5.3")


@_named("lemma5.4")
def _law_tau_of_terms(ops, st, run, budget, fmt):
    # tau of any term built from mul, res and comp equals the largest
    # tau-value among its leaves
    run.cell("lemma5.4")
    for _ in range(budget):
        leaves = [st.draw() for _ in range(st.randint(2, 4))]
        val = _random_term(ops, st, leaves)
        mx = leaves[0]
        mx = ops.tau(mx)
        for e in leaves[1:]:
            te = ops.tau(e)
            if ops.lt(mx, te):
                mx = te
        l = ops.tau(val)
        run.check(l == mx, tuple(leaves), l, mx, fmt, label="lemma5.4")


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
def _law_group_part(ops, st, run, budget, fmt):
    # an element is invertible exactly when its stabilizer is the unit,
    # and multiplication by invertibles is cancellative
    run.cell("inverse-vs-tau", "cancel")
    t = ops.unit()
    for _ in range(budget):
        x, y, z = st.draw(), st.draw(), st.draw()
        inv = ops.mul(x, ops.comp(x)) == t
        fixed = ops.tau(x) == t
        run.check(inv == fixed, (x,), ops.mul(x, ops.comp(x)), ops.tau(x),
                  fmt, label="inverse-vs-tau")
        if inv and y != z:
            l, r = ops.mul(x, y), ops.mul(x, z)
            run.check(l != r, (x, y, z), l, r, fmt, label="cancel")


def _at_u(ops):
    """(clean view, u, complement of u) for u the least strictly positive
    idempotent of the view."""
    c = ops.clean
    u = dec.smallest_pos_idem(c)
    return c, u, c.comp(u)


@_named("prop7.2.eqs")
def _law_extremals(ops, st, run, budget, fmt):
    # v*u and v*comp(u) are the top and bottom extremals of v's
    # component: they sandwich it, mirror each other through comp, and
    # separate it from the upper stabilizer part on the right sides
    c, u, nu = _at_u(ops)
    run.cell("order", "mirror", "least-above", "greatest-below",
             "same-component")
    grp = c.invertible(u)
    for _ in range(budget):
        v = st.draw_where(grp)
        if v is None:
            continue
        top = ops.mul(v, u)
        bot = ops.mul(v, nu)
        m = ops.comp(ops.mul(ops.comp(v), u))
        run.check(bot == m, (v,), bot, m, fmt, label="mirror")
        ok = ops.le(bot, v) and ops.le(v, top) and \
            ops.le(u, c.tau(top)) and ops.le(u, c.tau(bot))
        run.check(ok, (v,), bot, top, fmt, label="order")
        # multiplying by u projects onto the upper stabilizer part
        s = c.mul(st.draw(), u)
        if ops.le(v, s):
            run.check(ops.le(top, s), (v, s), top, s, fmt,
                      label="least-above")
        else:
            run.check(ops.le(s, bot), (v, s), s, bot, fmt,
                      label="greatest-below")
        w = st.draw_where(lambda e: grp(e) and c.mul(e, u) == top)
        if w is not None:
            l = ops.mul(w, nu)
            run.check(l == bot, (v, w), l, bot, fmt, label="same-component")


@_named("prop8.2.1")
def _law_gap_disjoint(ops, st, run, budget, fmt):
    # gap kinds do not overlap: pseudo-bottoms stay in the upper part,
    # pseudo-extremals are not component extremals, and second-kind gap
    # elements are not component tops
    c, u, nu = _at_u(ops)
    kind = dec.classifier(c, u)
    run.cell("bps-in-restriction", "tps-not-tc", "bps-not-bc", "g2-not-tc")
    grp = c.invertible(u)
    for _ in range(budget):
        x = c.mul(st.draw(), u)
        k = kind(x)
        v = st.draw_where(grp)
        if k == dec.TOP_PS:
            d = c.x_down(x)
            run.check(ops.le(u, c.tau(d)), (x,), c.tau(d), u, fmt,
                      label="bps-in-restriction")
            if v is not None:
                l = ops.mul(v, u)
                run.check(l != x, (x, v), l, x, fmt, label="tps-not-tc")
        elif k == dec.BOT_PS and v is not None:
            l = ops.mul(v, nu)
            run.check(l != x, (x, v), l, x, fmt, label="bps-not-bc")
        elif k == dec.G2 and v is not None:
            l = ops.mul(v, u)
            run.check(l != x and c.mul(x, u) == x, (x, v), l, x, fmt,
                      label="g2-not-tc")


@_named("prop8.2.2")
def _law_gap_partition(ops, st, run, budget, fmt):
    # upper ends of gaps in the upper stabilizer part are exactly the
    # component tops, pseudo-tops and second-kind gap elements, plus the
    # component bottoms where adjacent components touch (over a discrete
    # group part): there the cover below is again in the upper part
    c, u, _ = _at_u(ops)
    kind = dec.classifier(c, u)
    run.cell("gap-kinds", "no-gap")
    for _ in range(budget):
        x = c.mul(st.draw(), u)
        d = c.x_down(x)
        k = kind(x)
        if d == x:
            run.check(k not in (dec.TOP_PS, dec.G2), (x,), k, "no-gap", fmt,
                      label="no-gap")
        elif k == dec.BOT_C:
            l = ops.mul(d, u)
            run.check(l == d, (x, d), l, d, fmt, label="gap-kinds")
        elif k != dec.TOP_C:
            run.check(k in (dec.TOP_PS, dec.G2), (x,), k, "gap-kind", fmt,
                      label="gap-kinds")


@_named("prop8.2.3")
def _law_bottom_absorption(ops, st, run, budget, fmt):
    # multiplying by a bottom extremal lands on the floor of the
    # product's component, or on the gap floor for pseudo-tops, and is
    # plain multiplication for everything below the tops
    c, u, nu = _at_u(ops)
    kind = dec.classifier(c, u)
    run.cell("tc-case", "tps-case", "other-case")
    grp = c.invertible(u)
    for _ in range(budget):
        v = st.draw_where(grp)
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
            run.check(ok, (x, v), p, q, fmt, label="tc-case")
        elif k == dec.TOP_PS:
            d = c.x_down(q)
            ok = p == d and ops.lt(p, q) and \
                kind(q) == dec.TOP_PS
            run.check(ok, (x, v), p, d, fmt, label="tps-case")
        else:
            run.check(p == q, (x, v), p, q, fmt, label="other-case")


def _pseudo_top_source(st, c, u, kind):
    """Sampler for pseudo-tops, or None when the kind is absent: ruled out
    by the structure before any draw, or not found in 400 draws."""
    if c.lacks(u, PSEUDO_TOP):
        return None
    pred = lambda e: kind(c.mul(e, u)) == dec.TOP_PS
    if st.draw_where(pred, tries=400) is None:
        return None

    def draw():
        e = st.draw_where(pred, tries=64)
        return None if e is None else c.mul(e, u)

    return draw


@_named("prop8.2.4")
def _law_pseudo_mirror(ops, st, run, budget, fmt):
    # the complement of a pseudo-top's gap floor is again a pseudo-top
    c, u, _ = _at_u(ops)
    run.cell("prop8.2.4")
    kind = dec.classifier(c, u)
    src = _pseudo_top_source(st, c, u, kind)
    if src is None:
        return
    for _ in range(budget):
        x = src()
        if x is None:
            continue
        m = ops.comp(c.x_down(x))
        k = kind(m)
        run.check(k == dec.TOP_PS, (x,), k, dec.TOP_PS, fmt,
                  label="prop8.2.4")


@_named("prop8.2.5")
def _law_pseudo_product_drops(ops, st, run, budget, fmt):
    # products of pseudo-tops are moved by the complement of u
    c, u, nu = _at_u(ops)
    run.cell("prop8.2.5")
    kind = dec.classifier(c, u)
    src = _pseudo_top_source(st, c, u, kind)
    if src is None:
        return
    for _ in range(budget):
        x, y = src(), src()
        if x is None or y is None:
            continue
        p = ops.mul(x, y)
        l = ops.mul(p, nu)
        run.check(l != p, (x, y), l, p, fmt, label="prop8.2.5")


@_named("prop8.2.6")
def _law_pseudo_tau(ops, st, run, budget, fmt):
    # pseudo-tops have stabilizer exactly u
    c, u, _ = _at_u(ops)
    run.cell("prop8.2.6")
    kind = dec.classifier(c, u)
    src = _pseudo_top_source(st, c, u, kind)
    if src is None:
        return
    for _ in range(budget):
        x = src()
        if x is None:
            continue
        l = ops.tau(x)
        run.check(l == u, (x,), l, u, fmt, label="prop8.2.6")


@_named("prop9.2")
def _law_class_disjoint(ops, st, run, budget, fmt):
    # the collapse classes of the component-and-gap quotient partition
    # an exhaustive window: intervals are disjoint and cover their own
    # members (budget is ignored; the window is enumerated)
    c, u, _ = _at_u(ops)
    if dec.branch(c, u) != dec.IDEM_BRANCH:
        raise WrongBranch("class collapse needs the idempotent branch")
    q = dec.QuotientChain(c, u)
    run.cell("member-in-interval", "intervals-disjoint")
    spans = {}
    for x in window_elems(c):
        k = q.to_class(x)
        if k not in spans:
            spans[k] = (q.class_min(k), q.class_max(k))
        lo, hi = spans[k]
        run.check(ops.le(lo, x) and ops.le(x, hi), (x,), lo, hi, fmt,
                  label="member-in-interval")
    order = sorted(spans.values(),
                   key=cmp_to_key(lambda p, r: c.cmp(p[0], r[0])))
    for (lo1, hi1), (lo2, hi2) in zip(order, order[1:]):
        run.check(ops.lt(hi1, lo2), (hi1, lo2), hi1, lo2, fmt,
                  label="intervals-disjoint")


@_named("prop10.1.3")
def _law_tops_discrete(ops, st, run, budget, fmt):
    # in the non-idempotent branch the tops sit discretely inside the
    # upper stabilizer part: strict covers exist on both sides and no
    # sampled member falls in between
    c, u, _ = _at_u(ops)
    if dec.branch(c, u) != dec.NONIDEM_BRANCH:
        raise WrongBranch("top discreteness needs the non-idempotent branch")
    rc = dec.RestrictionChain(c, u)
    kind = dec.classifier(c, u)
    run.cell("covers", "nothing-between")
    for _ in range(budget):
        x = c.mul(st.draw(), u)
        if kind(x) not in (dec.TOP_C, dec.TOP_PS):
            continue
        d, e = rc.x_down(x), rc.x_up(x)
        run.check(ops.lt(d, x) and ops.lt(x, e), (x,), d, e, fmt,
                  label="covers")
        s = c.mul(st.draw(), u)
        between = (ops.lt(d, s) and ops.lt(s, x)) or \
                  (ops.lt(x, s) and ops.lt(s, e))
        run.check(not between, (x, s), d, e, fmt, label="nothing-between")


@_named("remark11.4")
def _law_nucleus(ops, st, run, budget, fmt):
    # the double-reflection retraction is a nucleus whose image is the
    # branch codomain: class ceilings in the idempotent branch, the
    # upper stabilizer part otherwise
    c, u, nu = _at_u(ops)
    idem = dec.branch(c, u) == dec.IDEM_BRANCH
    q = dec.QuotientChain(c, u) if idem else None
    run.cell("extensive", "monotone", "idempotent", "nucleus", "retract")

    def phi(e):
        return ops.comp(ops.mul(ops.comp(ops.mul(e, nu)), nu))

    for _ in range(budget):
        x, y = st.draw(), st.draw()
        px, py = phi(x), phi(y)
        run.check(ops.le(x, px), (x,), x, px, fmt, label="extensive")
        if ops.le(x, y):
            run.check(ops.le(px, py), (x, y), px, py, fmt, label="monotone")
        else:
            run.check(ops.le(py, px), (x, y), py, px, fmt, label="monotone")
        run.check(phi(px) == px, (x,), phi(px), px, fmt, label="idempotent")
        l = phi(ops.mul(px, py))
        r = phi(ops.mul(x, y))
        run.check(l == r, (x, y), l, r, fmt, label="nucleus")
        if idem:
            want = q.class_max(q.to_class(x))
            run.check(px == want, (x,), px, want, fmt, label="retract")
        else:
            ok = ops.le(u, c.tau(px)) and \
                (not ops.le(u, c.tau(x)) or px == x)
            run.check(ok, (x,), px, x, fmt, label="retract")


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
    tb = a.family == "tb"
    out = []
    for h in _window(a.x, rats, ints):
        if tb:
            out.append((h, BOT))
        if mid_capable(a, h):
            if a.is_sublex:
                out.extend((h, mid(y)) for y in ys if slice_member(a, h, y))
            else:
                out.extend((h, mid(y)) for y in ys)
        if not tb or zset_member(a, h):
            out.append((h, TOP))
    return out


# ---------------------------------------------------------------------------
# product tables


class _Kinds:
    """Samplers for the element kinds used by the product tables.

    A kind that cannot be found within a probing budget is marked dead,
    so the affected cells go vacuous instead of burning draws.  Where the
    view rules a kind out by structure (pseudo-tops, non-tops), its probe
    still makes its draws, so every later draw stays where it was, but
    skips lifting and classifying them."""

    def __init__(self, ops, st, u):
        self.st = st
        self.clean = c = ops.clean
        self.u = u
        self.nu = c.comp(u)
        self.kind = dec.classifier(c, u)
        self._grp = c.invertible(u)
        self._dead = set()
        self._ruled_out = {name for name, k in (("tps", PSEUDO_TOP),
                                                ("nontop", NON_TOP))
                           if c.lacks(u, k)}

    def _find(self, name, pred, tries):
        if name in self._dead:
            return None
        if name in self._ruled_out:
            pred = _never
        x = self.st.draw_where(pred, tries)
        if x is None:
            self._dead.add(name)
        return x

    def group(self):
        return self._find("group", self._grp, tries=400)

    def restriction(self):
        return self.lift(self.st.draw())

    def pseudo_top(self):
        return self._find(
            "tps", lambda e: self.kind(self.lift(e)) == dec.TOP_PS,
            tries=400)

    def non_top(self):
        return self._find(
            "nontop",
            lambda e: self.kind(self.lift(e)) not in (dec.TOP_C, dec.TOP_PS),
            tries=400)

    def dense_below(self):
        def pred(e):
            s = self.lift(e)
            return self.clean.x_down(s) == s and self.kind(s) != dec.TOP_C
        return self._find("dense", pred, tries=400)

    def lift(self, e):
        # multiplying by u projects onto the upper stabilizer part
        return self.clean.mul(e, self.u)


def check_table(a, table, budget=200, seed=0):
    """Check one of the four product tables around the least strictly
    positive idempotent.  Tables 1 and 3 require the idempotent branch,
    tables 2 and 4 the non-idempotent one."""
    if table not in (1, 2, 3, 4):
        raise UnknownLaw(f"no table {table!r}")
    ops = _as_view(a)
    u = dec.smallest_pos_idem(ops.clean)
    br = dec.branch(ops.clean, u)
    need = dec.IDEM_BRANCH if table in (1, 3) else dec.NONIDEM_BRANCH
    if br != need:
        raise WrongBranch(f"table {table} needs {need}, algebra is {br}")
    st = SampleStream(ops, seed)
    kinds = _Kinds(ops, st, u)
    run = _Run(f"table{table}")
    fmt = _fmt_for(ops)
    fn = (_table1, _table2, _table3, _table4)[table - 1]
    fn(ops, kinds, run, fmt, budget)
    return run.report()


def _cell(run, fmt, label, inputs, lhs, rhs):
    run.check(lhs == rhs, inputs, lhs, rhs, fmt, label=label)


def _cell_ok(run, fmt, label, inputs, ok, lhs, rhs):
    run.check(ok, inputs, lhs, rhs, fmt, label=label)


def _component_cells(ops, kinds, run, fmt, v, w):
    """The seven cells multiplying two group elements v, w and their
    component extremes; returns (bot[v], top[v], bot[w], top[w])."""
    u, nu = kinds.u, kinds.nu
    bv, tv = ops.mul(v, nu), ops.mul(v, u)
    bw, tw = ops.mul(w, nu), ops.mul(w, u)
    vw = ops.mul(v, w)
    bvw, tvw = ops.mul(vw, nu), ops.mul(vw, u)
    _cell(run, fmt, "bot[v]*w", (v, w), ops.mul(bv, w), bvw)
    _cell(run, fmt, "bot[v]*top[w]", (v, w), ops.mul(bv, tw), bvw)
    _cell(run, fmt, "v*bot[w]", (v, w), ops.mul(v, bw), bvw)
    _cell(run, fmt, "v*top[w]", (v, w), ops.mul(v, tw), tvw)
    _cell(run, fmt, "top[v]*bot[w]", (v, w), ops.mul(tv, bw), bvw)
    _cell(run, fmt, "top[v]*w", (v, w), ops.mul(tv, w), tvw)
    _cell(run, fmt, "top[v]*top[w]", (v, w), ops.mul(tv, tw), tvw)
    return bv, tv, bw, tw


def _table1(ops, kinds, run, fmt, budget):
    run.cell("bot[v]*w", "bot[v]*top[w]", "v*bot[w]", "v*top[w]",
             "top[v]*bot[w]", "top[v]*w", "top[v]*top[w]", "top[v]*y",
             "a*bot[w]", "a*top[w]")
    for _ in range(budget):
        v, w = kinds.group(), kinds.group()
        if v is None or w is None:
            return
        _, tv, bw, tw = _component_cells(ops, kinds, run, fmt, v, w)
        y = kinds.restriction()
        _cell(run, fmt, "top[v]*y", (v, y), ops.mul(tv, y), ops.mul(v, y))
        aa = kinds.dense_below()
        if aa is not None:
            aa = kinds.lift(aa)
            aw = ops.mul(aa, w)
            _cell(run, fmt, "a*bot[w]", (aa, w), ops.mul(aa, bw), aw)
            _cell(run, fmt, "a*top[w]", (aa, w), ops.mul(aa, tw), aw)


def _member_nontop(kinds, e):
    c = kinds.clean
    return c.le(kinds.u, c.tau(e)) and \
        kinds.kind(e) not in (dec.TOP_C, dec.TOP_PS)


def _gap_rows(ops, kinds, run, fmt):
    """Cells shared by the two six-by-six tables (rows bot,v,top,z)."""
    c = kinds.clean
    v, w = kinds.group(), kinds.group()
    if v is None or w is None:
        return None
    bv, tv, bw, tw = _component_cells(ops, kinds, run, fmt, v, w)
    s = kinds.non_top()
    if s is not None:
        s = kinds.lift(s)
        _cell(run, fmt, "bot[v]*s", (v, s), ops.mul(bv, s), ops.mul(v, s))
        for lab, e in (("v*s", v), ("top[v]*s", tv)):
            p = ops.mul(e, s)
            _cell_ok(run, fmt, lab, (e, s), _member_nontop(kinds, p), p,
                     "non-top")
        z = kinds.non_top()
        if z is not None:
            z = kinds.lift(z)
            zw = ops.mul(z, w)
            _cell(run, fmt, "z*bot[w]", (z, w), ops.mul(z, bw), zw)
            _cell(run, fmt, "z*top[w]", (z, w), ops.mul(z, tw), zw)
            p = ops.mul(z, s)
            _cell_ok(run, fmt, "z*s", (z, s), _member_nontop(kinds, p), p,
                     "non-top")
    y = kinds.pseudo_top()
    if y is not None:
        y = kinds.lift(y)
        yd = c.x_down(y)
        q = ops.mul(v, y)
        d = c.x_down(q)
        _cell_ok(run, fmt, "bot[v]*y", (v, y),
                 ops.mul(bv, y) == d and ops.lt(d, q) and
                 kinds.kind(q) == dec.TOP_PS,
                 ops.mul(bv, y), d)
        _cell_ok(run, fmt, "v*y", (v, y),
                 kinds.kind(q) == dec.TOP_PS, q, dec.TOP_PS)
        _cell(run, fmt, "top[v]*y", (v, y), ops.mul(tv, y), q)
        z = kinds.non_top()
        if z is not None:
            z = kinds.lift(z)
            _cell(run, fmt, "z*ydown", (z, y), ops.mul(z, yd),
                  ops.mul(z, y))
    return v, w, bv, tv, bw, tw, y


def _table2(ops, kinds, run, fmt, budget):
    run.cell("bot[v]*w", "bot[v]*top[w]", "bot[v]*s", "bot[v]*y",
             "v*bot[w]", "v*top[w]", "v*s", "v*y",
             "top[v]*bot[w]", "top[v]*w", "top[v]*top[w]", "top[v]*s",
             "top[v]*y", "z*bot[w]", "z*top[w]", "z*s", "z*ydown",
             "xdown*s", "x*bot[w]", "x*w", "x*top[w]", "x*s")
    c = kinds.clean
    for _ in range(budget):
        got = _gap_rows(ops, kinds, run, fmt)
        if got is None:
            return
        v, w, bv, tv, bw, tw, y = got
        x = kinds.pseudo_top()
        if x is None:
            continue
        x = kinds.lift(x)
        xd = c.x_down(x)
        q = ops.mul(x, w)
        d = c.x_down(q)
        _cell_ok(run, fmt, "x*bot[w]", (x, w),
                 ops.mul(x, bw) == d and ops.lt(d, q),
                 ops.mul(x, bw), d)
        _cell_ok(run, fmt, "x*w", (x, w),
                 kinds.kind(q) == dec.TOP_PS, q, dec.TOP_PS)
        _cell(run, fmt, "x*top[w]", (x, w), ops.mul(x, tw), q)
        s = kinds.non_top()
        if s is not None:
            s = kinds.lift(s)
            _cell(run, fmt, "xdown*s", (x, s), ops.mul(xd, s),
                  ops.mul(x, s))
            p = ops.mul(x, s)
            _cell_ok(run, fmt, "x*s", (x, s), _member_nontop(kinds, p), p,
                     "non-top")


def _split_sides(c, u, q):
    d = c.x_down(q)
    left = d != q and c.le(u, c.tau(d))
    return d, left


def _table3(ops, kinds, run, fmt, budget):
    run.cell("bot[v]*bot[w]", "bot[v]*w", "bot[v]*top[w]", "bot[v]*s",
             "bot[v]*ydown", "bot[v]*y",
             "v*bot[w]", "v*top[w]", "v*s", "v*ydown", "v*y",
             "top[v]*bot[w]", "top[v]*w", "top[v]*top[w]", "top[v]*s",
             "top[v]*ydown", "top[v]*y",
             "z*bot[w]", "z*top[w]", "z*s", "z*ydown",
             "xdown*bot[w]", "xdown*w", "xdown*top[w]", "xdown*s",
             "x*bot[w]", "x*w", "x*top[w]", "x*s",
             "xy-left", "xy-right")
    c, u, nu = kinds.clean, kinds.u, kinds.nu
    for _ in range(budget):
        got = _gap_rows(ops, kinds, run, fmt)
        if got is None:
            return
        v, w, bv, tv, bw, tw, y = got
        vw = ops.mul(v, w)
        _cell(run, fmt, "bot[v]*bot[w]", (v, w), ops.mul(bv, bw),
              ops.mul(vw, nu))
        if y is not None:
            yd = c.x_down(y)
            d = c.x_down(ops.mul(v, y))
            _cell(run, fmt, "bot[v]*ydown", (v, y), ops.mul(bv, yd), d)
            _cell(run, fmt, "v*ydown", (v, y), ops.mul(v, yd), d)
            _cell(run, fmt, "top[v]*ydown", (v, y), ops.mul(tv, yd), d)
        x = kinds.pseudo_top()
        if x is None:
            continue
        x = kinds.lift(x)
        xd = c.x_down(x)
        q = ops.mul(x, w)
        d = c.x_down(q)
        for lab, e in (("xdown*bot[w]", bw), ("xdown*w", w),
                       ("xdown*top[w]", tw)):
            _cell(run, fmt, lab, (x, w), ops.mul(xd, e), d)
        _cell_ok(run, fmt, "x*bot[w]", (x, w),
                 ops.mul(x, bw) == d and ops.lt(d, q), ops.mul(x, bw), d)
        _cell_ok(run, fmt, "x*w", (x, w),
                 kinds.kind(q) == dec.TOP_PS, q, dec.TOP_PS)
        _cell(run, fmt, "x*top[w]", (x, w), ops.mul(x, tw), q)
        s = kinds.non_top()
        if s is not None:
            s = kinds.lift(s)
            _cell(run, fmt, "xdown*s", (x, s), ops.mul(xd, s),
                  ops.mul(x, s))
            p = ops.mul(x, s)
            _cell_ok(run, fmt, "x*s", (x, s), _member_nontop(kinds, p), p,
                     "non-top")
        if y is None:
            continue
        yd = c.x_down(y)
        q = ops.mul(x, y)
        d, left = _split_sides(c, u, q)
        drops = (ops.mul(xd, yd), ops.mul(xd, y), ops.mul(x, yd))
        if left:
            ok = all(p == d for p in drops) and \
                kinds.kind(q) == dec.TOP_PS
            _cell_ok(run, fmt, "xy-left", (x, y), ok, drops[0], d)
        else:
            floor = ops.mul(q, nu)
            ok = all(p == floor for p in drops) and \
                kinds.kind(q) == dec.TOP_C and \
                kinds.kind(floor) == dec.BOT_C
            _cell_ok(run, fmt, "xy-right", (x, y), ok, drops[0], floor)


def _table4(ops, kinds, run, fmt, budget):
    run.cell("top[v]*top[w]", "top[v]*y", "x*top[w]", "xy-left", "xy-right")
    c, u = kinds.clean, kinds.u
    for _ in range(budget):
        v, w = kinds.group(), kinds.group()
        if v is None or w is None:
            return
        tv, tw = ops.mul(v, u), ops.mul(w, u)
        _cell(run, fmt, "top[v]*top[w]", (v, w), ops.mul(tv, tw),
              ops.mul(ops.mul(v, w), u))
        y = kinds.pseudo_top()
        if y is None:
            continue
        y = kinds.lift(y)
        q = ops.mul(v, y)
        _cell_ok(run, fmt, "top[v]*y", (v, y),
                 ops.mul(tv, y) == q and
                 kinds.kind(q) == dec.TOP_PS,
                 ops.mul(tv, y), q)
        x = kinds.pseudo_top()
        if x is None:
            continue
        x = kinds.lift(x)
        q = ops.mul(x, w)
        _cell_ok(run, fmt, "x*top[w]", (x, w),
                 ops.mul(x, tw) == q and
                 kinds.kind(q) == dec.TOP_PS,
                 ops.mul(x, tw), q)
        q = ops.mul(x, y)
        _, left = _split_sides(c, u, q)
        k = kinds.kind(q)
        if left:
            _cell_ok(run, fmt, "xy-left", (x, y), k == dec.TOP_PS, k,
                     dec.TOP_PS)
        else:
            _cell_ok(run, fmt, "xy-right", (x, y), k == dec.TOP_C, k,
                     dec.TOP_C)


# ---------------------------------------------------------------------------
# homomorphism checks


def check_hom(fn, a, b, budget=1000, seed=0, with_comp=True, injective=True,
              law="hom"):
    """Check that fn maps a into b as an order-preserving monoid
    homomorphism; complement preservation and injectivity (with strict
    order reflection) are checked when claimed.  Quotient maps pass
    with injective=False.  b is an algebra or a view; a target without a
    complement (a LexMonoid) skips the comp cell."""
    ops = _as_view(a)
    st = SampleStream(ops, seed)
    run = _Run(law)
    fmt = _fmt_for(ops)
    tgt = _as_view(b)
    bunit = tgt.unit()
    with_comp = with_comp and hasattr(tgt, "comp")
    run.cell("unit", "mul", "order")
    if injective:
        run.cell("injective")
    if with_comp:
        run.cell("comp")
    run.check(fn(ops.unit()) == bunit, (ops.unit(),), fn(ops.unit()), bunit,
              fmt, label="unit")
    for _ in range(budget):
        x, y = st.draw(), st.draw()
        l = fn(ops.mul(x, y))
        r = tgt.mul(fn(x), fn(y))
        run.check(l == r, (x, y), l, r, fmt, label="mul")
        if with_comp:
            l = fn(ops.comp(x))
            r = tgt.comp(fn(x))
            run.check(l == r, (x,), l, r, fmt, label="comp")
        sa = ops.cmp(x, y)
        sb = tgt.cmp(fn(x), fn(y))
        if injective:
            ok = (sa > 0) == (sb > 0) and (sa < 0) == (sb < 0)
        else:
            ok = not (sa < 0 and sb > 0) and not (sa > 0 and sb < 0)
        run.check(ok, (x, y), sa, sb, fmt, label="order")
        if injective and x != y:
            run.check(fn(x) != fn(y), (x, y), fn(x), fn(y), fmt,
                      label="injective")
    return run.report()
