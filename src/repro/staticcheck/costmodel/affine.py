"""Affine value-range analysis: the cost model's abstract domain.

The domain tracks, per register, an *affine expression*

    c0 + c1·s1 + c2·s2 + ...

over a small set of symbols: the thread-identity specials (``tid``,
``lane``, ``warp``, ``ctaid``, ``ntid``) and one iteration counter per
natural loop (``iter@H`` where ``H`` is the loop-head PC, counting body
executions from zero).  Anything the domain cannot express — values
loaded from memory, floating-point results, predicates, non-linear
arithmetic — is TOP, represented by *absence* from the environment.

Induction variables are solved by a loop-head widening rule rather than
a plain join (which would immediately lose them): at a loop head ``H``
the entry-edge and back-edge values of a register are joined separately;
if the back value differs from the current head value by a *constant*
step ``d``, the head value is widened to ``entry + iter@H · d``.  The
rule is self-correcting — a wrong guess makes the next recomputed step
non-constant, which forces TOP — and a per-register widening cap bounds
the number of guesses, so the fixpoint always terminates.

On every loop-exit edge, values mentioning the loop's iteration symbol
are dropped: ``iter@H`` is meaningless outside the body of ``H``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.instructions import Imm, Instruction, Reg, Special
from repro.staticcheck.cfg import ControlFlowGraph

#: Symbols contributed by Special operands.
SPECIAL_SYMBOLS = {
    Special.TID: "tid",
    Special.LANE: "lane",
    Special.WARP: "warp",
    Special.CTAID: "ctaid",
    Special.NTID: "ntid",
}

#: Widenings allowed per (loop head, register) before forcing TOP.
WIDEN_CAP = 4

#: Prefix of per-loop iteration symbols ("iter@<head pc>").
ITER_PREFIX = "iter@"


def iter_symbol(head: int) -> str:
    """The iteration-counter symbol of the loop headed at ``head``."""
    return "%s%d" % (ITER_PREFIX, head)


@dataclass(frozen=True)
class Affine:
    """An affine expression ``const + Σ coeff·symbol`` with int coefficients.

    ``coeffs`` is sorted by symbol and never contains zero coefficients,
    so structural equality is semantic equality.
    """

    const: int
    coeffs: Tuple[Tuple[str, int], ...] = ()

    @staticmethod
    def constant(value: int) -> "Affine":
        return Affine(value)

    @staticmethod
    def symbol(name: str, coeff: int = 1) -> "Affine":
        if coeff == 0:
            return Affine(0)
        return Affine(0, ((name, coeff),))

    @staticmethod
    def _normalise(const: int, terms: Dict[str, int]) -> "Affine":
        coeffs = tuple(sorted((s, c) for s, c in terms.items() if c != 0))
        return Affine(const, coeffs)

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def coeff(self, symbol: str) -> int:
        for name, value in self.coeffs:
            if name == symbol:
                return value
        return 0

    def mentions(self, symbol: str) -> bool:
        return any(name == symbol for name, _ in self.coeffs)

    @property
    def symbols(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.coeffs)

    def __add__(self, other: "Affine") -> "Affine":
        terms = dict(self.coeffs)
        for name, value in other.coeffs:
            terms[name] = terms.get(name, 0) + value
        return Affine._normalise(self.const + other.const, terms)

    def __sub__(self, other: "Affine") -> "Affine":
        return self + other.scale(-1)

    def __neg__(self) -> "Affine":
        return self.scale(-1)

    def scale(self, factor: int) -> "Affine":
        if factor == 0:
            return Affine(0)
        return Affine(
            self.const * factor,
            tuple((name, value * factor) for name, value in self.coeffs),
        )

    def add_term(self, symbol: str, coeff: int) -> "Affine":
        """``self + coeff·symbol`` (used by the widening rule)."""
        return self + Affine.symbol(symbol, coeff)

    def substitute(self, symbol: str, value: "Affine") -> "Affine":
        """Replace ``symbol`` with an affine ``value``."""
        coeff = self.coeff(symbol)
        if coeff == 0:
            return self
        terms = {name: c for name, c in self.coeffs if name != symbol}
        base = Affine._normalise(self.const, terms)
        return base + value.scale(coeff)

    def render(self) -> str:
        parts: List[str] = []
        if self.const or not self.coeffs:
            parts.append(str(self.const))
        for name, value in self.coeffs:
            if value == 1:
                parts.append(name)
            else:
                parts.append("%d*%s" % (value, name))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Affine(%s)" % self.render()


@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]``; ``hi=None`` is unbounded.

    ``Interval(n, n)`` is an *exact* static prediction; anything wider is
    a sound bound.
    """

    lo: int
    hi: Optional[int] = None

    @staticmethod
    def exact(value: int) -> "Interval":
        return Interval(value, value)

    @property
    def is_exact(self) -> bool:
        return self.hi is not None and self.lo == self.hi

    def contains(self, value: int) -> bool:
        if value < self.lo:
            return False
        return self.hi is None or value <= self.hi

    def __add__(self, other: "Interval") -> "Interval":
        hi = None
        if self.hi is not None and other.hi is not None:
            hi = self.hi + other.hi
        return Interval(self.lo + other.lo, hi)

    def __mul__(self, other: "Interval") -> "Interval":
        """Product of two non-negative intervals (counts, trips)."""
        hi = None
        if self.hi is not None and other.hi is not None:
            hi = self.hi * other.hi
        return Interval(self.lo * other.lo, hi)

    def union(self, other: "Interval") -> "Interval":
        hi = None
        if self.hi is not None and other.hi is not None:
            hi = max(self.hi, other.hi)
        return Interval(min(self.lo, other.lo), hi)

    def render(self) -> str:
        if self.is_exact:
            return str(self.lo)
        return "[%d, %s]" % (self.lo, "inf" if self.hi is None else self.hi)

    def to_dict(self) -> Dict[str, Optional[int]]:
        return {"lo": self.lo, "hi": self.hi}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Interval(%s)" % self.render()


# An abstract environment: register index -> Affine.  Registers absent
# from the mapping are TOP.  ``None`` marks a PC not yet reached.
Environment = Dict[int, Affine]


def _operand_value(operand: object, env: Environment) -> Optional[Affine]:
    if isinstance(operand, Imm):
        value = operand.value
        if isinstance(value, bool) or not isinstance(value, int):
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            else:
                return None
        return Affine.constant(value)
    if isinstance(operand, Special):
        return Affine.symbol(SPECIAL_SYMBOLS[operand])
    if isinstance(operand, Reg):
        return env.get(operand.index)
    return None


def transfer(inst: Instruction, env: Environment) -> Environment:
    """Abstract transfer of one instruction over an environment."""
    if inst.dst is None:
        return env
    values = [_operand_value(src, env) for src in inst.srcs]
    result: Optional[Affine] = None
    opcode = inst.opcode
    if opcode == "mov":
        result = values[0]
    elif opcode == "iadd":
        if values[0] is not None and values[1] is not None:
            result = values[0] + values[1]
    elif opcode == "isub":
        if values[0] is not None and values[1] is not None:
            result = values[0] - values[1]
    elif opcode == "imul":
        a, b = values
        if a is not None and b is not None:
            if a.is_constant:
                result = b.scale(a.const)
            elif b.is_constant:
                result = a.scale(b.const)
    elif opcode == "ishl":
        a, b = values
        if a is not None and b is not None and b.is_constant and b.const >= 0:
            result = a.scale(1 << b.const)
    elif opcode in ("idiv", "imod", "iand", "ior", "ishr", "imin", "imax"):
        # Constant-fold only: these are non-affine on symbolic operands.
        a, b = values
        if a is not None and b is not None and a.is_constant and b.is_constant:
            x, y = a.const, b.const
            if opcode == "idiv" and y != 0:
                result = Affine.constant(int(x / y) if x * y < 0 else x // y)
            elif opcode == "imod" and y != 0:
                result = Affine.constant(x - y * (int(x / y) if x * y < 0 else x // y))
            elif opcode == "iand":
                result = Affine.constant(x & y)
            elif opcode == "ior":
                result = Affine.constant(x | y)
            elif opcode == "ishr" and y >= 0:
                result = Affine.constant(x >> y)
            elif opcode == "imin":
                result = Affine.constant(min(x, y))
            elif opcode == "imax":
                result = Affine.constant(max(x, y))
    # setp, FALU, SFU, ld, lds: destination is TOP.
    new_env = dict(env)
    if result is None:
        new_env.pop(inst.dst.index, None)
    else:
        new_env[inst.dst.index] = result
    return new_env


def _join(envs: Sequence[Environment]) -> Optional[Environment]:
    """Pointwise join: registers agree on all contributing edges or go TOP."""
    if not envs:
        return None
    joined = dict(envs[0])
    for env in envs[1:]:
        for reg in list(joined):
            if env.get(reg) != joined[reg]:
                del joined[reg]
    return joined


def _drop_exited_iters(env: Environment, exited: Sequence[str]) -> Environment:
    """Drop values mentioning iteration symbols of loops just exited."""
    if not exited:
        return env
    return {
        reg: value
        for reg, value in env.items()
        if not any(value.mentions(sym) for sym in exited)
    }


def affine_environments(
    cfg: ControlFlowGraph,
    loops: Sequence,
) -> List[Optional[Environment]]:
    """Solve the affine domain over ``cfg``, returning per-PC entry envs.

    ``loops`` is the natural-loop list from
    :func:`repro.staticcheck.costmodel.loops.find_loops` (duck-typed:
    only ``head``, ``latches`` and ``body`` are used).  The returned list
    maps each PC to the environment *before* the instruction, or ``None``
    for unreachable PCs.
    """
    program = cfg.program
    n = len(program)
    loop_of_head = {loop.head: loop for loop in loops}

    preds: Dict[int, List[int]] = {pc: [] for pc in range(n)}
    for pc in cfg.reachable:
        for succ in cfg.succs[pc]:
            preds[succ].append(pc)

    in_env: List[Optional[Environment]] = [None] * n
    out_env: List[Optional[Environment]] = [None] * n
    widen_counts: Dict[Tuple[int, int], int] = {}

    def edge_env(u: int, v: int) -> Optional[Environment]:
        env = out_env[u]
        if env is None:
            return None
        exited = [
            iter_symbol(loop.head)
            for loop in loops
            if u in loop.body and v not in loop.body
        ]
        return _drop_exited_iters(env, exited)

    def compute_in(pc: int) -> Optional[Environment]:
        loop = loop_of_head.get(pc)
        if loop is None:
            contributions = [] if pc != 0 else [{}]
            contributions += [
                env for env in (edge_env(u, pc) for u in preds[pc])
                if env is not None
            ]
            return _join(contributions)

        entry_envs = [] if pc != 0 else [{}]
        back_envs = []
        for u in preds[pc]:
            env = edge_env(u, pc)
            if env is None:
                continue
            (back_envs if u in loop.latches else entry_envs).append(env)
        entry = _join(entry_envs)
        back = _join(back_envs)
        if entry is None:
            # Head reachable only through back edges: nothing sound to say.
            return {}
        if back is None:
            return dict(entry)

        sym = iter_symbol(pc)
        prev = in_env[pc] or {}
        head: Environment = {}
        for reg, e in entry.items():
            b = back.get(reg)
            if b is None:
                continue
            h = prev.get(reg)
            if h is None:
                if e == b:
                    head[reg] = e
                continue
            step = b - h
            if not step.is_constant:
                continue
            candidate = e.add_term(sym, step.const)
            if candidate == h:
                head[reg] = h
                continue
            key = (pc, reg)
            widen_counts[key] = widen_counts.get(key, 0) + 1
            if widen_counts[key] <= WIDEN_CAP:
                head[reg] = candidate
        return head

    worklist = [0] if n else []
    # Safety valve: the widening cap makes the fixpoint terminate, but a
    # hard bound keeps degenerate CFGs from ever spinning the analysis.
    budget = 64 * (n + 1) * (len(loops) + 1)
    while worklist and budget > 0:
        budget -= 1
        pc = worklist.pop()
        new_in = compute_in(pc)
        if new_in is None:
            continue
        if new_in == in_env[pc] and out_env[pc] is not None:
            continue
        in_env[pc] = new_in
        new_out = transfer(program[pc], new_in)
        if new_out != out_env[pc]:
            out_env[pc] = new_out
            worklist.extend(cfg.succs[pc])
        elif out_env[pc] is None:
            out_env[pc] = new_out
            worklist.extend(cfg.succs[pc])
    return in_env
