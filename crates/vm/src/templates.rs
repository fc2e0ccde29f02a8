//! Typed-template loop tier (`--opt=3`, installed after the fixed
//! bulk kernels).
//!
//! The fixed kernels in [`crate::kernels`] cover the NPB hot shapes,
//! but any loop that misses all of them falls back to per-instruction
//! dispatch even when its body is a short straight-line run of typed
//! scalar/array operations (the `kernel-missed reason=shape` rows in
//! `--remarks`). This module closes that gap generically: the
//! installer decodes such loop bodies into a chain of monomorphized
//! *template ops* — small `fn(&mut TFrame, &TOp)` functions over an
//! unboxed register frame (`i64`/`f64` slot arrays plus raw
//! `ArrF::cells`/`ArrI::cells` element slices) — and replaces the
//! loop-head instruction with [`Insn::TemplateLoop`]. The runner then
//! executes whole loops as an indirect-threaded chain: one function
//! pointer call per source instruction per iteration, no `Value`
//! boxing, no operand decoding, no match dispatch.
//!
//! Two loop forms are recognised, matching what the compiler emits
//! for `while` loops after optimization:
//!
//! * Form A (do-while): straight-line body ending in an
//!   [`Insn::IncCmpJump`] whose target is the loop head.
//! * Form B (head-guarded): optional straight-line head,
//!   [`Insn::CmpJumpFalse`] to the loop exit, straight-line body,
//!   [`Insn::IncJump`] back to the head.
//!
//! Types are inferred per loop by union-find over scalar registers
//! and array element kinds, seeded by the specialized instruction
//! forms (`ArithII`, `IndexF`, typed pool constants, ...). A loop
//! whose types cannot be pinned statically (all-generic bodies such
//! as a plain `a[i] = b[i]` copy) is installed with *both* an
//! all-`i64` and an all-`f64` variant; the runtime bind picks the
//! first whose type prechecks hold.
//!
//! Correctness contract (identical to the fixed kernels):
//!
//! - Binds type-check every bound register before any side effect;
//!   a mismatch falls through to the next variant and finally back
//!   to the interpreter (quicken to the original head instruction).
//! - Mid-loop failures (bounds, div-by-zero) restore the bound
//!   loop-carried registers to their values at the start of the
//!   failing iteration, write them back, and deopt, so the
//!   interpreter replays the failing iteration and raises the exact
//!   error the bytecode would. To make that replay sound, a template
//!   is only installed when no fallible op executes after the first
//!   array store of an iteration (otherwise the replay could re-read
//!   locations the partial iteration already wrote).
//! - Float expression shapes are preserved exactly (separate
//!   mul-then-add for the fma-fused forms), so results stay
//!   bit-identical to interpretation.
//! - Loads and stores execute in interpreter order within an
//!   iteration, so aliasing arrays behave exactly as interpreted.

use std::cell::UnsafeCell;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::bytecode::{ArithOp, CmpOp, CompiledFn, Insn, Reg};
use crate::pin::Pins;
use crate::value::{ArrF, ArrI, Value};

/// Scalar slots per kind in a template frame.
pub const NSLOT: usize = 32;
/// Array slots per element kind in a template frame.
pub const NARR: usize = 6;
/// Longest loop (source instructions, head through back-edge) the
/// matcher will decode.
const MAX_INSNS: usize = 24;

type Bail = &'static str;
const BAIL_TYPE: Bail = "type";
const BAIL_BOUNDS: Bail = "bounds";
const BAIL_DIV: Bail = "div";

// ---------------------------------------------------------------------------
// Descriptors
// ---------------------------------------------------------------------------

/// Descriptor for one installed template, stored in
/// [`CompiledFn::templates`] and referenced by [`Insn::TemplateLoop`].
#[derive(Clone)]
pub struct TemplateDesc {
    /// The loop-head instruction the `TemplateLoop` replaced; deopt
    /// target (the dispatch loop re-quickens to this and replays).
    pub orig: Insn,
    /// pc to resume at after a normal exit.
    pub exit: u32,
    /// Pragma `unit:line` label of the nearest enclosing worksharing
    /// loop, `""` when unnamed (same resolution as kernel labels).
    pub label: &'static str,
    pub prog: Arc<TProg>,
}

/// One compiled template program: the typed variants plus metadata.
pub struct TProg {
    /// Candidate monomorphizations, tried in order at entry. More
    /// than one only when the loop's types could not be pinned
    /// statically (see module docs).
    pub variants: Vec<TVariant>,
    /// Induction register (for trace spans: native iterations are the
    /// before/after delta of this register).
    pub ind: Reg,
    /// Source instructions covered (head through back-edge), for
    /// remarks and disassembly.
    pub ninsns: usize,
}

/// The loop control shape of a variant. Fields index frame slots,
/// not registers.
#[derive(Clone, Copy)]
pub enum Shape {
    /// Body then `IncCmpJump`: run ops, bump induction, test.
    DoWhile {
        ind: u16,
        step: i64,
        lim: u16,
        cmp: CmpOp,
    },
    /// Head ops, guard test, body ops, `IncJump`: `nhead` splits
    /// `ops`; the guard compares slots `ga`/`gb` (`gflt` selects the
    /// float file).
    HeadGuard {
        ind: u16,
        step: i64,
        nhead: u16,
        ga: u16,
        gb: u16,
        gflt: bool,
        cmp: CmpOp,
    },
}

/// Entry bind: type-check a register and load it into the frame.
/// Any mismatch rejects the variant before any side effect.
#[derive(Clone, Copy)]
pub enum Bind {
    Int { reg: Reg, slot: u16 },
    Flt { reg: Reg, slot: u16 },
    ArrI { reg: Reg, slot: u16 },
    ArrF { reg: Reg, slot: u16 },
    CellI { reg: Reg, slot: u16 },
    CellF { reg: Reg, slot: u16 },
}

/// Exit write-back: box a frame slot back into a register.
#[derive(Clone, Copy)]
pub enum Out {
    Int { reg: Reg, slot: u16 },
    Flt { reg: Reg, slot: u16 },
}

/// One monomorphized template variant.
pub struct TVariant {
    pub binds: Vec<Bind>,
    /// Loop-invariant constant loads, run once after a successful
    /// bind: a `Const` no other op overwrites reloads the same value
    /// every iteration, so it executes here instead of in the loop
    /// (its slot still feeds the exit write-back).
    pub prelude: Vec<TOp>,
    pub ops: Vec<TOp>,
    pub shape: Shape,
    /// Written registers boxed back on every normal exit.
    pub outs: Vec<Out>,
    /// Written registers boxed back only when at least one full body
    /// execution happened (Form B regs defined only inside the
    /// guarded body: after zero iterations their slots hold garbage
    /// and the interpreter would not have touched them either).
    pub outs_body: Vec<Out>,
    /// Bound-and-written registers boxed back on a bail, after
    /// restoring their start-of-iteration snapshot, so the
    /// interpreter replays the failing iteration from exact state.
    pub bail_outs: Vec<Out>,
    /// Slots snapshotted at the top of each iteration when any op is
    /// fallible: `(float?, slot)`.
    pub snap: Vec<(bool, u16)>,
    pub fallible: bool,
    /// `ai`/`af` frame slots the variant stores into (seqlock write
    /// fences open for the whole run, as the kernels do).
    pub wf_i: Vec<u16>,
    pub wf_f: Vec<u16>,
}

/// One template op: a monomorphized function over the frame plus its
/// pre-resolved operands. `a` is the destination (or target array
/// slot for stores), `b`/`c` are sources, `off` the index offset,
/// `ki`/`kf` an immediate resolved from the constant pool at install
/// time (the pool is frozen after installation).
pub struct TOp {
    pub f: OpFn,
    pub a: u16,
    pub b: u16,
    pub c: u16,
    pub off: i64,
    pub ki: i64,
    pub kf: f64,
}

pub type OpFn = fn(&mut TFrame<'_>, &TOp) -> Result<(), Bail>;

/// The unboxed execution frame: fixed scalar slot files plus raw
/// element slices of the bound arrays (the owning `Arc`s are held
/// alive by the runner for the duration of the run).
pub struct TFrame<'a> {
    pub ints: [i64; NSLOT],
    pub flts: [f64; NSLOT],
    pub ai: [&'a [UnsafeCell<i64>]; NARR],
    pub af: [&'a [UnsafeCell<f64>]; NARR],
}

impl TemplateDesc {
    /// Report every register the template binds or writes back, for
    /// bytecode verification.
    pub fn visit_regs(&self, mut f: impl FnMut(Reg)) {
        f(self.prog.ind);
        for v in &self.prog.variants {
            for b in &v.binds {
                match *b {
                    Bind::Int { reg, .. }
                    | Bind::Flt { reg, .. }
                    | Bind::ArrI { reg, .. }
                    | Bind::ArrF { reg, .. }
                    | Bind::CellI { reg, .. }
                    | Bind::CellF { reg, .. } => f(reg),
                }
            }
            for o in v.outs.iter().chain(&v.outs_body).chain(&v.bail_outs) {
                match *o {
                    Out::Int { reg, .. } | Out::Flt { reg, .. } => f(reg),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Template ops (the monomorphized instruction set)
// ---------------------------------------------------------------------------

/// `i64::MIN / -1` overflows (a panic in the interpreter's checked
/// division as well); deopt so the interpreter owns it.
fn div_ok(x: i64, y: i64) -> bool {
    y != 0 && !(y == -1 && x == i64::MIN)
}

macro_rules! op_ii {
    ($n:ident, |$x:ident, $y:ident| $e:expr) => {
        fn $n(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
            let $x = fr.ints[op.b as usize];
            let $y = fr.ints[op.c as usize];
            fr.ints[op.a as usize] = $e;
            Ok(())
        }
    };
}
macro_rules! op_ii_div {
    ($n:ident, |$x:ident, $y:ident| $e:expr) => {
        fn $n(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
            let $x = fr.ints[op.b as usize];
            let $y = fr.ints[op.c as usize];
            if !div_ok($x, $y) {
                return Err(BAIL_DIV);
            }
            fr.ints[op.a as usize] = $e;
            Ok(())
        }
    };
}
macro_rules! op_ik {
    ($n:ident, |$x:ident, $k:ident| $e:expr) => {
        fn $n(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
            let $x = fr.ints[op.b as usize];
            let $k = op.ki;
            fr.ints[op.a as usize] = $e;
            Ok(())
        }
    };
}
macro_rules! op_ik_div {
    ($n:ident, |$x:ident, $k:ident| $num:ident / $den:ident, $e:expr) => {
        fn $n(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
            let $x = fr.ints[op.b as usize];
            let $k = op.ki;
            if !div_ok($num, $den) {
                return Err(BAIL_DIV);
            }
            fr.ints[op.a as usize] = $e;
            Ok(())
        }
    };
}
macro_rules! op_ff {
    ($n:ident, |$x:ident, $y:ident| $e:expr) => {
        fn $n(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
            let $x = fr.flts[op.b as usize];
            let $y = fr.flts[op.c as usize];
            fr.flts[op.a as usize] = $e;
            Ok(())
        }
    };
}
macro_rules! op_fk {
    ($n:ident, |$x:ident, $k:ident| $e:expr) => {
        fn $n(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
            let $x = fr.flts[op.b as usize];
            let $k = op.kf;
            fr.flts[op.a as usize] = $e;
            Ok(())
        }
    };
}

op_ii!(add_ii, |x, y| x.wrapping_add(y));
op_ii!(sub_ii, |x, y| x.wrapping_sub(y));
op_ii!(mul_ii, |x, y| x.wrapping_mul(y));
op_ii_div!(div_ii, |x, y| x / y);
op_ii_div!(rem_ii, |x, y| x % y);

op_ik!(addk_i, |x, k| x.wrapping_add(k));
op_ik!(subk_i, |x, k| x.wrapping_sub(k));
op_ik!(mulk_i, |x, k| x.wrapping_mul(k));
op_ik_div!(divk_i, |x, k| x / k, x / k);
op_ik_div!(remk_i, |x, k| x / k, x % k);
op_ik!(addkl_i, |x, k| k.wrapping_add(x));
op_ik!(subkl_i, |x, k| k.wrapping_sub(x));
op_ik!(mulkl_i, |x, k| k.wrapping_mul(x));
op_ik_div!(divkl_i, |x, k| k / x, k / x);
op_ik_div!(remkl_i, |x, k| k / x, k % x);

op_ff!(add_ff, |x, y| x + y);
op_ff!(sub_ff, |x, y| x - y);
op_ff!(mul_ff, |x, y| x * y);
op_ff!(div_ff, |x, y| x / y);
op_ff!(rem_ff, |x, y| x % y);

op_fk!(addk_f, |x, k| x + k);
op_fk!(subk_f, |x, k| x - k);
op_fk!(mulk_f, |x, k| x * k);
op_fk!(divk_f, |x, k| x / k);
op_fk!(remk_f, |x, k| x % k);
op_fk!(addkl_f, |x, k| k + x);
op_fk!(subkl_f, |x, k| k - x);
op_fk!(mulkl_f, |x, k| k * x);
op_fk!(divkl_f, |x, k| k / x);
op_fk!(remkl_f, |x, k| k % x);

// Fused multiply-add pairs (see `fuse`): one dispatch for a multiply
// whose product feeds the directly following add. The product slot
// (`off`) is still written, so the pair's architectural effects — and
// therefore the bind/write-back/bail analyses done over the unfused
// protos — are preserved exactly; floats round in two steps, exactly
// as the separate ops would (never a hardware FMA). For `fma_*` the
// `ki` field carries the second multiplicand's *slot*, not an
// immediate; `fmak_*` carry the immediate in `ki`/`kf` as usual.
fn fma_ii(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
    let m = fr.ints[op.c as usize].wrapping_mul(fr.ints[op.ki as usize]);
    fr.ints[op.off as usize] = m;
    fr.ints[op.a as usize] = fr.ints[op.b as usize].wrapping_add(m);
    Ok(())
}
fn fma_ff(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
    let m = fr.flts[op.c as usize] * fr.flts[op.ki as usize];
    fr.flts[op.off as usize] = m;
    fr.flts[op.a as usize] = fr.flts[op.b as usize] + m;
    Ok(())
}
fn fmak_i(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
    let m = fr.ints[op.c as usize].wrapping_mul(op.ki);
    fr.ints[op.off as usize] = m;
    fr.ints[op.a as usize] = fr.ints[op.b as usize].wrapping_add(m);
    Ok(())
}
fn fmak_f(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
    let m = fr.flts[op.c as usize] * op.kf;
    fr.flts[op.off as usize] = m;
    fr.flts[op.a as usize] = fr.flts[op.b as usize] + m;
    Ok(())
}

fn mov_i(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
    fr.ints[op.a as usize] = fr.ints[op.b as usize];
    Ok(())
}
fn mov_f(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
    fr.flts[op.a as usize] = fr.flts[op.b as usize];
    Ok(())
}
fn const_i(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
    fr.ints[op.a as usize] = op.ki;
    Ok(())
}
fn const_f(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
    fr.flts[op.a as usize] = op.kf;
    Ok(())
}

/// Loads/stores: `b` is the index slot, `off` the static offset
/// (`IndexOff`/`DerefIndexOff` fold it with a wrapping add, exactly
/// as the interpreter's `index_off`). A negative or too-large index
/// is one unsigned compare.
fn ld_i(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
    let i = fr.ints[op.b as usize].wrapping_add(op.off);
    let arr = fr.ai[op.c as usize];
    if (i as u64) >= arr.len() as u64 {
        return Err(BAIL_BOUNDS);
    }
    fr.ints[op.a as usize] = unsafe { *arr.get_unchecked(i as usize).get() };
    Ok(())
}
fn ld_f(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
    let i = fr.ints[op.b as usize].wrapping_add(op.off);
    let arr = fr.af[op.c as usize];
    if (i as u64) >= arr.len() as u64 {
        return Err(BAIL_BOUNDS);
    }
    fr.flts[op.a as usize] = unsafe { *arr.get_unchecked(i as usize).get() };
    Ok(())
}
fn st_i(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
    let i = fr.ints[op.b as usize].wrapping_add(op.off);
    let arr = fr.ai[op.a as usize];
    if (i as u64) >= arr.len() as u64 {
        return Err(BAIL_BOUNDS);
    }
    unsafe { *arr.get_unchecked(i as usize).get() = fr.ints[op.c as usize] };
    Ok(())
}
fn st_f(fr: &mut TFrame, op: &TOp) -> Result<(), Bail> {
    let i = fr.ints[op.b as usize].wrapping_add(op.off);
    let arr = fr.af[op.a as usize];
    if (i as u64) >= arr.len() as u64 {
        return Err(BAIL_BOUNDS);
    }
    unsafe { *arr.get_unchecked(i as usize).get() = fr.flts[op.c as usize] };
    Ok(())
}

fn cmp_i(op: CmpOp, a: i64, b: i64) -> bool {
    match op {
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
    }
}
fn cmp_f(op: CmpOp, a: f64, b: f64) -> bool {
    match op {
        CmpOp::Lt => a < b,
        CmpOp::Le => a <= b,
        CmpOp::Gt => a > b,
        CmpOp::Ge => a >= b,
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
    }
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

/// Run one template against the current frame. `true` = the loop
/// completed and the written registers were boxed back (jump to
/// `desc.exit`); `false` = deopt (replay `desc.orig` interpreted).
/// Telemetry mirrors the kernel tier: a span per dispatch, native
/// iterations from the induction register's before/after delta, and
/// the machine-readable bail reason on deopt.
pub(crate) fn run(desc: &TemplateDesc, pc: u32, regs: &mut [Value], pins: &Pins) -> bool {
    if !zomp::trace::active() {
        return run_inner(&desc.prog, regs, pins).is_ok();
    }
    let t0 = zomp::trace::kernel_begin_ts();
    let ind = desc.prog.ind as usize;
    let before = match regs[ind] {
        Value::Int(v) => v,
        _ => 0,
    };
    let r = run_inner(&desc.prog, regs, pins);
    let after = match regs[ind] {
        Value::Int(v) => v,
        _ => before,
    };
    let iters = after.wrapping_sub(before).max(0) as u64;
    let label = if desc.label.is_empty() {
        "template"
    } else {
        desc.label
    };
    zomp::trace::kernel_end(label, pc, iters, r.err(), t0);
    r.is_ok()
}

fn run_inner(prog: &TProg, regs: &mut [Value], pins: &Pins) -> Result<(), Bail> {
    for v in &prog.variants {
        match run_variant(v, regs, pins) {
            VOut::Skip => continue,
            VOut::Done => return Ok(()),
            VOut::Bail(b) => return Err(b),
        }
    }
    Err(BAIL_TYPE)
}

enum VOut {
    /// A bind type-check failed before any side effect; try the next
    /// variant (and ultimately the interpreter).
    Skip,
    Done,
    Bail(Bail),
}

fn run_variant(v: &TVariant, regs: &mut [Value], pins: &Pins) -> VOut {
    // Resolve binds first: scalars into local slot files, arrays into
    // owning Arcs (cells lock once, exactly like the kernels — a racy
    // concurrent rebind of the cell itself is unspecified either way).
    let mut ints = [0i64; NSLOT];
    let mut flts = [0f64; NSLOT];
    let mut arci: [Option<Arc<ArrI>>; NARR] = Default::default();
    let mut arcf: [Option<Arc<ArrF>>; NARR] = Default::default();
    for b in &v.binds {
        match *b {
            Bind::Int { reg, slot } => match regs[reg as usize] {
                Value::Int(x) => ints[slot as usize] = x,
                _ => return VOut::Skip,
            },
            Bind::Flt { reg, slot } => match regs[reg as usize] {
                Value::Float(x) => flts[slot as usize] = x,
                _ => return VOut::Skip,
            },
            Bind::ArrI { reg, slot } => match &regs[reg as usize] {
                Value::ArrI(a) => arci[slot as usize] = Some(a.clone()),
                _ => return VOut::Skip,
            },
            Bind::ArrF { reg, slot } => match &regs[reg as usize] {
                Value::ArrF(a) => arcf[slot as usize] = Some(a.clone()),
                _ => return VOut::Skip,
            },
            Bind::CellI { reg, slot } => match pins.cell(&regs[reg as usize], reg) {
                Some(c) => match &*c.read() {
                    Value::ArrI(a) => arci[slot as usize] = Some(a.clone()),
                    _ => return VOut::Skip,
                },
                None => return VOut::Skip,
            },
            Bind::CellF { reg, slot } => match pins.cell(&regs[reg as usize], reg) {
                Some(c) => match &*c.read() {
                    Value::ArrF(a) => arcf[slot as usize] = Some(a.clone()),
                    _ => return VOut::Skip,
                },
                None => return VOut::Skip,
            },
        }
    }
    let mut fr = TFrame {
        ints,
        flts,
        ai: [&[]; NARR],
        af: [&[]; NARR],
    };
    for (k, a) in arci.iter().enumerate() {
        if let Some(a) = a {
            fr.ai[k] = a.cells();
        }
    }
    for (k, a) in arcf.iter().enumerate() {
        if let Some(a) = a {
            fr.af[k] = a.cells();
        }
    }
    // Hoisted loop-invariant constant loads (infallible by
    // construction — `Const` ops cannot bail).
    for op in &v.prelude {
        let _ = (op.f)(&mut fr, op);
    }
    // Seqlock write fences on every array the template stores into,
    // held open for the whole run (see `ArrI::range_hint`).
    let mut bump_i = [false; NARR];
    let mut bump_f = [false; NARR];
    for &s in &v.wf_i {
        bump_i[s as usize] = arci[s as usize].as_ref().unwrap().write_fence_begin();
    }
    for &s in &v.wf_f {
        bump_f[s as usize] = arcf[s as usize].as_ref().unwrap().write_fence_begin();
    }
    let r = exec(v, &mut fr);
    for &s in &v.wf_i {
        arci[s as usize]
            .as_ref()
            .unwrap()
            .write_fence_end(bump_i[s as usize]);
    }
    for &s in &v.wf_f {
        arcf[s as usize]
            .as_ref()
            .unwrap()
            .write_fence_end(bump_f[s as usize]);
    }
    match r {
        Ok(ran_body) => {
            for o in &v.outs {
                box_out(o, &fr, regs);
            }
            if ran_body {
                for o in &v.outs_body {
                    box_out(o, &fr, regs);
                }
            }
            VOut::Done
        }
        Err(b) => {
            for o in &v.bail_outs {
                box_out(o, &fr, regs);
            }
            VOut::Bail(b)
        }
    }
}

fn box_out(o: &Out, fr: &TFrame, regs: &mut [Value]) {
    match *o {
        Out::Int { reg, slot } => regs[reg as usize] = Value::Int(fr.ints[slot as usize]),
        Out::Flt { reg, slot } => regs[reg as usize] = Value::Float(fr.flts[slot as usize]),
    }
}

/// Execute the variant's loop. `Ok(ran_body)` on normal exit (whether
/// at least one full guarded-body execution happened); `Err` after
/// restoring the iteration snapshot on a mid-iteration failure.
fn exec(v: &TVariant, fr: &mut TFrame) -> Result<bool, Bail> {
    let mut si = [0i64; NSLOT];
    let mut sf = [0f64; NSLOT];
    let snap = |fr: &TFrame, si: &mut [i64; NSLOT], sf: &mut [f64; NSLOT]| {
        for &(flt, s) in &v.snap {
            if flt {
                sf[s as usize] = fr.flts[s as usize];
            } else {
                si[s as usize] = fr.ints[s as usize];
            }
        }
    };
    let restore = |fr: &mut TFrame, si: &[i64; NSLOT], sf: &[f64; NSLOT]| {
        for &(flt, s) in &v.snap {
            if flt {
                fr.flts[s as usize] = sf[s as usize];
            } else {
                fr.ints[s as usize] = si[s as usize];
            }
        }
    };
    match v.shape {
        Shape::DoWhile {
            ind,
            step,
            lim,
            cmp,
        } => {
            let (ind, lim) = (ind as usize, lim as usize);
            loop {
                if v.fallible {
                    snap(fr, &mut si, &mut sf);
                }
                for op in &v.ops {
                    if let Err(b) = (op.f)(fr, op) {
                        restore(fr, &si, &sf);
                        return Err(b);
                    }
                }
                let next = fr.ints[ind].wrapping_add(step);
                fr.ints[ind] = next;
                if !cmp_i(cmp, next, fr.ints[lim]) {
                    return Ok(true);
                }
            }
        }
        Shape::HeadGuard {
            ind,
            step,
            nhead,
            ga,
            gb,
            gflt,
            cmp,
        } => {
            let (ind, nhead) = (ind as usize, nhead as usize);
            let (ga, gb) = (ga as usize, gb as usize);
            let mut ran_body = false;
            loop {
                if v.fallible {
                    snap(fr, &mut si, &mut sf);
                }
                for op in &v.ops[..nhead] {
                    if let Err(b) = (op.f)(fr, op) {
                        restore(fr, &si, &sf);
                        return Err(b);
                    }
                }
                let taken = if gflt {
                    cmp_f(cmp, fr.flts[ga], fr.flts[gb])
                } else {
                    cmp_i(cmp, fr.ints[ga], fr.ints[gb])
                };
                if !taken {
                    return Ok(ran_body);
                }
                for op in &v.ops[nhead..] {
                    if let Err(b) = (op.f)(fr, op) {
                        restore(fr, &si, &sf);
                        return Err(b);
                    }
                }
                fr.ints[ind] = fr.ints[ind].wrapping_add(step);
                ran_body = true;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Matching: decode + type inference
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum K {
    Unk,
    Int,
    Flt,
}

/// Union-find over type variables with a kind per class.
struct Uf {
    parent: Vec<u32>,
    kind: Vec<K>,
}

impl Uf {
    fn new() -> Uf {
        Uf {
            parent: Vec::new(),
            kind: Vec::new(),
        }
    }
    fn fresh(&mut self) -> u32 {
        let v = self.parent.len() as u32;
        self.parent.push(v);
        self.kind.push(K::Unk);
        v
    }
    fn find(&mut self, mut v: u32) -> u32 {
        while self.parent[v as usize] != v {
            let p = self.parent[v as usize];
            self.parent[v as usize] = self.parent[p as usize];
            v = p;
        }
        v
    }
    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return true;
        }
        let merged = match (self.kind[ra as usize], self.kind[rb as usize]) {
            (K::Unk, k) | (k, K::Unk) => k,
            (x, y) if x == y => x,
            _ => return false,
        };
        self.parent[ra as usize] = rb;
        self.kind[rb as usize] = merged;
        true
    }
    fn set(&mut self, v: u32, k: K) -> bool {
        let r = self.find(v);
        match self.kind[r as usize] {
            K::Unk => {
                self.kind[r as usize] = k;
                true
            }
            x => x == k,
        }
    }
    fn kind(&mut self, v: u32) -> K {
        let r = self.find(v);
        self.kind[r as usize]
    }
}

/// Typed pool immediates.
#[derive(Clone, Copy)]
enum KVal {
    I(i64),
    F(f64),
}

impl KVal {
    fn k(self) -> K {
        match self {
            KVal::I(_) => K::Int,
            KVal::F(_) => K::Flt,
        }
    }
}

/// Scalar operand key: real registers are their register number,
/// decomposition scratch temporaries start at `SCRATCH0` (never bound
/// or written back; always defined before use by construction).
const SCRATCH0: u32 = 1 << 16;

/// Proto-op: a decoded, decomposed body instruction with type
/// constraints applied but kinds not yet resolved.
#[derive(Clone, Copy)]
enum P {
    Mov {
        d: u32,
        s: u32,
    },
    Const {
        d: u32,
        v: KVal,
    },
    Bin {
        op: ArithOp,
        d: u32,
        a: u32,
        b: u32,
    },
    /// `left`: the immediate is the left operand (`ArithKL`).
    BinK {
        op: ArithOp,
        d: u32,
        a: u32,
        v: KVal,
        left: bool,
    },
    Ld {
        d: u32,
        arr: Reg,
        idx: u32,
        off: i32,
    },
    St {
        arr: Reg,
        idx: u32,
        s: u32,
    },
}

impl P {
    fn reads(&self, mut f: impl FnMut(u32)) {
        match *self {
            P::Mov { s, .. } => f(s),
            P::Const { .. } => {}
            P::Bin { a, b, .. } => {
                f(a);
                f(b);
            }
            P::BinK { a, .. } => f(a),
            P::Ld { idx, .. } => f(idx),
            P::St { idx, s, .. } => {
                f(idx);
                f(s);
            }
        }
    }
    fn write(&self) -> Option<u32> {
        match *self {
            P::Mov { d, .. }
            | P::Const { d, .. }
            | P::Bin { d, .. }
            | P::BinK { d, .. }
            | P::Ld { d, .. } => Some(d),
            P::St { .. } => None,
        }
    }
}

/// Array operand info: cell-ness (bound through a `Ptr` slot or held
/// directly), the element kind variable, and whether the template
/// stores through it.
struct AInfo {
    cell: bool,
    elem: u32,
    written: bool,
}

/// The in-progress decode of one loop.
struct Bld<'f> {
    f: &'f CompiledFn,
    uf: Uf,
    svar: HashMap<u32, u32>,
    sorder: Vec<u32>,
    scalar_regs: HashSet<Reg>,
    arrs: HashMap<Reg, AInfo>,
    aorder: Vec<Reg>,
    protos: Vec<P>,
    nscratch: u32,
}

impl<'f> Bld<'f> {
    fn new(f: &'f CompiledFn) -> Bld<'f> {
        Bld {
            f,
            uf: Uf::new(),
            svar: HashMap::new(),
            sorder: Vec::new(),
            scalar_regs: HashSet::new(),
            arrs: HashMap::new(),
            aorder: Vec::new(),
            protos: Vec::new(),
            nscratch: 0,
        }
    }

    /// Register `r` as a scalar operand; `None` if it was already
    /// used as an array operand (a register serving both roles is a
    /// shape the template cannot bind).
    fn sv(&mut self, r: Reg) -> Option<u32> {
        if self.arrs.contains_key(&r) {
            return None;
        }
        self.scalar_regs.insert(r);
        let key = r as u32;
        if !self.svar.contains_key(&key) {
            let v = self.uf.fresh();
            self.svar.insert(key, v);
            self.sorder.push(key);
        }
        Some(key)
    }

    fn scratch(&mut self) -> u32 {
        let key = SCRATCH0 + self.nscratch;
        self.nscratch += 1;
        let v = self.uf.fresh();
        self.svar.insert(key, v);
        self.sorder.push(key);
        key
    }

    /// Register `r` as an array operand with the given cell-ness;
    /// returns its element kind variable.
    fn av(&mut self, r: Reg, cell: bool) -> Option<u32> {
        if self.scalar_regs.contains(&r) {
            return None;
        }
        if let Some(info) = self.arrs.get(&r) {
            if info.cell != cell {
                return None;
            }
            return Some(info.elem);
        }
        let elem = self.uf.fresh();
        self.arrs.insert(
            r,
            AInfo {
                cell,
                elem,
                written: false,
            },
        );
        self.aorder.push(r);
        Some(elem)
    }

    fn var(&self, key: u32) -> u32 {
        self.svar[&key]
    }

    fn uni(&mut self, a: u32, b: u32) -> bool {
        let (va, vb) = (self.var(a), self.var(b));
        self.uf.union(va, vb)
    }
    fn uni_v(&mut self, a: u32, v: u32) -> bool {
        let va = self.var(a);
        self.uf.union(va, v)
    }
    fn setk(&mut self, key: u32, k: K) -> bool {
        let v = self.var(key);
        self.uf.set(v, k)
    }

    fn kc(&self, k: u16) -> Option<KVal> {
        match self.f.consts.get(k as usize)? {
            Value::Int(v) => Some(KVal::I(*v)),
            Value::Float(v) => Some(KVal::F(*v)),
            _ => None,
        }
    }

    /// Decode one body instruction into proto-ops with constraints.
    /// `false` = unsupported instruction or type conflict: the loop
    /// stays interpreted.
    fn decode(&mut self, insn: &Insn) -> bool {
        macro_rules! t {
            ($e:expr) => {
                match $e {
                    Some(v) => v,
                    None => return false,
                }
            };
        }
        macro_rules! c {
            ($e:expr) => {
                if !$e {
                    return false;
                }
            };
        }
        match *insn {
            Insn::Const { dst, k } => {
                let v = t!(self.kc(k));
                let d = t!(self.sv(dst));
                c!(self.setk(d, v.k()));
                self.protos.push(P::Const { d, v });
            }
            Insn::Move { dst, src } => {
                let d = t!(self.sv(dst));
                let s = t!(self.sv(src));
                c!(self.uni(d, s));
                self.protos.push(P::Mov { d, s });
            }
            Insn::Arith { op, dst, a, b }
            | Insn::ArithII { op, dst, a, b }
            | Insn::ArithFF { op, dst, a, b } => {
                let d = t!(self.sv(dst));
                let ra = t!(self.sv(a));
                let rb = t!(self.sv(b));
                c!(self.uni(d, ra));
                c!(self.uni(d, rb));
                match insn {
                    Insn::ArithII { .. } => c!(self.setk(d, K::Int)),
                    Insn::ArithFF { .. } => c!(self.setk(d, K::Flt)),
                    _ => {}
                }
                self.protos.push(P::Bin {
                    op,
                    d,
                    a: ra,
                    b: rb,
                });
            }
            Insn::ArithK { op, dst, a, k } => {
                let v = t!(self.kc(k));
                let d = t!(self.sv(dst));
                let ra = t!(self.sv(a));
                c!(self.uni(d, ra));
                c!(self.setk(d, v.k()));
                self.protos.push(P::BinK {
                    op,
                    d,
                    a: ra,
                    v,
                    left: false,
                });
            }
            Insn::ArithKL { op, dst, k, b } => {
                let v = t!(self.kc(k));
                let d = t!(self.sv(dst));
                let rb = t!(self.sv(b));
                c!(self.uni(d, rb));
                c!(self.setk(d, v.k()));
                self.protos.push(P::BinK {
                    op,
                    d,
                    a: rb,
                    v,
                    left: true,
                });
            }
            Insn::Index { dst, arr, idx }
            | Insn::IndexF { dst, arr, idx }
            | Insn::IndexI { dst, arr, idx } => {
                let elem = t!(self.av(arr, false));
                let d = t!(self.sv(dst));
                let i = t!(self.sv(idx));
                c!(self.setk(i, K::Int));
                c!(self.uni_v(d, elem));
                match insn {
                    Insn::IndexF { .. } => c!(self.setk(d, K::Flt)),
                    Insn::IndexI { .. } => c!(self.setk(d, K::Int)),
                    _ => {}
                }
                self.protos.push(P::Ld {
                    d,
                    arr,
                    idx: i,
                    off: 0,
                });
            }
            Insn::IndexOff { dst, arr, idx, off } => {
                let elem = t!(self.av(arr, false));
                let d = t!(self.sv(dst));
                let i = t!(self.sv(idx));
                c!(self.setk(i, K::Int));
                c!(self.uni_v(d, elem));
                self.protos.push(P::Ld {
                    d,
                    arr,
                    idx: i,
                    off,
                });
            }
            Insn::DerefIndex { dst, cell, idx } => {
                let elem = t!(self.av(cell, true));
                let d = t!(self.sv(dst));
                let i = t!(self.sv(idx));
                c!(self.setk(i, K::Int));
                c!(self.uni_v(d, elem));
                self.protos.push(P::Ld {
                    d,
                    arr: cell,
                    idx: i,
                    off: 0,
                });
            }
            Insn::DerefIndexOff {
                dst,
                cell,
                idx,
                off,
            } => {
                let elem = t!(self.av(cell, true));
                let d = t!(self.sv(dst));
                let i = t!(self.sv(idx));
                c!(self.setk(i, K::Int));
                c!(self.uni_v(d, elem));
                self.protos.push(P::Ld {
                    d,
                    arr: cell,
                    idx: i,
                    off,
                });
            }
            Insn::IndexSet { arr, idx, src }
            | Insn::IndexSetF { arr, idx, src }
            | Insn::IndexSetI { arr, idx, src } => {
                let elem = t!(self.av(arr, false));
                let i = t!(self.sv(idx));
                let s = t!(self.sv(src));
                c!(self.setk(i, K::Int));
                c!(self.uni_v(s, elem));
                match insn {
                    Insn::IndexSetF { .. } => c!(self.setk(s, K::Flt)),
                    Insn::IndexSetI { .. } => c!(self.setk(s, K::Int)),
                    _ => {}
                }
                self.arrs.get_mut(&arr).unwrap().written = true;
                self.protos.push(P::St { arr, idx: i, s });
            }
            Insn::DerefIndexSet { cell, idx, src } => {
                let elem = t!(self.av(cell, true));
                let i = t!(self.sv(idx));
                let s = t!(self.sv(src));
                c!(self.setk(i, K::Int));
                c!(self.uni_v(s, elem));
                self.arrs.get_mut(&cell).unwrap().written = true;
                self.protos.push(P::St {
                    arr: cell,
                    idx: i,
                    s,
                });
            }
            Insn::IndexArith {
                op,
                dst,
                arr,
                idx,
                rhs,
            } => {
                // dst = arr[idx] op rhs, unfused Index-then-Arith.
                let elem = t!(self.av(arr, false));
                let d = t!(self.sv(dst));
                let i = t!(self.sv(idx));
                let r = t!(self.sv(rhs));
                c!(self.setk(i, K::Int));
                let tmp = self.scratch();
                c!(self.uni_v(tmp, elem));
                c!(self.uni(d, tmp));
                c!(self.uni(d, r));
                self.protos.push(P::Ld {
                    d: tmp,
                    arr,
                    idx: i,
                    off: 0,
                });
                self.protos.push(P::Bin {
                    op,
                    d,
                    a: tmp,
                    b: r,
                });
            }
            Insn::ArithStore { op, arr, idx, a, b } => {
                // arr[idx] = a op b, arith first (unfused error order).
                let elem = t!(self.av(arr, false));
                let ra = t!(self.sv(a));
                let rb = t!(self.sv(b));
                let i = t!(self.sv(idx));
                c!(self.setk(i, K::Int));
                let tmp = self.scratch();
                c!(self.uni(ra, rb));
                c!(self.uni_v(ra, self.svar[&tmp]));
                c!(self.uni_v(tmp, elem));
                self.protos.push(P::Bin {
                    op,
                    d: tmp,
                    a: ra,
                    b: rb,
                });
                self.arrs.get_mut(&arr).unwrap().written = true;
                self.protos.push(P::St {
                    arr,
                    idx: i,
                    s: tmp,
                });
            }
            Insn::IncElemK { op, arr, idx, k } => {
                // arr[idx] = arr[idx] op k, load → arith → store.
                let v = t!(self.kc(k));
                let elem = t!(self.av(arr, false));
                let i = t!(self.sv(idx));
                c!(self.setk(i, K::Int));
                let tmp = self.scratch();
                c!(self.uni_v(tmp, elem));
                c!(self.setk(tmp, v.k()));
                self.protos.push(P::Ld {
                    d: tmp,
                    arr,
                    idx: i,
                    off: 0,
                });
                self.protos.push(P::BinK {
                    op,
                    d: tmp,
                    a: tmp,
                    v,
                    left: false,
                });
                self.arrs.get_mut(&arr).unwrap().written = true;
                self.protos.push(P::St {
                    arr,
                    idx: i,
                    s: tmp,
                });
            }
            Insn::DerefIncElemK { op, cell, idx, k } => {
                let v = t!(self.kc(k));
                let elem = t!(self.av(cell, true));
                let i = t!(self.sv(idx));
                c!(self.setk(i, K::Int));
                let tmp = self.scratch();
                c!(self.uni_v(tmp, elem));
                c!(self.setk(tmp, v.k()));
                self.protos.push(P::Ld {
                    d: tmp,
                    arr: cell,
                    idx: i,
                    off: 0,
                });
                self.protos.push(P::BinK {
                    op,
                    d: tmp,
                    a: tmp,
                    v,
                    left: false,
                });
                self.arrs.get_mut(&cell).unwrap().written = true;
                self.protos.push(P::St {
                    arr: cell,
                    idx: i,
                    s: tmp,
                });
            }
            Insn::FmaIdx { dst, x, arr, idx } => {
                // dst = dst + x * arr[idx]; separate mul-then-add
                // keeps results bit-identical to the unfused pair.
                let elem = t!(self.av(arr, false));
                c!(self.fma_tail(dst, x, elem, arr, false, idx));
            }
            Insn::DerefFmaIdx { dst, x, cell, idx } => {
                let elem = t!(self.av(cell, true));
                c!(self.fma_tail(dst, x, elem, cell, true, idx));
            }
            _ => return false,
        }
        true
    }

    /// Shared tail for the fma forms: `tmp = arr-ish[idx]; tmp2 = x *
    /// tmp; dst = dst + tmp2` (`cell` only affects how `arr` was
    /// registered, which already happened).
    fn fma_tail(&mut self, dst: Reg, x: Reg, elem: u32, arr: Reg, _cell: bool, idx: Reg) -> bool {
        let Some(d) = self.sv(dst) else { return false };
        let Some(rx) = self.sv(x) else { return false };
        let Some(i) = self.sv(idx) else { return false };
        if !self.setk(i, K::Int) {
            return false;
        }
        let tmp = self.scratch();
        let tmp2 = self.scratch();
        if !self.uni_v(tmp, elem)
            || !self.uni(tmp2, rx)
            || !self.uni(tmp2, tmp)
            || !self.uni(d, tmp2)
        {
            return false;
        }
        self.protos.push(P::Ld {
            d: tmp,
            arr,
            idx: i,
            off: 0,
        });
        self.protos.push(P::Bin {
            op: ArithOp::Mul,
            d: tmp2,
            a: rx,
            b: tmp,
        });
        self.protos.push(P::Bin {
            op: ArithOp::Add,
            d,
            a: d,
            b: tmp2,
        });
        true
    }
}

/// Loop control metadata from the structural match, pre-slot-assignment.
enum FormMeta {
    A {
        var: Reg,
        step: i64,
        lim: Reg,
        cmp: CmpOp,
    },
    B {
        var: Reg,
        step: i64,
        nhead: usize,
        ga: Reg,
        gb: Reg,
        cmp: CmpOp,
    },
}

struct MatchOut {
    form: FormMeta,
    ninsns: usize,
}

/// Match a template loop headed at `pc`. Tried at every pc not
/// covered by an installed kernel; `None` leaves the loop alone.
pub(crate) fn match_at(f: &CompiledFn, pc: usize) -> Option<(TProg, u32)> {
    if let Some(r) = match_form_a(f, pc) {
        return Some(r);
    }
    match_form_b(f, pc)
}

/// Form A: `pc: body...; IncCmpJump -> pc`.
fn match_form_a(f: &CompiledFn, pc: usize) -> Option<(TProg, u32)> {
    let n = f.code.len();
    let mut b = Bld::new(f);
    let mut j = pc;
    loop {
        if j >= n || j - pc >= MAX_INSNS {
            return None;
        }
        if let Insn::IncCmpJump {
            var,
            step,
            limit,
            op,
            to,
        } = f.code[j]
        {
            if to as usize != pc {
                return None;
            }
            let exit = j + 1;
            if exit >= n {
                return None;
            }
            let kv = b.sv(var)?;
            if !b.setk(kv, K::Int) {
                return None;
            }
            let kl = b.sv(limit)?;
            if !b.setk(kl, K::Int) {
                return None;
            }
            let m = MatchOut {
                form: FormMeta::A {
                    var,
                    step: step as i64,
                    lim: limit,
                    cmp: op,
                },
                ninsns: j + 1 - pc,
            };
            let prog = emit(b, m)?;
            return Some((prog, exit as u32));
        }
        if !b.decode(&f.code[j]) {
            return None;
        }
        j += 1;
    }
}

/// Form B: `pc: head...; CmpJumpFalse -> exit; body...; IncJump -> pc`.
fn match_form_b(f: &CompiledFn, pc: usize) -> Option<(TProg, u32)> {
    let n = f.code.len();
    let mut b = Bld::new(f);
    let mut j = pc;
    let (ga, gb, gcmp, exit) = loop {
        if j >= n || j - pc >= MAX_INSNS {
            return None;
        }
        match f.code[j] {
            Insn::CmpJumpFalse { op, a, b: rb, to } => break (a, rb, op, to),
            Insn::CmpJumpFalseII { op, a, b: rb, to } => {
                let ka = b.sv(a)?;
                if !b.setk(ka, K::Int) {
                    return None;
                }
                let kb = b.sv(rb)?;
                if !b.setk(kb, K::Int) {
                    return None;
                }
                break (a, rb, op, to);
            }
            Insn::CmpJumpFalseFF { op, a, b: rb, to } => {
                let ka = b.sv(a)?;
                if !b.setk(ka, K::Flt) {
                    return None;
                }
                let kb = b.sv(rb)?;
                if !b.setk(kb, K::Flt) {
                    return None;
                }
                break (a, rb, op, to);
            }
            ref insn => {
                if !b.decode(insn) {
                    return None;
                }
                j += 1;
            }
        }
    };
    let ka = b.sv(ga)?;
    let kb = b.sv(gb)?;
    if !b.uni(ka, kb) {
        return None;
    }
    let nhead = b.protos.len();
    j += 1;
    loop {
        if j >= n || j - pc >= MAX_INSNS {
            return None;
        }
        if let Insn::IncJump { var, step, to } = f.code[j] {
            if to as usize != pc {
                return None;
            }
            // The guard must jump forward past the back-edge (the
            // loop exit); anything else is not a single-block loop.
            if exit as usize <= j || exit as usize >= n {
                return None;
            }
            let kv = b.sv(var)?;
            if !b.setk(kv, K::Int) {
                return None;
            }
            let m = MatchOut {
                form: FormMeta::B {
                    var,
                    step: step as i64,
                    nhead,
                    ga,
                    gb,
                    cmp: gcmp,
                },
                ninsns: j + 1 - pc,
            };
            let prog = emit(b, m)?;
            return Some((prog, exit));
        }
        if !b.decode(&f.code[j]) {
            return None;
        }
        j += 1;
    }
}

// ---------------------------------------------------------------------------
// Emission: kinds → slots → ops
// ---------------------------------------------------------------------------

fn emit(mut b: Bld, m: MatchOut) -> Option<TProg> {
    // Any unresolved kind group? Then emit both an all-Int and an
    // all-Flt resolution and let the runtime bind pick (a loop mixing
    // two *different* unknown groups fails both binds and stays
    // interpreted — acceptable, and not a shape the compiler emits).
    let mut has_unk = false;
    for &key in &b.sorder {
        let v = b.svar[&key];
        if b.uf.kind(v) == K::Unk {
            has_unk = true;
        }
    }
    for r in &b.aorder {
        let v = b.arrs[r].elem;
        if b.uf.kind(v) == K::Unk {
            has_unk = true;
        }
    }
    let resolutions: &[K] = if has_unk {
        &[K::Int, K::Flt]
    } else {
        &[K::Int]
    };
    let mut variants = Vec::new();
    for &unk in resolutions {
        if let Some(v) = emit_one(&mut b, &m, unk) {
            variants.push(v);
        }
    }
    if variants.is_empty() {
        return None;
    }
    let ind = match m.form {
        FormMeta::A { var, .. } | FormMeta::B { var, .. } => var,
    };
    Some(TProg {
        variants,
        ind,
        ninsns: m.ninsns,
    })
}

fn emit_one(b: &mut Bld, m: &MatchOut, unk: K) -> Option<TVariant> {
    // Kind per scalar key / array under this resolution.
    let mut skind: HashMap<u32, K> = HashMap::new();
    for &key in &b.sorder.clone() {
        let v = b.svar[&key];
        let k = match b.uf.kind(v) {
            K::Unk => unk,
            k => k,
        };
        skind.insert(key, k);
    }
    let mut akind: HashMap<Reg, K> = HashMap::new();
    for r in b.aorder.clone() {
        let v = b.arrs[&r].elem;
        let k = match b.uf.kind(v) {
            K::Unk => unk,
            k => k,
        };
        akind.insert(r, k);
    }
    // Slot assignment, in first-use order.
    let mut slot: HashMap<u32, u16> = HashMap::new();
    let (mut ni, mut nf) = (0u16, 0u16);
    for &key in &b.sorder {
        let s = match skind[&key] {
            K::Int => {
                ni += 1;
                ni - 1
            }
            _ => {
                nf += 1;
                nf - 1
            }
        };
        slot.insert(key, s);
    }
    if ni as usize > NSLOT || nf as usize > NSLOT {
        return None;
    }
    let mut aslot: HashMap<Reg, u16> = HashMap::new();
    let (mut nai, mut naf) = (0u16, 0u16);
    for &r in &b.aorder {
        let s = match akind[&r] {
            K::Int => {
                nai += 1;
                nai - 1
            }
            _ => {
                naf += 1;
                naf - 1
            }
        };
        aslot.insert(r, s);
    }
    if nai as usize > NARR || naf as usize > NARR {
        return None;
    }
    // First-iteration read-before-write analysis over the execution
    // order decides which registers must be bound at entry.
    let mut written: HashSet<u32> = HashSet::new();
    let mut bound: HashSet<u32> = HashSet::new();
    let mut head_written: HashSet<u32> = HashSet::new();
    {
        let read = |key: u32, written: &HashSet<u32>, bound: &mut HashSet<u32>| {
            if key < SCRATCH0 && !written.contains(&key) {
                bound.insert(key);
            }
        };
        let (nhead, tail_reads): (usize, Vec<u32>) = match m.form {
            FormMeta::A { var, lim, .. } => (b.protos.len(), vec![var as u32, lim as u32]),
            FormMeta::B {
                var, nhead, ga, gb, ..
            } => {
                // Guard reads run between head and body.
                let _ = (ga, gb);
                (nhead, vec![var as u32])
            }
        };
        for (i, p) in b.protos.iter().enumerate() {
            if i == nhead {
                if let FormMeta::B { ga, gb, .. } = m.form {
                    read(ga as u32, &written, &mut bound);
                    read(gb as u32, &written, &mut bound);
                }
            }
            p.reads(|r| read(r, &written, &mut bound));
            if let Some(d) = p.write() {
                written.insert(d);
                if i < nhead {
                    head_written.insert(d);
                }
            }
        }
        if b.protos.len() == nhead {
            if let FormMeta::B { ga, gb, .. } = m.form {
                read(ga as u32, &written, &mut bound);
                read(gb as u32, &written, &mut bound);
            }
        }
        for r in tail_reads {
            read(r, &written, &mut bound);
        }
        let var = match m.form {
            FormMeta::A { var, .. } | FormMeta::B { var, .. } => var,
        };
        written.insert(var as u32);
        if matches!(m.form, FormMeta::A { .. }) {
            // A do-while always completes at least one full body
            // execution before a normal exit.
            head_written = written.iter().copied().collect();
        }
    }
    // Ops. Loop-invariant constants — a `Const` whose slot no other op
    // writes and whose pre-loop value is never read (it is not in
    // `bound`) — hoist into a once-per-run prelude: they reload the
    // same value every iteration, and the slot still holds it for the
    // exit write-back. Everything else stays in iteration order.
    let mut write_count: HashMap<u32, usize> = HashMap::new();
    for p in &b.protos {
        if let Some(d) = p.write() {
            *write_count.entry(d).or_default() += 1;
        }
    }
    let nhead_protos = match m.form {
        FormMeta::B { nhead, .. } => nhead,
        FormMeta::A { .. } => b.protos.len(),
    };
    let mut ops = Vec::with_capacity(b.protos.len());
    let mut prelude = Vec::new();
    let mut nhead_hoisted = 0usize;
    let mut nhead_fused = 0usize;
    let mut fallible = false;
    let mut seen_store = false;
    let mut skip = false;
    for (i, p) in b.protos.iter().enumerate() {
        if skip {
            skip = false;
            continue;
        }
        // Multiply + dependent add fuse into one dispatch — but never
        // across the Form B head/guard boundary, where the guard
        // evaluation runs between the two halves.
        if i + 1 != nhead_protos {
            if let Some(fop) = b
                .protos
                .get(i + 1)
                .and_then(|next| fuse(p, next, &skind, &slot))
            {
                ops.push(fop);
                skip = true;
                if i + 1 < nhead_protos {
                    nhead_fused += 1;
                }
                continue;
            }
        }
        let (op, op_fallible, is_store) = lower(p, &skind, &akind, &slot, &aslot)?;
        let hoist = matches!(p, P::Const { .. })
            && p.write()
                .is_some_and(|d| write_count[&d] == 1 && !bound.contains(&d));
        if hoist {
            prelude.push(op);
            if i < nhead_protos {
                nhead_hoisted += 1;
            }
            continue;
        }
        // Replay soundness: no fallible op may execute after the
        // first store of an iteration (see module docs). A store's
        // own bounds check fires before it writes, so the first
        // store itself is fine.
        if seen_store && op_fallible {
            return None;
        }
        seen_store |= is_store;
        fallible |= op_fallible;
        ops.push(op);
    }
    // Binds: bound scalars plus every array.
    let mut binds = Vec::new();
    for &key in &b.sorder {
        if key >= SCRATCH0 || !bound.contains(&key) {
            continue;
        }
        let reg = key as Reg;
        let s = slot[&key];
        binds.push(match skind[&key] {
            K::Int => Bind::Int { reg, slot: s },
            _ => Bind::Flt { reg, slot: s },
        });
    }
    for &r in &b.aorder {
        let s = aslot[&r];
        let cell = b.arrs[&r].cell;
        binds.push(match (akind[&r], cell) {
            (K::Int, false) => Bind::ArrI { reg: r, slot: s },
            (K::Int, true) => Bind::CellI { reg: r, slot: s },
            (_, false) => Bind::ArrF { reg: r, slot: s },
            (_, true) => Bind::CellF { reg: r, slot: s },
        });
    }
    // Write-backs.
    let mut outs = Vec::new();
    let mut outs_body = Vec::new();
    let mut bail_outs = Vec::new();
    let mut snap = Vec::new();
    for &key in &b.sorder {
        if key >= SCRATCH0 || !written.contains(&key) {
            continue;
        }
        let reg = key as Reg;
        let s = slot[&key];
        let flt = skind[&key] != K::Int;
        let out = if flt {
            Out::Flt { reg, slot: s }
        } else {
            Out::Int { reg, slot: s }
        };
        if bound.contains(&key) || head_written.contains(&key) {
            outs.push(out);
        } else {
            outs_body.push(out);
        }
        if bound.contains(&key) {
            bail_outs.push(out);
            snap.push((flt, s));
        }
    }
    // Write fences per stored-into array slot.
    let mut wf_i = Vec::new();
    let mut wf_f = Vec::new();
    for &r in &b.aorder {
        if !b.arrs[&r].written {
            continue;
        }
        match akind[&r] {
            K::Int => wf_i.push(aslot[&r]),
            _ => wf_f.push(aslot[&r]),
        }
    }
    // Shape, with control operands resolved to slots.
    let shape = match m.form {
        FormMeta::A {
            var,
            step,
            lim,
            cmp,
        } => Shape::DoWhile {
            ind: slot[&(var as u32)],
            step,
            lim: slot[&(lim as u32)],
            cmp,
        },
        FormMeta::B {
            var,
            step,
            nhead,
            ga,
            gb,
            cmp,
        } => {
            // nhead counts protos, which map 1:1 onto emitted ops in
            // order (lower() emits exactly one op per proto), minus
            // the head constants hoisted into the prelude and one per
            // mul+add pair fused into a single op.
            Shape::HeadGuard {
                ind: slot[&(var as u32)],
                step,
                nhead: (nhead - nhead_hoisted - nhead_fused) as u16,
                ga: slot[&(ga as u32)],
                gb: slot[&(gb as u32)],
                gflt: skind[&(ga as u32)] != K::Int,
                cmp,
            }
        }
    };
    Some(TVariant {
        binds,
        prelude,
        ops,
        shape,
        outs,
        outs_body,
        bail_outs,
        snap,
        fallible,
        wf_i,
        wf_f,
    })
}

/// Peephole fusion: a multiply immediately followed by the add that
/// consumes its product collapses into one fused dispatch. The fused
/// op still writes the product slot, so the read-before-write
/// analysis, binds, and write-backs computed over the unfused protos
/// stay exact — only the per-iteration dispatch disappears. Both
/// halves are infallible (int mul/add wrap, they cannot bail), so the
/// replay contract is untouched, and floats round in two separate
/// steps, bit-identical to the unfused pair.
fn fuse(p1: &P, p2: &P, skind: &HashMap<u32, K>, slot: &HashMap<u32, u16>) -> Option<TOp> {
    let t = p1.write()?;
    let (d2, x, y) = match *p2 {
        P::Bin {
            op: ArithOp::Add,
            d,
            a,
            b,
        } => (d, a, b),
        _ => return None,
    };
    let other = if x == t {
        y
    } else if y == t {
        x
    } else {
        return None;
    };
    let int = skind[&t] == K::Int;
    if skind[&other] != skind[&t] || skind[&d2] != skind[&t] {
        return None;
    }
    let mut op = TOp {
        f: mov_i,
        a: slot[&d2],
        b: slot[&other],
        c: 0,
        off: slot[&t] as i64,
        ki: 0,
        kf: 0.0,
    };
    match *p1 {
        P::Bin {
            op: ArithOp::Mul,
            a,
            b,
            ..
        } => {
            op.c = slot[&a];
            op.ki = slot[&b] as i64;
            op.f = if int { fma_ii } else { fma_ff };
        }
        P::BinK {
            op: ArithOp::Mul,
            a,
            v,
            ..
        } => {
            if int != matches!(v, KVal::I(_)) {
                return None;
            }
            op.c = slot[&a];
            match v {
                KVal::I(k) => {
                    op.ki = k;
                    op.f = fmak_i;
                }
                KVal::F(k) => {
                    op.kf = k;
                    op.f = fmak_f;
                }
            }
        }
        _ => return None,
    }
    Some(op)
}

/// Lower one proto-op under a kind resolution. Returns the op, its
/// fallibility, and whether it is an array store.
fn lower(
    p: &P,
    skind: &HashMap<u32, K>,
    akind: &HashMap<Reg, K>,
    slot: &HashMap<u32, u16>,
    aslot: &HashMap<Reg, u16>,
) -> Option<(TOp, bool, bool)> {
    let mut op = TOp {
        f: mov_i,
        a: 0,
        b: 0,
        c: 0,
        off: 0,
        ki: 0,
        kf: 0.0,
    };
    let (fallible, store) = match *p {
        P::Mov { d, s } => {
            op.a = slot[&d];
            op.b = slot[&s];
            op.f = if skind[&d] == K::Int { mov_i } else { mov_f };
            (false, false)
        }
        P::Const { d, v } => {
            op.a = slot[&d];
            match v {
                KVal::I(x) => {
                    op.ki = x;
                    op.f = const_i;
                }
                KVal::F(x) => {
                    op.kf = x;
                    op.f = const_f;
                }
            }
            (false, false)
        }
        P::Bin { op: ao, d, a, b } => {
            op.a = slot[&d];
            op.b = slot[&a];
            op.c = slot[&b];
            let int = skind[&d] == K::Int;
            op.f = match (ao, int) {
                (ArithOp::Add, true) => add_ii,
                (ArithOp::Sub, true) => sub_ii,
                (ArithOp::Mul, true) => mul_ii,
                (ArithOp::Div, true) => div_ii,
                (ArithOp::Rem, true) => rem_ii,
                (ArithOp::Add, false) => add_ff,
                (ArithOp::Sub, false) => sub_ff,
                (ArithOp::Mul, false) => mul_ff,
                (ArithOp::Div, false) => div_ff,
                (ArithOp::Rem, false) => rem_ff,
            };
            (int && matches!(ao, ArithOp::Div | ArithOp::Rem), false)
        }
        P::BinK {
            op: ao,
            d,
            a,
            v,
            left,
        } => {
            op.a = slot[&d];
            op.b = slot[&a];
            let int = match v {
                KVal::I(x) => {
                    op.ki = x;
                    true
                }
                KVal::F(x) => {
                    op.kf = x;
                    false
                }
            };
            op.f = match (ao, int, left) {
                (ArithOp::Add, true, false) => addk_i,
                (ArithOp::Sub, true, false) => subk_i,
                (ArithOp::Mul, true, false) => mulk_i,
                (ArithOp::Div, true, false) => divk_i,
                (ArithOp::Rem, true, false) => remk_i,
                (ArithOp::Add, true, true) => addkl_i,
                (ArithOp::Sub, true, true) => subkl_i,
                (ArithOp::Mul, true, true) => mulkl_i,
                (ArithOp::Div, true, true) => divkl_i,
                (ArithOp::Rem, true, true) => remkl_i,
                (ArithOp::Add, false, false) => addk_f,
                (ArithOp::Sub, false, false) => subk_f,
                (ArithOp::Mul, false, false) => mulk_f,
                (ArithOp::Div, false, false) => divk_f,
                (ArithOp::Rem, false, false) => remk_f,
                (ArithOp::Add, false, true) => addkl_f,
                (ArithOp::Sub, false, true) => subkl_f,
                (ArithOp::Mul, false, true) => mulkl_f,
                (ArithOp::Div, false, true) => divkl_f,
                (ArithOp::Rem, false, true) => remkl_f,
            };
            (int && matches!(ao, ArithOp::Div | ArithOp::Rem), false)
        }
        P::Ld { d, arr, idx, off } => {
            op.a = slot[&d];
            op.b = slot[&idx];
            op.c = aslot[&arr];
            op.off = off as i64;
            op.f = if akind[&arr] == K::Int { ld_i } else { ld_f };
            (true, false)
        }
        P::St { arr, idx, s } => {
            op.a = aslot[&arr];
            op.b = slot[&idx];
            op.c = slot[&s];
            op.f = if akind[&arr] == K::Int { st_i } else { st_f };
            (true, true)
        }
    };
    Some((op, fallible, store))
}

// ---------------------------------------------------------------------------
// Installation
// ---------------------------------------------------------------------------

/// Install templates in one function. Runs inside the kernel
/// installer after the fixed kernels, skipping any pc covered by an
/// installed kernel's span. Returns whether anything was installed.
pub(crate) fn install_fn(f: &mut CompiledFn) -> bool {
    let spans: Vec<(usize, usize)> = f
        .code
        .iter()
        .enumerate()
        .filter_map(|(pc, insn)| match insn {
            Insn::BulkLoop { kidx } => Some((pc, f.kernels[*kidx as usize].exit as usize)),
            _ => None,
        })
        .collect();
    let covered = |pc: usize| spans.iter().any(|&(s, e)| pc >= s && pc < e);
    let mut installed = false;
    for pc in 0..f.code.len() {
        if f.templates.len() >= u16::MAX as usize {
            break;
        }
        if covered(pc) {
            continue;
        }
        let Some((prog, exit)) = match_at(f, pc) else {
            continue;
        };
        let tidx = f.templates.len() as u16;
        f.templates.push(TemplateDesc {
            orig: f.code[pc],
            exit,
            label: crate::kernels::loop_label(f, pc),
            prog: Arc::new(prog),
        });
        f.code[pc] = Insn::TemplateLoop { tidx };
        installed = true;
    }
    installed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(code: Vec<Insn>, consts: Vec<Value>, nregs: usize) -> CompiledFn {
        CompiledFn {
            name: "t".to_string(),
            nparams: 0,
            param_tys: Vec::new(),
            nregs,
            code,
            consts,
            omp_syms: Vec::new(),
            locals: Vec::new(),
            pre_opt: None,
            kernels: Vec::new(),
            templates: Vec::new(),
            pinned: Vec::new(),
        }
    }

    /// `do { r1 = r1 * 3 } while (++r2 < r0)` — the EP/IS setup shape.
    #[test]
    fn form_a_mulk_matches_and_runs() {
        let f = mk(
            vec![
                Insn::ArithK {
                    op: ArithOp::Mul,
                    dst: 1,
                    a: 1,
                    k: 0,
                },
                Insn::IncCmpJump {
                    var: 2,
                    step: 1,
                    limit: 0,
                    op: CmpOp::Lt,
                    to: 0,
                },
                Insn::RetVoid,
            ],
            vec![Value::Int(3)],
            3,
        );
        let (prog, exit) = match_at(&f, 0).expect("should match");
        assert_eq!(exit, 2);
        assert_eq!(prog.ninsns, 2);
        assert_eq!(prog.ind, 2);
        assert_eq!(prog.variants.len(), 1);
        let v = &prog.variants[0];
        assert!(!v.fallible);
        assert!(v.outs_body.is_empty());
        let mut regs = vec![Value::Int(5), Value::Int(1), Value::Int(0)];
        assert!(run_inner(&prog, &mut regs, &Pins::default()).is_ok());
        assert!(matches!(regs[1], Value::Int(243)));
        assert!(matches!(regs[2], Value::Int(5)));
        // Wrong accumulator type: bind must fail with no side effects.
        let mut regs = vec![Value::Int(5), Value::Float(1.0), Value::Int(0)];
        assert!(run_inner(&prog, &mut regs, &Pins::default()).is_err());
        assert!(matches!(regs[1], Value::Float(x) if x == 1.0));
    }

    /// Untyped `a[i] = b[i]` copy: one unknown kind group, so both an
    /// Int and a Flt variant install and the bind picks at runtime.
    #[test]
    fn dual_variant_copy_loop() {
        let f = mk(
            vec![
                Insn::Index {
                    dst: 3,
                    arr: 1,
                    idx: 2,
                },
                Insn::IndexSet {
                    arr: 0,
                    idx: 2,
                    src: 3,
                },
                Insn::IncCmpJump {
                    var: 2,
                    step: 1,
                    limit: 4,
                    op: CmpOp::Lt,
                    to: 0,
                },
                Insn::RetVoid,
            ],
            vec![],
            5,
        );
        let (prog, _) = match_at(&f, 0).expect("should match");
        assert_eq!(prog.variants.len(), 2);
        let src = Arc::new(ArrF::new(4));
        for i in 0..4 {
            src.set(i as i64, (i as f64) + 0.5).unwrap();
        }
        let dst = Arc::new(ArrF::new(4));
        let mut regs = vec![
            Value::ArrF(dst.clone()),
            Value::ArrF(src),
            Value::Int(0),
            Value::Undefined,
            Value::Int(4),
        ];
        assert!(run_inner(&prog, &mut regs, &Pins::default()).is_ok());
        assert_eq!(dst.get(3).unwrap(), 3.5);
        // The loaded element was boxed back as a Float.
        assert!(matches!(regs[3], Value::Float(x) if x == 3.5));
    }

    /// Out-of-bounds mid-run: loop-carried state must be written back
    /// so the interpreter replays the failing iteration exactly.
    #[test]
    fn bail_restores_iteration_state() {
        let f = mk(
            vec![
                Insn::IndexI {
                    dst: 3,
                    arr: 1,
                    idx: 2,
                },
                Insn::Arith {
                    op: ArithOp::Add,
                    dst: 4,
                    a: 4,
                    b: 3,
                },
                Insn::IncCmpJump {
                    var: 2,
                    step: 1,
                    limit: 0,
                    op: CmpOp::Lt,
                    to: 0,
                },
                Insn::RetVoid,
            ],
            vec![],
            5,
        );
        let (prog, _) = match_at(&f, 0).expect("should match");
        let arr = Arc::new(ArrI::new(3));
        for i in 0..3 {
            arr.set(i, 10 + i).unwrap();
        }
        // Limit 5 but the array has 3 elements: bail at i == 3 with
        // the accumulator holding exactly the first three sums.
        let mut regs = vec![
            Value::Int(5),
            Value::ArrI(arr),
            Value::Int(0),
            Value::Undefined,
            Value::Int(0),
        ];
        let r = run_inner(&prog, &mut regs, &Pins::default());
        assert_eq!(r, Err(BAIL_BOUNDS));
        assert!(matches!(regs[2], Value::Int(3)));
        assert!(matches!(regs[4], Value::Int(33)));
        // r3 (defined before use every iteration) is untouched: the
        // interpreter replay re-defines it before reading.
        assert!(matches!(regs[3], Value::Undefined));
    }

    /// Form B with a guarded body that never runs: body-only
    /// registers must not be clobbered by the write-back.
    #[test]
    fn form_b_zero_iterations_leaves_body_defs_alone() {
        let f = mk(
            vec![
                Insn::CmpJumpFalseII {
                    op: CmpOp::Lt,
                    a: 0,
                    b: 1,
                    to: 4,
                },
                Insn::Const { dst: 2, k: 0 },
                Insn::IncJump {
                    var: 0,
                    step: 1,
                    to: 0,
                },
                Insn::RetVoid,
                Insn::RetVoid,
            ],
            vec![Value::Int(7)],
            3,
        );
        let (prog, exit) = match_at(&f, 0).expect("should match");
        assert_eq!(exit, 4);
        let mut regs = vec![Value::Int(5), Value::Int(5), Value::Str(Arc::from("x"))];
        assert!(run_inner(&prog, &mut regs, &Pins::default()).is_ok());
        assert!(matches!(regs[2], Value::Str(_)));
        // And with iterations, the const lands.
        let mut regs = vec![Value::Int(0), Value::Int(5), Value::Undefined];
        assert!(run_inner(&prog, &mut regs, &Pins::default()).is_ok());
        assert!(matches!(regs[0], Value::Int(5)));
        assert!(matches!(regs[2], Value::Int(7)));
    }
}
