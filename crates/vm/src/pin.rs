//! Shared-array pins: one cell lock per activation instead of one per
//! element.
//!
//! The preprocessor passes every `shared(...)` variable to the outlined
//! body as a pointer (a [`Value::Ptr`] cell), and the `Deref*` opcode
//! family indexes the array behind it. Locking the cell on every element
//! makes all team threads ping-pong the same mutex cache line, so the
//! bytecode tier slowed down as threads were added. In compiled Zig the
//! pointer target is loop-invariant and loaded once; a *pin* is the
//! bytecode equivalent.
//!
//! **Selection** (static, `--opt>=2`, [`select`]): a register is
//! pinnable when it is a parameter that whole-image type inference
//! proves is a boxed array at entry (`ptr.[]f64`/`ptr.[]i64` evidence
//! from every internal caller; host-reachable `Dynamic` parameters are
//! excluded), no instruction writes it, and its only uses are as the
//! cell operand of the `Deref*` family (`dindex`, `dindexoff`,
//! `dindexset`, `dincelem`, `dfmaidx`, `fmacc`, `fmagather`) or of a
//! plain `deref`. The list lives on [`CompiledFn::pinned`].
//!
//! A plain `deref` of a pinned register yields the pinned array, which
//! is what locking the cell would have read. When its destination
//! already holds that array (a loop re-reading `a.*` before indexing
//! it, as in IS's `ranks[buff2[p]]`) the copy is skipped, so no thread
//! touches the array's shared reference count per element.
//!
//! **Application** (runtime, [`Pins::apply`]): at activation entry each
//! listed register whose cell holds an `ArrF`/`ArrI` is replaced by that
//! array — one lock per cell per activation. Anything else (a scalar
//! cell, a plain array from the host) stays untouched, so the lock path
//! raises exactly the errors it always did. A plain array in a cell
//! position is accepted only where the activation pinned it.
//!
//! **Validation** ([`store_cell`]): every bytecode-tier cell store that
//! overwrites an array bumps a process-wide rebind epoch. A pinned read
//! whose activation saw an older epoch falls back to locking the cell
//! it pinned, so a rebind the program orders before the read (same
//! thread, or another thread across a barrier, through any alias) is
//! always observed. Programs that never rebind a shared array pay one
//! relaxed load of an unchanging counter per access.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::MutexGuard;

use crate::bytecode::{CompiledFn, Insn, Reg};
use crate::typeck::Ty;
use crate::value::{Slot, Value};

/// Count of cell stores that replaced an array (see [`store_cell`]).
static REBINDS: AtomicU64 = AtomicU64::new(0);

/// Pins are tracked in a `u64` mask, so only the first 64 registers
/// (parameters come first) are eligible.
const MAX_PIN_REG: usize = 64;

/// Store `v` into a cell. Every bytecode-tier store that can replace an
/// array in a `Slot` goes through here, so the rebind invalidates live
/// pins (`atomic_rmw` writes slots too, but only over a scalar).
pub(crate) fn store_cell(slot: &Slot, v: Value) {
    let mut g = slot.lock();
    let old = std::mem::replace(&mut *g, v);
    if matches!(old, Value::ArrF(_) | Value::ArrI(_)) {
        REBINDS.fetch_add(1, Ordering::Release);
    }
    drop(g);
}

/// The pinnable registers of `f`, ascending, given its parameter-type
/// summary from [`crate::typeck::infer_image`].
pub(crate) fn select(f: &CompiledFn, params: &[Ty]) -> Vec<Reg> {
    let mut ok = 0u64;
    for (j, t) in params.iter().enumerate().take(f.nparams.min(MAX_PIN_REG)) {
        if matches!(t, Ty::PtrAF | Ty::PtrAI) {
            ok |= 1 << j;
        }
    }
    let bit = |r: Reg| {
        if (r as usize) < MAX_PIN_REG {
            1u64 << r
        } else {
            0
        }
    };
    let mut uses = Vec::new();
    for insn in &f.code {
        if ok == 0 {
            break;
        }
        crate::optimize::visit_defs(insn, |r| ok &= !bit(r));
        uses.clear();
        crate::optimize::visit_uses(insn, |r| uses.push(r));
        for c in cell_operands(insn).into_iter().flatten() {
            if let Some(p) = uses.iter().position(|&u| u == c) {
                uses.swap_remove(p);
            }
        }
        for &r in &uses {
            ok &= !bit(r);
        }
    }
    (0..MAX_PIN_REG as Reg)
        .filter(|&r| ok & bit(r) != 0)
        .collect()
}

/// The cell operands of a `Deref*`-family or `Deref` instruction.
fn cell_operands(insn: &Insn) -> [Option<Reg>; 3] {
    match *insn {
        Insn::DerefIndex { cell, .. }
        | Insn::DerefIndexOff { cell, .. }
        | Insn::DerefIndexSet { cell, .. }
        | Insn::DerefIncElemK { cell, .. }
        | Insn::DerefFmaIdx { cell, .. } => [Some(cell), None, None],
        Insn::Deref { ptr, .. } => [Some(ptr), None, None],
        Insn::FmaIdxCC { acell, icell, .. } => [Some(acell), Some(icell), None],
        Insn::FmaGather {
            xcell,
            acell,
            icell,
            ..
        } => [Some(xcell), Some(acell), Some(icell)],
        _ => [None; 3],
    }
}

/// One activation's pins: which registers hold a pinned array, the
/// rebind epoch they were taken at, and the cells they came from.
#[derive(Default)]
pub(crate) struct Pins {
    mask: u64,
    epoch: u64,
    cells: Vec<(Reg, Slot)>,
}

impl Pins {
    /// Pin the listed registers of a fresh activation (see module docs).
    pub(crate) fn apply(regs: &mut [Value], pinned: &[Reg]) -> Pins {
        let mut pins = Pins::default();
        if pinned.is_empty() {
            return pins;
        }
        // Read the epoch before any cell: a rebind racing the reads
        // below then shows up as a stale epoch at the first access.
        pins.epoch = REBINDS.load(Ordering::Acquire);
        for &r in pinned {
            let Value::Ptr(slot) = &regs[r as usize] else {
                continue;
            };
            let arr = match &*slot.lock() {
                a @ (Value::ArrF(_) | Value::ArrI(_)) => a.clone(),
                _ => continue,
            };
            if let Value::Ptr(slot) = std::mem::replace(&mut regs[r as usize], arr) {
                pins.cells.push((r, slot));
                pins.mask |= 1 << r;
            }
        }
        pins
    }

    /// Resolve the value in cell-operand register `r` past the unfused
    /// `Deref`'s pointer check: a cell to lock, a live pinned array, or
    /// `None` for anything that is neither (element pointers and the
    /// error cases, which the caller handles).
    #[inline(always)]
    pub(crate) fn cell<'a>(&'a self, v: &'a Value, r: Reg) -> Option<CellRef<'a>> {
        match v {
            Value::Ptr(slot) => Some(CellRef::Slot(slot)),
            Value::ArrF(_) | Value::ArrI(_)
                if self.mask.checked_shr(r as u32).unwrap_or(0) & 1 == 1 =>
            {
                if REBINDS.load(Ordering::Relaxed) == self.epoch {
                    Some(CellRef::Pinned(v))
                } else {
                    self.cells
                        .iter()
                        .find(|(p, _)| *p == r)
                        .map(|(_, slot)| CellRef::Slot(slot))
                }
            }
            _ => None,
        }
    }
}

/// A `Deref*` cell operand whose pointer check has passed: reading it
/// cannot fail.
pub(crate) enum CellRef<'a> {
    /// An unpinned cell, or a pin a rebind invalidated: lock to read.
    Slot(&'a Slot),
    /// A live pin: the array itself.
    Pinned(&'a Value),
    /// An element pointer's scalar, already read.
    Elem(Value),
}

impl CellRef<'_> {
    /// The cell's current value, under its lock where it has one.
    #[inline(always)]
    pub(crate) fn read(&self) -> Target<'_> {
        match self {
            CellRef::Slot(slot) => Target::Locked(slot.lock()),
            CellRef::Pinned(v) => Target::Ref(v),
            CellRef::Elem(v) => Target::Ref(v),
        }
    }
}

/// What [`CellRef::read`] yields.
pub(crate) enum Target<'a> {
    Locked(MutexGuard<'a, Value>),
    Ref(&'a Value),
}

impl Deref for Target<'_> {
    type Target = Value;

    #[inline(always)]
    fn deref(&self) -> &Value {
        match self {
            Target::Locked(g) => g,
            Target::Ref(v) => v,
        }
    }
}
