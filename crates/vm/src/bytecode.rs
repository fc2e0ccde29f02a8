//! The register-bytecode instruction set and its disassembler.
//!
//! Each Zag function compiles once (at program load) into a flat
//! [`CompiledFn`]: a `Vec<Insn>` over a dense register file plus a constant
//! pool. Registers are `u16` indices into a per-activation `Vec<Value>` —
//! locals get fixed slots resolved at compile time (no name lookup, no
//! `Arc<Mutex>` unless the local's address is taken), temporaries are
//! stack-disciplined slots above the locals.
//!
//! The hot shapes the preprocessor emits get fused opcodes:
//!
//! * [`Insn::CmpJumpFalse`] — a comparison guard branch with no
//!   materialised boolean (`while (i < n)`, `if (a == b)`).
//! * [`Insn::IncCmpJump`] — the induction-variable back-edge
//!   `i += step; if (i < limit) goto body` of `while (i < n) : (i += 1)`
//!   loops, one instruction per iteration of the driver loops that
//!   dominate worksharing bodies.
//! * [`Insn::Index`]/[`Insn::IndexSet`] — unboxed `f64`/`i64` array
//!   element access with the bounds policy inlined.
//!
//! On top of those, two more instruction families exist (see
//! [`crate::optimize`]):
//!
//! * **Superinstructions** emitted by the `--opt≥2` peephole fuser:
//!   constant-operand arithmetic ([`Insn::ArithK`]/[`Insn::ArithKL`] — the
//!   "AddSlots" family that removes the const-reload register shuffle),
//!   load-op ([`Insn::IndexArith`]), op-store ([`Insn::ArithStore`]),
//!   element increment ([`Insn::IncElemK`] — IS histogram body), the CG
//!   matvec accumulate chain ([`Insn::FmaIdx`]), offset indexing
//!   ([`Insn::IndexOff`] — `rowstr[j + 1]`), the unconditional
//!   increment back-edge ([`Insn::IncJump`]), and the deref-fused family
//!   ([`Insn::DerefIndex`], [`Insn::DerefIndexOff`], [`Insn::DerefIndexSet`],
//!   [`Insn::DerefIncElemK`], [`Insn::DerefFmaIdx`], [`Insn::FmaIdxCC`],
//!   [`Insn::FmaGather`]) that accesses `shared(...)` arrays through
//!   their cell without cloning the array value into a register. The cell
//!   operand is either a `Ptr` (locked for the access) or, at `--opt>=2`,
//!   a parameter pinned to its array once per activation
//!   ([`crate::pin`]), which is read without a lock.
//! * **Type-specialised instructions** — generic
//!   `Arith`/`Cmp`/`Index`/`IndexSet`/`CmpJumpFalse` have `i64`/`f64`
//!   forms ([`Insn::ArithII`] is the AddII/SubII/MulII… family,
//!   [`Insn::ArithFF`] the AddFF/MulFF… family, [`Insn::IndexF`], …).
//!   At `--opt>=2` the typed-IR pass ([`crate::typeck`]) emits them
//!   statically wherever forward type inference proves the operand types;
//!   slots inference leaves `Dynamic` still specialise *at runtime*
//!   through the interpreter's per-thread quickening cache, and both
//!   kinds deopt back to the generic form when a slot changes type
//!   mid-loop.
//! * [`Insn::BulkLoop`] — the `--opt=3` native tier ([`crate::kernels`]):
//!   a recognised hot loop shape replaced by one dispatch into a
//!   precompiled slice kernel, with the original loop-head instruction
//!   kept in the kernel descriptor as the deopt target.

use std::collections::HashMap;

use crate::value::Value;

/// A register index into the activation frame.
pub type Reg = u16;

/// Arithmetic instruction kinds (mirrors the token-level operators the
/// tree-walker dispatches on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
}

/// Comparison instruction kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// Builtin operations resolved at compile time. `Dyn` keeps the
/// tree-walker's behaviour for names unknown at compile time: the error
/// surfaces only if the call executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinOp {
    IntToFloat,
    FloatToInt,
    Sqrt,
    Log,
    Exp,
    Sin,
    Cos,
    Pow,
    Abs,
    Max,
    Min,
    AllocF,
    AllocI,
    Len,
    Dyn,
}

impl BuiltinOp {
    pub fn from_name(name: &str) -> BuiltinOp {
        match name {
            "@intToFloat" => BuiltinOp::IntToFloat,
            "@floatToInt" => BuiltinOp::FloatToInt,
            "@sqrt" => BuiltinOp::Sqrt,
            "@log" => BuiltinOp::Log,
            "@exp" => BuiltinOp::Exp,
            "@sin" => BuiltinOp::Sin,
            "@cos" => BuiltinOp::Cos,
            "@pow" => BuiltinOp::Pow,
            "@abs" => BuiltinOp::Abs,
            "@max" => BuiltinOp::Max,
            "@min" => BuiltinOp::Min,
            "@allocF" => BuiltinOp::AllocF,
            "@allocI" => BuiltinOp::AllocI,
            "@len" => BuiltinOp::Len,
            _ => BuiltinOp::Dyn,
        }
    }
}

/// One bytecode instruction. Calls pass arguments in a contiguous register
/// range `[base, base + n)` so no argument vector is built until the
/// callee boundary requires one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insn {
    /// `r[dst] = consts[k]`
    Const {
        dst: Reg,
        k: u16,
    },
    /// `r[dst] = r[src]`
    Move {
        dst: Reg,
        src: Reg,
    },
    /// `r[dst] = Ptr(fresh cell seeded with r[src])` — declaration of an
    /// address-taken local; a fresh cell per execution of the declaration,
    /// matching the tree-walker's per-iteration `declare`.
    NewCell {
        dst: Reg,
        src: Reg,
    },
    /// `r[dst] = *cell` where `r[cell]` is the `Ptr` of a boxed local.
    CellGet {
        dst: Reg,
        cell: Reg,
    },
    /// `*cell = r[src]`.
    CellSet {
        cell: Reg,
        src: Reg,
    },
    /// `r[dst] = r[ptr].*` for any pointer value (`Ptr`, `ElemPtrF/I`).
    Deref {
        dst: Reg,
        ptr: Reg,
    },
    /// `r[ptr].* = r[src]`.
    StorePtr {
        ptr: Reg,
        src: Reg,
    },
    /// `r[dst] = &r[arr][r[idx]]` (an `ElemPtrF`/`ElemPtrI`).
    ElemAddr {
        dst: Reg,
        arr: Reg,
        idx: Reg,
    },
    /// `r[dst] = &(r[src].*)` — identity on pointer values, error otherwise.
    AddrDeref {
        dst: Reg,
        src: Reg,
    },
    /// `r[dst] = r[arr][r[idx]]`, unboxed fast path for `ArrF`/`ArrI`.
    Index {
        dst: Reg,
        arr: Reg,
        idx: Reg,
    },
    /// `r[arr][r[idx]] = r[src]`.
    IndexSet {
        arr: Reg,
        idx: Reg,
        src: Reg,
    },
    /// `r[dst] = r[a] op r[b]` (typed fast paths, tree-walker fallback).
    Arith {
        op: ArithOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// `r[dst] = Bool(r[a] cmp r[b])`.
    Cmp {
        op: CmpOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// `r[dst] = -r[src]`.
    Neg {
        dst: Reg,
        src: Reg,
    },
    /// `r[dst] = !truthy(r[src])`.
    Not {
        dst: Reg,
        src: Reg,
    },
    /// `r[dst] = Bool(truthy(r[src]))` (logical-operator result coercion).
    Truthy {
        dst: Reg,
        src: Reg,
    },
    Jump {
        to: u32,
    },
    /// Branch if `truthy(r[cond])` is false.
    JumpIfFalse {
        cond: Reg,
        to: u32,
    },
    /// Branch if `truthy(r[cond])` is true.
    JumpIfTrue {
        cond: Reg,
        to: u32,
    },
    /// Fused guard: branch to `to` when `r[a] cmp r[b]` is false.
    CmpJumpFalse {
        op: CmpOp,
        a: Reg,
        b: Reg,
        to: u32,
    },
    /// Fused induction back-edge: `r[var] += step; if r[var] cmp r[limit]
    /// jump to` (the loop body head). Integer fast path; generic fallback
    /// reproduces the tree-walker's compound-assign + compare semantics.
    IncCmpJump {
        var: Reg,
        step: i32,
        limit: Reg,
        op: CmpOp,
        to: u32,
    },
    /// `r[dst] = r[a] op consts[k]` — fused constant right operand
    /// (`--opt=2` peephole; "AddSlots" family: the `const` reload and its
    /// temporary register disappear).
    ArithK {
        op: ArithOp,
        dst: Reg,
        a: Reg,
        k: u16,
    },
    /// `r[dst] = consts[k] op r[b]` — fused constant left operand. A
    /// separate opcode from [`Insn::ArithK`] so type-mismatch error
    /// messages keep the original operand order.
    ArithKL {
        op: ArithOp,
        dst: Reg,
        k: u16,
        b: Reg,
    },
    /// `r[dst] = r[arr][r[idx]] op r[rhs]` — fused load-op (indexed left
    /// operand only, again to preserve error-message operand order).
    IndexArith {
        op: ArithOp,
        dst: Reg,
        arr: Reg,
        idx: Reg,
        rhs: Reg,
    },
    /// `r[arr][r[idx]] = r[a] op r[b]` — fused op-store.
    ArithStore {
        op: ArithOp,
        arr: Reg,
        idx: Reg,
        a: Reg,
        b: Reg,
    },
    /// `r[arr][r[idx]] = r[arr][r[idx]] op consts[k]` — fused element
    /// increment (the IS histogram body `counts[b] += 1`).
    IncElemK {
        op: ArithOp,
        arr: Reg,
        idx: Reg,
        k: u16,
    },
    /// `r[dst] = r[dst] + r[x] * r[arr][r[idx]]` — the CG matvec
    /// accumulate chain (`s = s + a[k] * p[colidx[k]]`) as one dispatch.
    /// The float fast path still evaluates mul-then-add (no hardware fma)
    /// so results stay bit-identical with the unfused stream.
    FmaIdx {
        dst: Reg,
        x: Reg,
        arr: Reg,
        idx: Reg,
    },
    /// `r[dst] = r[arr][r[idx] + off]` — offset indexing (`rowstr[j + 1]`).
    /// `off >= 0` came from a `+ k` source form, `off < 0` from `- k`; the
    /// generic fallback reconstructs the matching operator for error text.
    IndexOff {
        dst: Reg,
        arr: Reg,
        idx: Reg,
        off: i32,
    },
    /// `r[var] += step; jump to` — the unconditional loop back-edge of
    /// `continue`-expression loops whose guard sits at the head.
    IncJump {
        var: Reg,
        step: i32,
        to: u32,
    },
    /// `r[dst] = (*r[cell])[r[idx]]` — deref-fused indexing of a shared
    /// array. The cell (`shared(...)` variables are `Ptr` slots) is locked
    /// once and the element read under the guard — or, for a pinned
    /// parameter ([`crate::pin`]), read straight from the array the
    /// activation pinned — so the array `Value` never round-trips through
    /// a register (no `Arc` clone, no overwrite drop). Evaluation and
    /// error order match the unfused `Deref`-then-`Index` pair exactly.
    DerefIndex {
        dst: Reg,
        cell: Reg,
        idx: Reg,
    },
    /// `r[dst] = (*r[cell])[r[idx] + off]` — deref-fused [`Insn::IndexOff`]
    /// (the CG row-bound load `rowstr[j + 1]` on a shared array).
    DerefIndexOff {
        dst: Reg,
        cell: Reg,
        idx: Reg,
        off: i32,
    },
    /// `(*r[cell])[r[idx]] = r[src]` — deref-fused [`Insn::IndexSet`].
    DerefIndexSet {
        cell: Reg,
        idx: Reg,
        src: Reg,
    },
    /// `(*r[cell])[r[idx]] op= consts[k]` — deref-fused
    /// [`Insn::IncElemK`] (the IS ranking body `ranks[b] += 1` on a shared
    /// array). The cell is read once for the whole read-modify-write:
    /// the unfused chain re-derefs the same register with nothing in
    /// between that could rebind the cell, so both derefs see one array.
    DerefIncElemK {
        op: ArithOp,
        cell: Reg,
        idx: Reg,
        k: u16,
    },
    /// `r[dst] = r[dst] + r[x] * (*r[cell])[r[idx]]` — [`Insn::FmaIdx`]
    /// with the array operand read through a shared cell (the CG
    /// dot-product body `d = d + p[j] * q[j]`).
    DerefFmaIdx {
        dst: Reg,
        x: Reg,
        cell: Reg,
        idx: Reg,
    },
    /// `r[dst] = r[dst] + r[x] * (*r[acell])[(*r[icell])[r[idx]]]` — the
    /// whole CG matvec gather (`s = s + a[k] * p[colidx[k]]` with `p` and
    /// `colidx` both shared) as one dispatch. The `acell` pointer check
    /// happens first (unfused `Deref` position); its *read* is deferred to
    /// after the `icell` gather. That is unobservable: dereferencing a
    /// checked `Ptr` cannot fail, and the gather in between cannot rebind
    /// a cell.
    FmaIdxCC {
        dst: Reg,
        x: Reg,
        acell: Reg,
        icell: Reg,
        idx: Reg,
    },
    /// `r[dst] += (*r[xcell])[r[idx]] * (*r[acell])[(*r[icell])[r[idx]]]`
    /// — [`Insn::FmaIdxCC`] with the multiplier itself gathered from a
    /// shared array at the same index: the complete matvec body
    /// `s = s + a[k] * p[colidx[k]]` with `a`, `p`, `colidx` all shared,
    /// one dispatch per nonzero.
    FmaGather {
        dst: Reg,
        xcell: Reg,
        acell: Reg,
        icell: Reg,
        idx: Reg,
    },
    /// Quickened [`Insn::Arith`]: both operands observed `i64`. Runtime
    /// only — written by the interpreter's per-thread quickening cache,
    /// never by the compiler/optimizer. Deopts back to `Arith` (and
    /// re-executes the generic arm) when a slot changes type.
    ArithII {
        op: ArithOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// Quickened [`Insn::Arith`]: both operands observed `f64`.
    ArithFF {
        op: ArithOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// Quickened [`Insn::Cmp`]: both operands observed `i64`.
    CmpII {
        op: CmpOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// Quickened [`Insn::Cmp`]: both operands observed `f64`.
    CmpFF {
        op: CmpOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// Quickened [`Insn::CmpJumpFalse`]: both operands observed `i64`.
    CmpJumpFalseII {
        op: CmpOp,
        a: Reg,
        b: Reg,
        to: u32,
    },
    /// Quickened [`Insn::CmpJumpFalse`]: both operands observed `f64`.
    CmpJumpFalseFF {
        op: CmpOp,
        a: Reg,
        b: Reg,
        to: u32,
    },
    /// Quickened [`Insn::Index`]: array observed `ArrF`.
    IndexF {
        dst: Reg,
        arr: Reg,
        idx: Reg,
    },
    /// Quickened [`Insn::Index`]: array observed `ArrI`.
    IndexI {
        dst: Reg,
        arr: Reg,
        idx: Reg,
    },
    /// Quickened [`Insn::IndexSet`]: `ArrF` target, `f64` source observed.
    IndexSetF {
        arr: Reg,
        idx: Reg,
        src: Reg,
    },
    /// Quickened [`Insn::IndexSet`]: `ArrI` target, `i64` source observed.
    IndexSetI {
        arr: Reg,
        idx: Reg,
        src: Reg,
    },
    /// Direct call of program function `func` (compile-time resolved).
    Call {
        dst: Reg,
        func: u16,
        base: Reg,
        n: u16,
    },
    /// Indirect call through a `Fn` value in `r[callee]`.
    CallValue {
        dst: Reg,
        callee: Reg,
        base: Reg,
        n: u16,
    },
    /// Call into the `omp.*` namespace: `syms[sym]` is the dotted path
    /// after `omp`, dispatched through `builtins::call` so the runtime
    /// bindings keep their existing signatures.
    OmpCall {
        dst: Reg,
        sym: u16,
        base: Reg,
        n: u16,
    },
    /// `@name(...)` with the operation resolved at compile time; `name_k`
    /// is the name string in the pool, for `Dyn` dispatch and error text.
    Builtin {
        dst: Reg,
        op: BuiltinOp,
        name_k: u16,
        base: Reg,
        n: u16,
    },
    /// `print(...)` — render, capture, optionally echo.
    Print {
        base: Reg,
        n: u16,
    },
    /// Native bulk-kernel dispatch (`--opt=3` only, installed by
    /// [`crate::kernels`] after every other pass): replaces the head
    /// instruction of a recognised hot loop. `kidx` indexes
    /// [`CompiledFn::kernels`]; the descriptor carries the bound
    /// registers, the exit pc, and the replaced original instruction.
    /// On a type-precheck failure (or a data-dependent mid-loop bail)
    /// the interpreter quickens this instruction back to the original
    /// and resumes the interpreted loop at the exact iteration, so the
    /// kernel is semantically transparent.
    BulkLoop {
        kidx: u16,
    },
    /// Typed-template loop dispatch (`--opt=3` only, installed by
    /// [`crate::templates`] after the fixed kernels): replaces the
    /// head instruction of a short typed loop that missed every fixed
    /// kernel shape. `tidx` indexes [`CompiledFn::templates`]; the
    /// descriptor carries the monomorphized op chain, the exit pc,
    /// and the replaced original instruction. Deopt behaviour is
    /// identical to [`Insn::BulkLoop`]: on a type precheck failure or
    /// a mid-loop bail the interpreter quickens back to the original
    /// and replays the loop interpreted.
    TemplateLoop {
        tidx: u16,
    },
    /// Unconditional runtime error with the pooled message (compile-time
    /// detected failures that the tree-walker would only raise when the
    /// offending node executes).
    Trap {
        msg: u16,
    },
    Ret {
        src: Reg,
    },
    RetVoid,
}

/// The pre-optimization instruction stream, kept on [`CompiledFn`] when
/// the optimizer changed anything so `--dump-bytecode` can show both
/// stages. `nconsts` is the pool length before optimization (folding only
/// ever appends constants, so pre-opt indices stay valid).
pub struct PreOpt {
    pub code: Vec<Insn>,
    pub nconsts: usize,
}

/// One compiled function.
pub struct CompiledFn {
    pub name: String,
    pub nparams: usize,
    /// Source-level parameter type annotations, verbatim (`"i64"`,
    /// `"[]f64"`, `"*f64"`, `"any"`, ...), one per parameter. Zag does
    /// not enforce these at call boundaries; the type inference pass
    /// reads them as speculative seeds (see [`crate::typeck`]).
    pub param_tys: Vec<String>,
    /// Register-file size: params, locals, then temporaries.
    pub nregs: usize,
    pub code: Vec<Insn>,
    pub consts: Vec<Value>,
    /// Dotted `omp.` call paths referenced by [`Insn::OmpCall`].
    pub omp_syms: Vec<Vec<String>>,
    /// Debug names of named registers (params and locals), in allocation
    /// order: (register, name, address-taken?).
    pub locals: Vec<(Reg, String, bool)>,
    /// `Some` iff the optimizer rewrote `code` (see [`PreOpt`]).
    pub pre_opt: Option<PreOpt>,
    /// Native bulk-kernel descriptors referenced by [`Insn::BulkLoop`]
    /// (`--opt=3` only; empty below that).
    pub kernels: Vec<crate::kernels::KernelDesc>,
    /// Typed-template descriptors referenced by
    /// [`Insn::TemplateLoop`] (`--opt=3` only; empty below that).
    pub templates: Vec<crate::templates::TemplateDesc>,
    /// Cell parameters pinned to their array once per activation
    /// (`--opt>=2`; see [`crate::pin`]). Ascending.
    pub pinned: Vec<Reg>,
}

/// A whole program's compiled image, functions in declaration order.
pub struct Image {
    pub funcs: Vec<CompiledFn>,
    pub by_name: HashMap<String, usize>,
}

impl Image {
    pub fn get(&self, name: &str) -> Option<&CompiledFn> {
        self.by_name.get(name).map(|&i| &self.funcs[i])
    }
}

// ---------------------------------------------------------------------------
// Disassembler (the `--dump-bytecode` surface; golden-tested)
// ---------------------------------------------------------------------------

fn const_text(v: &Value) -> String {
    match v {
        Value::Str(s) => format!("{s:?}"),
        Value::Fn(name) => format!("fn {name}"),
        other => other.render(),
    }
}

fn cmp_text(op: CmpOp) -> &'static str {
    match op {
        CmpOp::Lt => "<",
        CmpOp::Le => "<=",
        CmpOp::Gt => ">",
        CmpOp::Ge => ">=",
        CmpOp::Eq => "==",
        CmpOp::Ne => "!=",
    }
}

fn arith_text(op: ArithOp) -> &'static str {
    match op {
        ArithOp::Add => "add",
        ArithOp::Sub => "sub",
        ArithOp::Mul => "mul",
        ArithOp::Div => "div",
        ArithOp::Rem => "rem",
    }
}

/// Header tag of the pre-optimization stage in [`disasm_stages`].
const PRE_OPT_TAG: &str = " [pre-opt]";

/// Render one function's bytecode as stable, diffable text.
pub fn disasm_fn(f: &CompiledFn) -> String {
    disasm_fn_code(f, &f.code, f.consts.len(), "")
}

/// Render one function with an explicit instruction stream / pool length
/// (the `--dump-bytecode` pre/post-optimization view).
fn disasm_fn_code(f: &CompiledFn, code: &[Insn], nconsts: usize, tag: &str) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fn {}{tag} (params {}, regs {})",
        f.name, f.nparams, f.nregs
    );
    if !f.locals.is_empty() {
        let names: Vec<String> = f
            .locals
            .iter()
            .map(|(r, n, boxed)| format!("r{r}={}{n}", if *boxed { "&" } else { "" }))
            .collect();
        let _ = writeln!(out, "  locals: {}", names.join(" "));
    }
    // Pins are chosen on the final stream; the pre-opt view has none.
    if tag != PRE_OPT_TAG && !f.pinned.is_empty() {
        let regs: Vec<String> = f.pinned.iter().map(|r| format!("r{r}")).collect();
        let _ = writeln!(out, "  pinned: {}", regs.join(" "));
    }
    for (i, k) in f.consts.iter().take(nconsts).enumerate() {
        let _ = writeln!(out, "  k{i} = {}", const_text(k));
    }
    for (i, s) in f.omp_syms.iter().enumerate() {
        let _ = writeln!(out, "  s{i} = omp.{}", s.join("."));
    }
    for (pc, insn) in code.iter().enumerate() {
        let _ = writeln!(out, "  {pc:>4}  {}", insn_text(f, insn));
    }
    out
}

/// Render one instruction as the stable mnemonic text shared by
/// `--dump-bytecode` and the typed-IR dump (`--dump-ir`).
pub(crate) fn insn_text(f: &CompiledFn, insn: &Insn) -> String {
    match insn {
        Insn::Const { dst, k } => format!("const      r{dst}, k{k}"),
        Insn::Move { dst, src } => format!("move       r{dst}, r{src}"),
        Insn::NewCell { dst, src } => format!("newcell    r{dst}, r{src}"),
        Insn::CellGet { dst, cell } => format!("cellget    r{dst}, r{cell}"),
        Insn::CellSet { cell, src } => format!("cellset    r{cell}, r{src}"),
        Insn::Deref { dst, ptr } => format!("deref      r{dst}, r{ptr}"),
        Insn::StorePtr { ptr, src } => format!("storeptr   r{ptr}, r{src}"),
        Insn::ElemAddr { dst, arr, idx } => format!("elemaddr   r{dst}, r{arr}[r{idx}]"),
        Insn::AddrDeref { dst, src } => format!("addrderef  r{dst}, r{src}"),
        Insn::Index { dst, arr, idx } => format!("index      r{dst}, r{arr}[r{idx}]"),
        Insn::IndexSet { arr, idx, src } => format!("indexset   r{arr}[r{idx}], r{src}"),
        Insn::Arith { op, dst, a, b } => {
            format!("{:<10} r{dst}, r{a}, r{b}", arith_text(*op))
        }
        Insn::Cmp { op, dst, a, b } => {
            format!("cmp        r{dst}, r{a} {} r{b}", cmp_text(*op))
        }
        Insn::Neg { dst, src } => format!("neg        r{dst}, r{src}"),
        Insn::Not { dst, src } => format!("not        r{dst}, r{src}"),
        Insn::Truthy { dst, src } => format!("truthy     r{dst}, r{src}"),
        Insn::Jump { to } => format!("jump       -> {to}"),
        Insn::JumpIfFalse { cond, to } => format!("jfalse     r{cond} -> {to}"),
        Insn::JumpIfTrue { cond, to } => format!("jtrue      r{cond} -> {to}"),
        Insn::CmpJumpFalse { op, a, b, to } => {
            format!("cjfalse    r{a} {} r{b} -> {to}", cmp_text(*op))
        }
        Insn::IncCmpJump {
            var,
            step,
            limit,
            op,
            to,
        } => format!(
            "inccmpj    r{var} += {step}; r{var} {} r{limit} -> {to}",
            cmp_text(*op)
        ),
        Insn::ArithK { op, dst, a, k } => {
            format!("{:<10} r{dst}, r{a}, k{k}", format!("{}k", arith_text(*op)))
        }
        Insn::ArithKL { op, dst, k, b } => {
            format!("{:<10} r{dst}, k{k}, r{b}", format!("k{}", arith_text(*op)))
        }
        Insn::IndexArith {
            op,
            dst,
            arr,
            idx,
            rhs,
        } => format!("idx{:<7} r{dst}, r{arr}[r{idx}], r{rhs}", arith_text(*op)),
        Insn::ArithStore { op, arr, idx, a, b } => format!(
            "{:<10} r{arr}[r{idx}], r{a}, r{b}",
            format!("{}st", arith_text(*op))
        ),
        Insn::IncElemK { op, arr, idx, k } => {
            format!("incelem    r{arr}[r{idx}] {}= k{k}", arith_text(*op))
        }
        Insn::FmaIdx { dst, x, arr, idx } => {
            format!("fmaidx     r{dst} += r{x} * r{arr}[r{idx}]")
        }
        Insn::IndexOff { dst, arr, idx, off } => {
            format!("indexoff   r{dst}, r{arr}[r{idx}{off:+}]")
        }
        Insn::IncJump { var, step, to } => {
            format!("incjump    r{var} += {step} -> {to}")
        }
        Insn::DerefIndex { dst, cell, idx } => {
            format!("dindex     r{dst}, (r{cell})[r{idx}]")
        }
        Insn::DerefIndexOff {
            dst,
            cell,
            idx,
            off,
        } => {
            format!("dindexoff  r{dst}, (r{cell})[r{idx}{off:+}]")
        }
        Insn::DerefIndexSet { cell, idx, src } => {
            format!("dindexset  (r{cell})[r{idx}], r{src}")
        }
        Insn::DerefIncElemK { op, cell, idx, k } => {
            format!("dincelem   (r{cell})[r{idx}] {}= k{k}", arith_text(*op))
        }
        Insn::DerefFmaIdx { dst, x, cell, idx } => {
            format!("dfmaidx    r{dst} += r{x} * (r{cell})[r{idx}]")
        }
        Insn::FmaIdxCC {
            dst,
            x,
            acell,
            icell,
            idx,
        } => {
            format!("fmacc      r{dst} += r{x} * (r{acell})[(r{icell})[r{idx}]]")
        }
        Insn::FmaGather {
            dst,
            xcell,
            acell,
            icell,
            idx,
        } => {
            format!("fmagather  r{dst} += (r{xcell})[r{idx}] * (r{acell})[(r{icell})[r{idx}]]")
        }
        Insn::ArithII { op, dst, a, b } => {
            format!(
                "{:<10} r{dst}, r{a}, r{b}",
                format!("{}ii", arith_text(*op))
            )
        }
        Insn::ArithFF { op, dst, a, b } => {
            format!(
                "{:<10} r{dst}, r{a}, r{b}",
                format!("{}ff", arith_text(*op))
            )
        }
        Insn::CmpII { op, dst, a, b } => {
            format!("cmpii      r{dst}, r{a} {} r{b}", cmp_text(*op))
        }
        Insn::CmpFF { op, dst, a, b } => {
            format!("cmpff      r{dst}, r{a} {} r{b}", cmp_text(*op))
        }
        Insn::CmpJumpFalseII { op, a, b, to } => {
            format!("cjfii      r{a} {} r{b} -> {to}", cmp_text(*op))
        }
        Insn::CmpJumpFalseFF { op, a, b, to } => {
            format!("cjfff      r{a} {} r{b} -> {to}", cmp_text(*op))
        }
        Insn::IndexF { dst, arr, idx } => format!("indexf     r{dst}, r{arr}[r{idx}]"),
        Insn::IndexI { dst, arr, idx } => format!("indexi     r{dst}, r{arr}[r{idx}]"),
        Insn::IndexSetF { arr, idx, src } => format!("indexsetf  r{arr}[r{idx}], r{src}"),
        Insn::IndexSetI { arr, idx, src } => format!("indexseti  r{arr}[r{idx}], r{src}"),
        Insn::Call { dst, func, base, n } => {
            format!("call       r{dst}, f{func}, r{base}..{n}")
        }
        Insn::CallValue {
            dst,
            callee,
            base,
            n,
        } => format!("callv      r{dst}, r{callee}, r{base}..{n}"),
        Insn::OmpCall { dst, sym, base, n } => {
            format!("ompcall    r{dst}, s{sym}, r{base}..{n}")
        }
        Insn::Builtin {
            dst,
            op,
            name_k,
            base,
            n,
        } => format!("builtin    r{dst}, {op:?}(k{name_k}), r{base}..{n}"),
        Insn::Print { base, n } => format!("print      r{base}..{n}"),
        Insn::BulkLoop { kidx } => {
            let what = f
                .kernels
                .get(*kidx as usize)
                .map(|d| d.kind.name())
                .unwrap_or("?");
            format!("bulkloop   kernel{kidx} ({what})")
        }
        Insn::TemplateLoop { tidx } => {
            let what = f
                .templates
                .get(*tidx as usize)
                .map(|d| {
                    format!(
                        "{} insns, {} variants",
                        d.prog.ninsns,
                        d.prog.variants.len()
                    )
                })
                .unwrap_or_else(|| "?".to_string());
            format!("templateloop tmpl{tidx} ({what})")
        }
        Insn::Trap { msg } => format!("trap       k{msg}"),
        Insn::Ret { src } => format!("ret        r{src}"),
        Insn::RetVoid => "retvoid".to_string(),
    }
}

/// Render the whole image, functions in declaration order.
pub fn disasm(image: &Image) -> String {
    let mut out = String::new();
    for f in &image.funcs {
        out.push_str(&disasm_fn(f));
        out.push('\n');
    }
    out
}

/// Render the whole image showing both optimization stages: for every
/// function the optimizer rewrote, the pre-optimization stream first,
/// then the optimized one (`--dump-bytecode` under `--opt>=1`).
pub fn disasm_stages(image: &Image) -> String {
    let mut out = String::new();
    for f in &image.funcs {
        if let Some(pre) = &f.pre_opt {
            out.push_str(&disasm_fn_code(f, &pre.code, pre.nconsts, PRE_OPT_TAG));
            out.push('\n');
            out.push_str(&disasm_fn_code(f, &f.code, f.consts.len(), " [optimized]"));
        } else {
            out.push_str(&disasm_fn(f));
        }
        out.push('\n');
    }
    out
}
