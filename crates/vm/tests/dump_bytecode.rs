//! Golden-file test for the bytecode disassembly of a small loop program,
//! at every optimization level.
//!
//! Codegen changes (new fusion rules, different register assignment,
//! constant-pool ordering) show up as a readable diff against
//! `tests/golden/loop.disasm` (the raw `--opt=0` stream),
//! `tests/golden/loop.opt{1,2,3}.disasm` (the `--dump-bytecode` pre/post
//! view, so fusion regressions are visible as instruction-level diffs),
//! and `tests/golden/loop.ir` (the `--dump-ir` typed block view, so
//! inference regressions show up as type-annotation diffs).
//! `tests/golden/shared.opt2.disasm` pins the header of a function whose
//! `shared(...)` array parameters are pinned once per activation.
//! To accept a new golden output:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p zomp-vm --test dump_bytecode
//! ```

use zomp_vm::bytecode::{disasm, disasm_stages};
use zomp_vm::OptLevel;

const PROGRAM: &str = r#"fn main() void {
    var total: i64 = 0;
    //$omp parallel num_threads(2) reduction(+: total)
    {
        var i: i64 = 0;
        //$omp while schedule(static)
        while (i < 1000) : (i += 1) {
            total += 1;
        }
    }
    print(total);
}
"#;

/// A region reading and writing `shared(...)` arrays: the outlined body's
/// array parameters are listed as `pinned:` at `--opt=2`.
const SHARED_PROGRAM: &str = r#"fn scale(a: []f64, b: []f64, n: i64) void {
    //$omp parallel num_threads(2) shared(a, b)
    {
        var i: i64 = 0;
        //$omp while schedule(static)
        while (i < n) : (i += 1) {
            b[i] = a[i] * 2.0;
        }
    }
}
"#;

fn check(opt: OptLevel, golden: &str) {
    check_program(PROGRAM, opt, golden);
}

fn check_program(source: &str, opt: OptLevel, golden: &str) {
    let program = zomp_vm::compile_opt(source, Some("golden.zag"), opt).expect("compile");
    // O0 keeps the historical single-stage golden; optimized levels use
    // the pre/post `--dump-bytecode` rendering.
    let got = if opt == OptLevel::O0 {
        disasm(&program.code)
    } else {
        disasm_stages(&program.code)
    };
    let path = format!("{}/tests/golden/{golden}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        got, want,
        "bytecode disassembly drifted from tests/golden/{golden}; \
         review the diff and re-bless with UPDATE_GOLDEN=1 if intended"
    );
}

#[test]
fn loop_program_disassembly_matches_golden() {
    check(OptLevel::O0, "loop.disasm");
}

#[test]
fn loop_program_opt1_disassembly_matches_golden() {
    check(OptLevel::O1, "loop.opt1.disasm");
}

#[test]
fn loop_program_opt2_disassembly_matches_golden() {
    check(OptLevel::O2, "loop.opt2.disasm");
}

#[test]
fn loop_program_opt3_disassembly_matches_golden() {
    check(OptLevel::O3, "loop.opt3.disasm");
}

#[test]
fn shared_array_opt2_disassembly_lists_pinned_registers() {
    check_program(SHARED_PROGRAM, OptLevel::O2, "shared.opt2.disasm");
}

/// The `--dump-ir` surface: blocks, predecessors/successors, and the
/// inferred per-block entry types for the same loop program at `--opt=2`.
#[test]
fn loop_program_ir_dump_matches_golden() {
    let program = zomp_vm::compile_opt(PROGRAM, Some("golden.zag"), OptLevel::O2).expect("compile");
    let got = zomp_vm::ir::dump(&program.code);
    let path = format!("{}/tests/golden/loop.ir", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .expect("golden file missing — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        got, want,
        "IR dump drifted from tests/golden/loop.ir; \
         review the diff and re-bless with UPDATE_GOLDEN=1 if intended"
    );
}
