//! Differential testing: the bytecode VM against the tree-walking oracle.
//!
//! Every program here runs on both backends; outputs (or error messages)
//! must match exactly. The corner programs are deterministic by
//! construction — parallel ones only print aggregates that do not depend
//! on scheduling. The shipped example programs may print genuinely racy
//! values (e.g. which thread won a `single`), so for those we compare the
//! lines proven stable under a single backend across repeated runs.

use zomp_vm::{Backend, OptLevel, Value, Vm};

/// Every optimization level the bytecode backend must stay faithful at:
/// `O0` is the raw stream, `O1` adds folding/copy-prop/DSE, `O2` adds
/// superinstruction fusion, static type specialization, and runtime
/// quickening, `O3` adds native bulk-kernel installation for hot loops.
const OPT_LEVELS: [OptLevel; 4] = [OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3];

/// The opt levels this process actually exercises: all of [`OPT_LEVELS`]
/// by default, or just the one named by `ZAG_TEST_OPT=0|1|2|3` — the hook
/// the CI opt-level matrix uses to run each level as a separate step with
/// its own pass/fail line.
fn opt_levels() -> Vec<OptLevel> {
    match std::env::var("ZAG_TEST_OPT") {
        Ok(s) => {
            let opt = OptLevel::parse(&s)
                .unwrap_or_else(|| panic!("ZAG_TEST_OPT must be 0|1|2|3, got {s:?}"));
            vec![opt]
        }
        Err(_) => OPT_LEVELS.to_vec(),
    }
}

fn run_on(src: &str, backend: Backend, opt: OptLevel) -> Result<Vec<String>, String> {
    let vm = Vm::build(src, None, backend, opt).unwrap_or_else(|e| panic!("{}", e.render(src)));
    match vm.call_function("main", Vec::new()) {
        Ok(_) => Ok(vm.output.into_inner()),
        Err(e) => Err(e.to_string()),
    }
}

/// The bytecode backend, at every opt level, must agree with the
/// tree-walking oracle on output lines *and* on error messages; the
/// native backend (which forces `--opt=3`) must agree too.
fn assert_backends_agree(name: &str, src: &str) {
    let ast = run_on(src, Backend::Ast, OptLevel::O0);
    for opt in opt_levels() {
        let bc = run_on(src, Backend::Bytecode, opt);
        assert_eq!(bc, ast, "{name}: backends diverged at --opt={opt}");
    }
    let native = run_on(src, Backend::Native, OptLevel::O2);
    assert_eq!(native, ast, "{name}: native backend diverged");
}

#[test]
fn serial_language_corners() {
    for (name, src) in [
        (
            "arith_and_precedence",
            r#"fn main() void {
    var i: i64 = 7;
    var f: f64 = 2.5;
    print(i + 2 * 3, i % 3, i / 2, -i);
    print(f * 2.0, f - 0.5, f / 0.5, -f);
    print(1 < 2, 2 <= 2, 3 > 4, 4 >= 5, 1 == 1, 1 != 1);
    print("a" == "a", "a" != "b", true == true);
}"#,
        ),
        (
            "nan_comparisons",
            r#"fn main() void {
    var nan: f64 = 0.0 / 0.0;
    print(nan < 1.0, nan <= 1.0, nan > 1.0, nan >= 1.0);
    print(nan == nan, nan != nan);
}"#,
        ),
        (
            "short_circuit_side_effects",
            r#"fn side(x: i64) bool {
    print("side", x);
    return x > 0;
}
fn main() void {
    print(side(1) and side(-1));
    print(side(-2) and side(2));
    print(side(3) or side(4));
    print(side(-5) or side(5));
    print(!side(6));
}"#,
        ),
        (
            "pointers_and_aliasing",
            r#"fn bump(p: *i64) void { p.* += 1; }
fn main() void {
    var x: i64 = 10;
    var p: *i64 = &x;
    bump(p);
    bump(&x);
    p.* = p.* * 2;
    print(x, p.*);
}"#,
        ),
        (
            "arrays_and_compound_assign",
            r#"fn main() void {
    var a: f64 = @allocF(4);
    var n: i64 = @allocI(4);
    var i: i64 = 0;
    while (i < 4) : (i += 1) {
        a[i] = @intToFloat(i);
        n[i] = i * i;
    }
    a[2] += 10.0;
    a[2] *= 2.0;
    n[3] -= 5;
    var p: *f64 = &a[1];
    p.* += 100.0;
    print(a[0], a[1], a[2], a[3], @len(a));
    print(n[0], n[1], n[2], n[3], @len(n));
}"#,
        ),
        (
            "shadowing_and_scopes",
            r#"fn main() void {
    var x: i64 = 1;
    {
        var x: i64 = x + 10;
        print(x);
        {
            var x: i64 = x * 2;
            print(x);
        }
        print(x);
    }
    print(x);
}"#,
        ),
        (
            "break_continue_nested",
            r#"fn main() void {
    var total: i64 = 0;
    var i: i64 = 0;
    while (i < 10) : (i += 1) {
        if (i == 7) { break; }
        var j: i64 = 0;
        while (j < 10) : (j += 1) {
            if (j == 3) { continue; }
            if (j > 5) { break; }
            total += i * 10 + j;
        }
    }
    print(total, i);
}"#,
        ),
        (
            "downward_and_strided_loops",
            r#"fn main() void {
    var s: i64 = 0;
    var i: i64 = 10;
    while (i > 0) : (i -= 2) { s += i; }
    var j: i64 = 0;
    while (j < 20) : (j += 3) { s += 1; }
    print(s, i, j);
}"#,
        ),
        (
            "recursion_and_function_values",
            r#"fn fib(n: i64) i64 {
    if (n < 2) { return n; }
    return fib(n - 1) + fib(n - 2);
}
fn main() void {
    print(fib(15));
    const f = fib;
    print(f(10));
}"#,
        ),
        (
            "builtins_typed_and_mixed",
            r#"fn main() void {
    print(@sqrt(2.0), @log(@exp(1.0)), @sin(0.0), @cos(0.0));
    print(@pow(2.0, 10.0), @abs(-3.5), @abs(-7));
    print(@max(2.0, 3.0), @max(9, 4), @min(2.0, 3.0), @min(9, 4));
    print(@floatToInt(3.9), @intToFloat(4));
}"#,
        ),
        (
            "string_escapes_and_print",
            r#"fn main() void {
    print("quote: \" and newline:\nend");
    print("a", 1, 2.5, true, "b");
}"#,
        ),
        (
            "var_decl_without_init",
            r#"fn main() void {
    var x: any = undefined;
    x = 41;
    x += 1;
    print(x);
}"#,
        ),
        (
            "condition_shapes",
            r#"fn main() void {
    var i: i64 = 3;
    if (i > 1 and i < 10) { print("band"); }
    if (i > 5 or i == 3) { print("bor"); }
    if (!(i == 4)) { print("bnot"); }
    var b: bool = i > 2;
    if (b) { print("bval"); }
    while (b) { b = false; print("bloop"); }
}"#,
        ),
    ] {
        assert_backends_agree(name, src);
    }
}

#[test]
fn runtime_errors_match_exactly() {
    for (name, src) in [
        (
            "division_by_zero",
            r#"fn main() void { var z: i64 = 0; print(1 / z); }"#,
        ),
        (
            "remainder_by_zero",
            r#"fn main() void { var z: i64 = 0; print(1 % z); }"#,
        ),
        ("unknown_variable", r#"fn main() void { print(nope); }"#),
        ("unknown_variable_assign", r#"fn main() void { nope = 3; }"#),
        (
            "index_out_of_bounds",
            r#"fn main() void { var a: f64 = @allocF(2); print(a[5]); }"#,
        ),
        (
            "type_mismatch_arith",
            r#"fn main() void { print(1 + 2.0); }"#,
        ),
        (
            "type_mismatch_compound",
            r#"fn main() void { var x: i64 = 1; x += 2.0; print(x); }"#,
        ),
        ("cannot_compare", r#"fn main() void { print("a" < "b"); }"#),
        (
            "not_callable",
            r#"fn main() void { var x: i64 = 3; x(1); }"#,
        ),
        ("unknown_builtin", r#"fn main() void { print(@sqrt(4)); }"#),
        ("cannot_negate", r#"fn main() void { print(-"s"); }"#),
        (
            "cannot_deref",
            r#"fn main() void { var x: i64 = 1; print(x.*); }"#,
        ),
        (
            "cannot_index",
            r#"fn main() void { var x: i64 = 1; print(x[0]); }"#,
        ),
        (
            "not_a_condition",
            r#"fn main() void { if ("s") { print(1); } }"#,
        ),
        (
            "arity_mismatch",
            r#"fn f(a: i64) void { print(a); }
fn main() void { f(1, 2); }"#,
        ),
        (
            "error_after_output",
            r#"fn main() void {
    print("before");
    var z: i64 = 0;
    print(1 / z);
    print("after");
}"#,
        ),
    ] {
        let ast = run_on(src, Backend::Ast, OptLevel::O0);
        assert!(ast.is_err(), "{name}: expected a runtime error");
        for opt in opt_levels() {
            let bc = run_on(src, Backend::Bytecode, opt);
            assert_eq!(bc, ast, "{name}: backends diverged at --opt={opt}");
        }
    }
}

/// Error corners aimed at the optimizer itself: each program's hot shape
/// gets fused or quickened at `--opt=2`, and the fused/quickened arm's
/// slow path must reproduce the walker's error text and ordering.
#[test]
fn fused_and_quickened_errors_match_exactly() {
    for (name, src) in [
        (
            // `a[k] * p[...]` with an i64 array: the FmaIdx chain must
            // fail with the walker's multiply type-mismatch text.
            "fma_chain_type_mismatch",
            r#"fn main() void {
    var a: i64 = @allocI(4);
    var p: f64 = @allocF(4);
    var s: f64 = 0.0;
    var k: i64 = 0;
    while (k < 4) : (k += 1) {
        s = s + a[k] * p[k];
    }
    print(s);
}"#,
        ),
        (
            // `h[i] = h[i] + 1` fuses to IncElemK; the OOB index must
            // report the walker's bounds text.
            "incelem_out_of_bounds",
            r#"fn main() void {
    var h: i64 = @allocI(4);
    var i: i64 = 2;
    h[i + 3] = h[i + 3] + 1;
    print(h[0]);
}"#,
        ),
        (
            // `rowstr[j + 1]` fuses to IndexOff; out-of-bounds offset.
            "indexoff_out_of_bounds",
            r#"fn main() void {
    var rowstr: i64 = @allocI(4);
    var j: i64 = 3;
    print(rowstr[j + 1]);
}"#,
        ),
        (
            // Arith+IndexSet fuses to ArithStore; the division error must
            // fire before any store is observable.
            "arithstore_div_by_zero",
            r#"fn main() void {
    var a: i64 = @allocI(2);
    var z: i64 = 0;
    var i: i64 = 0;
    a[i] = 7 / z;
    print(a[0]);
}"#,
        ),
        (
            // Mixed-type element update: IncElemK's slow path must load,
            // fail in the arithmetic, and leave the walker's message.
            "incelem_type_mismatch",
            r#"fn main() void {
    var h: f64 = @allocF(2);
    var i: i64 = 0;
    h[i] = h[i] + 1;
    print(h[0]);
}"#,
        ),
        (
            // Constant folding must refuse to evaluate an erroring op.
            "const_div_zero_not_folded",
            r#"fn main() void { print(1 / 0); }"#,
        ),
        (
            // IndexOff with a *negative* offset spelled as subtraction:
            // the slow path reconstructs `j - 1` for the error text.
            "indexoff_negative_oob",
            r#"fn main() void {
    var a: i64 = @allocI(4);
    var j: i64 = 0;
    print(a[j - 1]);
}"#,
        ),
    ] {
        let ast = run_on(src, Backend::Ast, OptLevel::O0);
        assert!(ast.is_err(), "{name}: expected a runtime error");
        for opt in opt_levels() {
            let bc = run_on(src, Backend::Bytecode, opt);
            assert_eq!(bc, ast, "{name}: backends diverged at --opt={opt}");
        }
    }
}

/// Quickening specializes `Arith`/`Cmp`/`Index` on first execution; these
/// programs flip a slot's type mid-loop so the specialized instruction
/// must deopt back to the generic form and keep producing oracle output.
#[test]
fn quickening_deopt_agrees() {
    for (name, src) in [
        (
            "scalar_int_to_float_flip",
            r#"fn main() void {
    var x: any = undefined;
    x = 1;
    var i: i64 = 0;
    while (i < 6) : (i += 1) {
        x = x + x;
        if (i == 2) {
            x = 0.5;
        }
    }
    print(x);
}"#,
        ),
        (
            "cmp_operand_type_flip",
            r#"fn main() void {
    var x: any = undefined;
    var y: any = undefined;
    x = 1;
    y = 10;
    var i: i64 = 0;
    var hits: i64 = 0;
    while (i < 8) : (i += 1) {
        if (x < y) { hits += 1; }
        if (i == 3) { x = 0.5; y = 2.5; }
    }
    print(hits);
}"#,
        ),
        (
            "array_int_to_float_swap",
            r#"fn main() void {
    var a: any = undefined;
    a = @allocI(3);
    var total: f64 = 0.0;
    var i: i64 = 0;
    while (i < 6) : (i += 1) {
        var j: i64 = 0;
        while (j < 3) : (j += 1) {
            a[j] = a[j];
        }
        if (i == 2) {
            a = @allocF(3);
            a[0] = 1.5;
        }
    }
    print(a[0], total);
}"#,
        ),
    ] {
        assert_backends_agree(name, src);
    }
}

#[test]
fn parallel_aggregates_agree() {
    for (name, src) in [
        (
            "static_reduction",
            r#"fn main() void {
    var total: i64 = 0;
    //$omp parallel num_threads(4) reduction(+: total)
    {
        var i: i64 = 0;
        //$omp while schedule(static)
        while (i < 10000) : (i += 1) { total += i; }
    }
    print(total);
}"#,
        ),
        (
            "dynamic_schedule_exactly_once",
            r#"fn main() void {
    var hits: i64 = @allocI(1000);
    //$omp parallel num_threads(4)
    {
        var i: i64 = 0;
        //$omp while schedule(dynamic, 7)
        while (i < 1000) : (i += 1) {
            //$omp atomic
            hits[i] += 1;
        }
    }
    var bad: i64 = 0;
    var j: i64 = 0;
    while (j < 1000) : (j += 1) {
        if (hits[j] != 1) { bad += 1; }
    }
    print(bad);
}"#,
        ),
        (
            "firstprivate_and_barriers",
            r#"fn main() void {
    var base: i64 = 5;
    var total: i64 = 0;
    //$omp parallel num_threads(3) firstprivate(base) reduction(+: total)
    {
        base += omp.get_thread_num();
        omp.internal.barrier();
        total += base;
    }
    print(total);
}"#,
        ),
        (
            "pi_quadrature",
            r#"fn main() void {
    const n: i64 = 100000;
    var pi: f64 = 0.0;
    const w: f64 = 1.0 / @intToFloat(n);
    //$omp parallel num_threads(4) reduction(+: pi)
    {
        var i: i64 = 0;
        //$omp while schedule(static)
        while (i < n) : (i += 1) {
            const x: f64 = (@intToFloat(i) + 0.5) * w;
            pi += 4.0 / (1.0 + x * x);
        }
    }
    pi = pi * w;
    print(pi > 3.14159, pi < 3.14160);
}"#,
        ),
    ] {
        assert_backends_agree(name, src);
    }
}

/// Team sizes and schedules the shared-array pin cases run under.
const PIN_THREADS: [i64; 3] = [1, 2, 4];
const PIN_SCHEDULES: [&str; 3] = ["static", "dynamic, 3", "guided"];

/// Shared-array pins (`--opt>=2` parameters read through their array
/// once per activation) must be invisible: every case where a pin must
/// not apply, or must be dropped mid-activation, agrees with the
/// tree-walker at every opt level, on native, at 1/2/4 threads and under
/// every schedule. `{T}` is the team size and `{S}` the schedule.
#[test]
fn shared_array_pins_agree() {
    for (name, template) in [
        (
            // (a) The region rebinds the shared array inside `single`;
            // after the barrier every thread must read the new array.
            "rebind_in_single_then_barrier",
            r#"fn main() void {
    var a: []i64 = @allocI(4);
    a[1] = 3;
    var total: i64 = 0;
    //$omp parallel num_threads({T}) shared(a) reduction(+: total)
    {
        total += a[1];
        //$omp barrier
        //$omp single
        {
            a = @allocI(8);
            a[5] = 42;
        }
        //$omp barrier
        total += a[5] + @len(a);
        var i: i64 = 0;
        //$omp while schedule({S})
        while (i < @len(a)) : (i += 1) {
            total += a[i];
        }
    }
    print(total, a[5], @len(a));
}"#,
        ),
        (
            // (a) The rebind happens in another function, ordered by a
            // barrier before the read: `reader`'s parameter is pinned
            // at entry, so the rebind must invalidate the pin.
            "rebind_in_other_function_across_barrier",
            r#"fn writer(p: any) void {
    p.* = @allocI(8);
    p.*[5] = 42;
}
fn reader(p: any) i64 {
    var before: i64 = p.*[0];
    omp.internal.barrier();
    return before + p.*[5] + @len(p.*);
}
fn main() void {
    var a: []i64 = @allocI(4);
    var total: i64 = 0;
    //$omp parallel num_threads({T}) shared(a) reduction(+: total)
    {
        if (omp.get_thread_num() == 0) {
            writer(&a);
            omp.internal.barrier();
            total += a[5];
        } else {
            total += reader(&a);
        }
        var i: i64 = 0;
        //$omp while schedule({S})
        while (i < 8) : (i += 1) {
            total += a[i];
        }
    }
    print(total);
}"#,
        ),
        (
            // (b) A shared array pointer passed to a callee that rebinds
            // it; the region and a second callee read the new array.
            "callee_rebinds_shared_array",
            r#"fn grow(p: any, n: i64) void {
    p.* = @allocI(n);
    var i: i64 = 0;
    while (i < n) : (i += 1) {
        p.*[i] = i * 3;
    }
}
fn sum(p: any) i64 {
    var s: i64 = 0;
    var i: i64 = 0;
    while (i < @len(p.*)) : (i += 1) {
        s += p.*[i];
    }
    return s;
}
fn main() void {
    var a: []i64 = @allocI(4);
    var total: i64 = 0;
    //$omp parallel num_threads({T}) shared(a) reduction(+: total)
    {
        //$omp single
        {
            grow(&a, 10);
        }
        total += sum(&a);
        var i: i64 = 0;
        //$omp while schedule({S})
        while (i < @len(a)) : (i += 1) {
            total += a[i];
        }
    }
    print(total, @len(a));
}"#,
        ),
        (
            // (b) The callee reads through one pointer and rebinds the
            // same cell through an alias: the read after the rebind
            // must see the new array.
            "callee_rebinds_through_alias",
            r#"fn swap_read(p: any, q: any) i64 {
    var x: i64 = p.*[0];
    q.* = @allocI(3);
    q.*[0] = 7;
    return x * 100 + p.*[0] + @len(p.*);
}
fn main() void {
    var a: []i64 = @allocI(2);
    a[0] = 5;
    var total: i64 = 0;
    //$omp parallel num_threads({T}) reduction(+: total)
    {
        var mine: []i64 = @allocI(2);
        mine[0] = omp.get_thread_num();
        total += swap_read(&mine, &mine);
    }
    print(swap_read(&a, &a), total);
}"#,
        ),
        (
            // (c) A shared *scalar* indexed as `x.*[i]`: the lock path
            // must raise the walker's "cannot index" error.
            "shared_scalar_indexed",
            r#"fn main() void {
    var x: i64 = 5;
    var i: i64 = 0;
    //$omp parallel num_threads({T}) shared(x) firstprivate(i)
    {
        var j: i64 = 0;
        //$omp while schedule({S})
        while (j < 4) : (j += 1) {
            i += x[j];
        }
    }
    print(i);
}"#,
        ),
        (
            // (c) Inference saw an array cell, but the cell holds a
            // scalar by the time the region starts: no pin, same error.
            "array_cell_rebound_to_scalar",
            r#"fn main() void {
    var a: []i64 = @allocI(4);
    a = 7;
    var s: i64 = 0;
    //$omp parallel num_threads({T}) shared(a) reduction(+: s)
    {
        var j: i64 = 0;
        //$omp while schedule({S})
        while (j < 4) : (j += 1) {
            s += a[j];
        }
    }
    print(s);
}"#,
        ),
    ] {
        for nt in PIN_THREADS {
            for sched in PIN_SCHEDULES {
                let src = template
                    .replace("{T}", &nt.to_string())
                    .replace("{S}", sched);
                assert_backends_agree(&format!("{name} (threads {nt}, {sched})"), &src);
            }
        }
    }
}

/// (d) A host-called function whose cell parameter receives a plain
/// array. Internal callers pass a cell, so the parameter is a pin
/// candidate, but the host's array must still raise the walker's
/// "cannot dereference []i64" — in the function itself and in its
/// outlined region body.
#[test]
fn host_plain_array_in_cell_parameter_errors() {
    let src = r#"fn peek(p: any, i: i64) i64 {
    return p.*[i];
}
fn peek_par(p: any, nt: i64) i64 {
    var s: i64 = 0;
    //$omp parallel num_threads(nt) firstprivate(p) reduction(+: s)
    {
        s += p.*[1];
    }
    return s;
}
fn main() void {
    var a: []i64 = @allocI(3);
    a[1] = 9;
    print(peek(&a, 1), peek_par(&a, 2));
}"#;
    let call = |backend: Backend, opt: OptLevel, entry: &str, args: Vec<Value>| {
        let vm = Vm::build(src, None, backend, opt).unwrap_or_else(|e| panic!("{}", e.render(src)));
        vm.call_function(entry, args)
            .map(|v| format!("{:?} -> {}", *vm.output.lock(), v.render()))
            .map_err(|e| e.to_string())
    };
    // Every backend and opt level agrees with the walker; returns its result.
    let agree = |entry: &str, args: &dyn Fn() -> Vec<Value>| {
        let ast = call(Backend::Ast, OptLevel::O0, entry, args());
        for opt in opt_levels() {
            let bc = call(Backend::Bytecode, opt, entry, args());
            assert_eq!(bc, ast, "{entry}: backends diverged at --opt={opt}");
        }
        let native = call(Backend::Native, OptLevel::O2, entry, args());
        assert_eq!(native, ast, "{entry}: native backend diverged");
        ast
    };
    let plain = || Value::ArrI(std::sync::Arc::new(zomp_vm::value::ArrI::new(3)));
    let deref_err = Err("runtime error: cannot dereference []i64".to_string());
    assert_eq!(
        agree("main", &Vec::new),
        Ok(r#"["9 18"] -> void"#.to_string())
    );
    assert_eq!(agree("peek", &|| vec![plain(), Value::Int(1)]), deref_err);
    for nt in PIN_THREADS {
        assert_eq!(
            agree("peek_par", &|| vec![plain(), Value::Int(nt)]),
            deref_err
        );
    }
}

/// Tokenwise equality with a relative tolerance for floats: reduction
/// combine order depends on thread arrival, so float sums jitter in the
/// last bits run-to-run on *both* backends.
fn lines_equivalent(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    let (ta, tb): (Vec<&str>, Vec<&str>) = (a.split(' ').collect(), b.split(' ').collect());
    ta.len() == tb.len()
        && ta.iter().zip(&tb).all(|(x, y)| {
            x == y
                || matches!((x.parse::<f64>(), y.parse::<f64>()), (Ok(fx), Ok(fy))
                    if (fx - fy).abs() <= 1e-9 * fx.abs().max(fy.abs()))
        })
}

/// Example programs may print racy values (which thread won `single`): a
/// line is only compared when two runs of the *same* backend produce it
/// identically, and float tokens get reduction-order tolerance.
#[test]
fn example_programs_stable_lines_agree() {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/zag");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("examples/zag exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "zag") {
            continue;
        }
        seen += 1;
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        let src = std::fs::read_to_string(&path).unwrap();
        let ast1 =
            run_on(&src, Backend::Ast, OptLevel::O0).unwrap_or_else(|e| panic!("{name}: {e}"));
        let ast2 = run_on(&src, Backend::Ast, OptLevel::O0).unwrap();
        for opt in opt_levels() {
            let bc1 = run_on(&src, Backend::Bytecode, opt)
                .unwrap_or_else(|e| panic!("{name} at --opt={opt}: {e}"));
            let bc2 = run_on(&src, Backend::Bytecode, opt).unwrap();
            assert_eq!(
                bc1.len(),
                ast1.len(),
                "{name}: line counts diverged at --opt={opt}"
            );
            for (i, line) in bc1.iter().enumerate() {
                let stable =
                    lines_equivalent(line, &bc2[i]) && lines_equivalent(&ast1[i], &ast2[i]);
                if stable {
                    assert!(
                        lines_equivalent(line, &ast1[i]),
                        "{name}: line {i} diverged at --opt={opt}:\n  bytecode: {line}\n  ast:      {}",
                        ast1[i]
                    );
                }
            }
        }
    }
    assert!(seen >= 3, "expected the shipped sample programs");
}

/// PR 2's pragma labels (`unit:line` from `preprocess_named`) must reach
/// the runtime's `ParallelBegin` probe when regions are entered through
/// compiled bytecode, so Chrome traces keep source-pragma names.
#[test]
fn bytecode_fork_call_keeps_pragma_labels() {
    use std::sync::{Mutex, OnceLock};
    static LABELS: OnceLock<Mutex<Vec<String>>> = OnceLock::new();
    let labels = LABELS.get_or_init(|| Mutex::new(Vec::new()));
    zomp::trace::register_callback(|probe| {
        if let zomp::trace::Probe::ParallelBegin { label, .. } = probe {
            LABELS
                .get()
                .unwrap()
                .lock()
                .unwrap()
                .push(label.to_string());
        }
    });
    let src = r#"fn main() void {
    var s: i64 = 0;
    //$omp parallel num_threads(2) reduction(+: s)
    {
        s += 1;
    }
    print(s);
}"#;
    for opt in opt_levels() {
        labels.lock().unwrap().clear();
        let vm = Vm::build(src, Some("label_demo.zag"), Backend::Bytecode, opt).unwrap();
        assert!(matches!(
            vm.call_function("main", Vec::new()).unwrap(),
            Value::Void
        ));
        assert_eq!(vm.output.into_inner(), vec!["2"]);
        let got = labels.lock().unwrap();
        assert!(
            got.iter().any(|l| l == "label_demo.zag:3"),
            "pragma label missing from ParallelBegin probes at --opt={opt}: {got:?}"
        );
    }
}
