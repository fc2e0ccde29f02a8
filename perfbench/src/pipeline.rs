//! The Zag compile pipeline, called phase by phase through the public
//! functions of `zomp-front` and `zomp-vm` so each phase gets its own
//! span. The phase order is `zomp_vm::compile_opt`'s; [`check_same`]
//! proves the result is the image `compile_opt` builds.

use std::collections::HashMap;
use std::sync::Arc;

use zomp_front::ast::Tag;
use zomp_vm::{compile, kernels, optimize, typeck, OptLevel, Program};

use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{SpanId, Tracer};

/// Kernels and templates installed in a compiled program.
pub fn installed(program: &Program) -> (usize, usize) {
    program.code.funcs.iter().fold((0, 0), |(k, t), f| {
        (k + f.kernels.len(), t + f.templates.len())
    })
}

/// Compile `source` at `opt`, one span per phase under `parent`.
pub fn compile_traced(
    tracer: &Tracer,
    job: u64,
    parent: Option<SpanId>,
    source: &str,
    unit: &str,
    opt: OptLevel,
) -> Result<Arc<Program>, String> {
    let original = tracer
        .span("front.parse", job, parent, |_| zomp_front::parse(source))
        .map_err(|d| d.render(source))?;
    let diags = tracer.span("front.analyze", job, parent, |_| {
        zomp_front::analyze(&original, unit)
    });
    let final_source = tracer
        .span("front.preprocess", job, parent, |_| {
            zomp_front::preprocess::preprocess_named(source, unit)
        })
        .map_err(|d| d.render(source))?;
    let ast = tracer
        .span("front.parse", job, parent, |_| {
            zomp_front::parse(&final_source)
        })
        .map_err(|d| d.render(&final_source))?;

    let mut functions = HashMap::new();
    let root = *ast.node(ast.root);
    for &decl in ast.range(&root) {
        let node = ast.node(decl);
        if node.tag == Tag::FnDecl {
            functions.insert(ast.token_text(node.main_token).to_string(), decl);
        }
    }

    let mut image = tracer.span("vm.compile", job, parent, |_| compile::compile_image(&ast));
    if opt > OptLevel::O0 {
        let nfuncs = image.funcs.len();
        tracer.span("vm.optimize", job, parent, |_| {
            for f in &mut image.funcs {
                optimize::optimize_fn(f, opt, nfuncs);
            }
        });
        if opt >= OptLevel::O2 {
            tracer.span("vm.typeck", job, parent, |_| {
                typeck::specialize_image(&mut image)
            });
        }
        if opt >= OptLevel::O3 {
            tracer.span("vm.install", job, parent, |_| {
                kernels::install_image(&mut image)
            });
        }
    }
    Ok(Arc::new(Program {
        ast,
        functions,
        code: image,
        original_source: source.to_string(),
        final_source,
        diags,
        opt,
    }))
}

/// Fails unless `program` disassembles exactly like the image
/// `zomp_vm::compile_opt` builds from the same source, so the phases the
/// benchmark times are the pipeline users run.
pub fn check_same(program: &Program, source: &str, unit: &str) -> Result<(), String> {
    let reference =
        zomp_vm::compile_opt(source, Some(unit), program.opt).map_err(|d| d.render(source))?;
    let (a, b) = (
        zomp_vm::bytecode::disasm(&program.code),
        zomp_vm::bytecode::disasm(&reference.code),
    );
    if a == b
        && program.final_source == reference.final_source
        && installed(program) == installed(&reference)
    {
        Ok(())
    } else {
        Err(format!(
            "{unit}: the phase-by-phase pipeline diverged from compile_opt"
        ))
    }
}

/// `front.*`/`vm.*` phase medians per compiled program from the spans,
/// and the install counts over the workload's programs.
pub fn report(tracer: &Tracer, kernels: usize, templates: usize, out: &mut Outcome) {
    let spans = tracer.spans();
    println!("-- compile pipeline, median per compiled program");
    for (span, metric) in [
        ("front.parse", "front.parse_us"),
        ("front.analyze", "front.analyze_us"),
        ("front.preprocess", "front.preprocess_us"),
        ("vm.compile", "vm.compile_us"),
        ("vm.optimize", "vm.optimize_us"),
        ("vm.typeck", "vm.typeck_us"),
        ("vm.install", "vm.install_us"),
    ] {
        let mut per_job = std::collections::BTreeMap::new();
        for s in spans.iter().filter(|s| s.name == span) {
            *per_job.entry(s.job).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 / 1e3;
        }
        let v: Vec<f64> = per_job.into_values().collect();
        let us = if v.is_empty() { 0.0 } else { median(&v) };
        println!("   {metric:<24} {us:>10.1} us over {} compiles", v.len());
        out.set(metric, us);
    }
    out.set("vm.kernels_installed", kernels as f64);
    out.set("vm.templates_installed", templates as f64);
    println!("   installed: {kernels} kernels, {templates} templates");
}
