//! Prints original and transformed pseudo-code for all four examples
//! (the paper's Figures 2, 6, 9, 11 and 14). The transformed code comes
//! from the instrumented pipeline's codegen stage.
use aov_core::codegen;

fn main() {
    let ctx = aov_bench::FigureCtx::build_all().expect("pipelines run");
    for name in aov_bench::EXAMPLES {
        let p = ctx.program(name);
        println!("==== {} ====", p.name());
        println!("-- original --\n{}", codegen::original_code(p));
        println!("-- transformed under AOVs --\n{}", ctx.code(name));
    }
}
