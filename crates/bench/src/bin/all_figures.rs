//! Regenerates the paper's evaluation artifacts and writes
//! `target/figures.json` under the working directory, creating `target/`
//! when it is missing; exits nonzero if any qualitative claim fails or
//! the file cannot be written.
//!
//! `all_figures [--quick] [ID…]`: `--quick` runs smaller machine
//! sweeps. Figure ids (`fig03` … `fig16`, `storage`) restrict the run
//! to those figures, over pipelines for only the examples they need;
//! an unknown id exits 64 and lists the known ones.
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let ids: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--quick")
        .collect();
    let specs = aov_bench::select_figures(&ids).unwrap_or_else(|e| {
        eprintln!("all_figures: {e}");
        std::process::exit(64);
    });
    let ctx = aov_bench::FigureCtx::for_figures(&specs).expect("pipelines run");
    let reports: Vec<_> = specs.iter().map(|s| (s.run)(&ctx, !quick)).collect();
    let mut failures = 0;
    for r in &reports {
        print!("{}", r.render());
        if !r.reproduced {
            failures += 1;
        }
    }
    use aov_support::ToJson;
    let json = reports.to_json().to_pretty();
    let path = "target/figures.json";
    if let Err(e) = std::fs::create_dir_all("target").and_then(|()| std::fs::write(path, json)) {
        eprintln!("all_figures: cannot write {path}: {e}");
        std::process::exit(1);
    }
    println!("(wrote {path})");
    println!("{} artifacts, {} failures", reports.len(), failures);
    assert_eq!(failures, 0, "{failures} artifacts failed to reproduce");
}
