//! The programming-effort result (§4.1): "Hector takes in 51 lines of
//! code expressing the three models and generates a total of 8K lines of
//! CUDA and C++ code" (3K CUDA kernel code, 5K host C++, plus 2K Python
//! autograd definitions).

use hector::prelude::*;

fn main() {
    println!();
    println!("================================================================");
    println!("Programming effort: model lines in vs. generated lines out");
    println!("================================================================");
    println!(
        "{:<8} {:>10} {:>12} {:>11} {:>11} {:>11}",
        "model", "DSL lines", "CUDA lines", "host lines", "py lines", "total out"
    );
    let mut total_in = 0usize;
    let mut total_out = 0usize;
    for kind in ModelKind::all() {
        // Training modules generate both forward and backward kernels,
        // matching the paper's end-to-end counting.
        let lines = hector::model_source(kind, 64, 64).lines;
        let module =
            hector::compile_model_cached(kind, 64, 64, &CompileOptions::best().with_training(true));
        let code = hector::emit(&module);
        let cuda = code.cuda_lines();
        let host = code.host.lines().filter(|l| !l.trim().is_empty()).count();
        let py = code.python.lines().filter(|l| !l.trim().is_empty()).count();
        println!(
            "{:<8} {:>10} {:>12} {:>11} {:>11} {:>11}",
            kind.name(),
            lines,
            cuda,
            host,
            py,
            cuda + host + py,
        );
        total_in += lines;
        total_out += cuda + host + py;
    }
    println!(
        "{:<8} {:>10} {:>12} {:>11} {:>11} {:>11}",
        "TOTAL", total_in, "", "", "", total_out
    );
    println!();
    println!(
        "Expansion factor (C+R configuration): {:.0}x",
        total_out as f64 / total_in as f64
    );
    // The paper's artifact ships kernels for its full configuration set;
    // count all four optimization combinations for the comparable figure.
    let mut all_combos = 0usize;
    for kind in ModelKind::all() {
        for opts in [
            CompileOptions::unopt(),
            CompileOptions::compact_only(),
            CompileOptions::reorder_only(),
            CompileOptions::best(),
        ] {
            let m = hector::compile_model_cached(kind, 64, 64, &opts.with_training(true));
            all_combos += hector::emit(&m).total_lines();
        }
    }
    println!(
        "All four option combinations (U/C/R/C+R), training: {} generated lines",
        all_combos
    );
    println!("Paper reference: 51 model lines -> 3K CUDA + 5K host C++ + 2K Python.");
}
