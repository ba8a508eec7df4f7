//! Figure 12: architectural metrics of Hector's generated kernels
//! running RGAT on bgs and am with and without compact materialization,
//! dimensions 32/64/128: per-category (GEMM vs traversal) and
//! per-direction (forward vs backward) duration, achieved GFLOP/s,
//! IPC proxy, and DRAM throughput.

use hector::prelude::*;
use hector_bench::{banner, device_config, load_dataset, scale};
use hector_device::{KernelCategory, Phase};

fn main() {
    let s = scale();
    banner("Figure 12: architectural metrics, Hector RGAT kernels", s);
    let cfg = device_config(s);
    for name in ["bgs", "am"] {
        let d = load_dataset(name, s);
        println!("\n===== {} =====", name);
        println!(
            "{:<5} {:<4} | {:<10} {:>10} {:>9} {:>6} {:>8} | {:<10} {:>10} {:>9} {:>6} {:>8}",
            "dim",
            "cfg",
            "",
            "dur(ms)",
            "GFLOP/s",
            "IPC",
            "DRAM%",
            "",
            "dur(ms)",
            "GFLOP/s",
            "IPC",
            "DRAM%"
        );
        for dim in [32usize, 64, 128] {
            for (label, opts) in [
                ("U", CompileOptions::unopt()),
                ("C", CompileOptions::compact_only()),
            ] {
                let source = EngineBuilder::new(ModelKind::Rgat).dims(dim, dim).source();
                let module = hector::compile_cached(&source, &opts.with_training(true));
                let mut device = hector::Device::new(cfg.clone());
                if hector::model_run(&module, &d.graph, &mut device, true).is_err() {
                    println!("{dim:<5} {label:<4} | OOM");
                    continue;
                }
                for phase in [Phase::Forward, Phase::Backward] {
                    let dir = match phase {
                        Phase::Forward => "Fw",
                        Phase::Backward => "Bck",
                    };
                    let counters = device.counters();
                    let g = counters.get(KernelCategory::Gemm, phase);
                    let t = counters.get(KernelCategory::Traversal, phase);
                    println!(
                        "{:<5} {:<4} | {:<10} {:>10.3} {:>9.0} {:>6.2} {:>8.1} | {:<10} {:>10.3} {:>9.0} {:>6.2} {:>8.1}",
                        dim,
                        label,
                        format!("GEMM/{dir}"),
                        g.duration_us / 1e3,
                        g.achieved_gflops(),
                        g.avg_ipc(),
                        g.dram_throughput_pct(&cfg),
                        format!("Trav/{dir}"),
                        t.duration_us / 1e3,
                        t.achieved_gflops(),
                        t.avg_ipc(),
                        t.dram_throughput_pct(&cfg),
                    );
                }
            }
        }
    }
    println!();
    println!("Paper shape (Fig. 12): throughput rises with dimension and with graph");
    println!("scale (bgs -> am); traversal kernels are latency-bound (IPC well under");
    println!("the ideal 4); backward kernels have lower throughput than forward due");
    println!("to atomic updates and outer products.");
}
