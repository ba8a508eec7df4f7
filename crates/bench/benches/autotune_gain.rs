//! §4.3's closing observation, made executable: "If Hector presumably
//! chooses the best configuration in every run, it could further get
//! 1.06×, 1.33×, 1.02×, and 1.08× speed-up" over the fixed C+R strategy
//! in {RGAT, HGT} × {training, inference}. This harness runs the
//! exhaustive cost-model autotuner (the paper's future work) per model ×
//! dataset and reports the realised per-scenario geomean gains.

use hector::prelude::*;
use hector_bench::{banner, device_config, geomean, load_datasets, scale};

fn main() {
    let s = scale();
    banner("Autotuning gain over the fixed C+R strategy", s);
    let cfg = device_config(s);
    let mut datasets = load_datasets(s);
    datasets.sort_by(|a, b| a.name.cmp(&b.name));
    for kind in [ModelKind::Rgat, ModelKind::Hgt] {
        for training in [true, false] {
            let mode = if training { "training" } else { "inference" };
            println!("\n--- {} {} ---", kind.name(), mode);
            println!("{:<10} {:>24} {:>9}", "dataset", "winner", "gain");
            let mut gains = Vec::new();
            for d in &datasets {
                let r = hector::autotune(kind, 64, 64, &d.graph, &cfg, training)
                    .expect("every bench dataset fits some configuration");
                let gain = r.gain_over_fixed();
                gains.push(gain);
                println!(
                    "{:<10} {:>24} {:>8.2}x",
                    d.name,
                    format!(
                        "{} tile={} coarsen={}",
                        r.options.label(),
                        r.options.schedule.tile,
                        r.options.schedule.coarsen
                    ),
                    gain
                );
            }
            println!("{:<10} {:>24} {:>8.2}x", "GEOMEAN", "", geomean(&gains));
        }
    }
    println!("\nPaper reference (§4.3): per-run best configuration would add");
    println!("1.06x (RGAT train), 1.33x (HGT train), 1.02x (RGAT infer),");
    println!("1.08x (HGT infer) over always running C+R.");
}
