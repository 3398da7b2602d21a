//! Run every registered experiment, in registry order, on one shared
//! context and write the combined report (the data behind
//! EXPERIMENTS.md) to stdout.

use bench_support::{registry, ExperimentContext, Scale};

fn main() {
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("all_experiments: {e}");
        std::process::exit(2);
    });
    let ctx = ExperimentContext::build(scale);
    println!("# Experiment report (scale: {:?})", ctx.scale);
    println!(
        "# trace: {} connections, {} filtered sessions, {} observed days\n",
        ctx.stats.direct_connections,
        ctx.ft.sessions.len(),
        ctx.obs.n_days()
    );

    let reg = registry();
    let t0 = std::time::Instant::now();
    for e in &reg {
        let t = std::time::Instant::now();
        let out = (e.run)(&ctx);
        let took = t.elapsed();
        println!("## [{}] {}\n", e.id, e.title);
        print!("{out}");
        println!("\n(took {took:.1?})\n");
    }
    telemetry::info!(
        "[bench] {} experiments in {:.1?} wall",
        reg.len(),
        t0.elapsed()
    );
}
