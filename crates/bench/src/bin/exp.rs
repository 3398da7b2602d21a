//! Run one experiment by id: `exp <id>`; `exp --list` lists all.

use bench_support::{find, registry, ExperimentContext, Scale};

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "--list".into());
    if arg == "--list" {
        println!("available experiments:");
        for e in registry() {
            println!("  {:<24} {}", e.id, e.title);
        }
        let scales: Vec<&str> = Scale::NAMES.iter().map(|(name, _)| *name).collect();
        println!(
            "\nusage: exp <id>   (scale via P2PQ_SCALE={})",
            scales.join("|")
        );
        return;
    }
    let Some(exp) = find(&arg) else {
        telemetry::warn!("unknown experiment `{arg}`; try --list");
        std::process::exit(2);
    };
    let scale = Scale::from_env().unwrap_or_else(|e| {
        eprintln!("exp: {e}");
        std::process::exit(2);
    });
    let ctx = ExperimentContext::build(scale);
    println!("=== {} ===\n", exp.title);
    print!("{}", (exp.run)(&ctx));
}
