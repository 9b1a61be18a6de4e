//! Seed sensitivity of the Figure 5 headline point (100 clients, 20%
//! updates): CS and LS at paper scale for seeds 1–3, one `run_many` call
//! with one worker per core. `scripts/ci.sh seedcheck` diffs the output
//! against `results/seedcheck.txt`.

use siteselect_core::experiments::{run_many, SweepOptions};
use siteselect_types::{ConfigError, SystemKind};

const SEEDS: [u64; 3] = [1, 2, 3];
const SYSTEMS: [SystemKind; 2] = [SystemKind::ClientServer, SystemKind::LoadSharing];

fn main() -> Result<(), ConfigError> {
    let paper = SweepOptions::paper();
    let cfgs: Vec<_> = SEEDS
        .iter()
        .flat_map(|&seed| SYSTEMS.map(|system| paper.cell(system, 100, 0.20).with_seed(seed)))
        .collect();
    let metrics = run_many(0, &cfgs)?;
    for (seed, runs) in SEEDS.iter().zip(metrics.chunks_exact(SYSTEMS.len())) {
        let mut line = format!("seed {seed}:");
        for (system, m) in SYSTEMS.iter().zip(runs) {
            line += &format!("  {} {:.2}%", system.label(), m.success_percent());
        }
        println!("{line}");
    }
    Ok(())
}
