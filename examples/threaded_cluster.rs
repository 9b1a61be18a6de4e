//! Threaded cluster: run CE, CS and LS with every site on its own OS
//! thread, talking over channels in scaled real time, and hold each run's
//! merged trace to the four oracles that judge simulated runs.
//!
//! ```text
//! cargo run --release --example threaded_cluster
//! ```

use siteselect::check::check_trace;
use siteselect::cluster::{Cluster, ClusterConfig};
use siteselect::types::{ExperimentConfig, SimDuration, SimTime, SystemKind};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for system in [
        SystemKind::Centralized,
        SystemKind::ClientServer,
        SystemKind::LoadSharing,
    ] {
        let mut cfg = ClusterConfig {
            experiment: ExperimentConfig::paper(system, 8, 0.2),
            ..ClusterConfig::default()
        };
        cfg.experiment.runtime.duration = SimDuration::from_secs(400);
        cfg.experiment.runtime.warmup = SimDuration::ZERO;
        println!(
            "{system}: {} clients, {} threads, {:.1} s simulated per ms",
            cfg.experiment.clients,
            cfg.experiment.clients + 1,
            0.001 / cfg.time_scale
        );
        let report = Cluster::run(cfg)?;
        print!("{report}");
        match check_trace(&report.trace, &report.metrics, SimTime::ZERO) {
            Ok(()) => println!("oracles: serializability, coherence, deadline, recovery pass\n"),
            Err(v) => {
                println!("VIOLATION: {v}");
                return Err(v.into());
            }
        }
    }
    Ok(())
}
