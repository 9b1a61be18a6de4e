//! Protocol comparison: the messages plain callback locking and the paper's
//! grouped locks (Figures 1 and 2) spend to move one object, as the engine
//! delivers them.
//!
//! ```text
//! cargo run --release --example protocol_comparison
//! ```

use siteselect::core::{script, Simulator};

fn main() {
    println!("=== Figure 1: moving an object from Client A to Client B under");
    println!("    callback locking with inter-transaction caching (CS) ===\n");
    print!("{}", script::figure_listing(1));

    println!("\n=== Figure 2: a holder and three requesters under grouped locks");
    println!("    (LS: collection window and forward list) ===\n");
    print!("{}", script::figure_listing(2));

    println!("\n=== Scaling: k clients write one object in turn ===\n");
    println!("engine counts against the paper's worst case for callback locking");
    println!("(4k) and its count for grouped locks (2k+1)\n");
    println!(
        "{:>3}  {:>11}  {:>4}  {:>11}  {:>4}",
        "k", "CS (engine)", "4k", "LS (engine)", "2k+1"
    );
    for requesters in 1..=4u16 {
        let [cs, ls] = [1, 2].map(|figure| {
            let (cfg, specs) = script::figure(figure, requesters);
            Simulator::new(cfg).run_script(specs).1.len()
        });
        let k = requesters + 1;
        println!("{k:>3}  {cs:>11}  {:>4}  {ls:>11}  {:>4}", 4 * k, 2 * k + 1);
    }
}
