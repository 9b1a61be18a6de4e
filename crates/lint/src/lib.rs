//! `siteselect-lint` — a dependency-free determinism & safety analyzer
//! (`detlint`) for the `siteselect` workspace.
//!
//! Every result this repository reports rests on bit-identical replay:
//! the reproduction's deadline-hit percentages are trustworthy only
//! because `repro` produces the same bytes at every seed and job count.
//! `detlint` guards that property *statically* — before the runtime
//! diffs in `scripts/ci.sh` ever run — by walking every `.rs` file with
//! a hand-rolled lexer and enforcing the contract described in
//! [`rules`]: no wall-clock reads, no hash-ordered iteration or random hasher in
//! deterministic crates, no ambient randomness, documented `unsafe`,
//! reasoned `#[allow]`s, no stray printing from library code, and no
//! lock in the threaded cluster, whose sites share only channels.
//!
//! Like the rest of the workspace it has **zero external dependencies**;
//! the config file ([`config`]) is a hand-parsed TOML subset and the
//! lexer ([`lexer`]) understands exactly as much Rust as the rules need.
//!
//! ```text
//! detlint check --workspace        # lint the whole repo (CI gate)
//! detlint check crates/sim/src/rng.rs
//! detlint rules                    # print the rule table
//! ```

pub mod baseline;
pub mod config;
pub mod json;
pub mod lexer;
pub mod panic;
pub mod parse;
pub mod rules;
pub mod workspace;

pub use config::Config;
pub use rules::{RuleId, Violation};
pub use workspace::{check, discover_files, load_baseline, load_config, Report};
