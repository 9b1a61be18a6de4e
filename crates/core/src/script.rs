//! Hand-written scenarios for [`Simulator::run_script`]: the one-object
//! script behind the paper's Figures 1 and 2, and the numbered message
//! listing those figures print.
//!
//! ```
//! use siteselect_core::{script, Simulator};
//!
//! // Figure 1: client A holds the object, client B then writes it.
//! let (cfg, specs) = script::figure(1, 1);
//! let (metrics, delivered) = Simulator::new(cfg).run_script(specs);
//! assert_eq!(metrics.in_time, 2);
//! assert!(script::render(&delivered).ends_with("total: 6 messages\n"));
//! ```
//!
//! [`Simulator::run_script`]: crate::Simulator::run_script

use std::fmt::Write as _;

use siteselect_net::MessageKind;
use siteselect_types::{
    AccessSpec, ClientId, ExperimentConfig, ObjectId, SimDuration, SimTime, SiteId, SystemKind,
    TransactionId, TransactionSpec,
};

use crate::clientserver::{Delivered, Simulator};

/// A transaction of client `client` that arrives at `at` and writes object
/// 0: 10 ms of CPU, due 100 s after it arrives.
#[must_use]
pub fn write_at(client: u16, at: SimTime) -> TransactionSpec {
    TransactionSpec {
        id: TransactionId::new(ClientId(client), 0),
        origin: ClientId(client),
        arrival: at,
        deadline: at + SimDuration::from_secs(100),
        cpu_demand: SimDuration::from_micros(10_000),
        accesses: vec![AccessSpec::write(ObjectId(0))],
        decomposable: false,
    }
}

/// The configuration a script runs under: `system` with one site per
/// scripted client, no warm-up, and H1, H2 and decomposition off, so an LS
/// transaction runs where it arrives.
#[must_use]
pub fn config(system: SystemKind, clients: u16) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper(system, clients, 0.0);
    cfg.runtime.warmup = SimDuration::ZERO;
    let ls = &mut cfg.load_sharing;
    (ls.h1_enabled, ls.h2_enabled, ls.decomposition_enabled) = (false, false, false);
    cfg
}

/// One object, `requesters + 1` writers: client A writes at 1 ms and then
/// holds the object in its cache; client B writes at 3 s, and each further
/// requester `gap` after the one before.
#[must_use]
pub fn one_object(
    system: SystemKind,
    requesters: u16,
    gap: SimDuration,
) -> (ExperimentConfig, Vec<TransactionSpec>) {
    let holder = write_at(0, SimTime::from_micros(1_000));
    let first = SimTime::from_secs(3);
    let rest = (1..=requesters).map(|c| write_at(c, first + gap * u64::from(c - 1)));
    let specs = std::iter::once(holder).chain(rest).collect();
    (config(system, requesters + 1), specs)
}

/// The script of Figure `number` with `requesters` after the holder.
/// Figure 1 is plain callback locking (CS), each requester writing 3 s
/// after the one before, once it is done. Figure 2 is grouped locks (LS),
/// the requesters 1 ms apart, so that a collection window gathers them
/// into a forward list.
#[must_use]
pub fn figure(number: u8, requesters: u16) -> (ExperimentConfig, Vec<TransactionSpec>) {
    let (system, gap) = match number {
        1 => (SystemKind::ClientServer, SimDuration::from_secs(3)),
        _ => (SystemKind::LoadSharing, SimDuration::from_micros(1_000)),
    };
    one_object(system, requesters, gap)
}

/// Figure `number` as `repro` prints it: Figure 1 with one requester (A
/// holds, B writes), Figure 2 with three, the fewest whose run shows a
/// client-to-client forward hop.
#[must_use]
pub fn figure_listing(number: u8) -> String {
    let (cfg, specs) = figure(number, if number == 1 { 1 } else { 3 });
    let (_, delivered) = Simulator::new(cfg).run_script(specs);
    render(&delivered)
}

/// The delivered messages as numbered `X -> Y: i: label` lines, then
/// `total: N messages`.
#[must_use]
pub fn render(delivered: &[Delivered]) -> String {
    let name = |site: SiteId| match site {
        SiteId::Client(c) if c.0 < 26 => format!("Client {}", char::from(b'A' + c.0 as u8)),
        SiteId::Client(c) => format!("Client C{}", c.0),
        SiteId::Server | SiteId::Directory => format!("{site:?}"),
    };
    let mut out = String::new();
    for (i, d) in delivered.iter().enumerate() {
        let label = match d.kind {
            MessageKind::ObjectRequest => "request object",
            MessageKind::ObjectSend => "ship object",
            MessageKind::LockGrant => "grant lock",
            MessageKind::Recall => "recall object",
            MessageKind::ObjectReturn => "return object",
            MessageKind::CallbackAck => "acknowledge recall",
            MessageKind::ConflictInfo => "report conflicts",
            MessageKind::ObjectForward => "forward object",
            other => other.label(),
        };
        let (from, to, n) = (name(d.from), name(d.to), i + 1);
        let _ = writeln!(out, "{from} -> {to}: {n}: {label}");
    }
    let _ = writeln!(out, "total: {} messages", delivered.len());
    out
}
