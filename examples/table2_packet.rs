//! Table 2 on the packet-level backend — the closer analogue of the
//! paper's Emulab testbed than the fluid grid the registry's `table2`
//! experiment runs.
//!
//! The paper's `(n ∈ {2,3,4}) × (BW ∈ {20,30,60,100} Mbps)` grid at 42 ms
//! RTT and a 100-MSS buffer: `n − 1` protocol senders share the link with
//! one TCP Reno sender, 60 simulated seconds per cell. Prints the
//! per-cell improvement factor of Robust-AIMD(1, 0.8, 0.01) over PCC.
//! With `--paced`, PCC is paced (the real PCC's sender class); the
//! committed output of that variant is `results/table2_paced.txt`:
//!
//! ```sh
//! cargo run --release --example table2_packet
//! cargo run --release --example table2_packet -- --paced > results/table2_paced.txt
//! ```

use axiomatic_cc::analysis::experiments::table2::{
    build_table2_packet_paced_with, build_table2_packet_with,
};
use axiomatic_cc::sweep::SweepRunner;

/// Packet-level seconds per Table 2 cell.
const PACKET_SECS: f64 = 60.0;

fn main() {
    let runner = SweepRunner::without_cache(0);
    let table = if std::env::args().any(|a| a == "--paced") {
        build_table2_packet_paced_with(&runner, PACKET_SECS)
    } else {
        build_table2_packet_with(&runner, PACKET_SECS)
    };
    println!("{}", table.render());
}
