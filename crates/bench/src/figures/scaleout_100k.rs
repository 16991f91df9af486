use std::time::Instant;

use crate::{header, scaleout_config, Scale};

use aergia::engine::Engine;
use aergia::prelude::TopologyBuilder;
use aergia::strategy::Strategy;

/// Peak resident set size of this process in MiB (Linux `VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Edge aggregators in the two-tier layout.
const NUM_EDGES: usize = 8;

/// Million-client scale-out: cohort-sampled client state under two-tier
/// aggregation at population scale.
///
/// Simulates a large client population in timing mode with only the
/// selected participants materialised: the unselected crowd exists as
/// compact per-client timing state (speeds, shard sizes, cohort ids —
/// tens of bytes each) while batcher state lives in the LRU pool capped
/// at the participation count. The printout shows the knee
/// the PR exists for: resident client bytes follow `trained`, not
/// `simulated`.
///
/// At `AERGIA_SCALE=smoke` the figure runs the 100k-simulated /
/// 1k-trained point; at default and paper scale it adds the 1M / 10k
/// point. The `scale-smoke` CI job runs both under an RSS ceiling: set
/// `AERGIA_RSS_LIMIT_MB` and the figure panics — the process exits
/// non-zero — if its peak resident set exceeds it.
pub(crate) fn scaleout_100k(scale: Scale) {
    header(scale, "Scale-out", "cohort-sampled population, two-tier aggregation (timing mode)");

    let points: &[(usize, usize, u32)] = match scale {
        Scale::Smoke => &[(100_000, 1_000, 3)],
        _ => &[(100_000, 1_000, 3), (1_000_000, 10_000, 2)],
    };

    println!(
        "{:>10} {:>8} {:>7} {:>8} {:>10} {:>12} {:>9} {:>9}",
        "simulated", "trained", "rounds", "edges", "secs", "res. bytes", "res. cli", "rebuilds"
    );
    for &(simulated, trained, rounds) in points {
        let started = Instant::now();
        let config = scaleout_config(simulated, trained, rounds, 0x5ca1e);
        let topology = TopologyBuilder::new().edge_cohorts(NUM_EDGES, 0x5ca1e);
        let mut engine =
            Engine::with_topology(config, Strategy::FedAvg, topology).expect("valid config");
        let result = engine.run().expect("scale-out run");
        let secs = started.elapsed().as_secs_f64();

        let resident_bytes = result.rounds.iter().map(|r| r.pool.resident_bytes).max().unwrap_or(0);
        let resident_clients =
            result.rounds.iter().map(|r| r.pool.resident_clients).max().unwrap_or(0);
        let rebuilds: u32 = result.rounds.iter().map(|r| r.pool.rebuilds).sum();
        assert!(
            resident_clients as usize <= trained,
            "pool must stay within the participation cap ({resident_clients} > {trained})"
        );
        for r in &result.rounds {
            assert_eq!(r.participants.len(), trained, "every round trains the full selection");
        }
        println!(
            "{simulated:>10} {trained:>8} {rounds:>7} {NUM_EDGES:>8} {secs:>10.2} \
             {resident_bytes:>12} {resident_clients:>9} {rebuilds:>9}"
        );
    }

    match peak_rss_mib() {
        Some(peak) => {
            println!();
            println!("peak RSS: {peak:.0} MiB");
            // `VmHWM` is the whole process's peak, so the ceiling means
            // "this figure's footprint" only when the figure runs alone:
            // the `scale-smoke` CI job does exactly that
            // (`cargo bench --bench figures -- scaleout_100k`).
            if let Some(limit) =
                std::env::var("AERGIA_RSS_LIMIT_MB").ok().and_then(|v| v.parse::<f64>().ok())
            {
                assert!(
                    peak <= limit,
                    "scaleout: peak RSS {peak:.0} MiB exceeds the {limit:.0} MiB ceiling"
                );
                println!("within the {limit:.0} MiB ceiling ✓");
            }
        }
        None => println!("\npeak RSS: unavailable on this platform"),
    }

    println!();
    println!(
        "expected shape: resident client bytes track the participation cap\n\
         (trained), not the simulated population — the 10x population step\n\
         moves wall-time, not resident client state."
    );
}
