//! The paper's motivating commercial workload: a relational database
//! whose user data misses are ~90% to read-write shared pages (Verghese
//! et al., cited in Section 1). Page replication/migration cannot help
//! such pages — but R-NUMA's page cache can.
//!
//! The model: a shared table of records, partitioned scans with hot
//! index pages re-read by everyone, and an update stream that keeps the
//! pages read-write.
//!
//! Run with: `cargo run --release -p rnuma-bench --example database_scan`

use rnuma::config::{MachineConfig, Protocol};
use rnuma::experiment::run;
use rnuma::program::{Runner, Workload};
use rnuma_sim::DetRng;

const RECORD: u64 = 128; // bytes per record
const RECORDS: u64 = 16 * 1024;
const INDEX_PAGES: u64 = 24; // hot B-tree upper levels
const TXNS_PER_CPU: u64 = 256;

struct Database {
    seed: u64,
}

impl Workload for Database {
    fn name(&self) -> &'static str {
        "database"
    }

    fn run(&mut self, r: &mut Runner<'_>) {
        let table = r.alloc(RECORDS * RECORD);
        let index = r.alloc(INDEX_PAGES * 4096);
        let mut rng = DetRng::seeded(self.seed);

        // Transactions: each touches the index root pages (hot reuse),
        // then a few random records (read), updating one of them.
        let plans: Vec<(u64, [u64; 4])> = (0..u64::from(r.cpus()) * TXNS_PER_CPU)
            .map(|_| {
                let target = rng.range_u64(0, RECORDS);
                let mut reads = [0u64; 4];
                for slot in reads.iter_mut() {
                    *slot = rng.range_u64(0, RECORDS);
                }
                (target, reads)
            })
            .collect();

        // The table is loaded by partitioned owners (first touch).
        let load = r.block_partition(RECORDS);
        r.parallel(&load, |ctx, _cpu, rec| {
            ctx.write(table.elem(rec, RECORD));
        });
        // The index is built by CPU 0 (homed on node 0 — every other
        // node reads it remotely, the classic hot-structure problem).
        r.serial(rnuma_mem::addr::CpuId(0), |ctx| {
            for w in 0..index.len(8) {
                if w % 4 == 0 {
                    ctx.write(index.word(w));
                }
            }
        });
        r.barrier();

        let txns: Vec<Vec<u64>> = (0..u64::from(r.cpus()))
            .map(|c| (c * TXNS_PER_CPU..(c + 1) * TXNS_PER_CPU).collect())
            .collect();
        r.parallel(&txns, |ctx, _cpu, t| {
            let (target, reads) = plans[t as usize];
            // Index traversal: root + interior pages (hot, read-write
            // because splits/statistics occasionally write them).
            for level in 0..3u64 {
                let page = (target + level * 7) % INDEX_PAGES;
                for w in 0..8 {
                    ctx.read(index.at(page * 4096 + ((target + w * 64) % 512) * 8));
                }
                ctx.think(40);
            }
            if t % 64 == 0 {
                // An index update (statistics counter).
                ctx.update(index.at((target % INDEX_PAGES) * 4096));
            }
            // Record accesses.
            for rec in reads {
                ctx.read(table.elem(rec, RECORD));
                ctx.think(30);
            }
            ctx.update(table.elem(target, RECORD));
        });
        r.barrier();
    }
}

fn main() {
    println!("Database workload: hot RW index + scattered record updates\n");
    let ideal = run(
        MachineConfig::paper_base(Protocol::ideal()),
        &mut Database { seed: 42 },
    )
    .cycles() as f64;
    println!(
        "{:10} {:>12} {:>10} {:>10} {:>12}",
        "protocol", "cycles", "vs ideal", "refetches", "relocations"
    );
    for protocol in [
        Protocol::paper_ccnuma(),
        Protocol::paper_scoma(),
        Protocol::paper_rnuma(),
    ] {
        let report = run(
            MachineConfig::paper_base(protocol),
            &mut Database { seed: 42 },
        );
        println!(
            "{:10} {:12} {:9.2}x {:10} {:12}",
            report.protocol,
            report.cycles(),
            report.cycles() as f64 / ideal,
            report.metrics.refetches,
            report.metrics.os.relocations,
        );
    }
    println!(
        "\nThe index pages are read-write shared, so read-only replication\n\
         would not help; R-NUMA relocates them into each node's page cache."
    );
}
