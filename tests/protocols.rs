//! Cross-crate integration tests of the three protocols' defining
//! behaviors on controlled reference patterns.

use rnuma::config::{MachineConfig, Protocol};
use rnuma::experiment::run;
use rnuma::program::{Runner, Workload};

/// Hot pages re-read by every node, every round.
struct Reuse {
    pages: u64,
    rounds: u64,
}

impl Workload for Reuse {
    fn name(&self) -> &'static str {
        "reuse"
    }
    fn run(&mut self, r: &mut Runner<'_>) {
        let hot = r.alloc(self.pages * 4096);
        r.serial(rnuma_mem::addr::CpuId(0), |ctx| {
            for w in (0..hot.len(8)).step_by(4) {
                ctx.write(hot.word(w));
            }
        });
        r.barrier();
        let rounds: Vec<Vec<u64>> = (0..r.cpus()).map(|_| (0..self.rounds).collect()).collect();
        r.parallel(&rounds, |ctx, _cpu, _| {
            for w in (0..hot.len(8)).step_by(4) {
                ctx.read(hot.word(w));
            }
        });
        r.barrier();
    }
}

/// Every round, each CPU writes its buffer and reads its neighbor's.
struct Communicate {
    rounds: u64,
}

impl Workload for Communicate {
    fn name(&self) -> &'static str {
        "communicate"
    }
    fn run(&mut self, r: &mut Runner<'_>) {
        let cpus = u64::from(r.cpus());
        let buf = r.alloc(cpus * 4096);
        let one_each: Vec<Vec<u64>> = (0..cpus).map(|c| vec![c]).collect();
        r.parallel(&one_each, |ctx, _cpu, c| {
            for w in 0..512 {
                ctx.write(buf.word(c * 512 + w));
            }
        });
        r.barrier();
        for _ in 0..self.rounds {
            r.parallel(&one_each, |ctx, _cpu, c| {
                let other = (c + 4) % cpus; // a CPU on another node
                for w in (0..512).step_by(4) {
                    ctx.read(buf.word(other * 512 + w));
                }
                for w in (0..512).step_by(4) {
                    ctx.write(buf.word(c * 512 + w));
                }
            });
            r.barrier();
        }
    }
}

fn cycles(protocol: Protocol, w: &mut dyn Workload) -> u64 {
    run(MachineConfig::paper_base(protocol), w).cycles()
}

#[test]
fn ideal_lower_bounds_every_protocol() {
    for make in [
        || {
            Box::new(Reuse {
                pages: 30,
                rounds: 4,
            }) as Box<dyn Workload>
        },
        || Box::new(Communicate { rounds: 4 }) as Box<dyn Workload>,
    ] {
        let ideal = cycles(Protocol::ideal(), &mut *make());
        for protocol in [
            Protocol::paper_ccnuma(),
            Protocol::paper_scoma(),
            Protocol::paper_rnuma(),
        ] {
            let t = cycles(protocol, &mut *make());
            assert!(
                t as f64 >= ideal as f64 * 0.999,
                "{protocol} beat the ideal machine: {t} vs {ideal}"
            );
        }
    }
}

#[test]
fn scoma_beats_ccnuma_on_pure_reuse() {
    // 30 hot pages >> the node cache hierarchy but << the page cache:
    // after cold misses, S-COMA serves everything locally.
    let mut a = Reuse {
        pages: 30,
        rounds: 6,
    };
    let cc = cycles(Protocol::paper_ccnuma(), &mut a);
    let mut b = Reuse {
        pages: 30,
        rounds: 6,
    };
    let sc = cycles(Protocol::paper_scoma(), &mut b);
    assert!(sc < cc, "S-COMA {sc} should beat CC-NUMA {cc} on reuse");
}

#[test]
fn ccnuma_beats_scoma_on_pure_communication() {
    let cc = cycles(Protocol::paper_ccnuma(), &mut Communicate { rounds: 6 });
    let sc = cycles(Protocol::paper_scoma(), &mut Communicate { rounds: 6 });
    assert!(
        cc < sc,
        "CC-NUMA {cc} should beat S-COMA {sc} on communication"
    );
}

#[test]
fn rnuma_tracks_the_winner_on_both_extremes() {
    // Reuse: R-NUMA must approach S-COMA.
    let sc = cycles(
        Protocol::paper_scoma(),
        &mut Reuse {
            pages: 30,
            rounds: 6,
        },
    );
    let rn = cycles(
        Protocol::paper_rnuma(),
        &mut Reuse {
            pages: 30,
            rounds: 6,
        },
    );
    let cc = cycles(
        Protocol::paper_ccnuma(),
        &mut Reuse {
            pages: 30,
            rounds: 6,
        },
    );
    assert!(rn < cc, "reactive machine must beat CC-NUMA on reuse");
    assert!(
        (rn as f64) < sc as f64 * 3.0,
        "R-NUMA {rn} must stay within the bound of S-COMA {sc}"
    );

    // Communication: R-NUMA must approach CC-NUMA.
    let cc = cycles(Protocol::paper_ccnuma(), &mut Communicate { rounds: 6 });
    let sc = cycles(Protocol::paper_scoma(), &mut Communicate { rounds: 6 });
    let rn = cycles(Protocol::paper_rnuma(), &mut Communicate { rounds: 6 });
    assert!(
        rn < sc,
        "reactive machine must beat S-COMA on communication"
    );
    assert!(
        (rn as f64) < cc as f64 * 3.0,
        "R-NUMA {rn} must stay within the bound of CC-NUMA {cc}"
    );
}

#[test]
fn reuse_triggers_relocations_but_communication_does_not() {
    let reuse = run(
        MachineConfig::paper_base(Protocol::paper_rnuma()),
        &mut Reuse {
            pages: 30,
            rounds: 6,
        },
    );
    assert!(reuse.metrics.os.relocations > 0);

    let comm = run(
        MachineConfig::paper_base(Protocol::paper_rnuma()),
        &mut Communicate { rounds: 6 },
    );
    assert_eq!(
        comm.metrics.os.relocations, 0,
        "coherence misses must not trip the refetch counters"
    );
}

#[test]
fn remote_traffic_is_visible_in_the_network() {
    let report = run(
        MachineConfig::paper_base(Protocol::paper_ccnuma()),
        &mut Communicate { rounds: 2 },
    );
    assert!(report.metrics.net_messages > 0);
    assert!(report.metrics.remote_fetches > 0);
    // Request + reply at minimum.
    assert!(report.metrics.net_messages >= 2 * report.metrics.remote_fetches);
}
