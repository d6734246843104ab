//! The paper's central guarantee (Section 3.2): R-NUMA's worst-case
//! per-page overhead is within `2 + Crel/Call` of the better of
//! CC-NUMA and S-COMA, for *any* reference pattern. These tests throw
//! adversarial streams at the machines and check the bound end to end,
//! and property-test the closed-form model.

use proptest::prelude::*;
use rnuma::config::{MachineConfig, Protocol};
use rnuma::experiment::run;
use rnuma::model::ModelParams;
use rnuma::program::{Runner, Workload};
use rnuma_os::CostModel;

/// The model's adversary: fetch a page's blocks exactly `touches` times
/// per episode, then move on — tuned so pages relocate and are then
/// abandoned (R-NUMA's worst case, Section 3.2).
struct Adversary {
    pages: u64,
    touches_per_page: u64,
    episodes: u64,
}

impl Workload for Adversary {
    fn name(&self) -> &'static str {
        "adversary"
    }
    fn run(&mut self, r: &mut Runner<'_>) {
        let data = r.alloc(self.pages * 4096);
        r.serial(rnuma_mem::addr::CpuId(0), |ctx| {
            for p in 0..self.pages {
                ctx.write(data.at(p * 4096));
            }
        });
        r.barrier();
        let episodes: Vec<Vec<u64>> = (0..r.cpus())
            .map(|c| {
                if c == 4 {
                    (0..self.episodes).collect()
                } else {
                    vec![]
                }
            })
            .collect();
        r.parallel(&episodes, |ctx, _cpu, e| {
            // Walk every page, touching two conflicting blocks
            // alternately to force refetches from the tiny block cache.
            for p in 0..self.pages {
                for t in 0..self.touches_per_page {
                    let block = (t % 2) * 4 * 32;
                    ctx.read(data.at(p * 4096 + block + (e % 2) * 32 * 2));
                }
            }
        });
        r.barrier();
    }
}

fn exec(protocol: Protocol, w: &mut Adversary) -> f64 {
    run(MachineConfig::paper_base(protocol), w).cycles() as f64
}

#[test]
fn adversarial_streams_respect_the_bound() {
    // Sweep adversaries from communication-like (few touches) to
    // reuse-like (many touches); the bound must hold throughout.
    let bound = ModelParams::from_costs(&CostModel::base()).worst_case_bound();
    for touches in [2u64, 16, 64, 150, 400] {
        let make = || Adversary {
            pages: 60,
            touches_per_page: touches,
            episodes: 4,
        };
        let cc = exec(Protocol::paper_ccnuma(), &mut make());
        let sc = exec(Protocol::paper_scoma(), &mut make());
        let rn = exec(Protocol::paper_rnuma(), &mut make());
        let best = cc.min(sc);
        assert!(
            rn <= best * bound,
            "touches={touches}: R-NUMA {rn:.0} vs best {best:.0} exceeds bound {bound:.2}"
        );
    }
}

#[test]
fn thrashing_page_cache_respects_the_bound() {
    // More hot pages than page-cache frames: the relocate-evict-repeat
    // pattern is the literal worst case of EQ 1/EQ 2.
    let make = || Adversary {
        pages: 120, // > 80 frames
        touches_per_page: 80,
        episodes: 4,
    };
    let bound = ModelParams::from_costs(&CostModel::base()).worst_case_bound();
    let cc = exec(Protocol::paper_ccnuma(), &mut make());
    let sc = exec(Protocol::paper_scoma(), &mut make());
    let rn = exec(Protocol::paper_rnuma(), &mut make());
    assert!(
        rn <= cc.min(sc) * bound,
        "thrash case exceeds the bound: rn={rn:.0} cc={cc:.0} sc={sc:.0}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// EQ 3 is the intersection and the minimum of max(EQ1, EQ2).
    #[test]
    fn model_bound_is_tight_at_optimal_threshold(
        cref in 10.0f64..2000.0,
        call in 100.0f64..50_000.0,
        crel_ratio in 0.01f64..1.5,
    ) {
        let p = ModelParams::new(cref, call, call * crel_ratio);
        let t_star = p.optimal_threshold();
        let at_star = p.worst_case_at(t_star);
        prop_assert!((at_star - p.worst_case_bound()).abs() < 1e-9);
        for factor in [0.25, 0.5, 2.0, 4.0] {
            prop_assert!(p.worst_case_at(t_star * factor) >= at_star - 1e-9);
        }
    }

    /// The bound lives in (2, 3] whenever relocation is no costlier
    /// than allocation (the paper's "2 to 3 times" statement).
    #[test]
    fn bound_is_two_to_three(
        cref in 10.0f64..2000.0,
        call in 100.0f64..50_000.0,
        crel_ratio in 0.0001f64..1.0,
    ) {
        let p = ModelParams::new(cref, call, call * crel_ratio);
        let bound = p.worst_case_bound();
        prop_assert!(bound > 2.0 && bound <= 3.0, "bound {bound}");
    }

    /// EQ1 monotonically improves (decreases) and EQ2 worsens
    /// (increases) as the threshold grows.
    #[test]
    fn eq_monotonicity(
        cref in 10.0f64..2000.0,
        call in 100.0f64..50_000.0,
        t in 1.0f64..10_000.0,
    ) {
        let p = ModelParams::new(cref, call, call);
        prop_assert!(p.rnuma_vs_ccnuma(t) > p.rnuma_vs_ccnuma(t * 2.0));
        prop_assert!(p.rnuma_vs_scoma(t) < p.rnuma_vs_scoma(t * 2.0));
    }
}
