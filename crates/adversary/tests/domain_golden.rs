//! The failure-domain golden record: certificate digests and worst
//! cases of certified `Ladder::run_domain` runs at the default budget,
//! across flat, rack, rack-and-zone and irregular topologies, every
//! `s ≤ r` and `k ∈ {0, 1, 3, units}`. A change that claims to leave
//! every domain decision alone must leave these numbers alone; every
//! run must also return the same outcome and certificate at 1, 2 and 8
//! threads.

use wcp_adversary::{AdversaryConfig, DomainLadderOutcome, DomainWorstCase, Ladder};
use wcp_core::{
    Fnv, Parallelism, Placement, RandomStrategy, RandomVariant, SystemParams, Topology,
};

fn random_placement(n: u16, b: u64, r: u16, seed: u64) -> Placement {
    let params = SystemParams::new(n, b, r, 1, 1).expect("valid shape");
    RandomStrategy::new(seed, RandomVariant::LoadBalanced)
        .place(&params)
        .expect("placement")
}

fn certified(
    p: &Placement,
    topo: &Topology,
    s: u16,
    k: u16,
    threads: usize,
) -> DomainLadderOutcome {
    let config = AdversaryConfig {
        parallelism: Parallelism::new(threads),
        ..AdversaryConfig::default()
    };
    Ladder::new(&config).certified().run_domain(p, topo, s, k)
}

fn fold_worst(h: &mut Fnv, wc: &DomainWorstCase) {
    h.write_u64(wc.failed);
    h.write_u64(u64::from(wc.exact));
    h.write_u64(wc.units.len() as u64);
    for &u in &wc.units {
        h.write_u64(u64::from(u));
    }
    h.write_u64(wc.nodes.len() as u64);
    for &nd in &wc.nodes {
        h.write_u64(u64::from(nd));
    }
}

/// One value per threshold `s = 1..=r`: the FNV fold of every
/// `k ∈ {0, 1, 3, units}` run's certificate digest and worst case. Each
/// run is also repeated at 2 and 8 threads and must match.
fn golden_record(p: &Placement, topo: &Topology) -> Vec<u64> {
    let units = topo.failure_units().len() as u16;
    (1..=p.replicas_per_object())
        .map(|s| {
            let mut h = Fnv::new();
            for k in [0, 1, 3, units] {
                let out = certified(p, topo, s, k, 1);
                let cert = out.certificate.as_ref().expect("certified run");
                h.write_u64(u64::from(k));
                h.write_u64(cert.digest());
                fold_worst(&mut h, &out.worst);
                for threads in [2, 8] {
                    assert_eq!(
                        certified(p, topo, s, k, threads),
                        out,
                        "s={s} k={k} threads={threads}"
                    );
                }
            }
            h.finish()
        })
        .collect()
}

fn irregular(n: u16) -> Topology {
    // A singleton rack (deduplicated against its leaf) and four racks
    // of uneven sizes.
    let groups: Vec<Vec<u16>> = vec![
        vec![0],
        vec![1, 2],
        vec![3, 4, 5],
        (6..11).collect(),
        (11..n).collect(),
    ];
    Topology::from_groups(n, &groups).expect("partition")
}

/// `(topology, b, placement seed)` and the record's values for
/// `s = 1, 2, 3`, at `r = 3`.
type GoldenShape = (Topology, u64, u64, [u64; 3]);

fn assert_golden((topo, b, seed, want): GoldenShape) {
    let p = random_placement(topo.num_nodes(), b, 3, seed);
    let got = golden_record(&p, &topo);
    assert_eq!(
        got,
        want,
        "n={} b={b} levels={}",
        topo.num_nodes(),
        topo.num_levels()
    );
}

#[test]
fn topologies_match_the_golden_record() {
    let rack = Topology::split(71, &[12]).expect("racks");
    let zone = Topology::split(24, &[6, 2]).expect("zones");
    let flat = [
        0xcae4_fc1c_4f08_1a9a,
        0xef02_a724_e59d_19ca,
        0x0482_6875_67b8_74e1,
    ];
    let racks = [
        0x1435_35ee_d244_1f8c,
        0x9b96_95de_d4f5_16d7,
        0x52ce_c274_3b45_2758,
    ];
    let zones = [
        0x0775_b465_e94f_229d,
        0x6085_f064_6b92_4160,
        0xc415_d246_af1d_3b6a,
    ];
    let uneven = [
        0xde76_6145_f72e_4b7f,
        0xc31a_c6e5_365d_05f9,
        0xc027_4b13_6adf_18e8,
    ];
    assert_golden((Topology::flat(71), 1_200, 1, flat));
    assert_golden((rack, 1_200, 2, racks));
    assert_golden((zone, 600, 3, zones));
    assert_golden((irregular(20), 400, 4, uneven));
}

/// Rows spanning many words: `b = 20,000` is 313 words per row.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "b = 20,000 domain ladder; run with --release"
)]
fn wide_rack_topology_matches_the_golden_record() {
    let rack = Topology::split(71, &[12]).expect("racks");
    let want = [
        0x7970_3483_2374_9d6f,
        0xec95_5556_7add_3b04,
        0x0e83_34af_5d0d_c342,
    ];
    assert_golden((rack, 20_000, 5, want));
}
