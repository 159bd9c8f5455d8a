//! Golden decision record of the dynamic engine's write path.
//!
//! Engines replay a seeded churn trace under the certified
//! `ScratchAdversary`, and after every event the test folds the whole
//! `StepReport` (event, action, membership, movement, both
//! availabilities, both exactness flags, the oracle's lower bound), the
//! adopted certificate's digest and the digest of the live placement
//! into one FNV-1a value. A change that claims to change no decision —
//! how the replan oracle is planned, cached or widened, how repair
//! scans the table — must leave every one of these values alone.
//!
//! * `Random` on a one-node band (the end-to-end benchmark's walk,
//!   which revisits three membership sizes) and on a wide walk (the
//!   default floor, so sizes come and go);
//! * `Combo` at `n = 13`, whose planner falls back to load-balanced
//!   `Random` at the sizes it cannot construct;
//! * `DomainSpread` on a four-rack split with `threshold = -1`, so every
//!   event adopts the oracle and the placement digests show how the
//!   oracle was planned against the projected topology;
//! * in release builds only, `Random` on the band walk at the end-to-end
//!   benchmark's `b = 10⁵` over 75 slots for 20 events, the one record
//!   whose exact searches restore the DFS's path tables by copy.

use worst_case_placement::core::{placement_digest, Certificate, Fnv};
use worst_case_placement::prelude::*;

/// Objects per engine: small enough that the debug test leg replays all
/// four traces in seconds, large enough that repair moves hundreds of
/// replicas per event. The topology engine holds a fifth of it, because
/// topology-aware repair ranks every eligible row per moved replica.
const B: u64 = 3_000;

/// Events per trace.
const EVENTS: usize = 40;

/// Objects of the release-only record at the end-to-end benchmark's
/// scale.
const BENCH_B: u64 = 100_000;

/// Events of the release-only record.
const BENCH_EVENTS: usize = 20;

/// One event's decision record, folded.
fn step_digest(step: &StepReport, placement: &Placement) -> u64 {
    let mut h = Fnv::new();
    h.write_bytes(step.event.label().as_bytes());
    h.write_u64(u64::from(step.event.node()));
    h.write_bytes(step.action.label().as_bytes());
    h.write_u64(u64::from(step.active));
    h.write_u64(step.moved);
    h.write_u64(step.replan_moved);
    h.write_u64(step.availability);
    h.write_u64(step.oracle_availability);
    h.write_u64(u64::from(step.exact));
    h.write_u64(u64::from(step.oracle_exact));
    h.write_u64(step.lower_bound as u64);
    h.write_u64(step.certificate.as_ref().map_or(0, Certificate::digest));
    h.write_u64(placement_digest(placement));
    h.finish()
}

/// Replays `trace` and returns every event's record, checking that each
/// step leaves a valid engine.
fn record(mut engine: DynamicEngine<ScratchAdversary>, trace: &ChurnTrace) -> Recorded {
    let steps = trace
        .events
        .iter()
        .map(|event| {
            let step = engine.apply(event.into()).expect("legal trace event");
            engine.validate().expect("valid after every event");
            (step.action, step_digest(&step, engine.placement()))
        })
        .collect();
    Recorded {
        steps,
        movement: *engine.movement(),
    }
}

/// One replay: each event's action and folded record, and the
/// engine's movement totals.
struct Recorded {
    steps: Vec<(RepairAction, u64)>,
    movement: MovementReport,
}

/// `(repairs, replans, moved, replan_moved)` after the whole trace.
type Totals = (u64, u64, u64, u64);

impl Recorded {
    /// Asserts the movement totals and every event's record against
    /// the golden pair, naming the first event that diverges.
    fn check<const N: usize>(&self, name: &str, (totals, golden): (Totals, [u64; N])) {
        let digests: Vec<u64> = self.steps.iter().map(|&(_, d)| d).collect();
        let m = &self.movement;
        assert_eq!(m.events, N as u64, "{name}");
        assert_eq!(
            (m.repairs, m.replans, m.moved, m.replan_moved),
            totals,
            "{name}: movement totals"
        );
        if let Some(i) = (0..N).find(|&i| digests.get(i) != golden.get(i)) {
            let listed: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
            panic!(
                "{name}: event {i} diverges from the golden record; this run recorded [{}]",
                listed.join(", ")
            );
        }
    }
}

/// A `b`-object engine with `n` of `capacity` slots up (r = 3, s = 2,
/// k = 3) under the certified scratch adversary.
fn engine(
    n: u16,
    b: u64,
    kind: StrategyKind,
    capacity: u16,
    threshold: f64,
) -> DynamicEngine<ScratchAdversary> {
    let params = SystemParams::new(n, b, 3, 2, 3).expect("valid shape");
    let config = DynamicConfig { threshold };
    let attacker = ScratchAdversary::new(AdversaryConfig::default());
    DynamicEngine::with_attacker(params, kind, capacity, config, attacker).expect("initial plan")
}

/// The load-balanced `Random` kind the end-to-end benchmark serves.
fn random() -> StrategyKind {
    StrategyKind::Random {
        seed: 0x5eed,
        variant: RandomVariant::LoadBalanced,
    }
}

#[test]
fn random_on_a_one_node_band_matches_the_golden_record() {
    let trace = ChurnSpec {
        min_active: 70,
        ..ChurnSpec::new("golden-band", 72, 71, EVENTS)
    }
    .generate();
    let recorded = record(engine(71, B, random(), 72, 0.02), &trace);
    recorded.check("random band", BAND);
}

/// The band trace at the end-to-end benchmark's scale: `b = 10⁵` over
/// 75 slots, where the exact DFS's root pops restore the path tables
/// from their kept copy instead of shifting them back.
#[test]
#[cfg_attr(debug_assertions, ignore = "b = 10⁵; run with --release")]
fn random_on_a_one_node_band_at_bench_scale_matches_the_golden_record() {
    let trace = ChurnSpec {
        min_active: 70,
        ..ChurnSpec::new("golden-band", 72, 71, BENCH_EVENTS)
    }
    .generate();
    let recorded = record(engine(71, BENCH_B, random(), 75, 0.02), &trace);
    recorded.check("random band at b = 10⁵", BENCH_BAND);
}

#[test]
fn random_on_a_wide_walk_matches_the_golden_record() {
    let trace = ChurnSpec::new("golden-wide", 80, 71, EVENTS).generate();
    let recorded = record(engine(71, B, random(), 80, 0.02), &trace);
    recorded.check("random wide", WIDE);
}

#[test]
fn combo_with_planner_fallback_matches_the_golden_record() {
    let trace = ChurnSpec::new("golden-combo", 16, 13, EVENTS).generate();
    let recorded = record(engine(13, B, StrategyKind::Combo, 16, 0.02), &trace);
    recorded.check("combo", COMBO);
}

#[test]
fn domain_spread_oracles_match_the_golden_record() {
    let topology = Topology::split(16, &[4]).expect("four racks of four");
    let trace = ChurnSpec::new("golden-domains", 16, 13, EVENTS).generate();
    let engine = engine(13, B / 5, StrategyKind::DomainSpread, 16, -1.0)
        .with_topology(topology)
        .expect("topology spans the slots");
    let recorded = record(engine, &trace);
    assert!(
        recorded
            .steps
            .iter()
            .all(|&(action, _)| action == RepairAction::Replanned),
        "a negative threshold adopts every oracle"
    );
    recorded.check("domain spread", DOMAINS);
}

/// `random band`: movement totals and the per-event records.
const BAND: (Totals, [u64; EVENTS]) = (
    (30, 10, 42_867, 233_837),
    [
        0x707f_0ceb_7d72_0d51,
        0x2ca4_5cd4_fedd_9b56,
        0x1e62_f6af_5772_a317,
        0x5e2f_6103_ed12_5336,
        0xa116_a52a_bc00_ce90,
        0x77f7_91c6_9b96_23bc,
        0x55d9_6ff0_e9b8_031a,
        0x37c3_3f97_5bdd_e131,
        0x0891_65f6_acd0_3ac2,
        0xe8eb_acce_427c_3525,
        0x085b_03c6_3b8d_b029,
        0x0f0c_631a_2002_3bd8,
        0x769c_9cc1_ce7a_0713,
        0x6496_ed00_6f48_0c56,
        0xedc2_7ee6_e9dd_b9d9,
        0xf85b_be0d_219d_c5a5,
        0x9b3e_d1da_7f1f_5cf0,
        0x305a_5d7f_b506_ac45,
        0x01dc_775f_6205_b8f7,
        0xd7ce_2579_e267_628e,
        0xad11_5dc9_15f7_4c7f,
        0xf8c8_9f2f_f2b1_1737,
        0x8cfb_e715_cb28_f819,
        0xcf45_7798_4458_eb08,
        0x09c9_df28_697f_aca4,
        0x930d_e2de_cbb1_5ad4,
        0x6e6a_9ae5_9c9b_5dd6,
        0x707d_3c9a_2618_1ef9,
        0x0908_7ef6_ba21_6a71,
        0x8ee9_1772_133e_79f4,
        0xce2e_300c_9acf_08cb,
        0x7ecd_92d1_7416_2671,
        0xe112_8694_d2de_95ec,
        0x031a_3fdd_abd3_0a09,
        0x6490_57ed_9cfe_4cff,
        0xd7ba_9dcc_09cc_840c,
        0x42fb_9852_ce23_136a,
        0xf6b2_e06a_40b0_8ef4,
        0xc477_94d0_7ec1_0a2d,
        0xf7ce_0655_29d7_46eb,
    ],
);

/// `random band at b = 10⁵`: movement totals and the per-event records.
const BENCH_BAND: (Totals, [u64; BENCH_EVENTS]) = (
    (15, 5, 960_342, 4_035_110),
    [
        0x1f79_04c9_49d6_9e06,
        0x85ea_b8a4_bd99_bd38,
        0x4e94_0252_f664_47e2,
        0xd873_9a66_2a13_f37b,
        0x23e1_b08b_cf18_606c,
        0x45d6_a976_764d_d4e0,
        0x7c81_9b3a_42f3_fc89,
        0xce20_2090_7e1e_bd46,
        0x530b_c8f1_1342_53e8,
        0xe5c0_a0d8_9f6d_26c7,
        0x0144_6406_81c1_a792,
        0x1c1b_ef98_d7cd_8152,
        0x28e9_a1aa_8ae0_7428,
        0x9500_4fc1_faf3_de07,
        0x8e6a_6137_1a4b_4f10,
        0x2549_cce7_d903_9288,
        0x2653_19da_f6b6_4c26,
        0x6cc3_7f6c_4eb3_cd7e,
        0xd9ef_7a9e_1fa6_71fb,
        0x34c7_3407_8e7d_2365,
    ],
);

/// `random wide`: movement totals and the per-event records.
const WIDE: (Totals, [u64; EVENTS]) = (
    (31, 9, 79_033, 336_794),
    [
        0x1f36_890f_639d_3387,
        0x9d00_e5ef_3e5f_c48d,
        0x444e_a099_423c_bbbf,
        0x80a3_9ad6_6028_65bc,
        0x6a91_5eaf_4cf3_887b,
        0xc46d_ede9_1883_88fe,
        0x28b4_98ff_afb5_8b72,
        0x05c4_27d9_f6c7_2e2c,
        0x7bf7_1496_6bf3_fde2,
        0x5f86_3675_5eca_d225,
        0x04d7_a12c_9c15_3485,
        0x8c89_57b0_0864_2bb8,
        0x1006_05a4_3c59_5294,
        0x628f_c981_6430_d360,
        0xa1d6_f88f_ec66_ad0a,
        0xd7c2_a4c5_fd76_fcd9,
        0xebce_59c9_8e8c_9783,
        0x157e_94ac_09cd_862b,
        0x4756_bb42_6bbe_3c18,
        0x5066_1d54_6161_65aa,
        0x2652_05dc_48e4_4b33,
        0x66ba_f097_07d9_6013,
        0xc437_44d3_679a_8e5a,
        0x48e6_a94c_f887_1a91,
        0x34b4_7112_25b9_c96c,
        0x6eb3_4ceb_c87c_2a1f,
        0x9da5_5f09_36e6_69d4,
        0xd163_1cc1_dfe8_e0fb,
        0x5b4f_4ff0_0d89_e1a6,
        0x5c18_6ad7_2afa_ae45,
        0x4ac1_7538_0186_eb93,
        0xf72b_cf8a_9a30_c3b0,
        0xe3ee_282c_e3b0_92d1,
        0x482c_4e66_dc10_1469,
        0x4ef3_31f1_6388_aa8d,
        0x363c_8da1_4d71_ae47,
        0xd950_8273_2f34_b8f6,
        0xe53c_4c69_01d3_f551,
        0x6d94_7e3e_1817_bada,
        0x4a9a_e952_f22c_b137,
    ],
);

/// `combo`: movement totals and the per-event records.
const COMBO: (Totals, [u64; EVENTS]) = (
    (28, 12, 83_435, 209_733),
    [
        0x276a_74ea_6c54_4acf,
        0x597a_96c4_8f56_d93e,
        0x59ca_8217_c29b_a7ba,
        0x1400_7f35_2123_fdcd,
        0x3a9d_09c3_6c2a_1a10,
        0x1f0f_af5c_d42e_666c,
        0xcde3_141e_b31b_d059,
        0xa575_3f39_e953_01e9,
        0x0825_7b27_9ed3_20cb,
        0x72fe_1fcb_23b8_21ce,
        0xc8f6_9bcc_cf4e_9b2b,
        0xba05_064d_7122_700c,
        0xbe05_75f9_0328_5fb7,
        0xf3ed_8955_cbaf_b119,
        0x5a5b_d8b6_73e5_2e10,
        0x276f_f25d_53db_1b26,
        0xd750_78bb_e007_c2ac,
        0x4b3f_acdc_1637_4c3c,
        0x6b1e_4b0e_430a_1c51,
        0x18cf_d024_33a1_3905,
        0x7c06_cbdd_d510_4f09,
        0x6940_1dc7_6015_39f6,
        0xa03e_0238_3b7f_f8ee,
        0xb6de_2875_b7db_03e7,
        0xa8c6_7cb8_9c73_6884,
        0x9e43_5d53_1ec2_7648,
        0x79e0_cb0e_470b_cdf9,
        0xe401_977a_f296_73e2,
        0xefdb_4b7c_8138_ce77,
        0x4ddd_c6b5_ba94_acfc,
        0xfcc1_88a9_e8ba_8626,
        0xa091_af9e_c9fc_4bff,
        0x5fd4_ab52_cd33_35d3,
        0xdc75_ad1a_dbd5_ecc0,
        0xb7e0_77f3_f3c2_7836,
        0xa66f_842c_55c5_5de6,
        0x6e1f_8837_8c3f_be85,
        0x6ab7_6cc8_fa47_6be4,
        0xe8b0_0c2e_6cbb_a599,
        0x575d_1a86_ca94_dc9b,
    ],
);

/// `domain spread`: movement totals and the per-event records.
const DOMAINS: (Totals, [u64; EVENTS]) = (
    (0, 40, 33_637, 33_637),
    [
        0x8c5d_f600_ff50_c509,
        0x4870_7a20_3e37_399d,
        0x9ca6_75de_1be4_8ca0,
        0xc9b7_42e7_2c91_5a6d,
        0x059f_ea53_aac4_c915,
        0xd34d_21fb_54f2_9958,
        0xa950_a041_48ea_6685,
        0xf006_7f54_0e81_c4e8,
        0x056f_6cee_b5f4_f753,
        0x0150_827c_4433_eabd,
        0x97d0_ac3c_ddde_ef9f,
        0xa865_11a2_6ef7_7e09,
        0x0bcf_750f_4f0d_74af,
        0xbd7a_d6e9_676e_124c,
        0xaf98_a44b_f6d0_5aee,
        0xda52_57a9_0309_c18f,
        0x6192_d000_339f_a753,
        0x5c1d_b966_8e99_312f,
        0x8522_712c_48f6_ce6c,
        0x3435_de30_12ec_86fe,
        0xebd1_e9b2_b90f_6cd2,
        0x3fd9_671e_21c5_a717,
        0x7395_0d9b_db67_36a6,
        0x02d7_c914_8f75_ff6b,
        0x08cd_a5c1_dcfb_5c12,
        0xa69d_0ef1_d19c_9990,
        0x7275_5d94_166e_5036,
        0x7699_5c91_cfde_0b1b,
        0x3e74_3d9a_7cff_35e5,
        0xa494_3b9c_4f60_3276,
        0x380b_9a0c_ac9f_6e27,
        0xf001_8ee6_240a_3faf,
        0x7417_5eb4_ca57_51c9,
        0x7e4c_a916_75af_3413,
        0x957e_b16c_a459_1572,
        0x9cc8_5bbe_b866_a089,
        0xc34e_0f5e_235e_e067,
        0xe7d4_8659_5778_915a,
        0x73b0_1177_4de4_cc54,
        0xff2e_afb4_f273_579a,
    ],
);
