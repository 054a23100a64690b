//! Absolute pins for every [`NebulaRng`] sampling helper.
//!
//! Every seeded stream in the workspace — weight init, gate noise, data
//! synthesis, device sampling, fault fates — is a function of these
//! helpers, so a golden digest three crates up says only "something
//! moved" when one of them shifts by a draw. Each row below is one helper
//! run 64 times from a freshly seeded generator: an FNV-1a digest of the
//! 64 results (floats as `to_bits`) followed by the generator's `state()`
//! after the run, so both the values and the number of raw draws each
//! call consumes are pinned.
//!
//! The constants were computed by the code these pins were first
//! committed against; a change to how the generator is built must leave
//! all of them untouched.

use nebula_tensor::NebulaRng;

const SEEDS: [u64; 3] = [0, 1, 0xDEAD_BEEF];
const DRAWS: usize = 64;

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of `DRAWS` calls of `draw` on a fresh `seed` stream, then of the
/// state the stream is left in.
fn run(seed: u64, mut draw: impl FnMut(&mut NebulaRng, &mut Fnv)) -> u64 {
    let mut rng = NebulaRng::seed(seed);
    let mut h = Fnv::new();
    for _ in 0..DRAWS {
        draw(&mut rng, &mut h);
    }
    for w in rng.state() {
        h.word(w);
    }
    h.0
}

fn words(h: &mut Fnv, values: impl IntoIterator<Item = u64>) {
    for v in values {
        h.word(v);
    }
}

/// One digest per helper, in the order of [`PINNED`]'s columns.
fn helper_digests(seed: u64) -> Vec<(&'static str, u64)> {
    let weights = [0.5f32, 0.0, 2.0, 1.25, 0.25, 3.0];
    vec![
        ("next_u64", run(seed, |r, h| h.word(r.next_u64()))),
        ("uniform_f32(-2, 3)", run(seed, |r, h| h.word(r.uniform_f32(-2.0, 3.0).to_bits() as u64))),
        ("below(7)", run(seed, |r, h| h.word(r.below(7) as u64))),
        ("below(1 << 40)", run(seed, |r, h| h.word(r.below(1 << 40) as u64))),
        ("bernoulli(0.0)", run(seed, |r, h| h.word(r.bernoulli(0.0) as u64))),
        ("bernoulli(0.3)", run(seed, |r, h| h.word(r.bernoulli(0.3) as u64))),
        ("bernoulli(1.0)", run(seed, |r, h| h.word(r.bernoulli(1.0) as u64))),
        ("normal_f32(0.5, 2)", run(seed, |r, h| h.word(r.normal_f32(0.5, 2.0).to_bits() as u64))),
        ("normal_f32(0.5, 0)", run(seed, |r, h| h.word(r.normal_f32(0.5, 0.0).to_bits() as u64))),
        (
            "skip_normal",
            run(seed, |r, h| {
                r.skip_normal();
                h.word(r.next_u64());
            }),
        ),
        ("lognormal_f32(0.1, 0.4)", run(seed, |r, h| h.word(r.lognormal_f32(0.1, 0.4).to_bits() as u64))),
        (
            "shuffle",
            run(seed, |r, h| {
                let mut items: Vec<u64> = (0..17).collect();
                r.shuffle(&mut items);
                words(h, items);
            }),
        ),
        (
            "sample_indices(50, 10)",
            run(seed, |r, h| {
                words(h, r.sample_indices(50, 10).into_iter().map(|i| i as u64));
            }),
        ),
        ("choose", run(seed, |r, h| h.word(*r.choose(&[3u64, 1, 4, 1, 5, 9, 2, 6])))),
        ("weighted_index", run(seed, |r, h| h.word(r.weighted_index(&weights) as u64))),
        (
            "dirichlet(0.5, 8)",
            run(seed, |r, h| {
                words(h, r.dirichlet(0.5, 8).into_iter().map(|p| p.to_bits() as u64));
            }),
        ),
        (
            "dirichlet(2.0, 8)",
            run(seed, |r, h| {
                words(h, r.dirichlet(2.0, 8).into_iter().map(|p| p.to_bits() as u64));
            }),
        ),
        (
            "fork(3)",
            run(seed, |r, h| {
                let mut child = r.fork(3);
                words(h, child.state());
                h.word(child.next_u64());
            }),
        ),
    ]
}

/// `PINNED[s][k]`: helper `k` of [`helper_digests`] from `SEEDS[s]`.
const PINNED: [[u64; 18]; 3] = [
    [
        0x7371_8f19_220b_95d4, // next_u64
        0xcc7d_4153_6340_d08b, // uniform_f32(-2, 3)
        0x895c_8d15_2214_e273, // below(7)
        0xf433_ddbe_30d2_402e, // below(1 << 40)
        0x7d4e_5a31_994f_5962, // bernoulli(0.0)
        0x67eb_915d_ba06_04ef, // bernoulli(0.3)
        0x4516_fc46_76e1_2a5f, // bernoulli(1.0)
        0x902b_d808_452a_b9fb, // normal_f32(0.5, 2)
        0x66aa_e32d_d251_7a5f, // normal_f32(0.5, 0)
        0xbee4_251b_73c6_8d11, // skip_normal
        0xd1fa_1a3b_f0a3_4848, // lognormal_f32(0.1, 0.4)
        0x9d5b_9475_4a59_c971, // shuffle
        0x0678_18c8_6058_3bd8, // sample_indices(50, 10)
        0x0076_1999_a490_75b0, // choose
        0xe2df_123b_96c9_10c6, // weighted_index
        0xa5c3_5036_1cf6_a3b5, // dirichlet(0.5, 8)
        0x1633_c51c_d09f_4883, // dirichlet(2.0, 8)
        0x42f7_0398_9349_adcd, // fork(3)
    ],
    [
        0xfaa1_ee58_b78e_cf1e, // next_u64
        0x455c_9f06_a78c_e81e, // uniform_f32(-2, 3)
        0xf689_a0d0_f0e9_ecd7, // below(7)
        0x16dc_39bc_073d_b4a4, // below(1 << 40)
        0x1b55_5297_ab03_55cb, // bernoulli(0.0)
        0xb76f_2cb0_b25c_6e2b, // bernoulli(0.3)
        0x2419_bbdd_51db_dbf3, // bernoulli(1.0)
        0x526a_6148_71ae_6a4a, // normal_f32(0.5, 2)
        0x45ad_a2c4_ad4c_2bf3, // normal_f32(0.5, 0)
        0xe2c8_48d7_8d01_21d3, // skip_normal
        0xd01d_a022_6b79_0468, // lognormal_f32(0.1, 0.4)
        0xa33a_a2a2_7387_baa0, // shuffle
        0xb93f_8a69_77e5_17f1, // sample_indices(50, 10)
        0xf513_b3a0_db18_dc49, // choose
        0xfcce_34ae_0bb3_dc46, // weighted_index
        0x11c3_4ea1_da18_31c3, // dirichlet(0.5, 8)
        0x6666_08f1_3422_a0de, // dirichlet(2.0, 8)
        0x21b2_a044_fffc_d812, // fork(3)
    ],
    [
        0x0ab7_c12c_6807_8a8d, // next_u64
        0x53dd_1317_e27e_cf04, // uniform_f32(-2, 3)
        0x291f_32f6_c905_413d, // below(7)
        0x670c_2f1d_d05b_d7a1, // below(1 << 40)
        0x7b25_56b0_124b_7321, // bernoulli(0.0)
        0x5a29_923b_3827_be10, // bernoulli(0.3)
        0x31df_a50f_1016_c726, // bernoulli(1.0)
        0x7d71_13fe_c17c_4301, // normal_f32(0.5, 2)
        0x5373_8bf6_6b87_1726, // normal_f32(0.5, 0)
        0xdc21_921f_1bc1_a970, // skip_normal
        0xc35b_2bc9_3720_acf7, // lognormal_f32(0.1, 0.4)
        0x24e0_2599_fac7_1ba0, // shuffle
        0x8e02_2716_97e1_2179, // sample_indices(50, 10)
        0x07e7_09a3_04ae_0348, // choose
        0x1cad_2179_605a_1b76, // weighted_index
        0x6416_165d_f5a9_69f2, // dirichlet(0.5, 8)
        0x3dd7_28ee_1339_c0b4, // dirichlet(2.0, 8)
        0x590e_1042_5b01_76c9, // fork(3)
    ],
];

#[test]
fn every_helper_matches_its_pinned_digest() {
    let got: Vec<Vec<(&str, u64)>> = SEEDS.iter().map(|&s| helper_digests(s)).collect();
    let listing: String = got
        .iter()
        .map(|row| {
            let cells: String =
                row.iter().map(|(name, d)| format!("        {d:#018x}, // {name}\n")).collect();
            format!("    [\n{cells}    ],\n")
        })
        .collect();
    let same = got.iter().zip(&PINNED).all(|(row, want)| row.iter().map(|c| c.1).eq(want.iter().copied()));
    assert!(same, "NebulaRng helper digests moved; computed:\n{listing}");
}

/// The first raw outputs themselves, so a moved digest can be told apart
/// from a moved generator at a glance.
#[test]
fn first_raw_outputs_are_pinned() {
    let got = SEEDS.map(|seed| {
        let mut rng = NebulaRng::seed(seed);
        std::array::from_fn::<u64, 4, _>(|_| rng.next_u64())
    });
    assert_eq!(got, FIRST_RAW, "computed: {got:#018x?}");
}

const FIRST_RAW: [[u64; 4]; 3] = [
    [0x99ec_5f36_cb75_f2b4, 0xbf6e_1f78_4956_452a, 0x1a5f_849d_4933_e6e0, 0x6aa5_94f1_262d_2d2c],
    [0xb3f2_af6d_0fc7_10c5, 0x853b_5596_4736_4cea, 0x92f8_9756_082a_4514, 0x642e_1c7b_c266_a3a7],
    [0xc555_5444_a74d_7e83, 0x65c3_0d37_b4b1_6e38, 0x54f7_7320_0a4e_fa23, 0x429a_ed75_fb95_8af7],
];

#[test]
fn a_certain_bernoulli_consumes_no_draw() {
    for seed in SEEDS {
        let mut rng = NebulaRng::seed(seed);
        let before = rng.state();
        assert!(rng.bernoulli(1.0));
        assert!(rng.bernoulli(7.5), "probabilities clamp to [0, 1]");
        assert_eq!(rng.state(), before, "p >= 1 must not advance the stream");
        // p = 0 is an ordinary draw that cannot succeed.
        assert!(!rng.bernoulli(0.0));
        assert!(!rng.bernoulli(-1.0));
        let mut twice = NebulaRng::seed(seed);
        twice.next_u64();
        twice.next_u64();
        assert_eq!(rng.state(), twice.state(), "p <= 0 consumes one draw per call");
    }
}

#[test]
fn a_degenerate_normal_consumes_no_draw() {
    let mut rng = NebulaRng::seed(1);
    let before = rng.state();
    assert_eq!(rng.normal_f32(0.5, 0.0).to_bits(), 0.5f32.to_bits());
    assert_eq!(rng.normal_f32(0.5, -1.0).to_bits(), 0.5f32.to_bits());
    assert_eq!(rng.state(), before);
}

#[test]
fn skip_normal_is_a_discarded_draw() {
    for seed in SEEDS {
        let mut drawn = NebulaRng::seed(seed);
        let mut skipped = drawn.clone();
        let mut raw = drawn.clone();
        for _ in 0..DRAWS {
            drawn.normal_f32(0.0, 0.3);
            skipped.skip_normal();
            raw.next_u64();
            raw.next_u64();
            assert_eq!(drawn.state(), skipped.state());
            assert_eq!(drawn.state(), raw.state(), "a Gaussian draw is two raw words");
        }
    }
}

#[test]
fn state_round_trips_and_the_fixed_point_is_rejected() {
    assert!(NebulaRng::from_state([0; 4]).is_none());
    for seed in SEEDS {
        let mut rng = NebulaRng::seed(seed);
        rng.normal_f32(0.0, 1.0);
        let mut back = NebulaRng::from_state(rng.state()).expect("a seeded stream is never all-zero");
        assert_eq!(back.state(), rng.state());
        assert_eq!(back.next_u64(), rng.next_u64());
    }
}
